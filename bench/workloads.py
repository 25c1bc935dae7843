"""The four workloads: their inputs, one round of timed operations, checks.

Each workload is a closed loop with one caller.  A round is one pass
over the workload's fixed inputs, so every round attempts the same
operations.  Program calls go through the miqueldyn modules' attributes,
so a Tracer that rebinds them sees the calls; the checks run outside
the timed regions.
"""

import json
import os
from contextlib import contextmanager

from miqueldyn import circle_pattern, cli, dimer, jsonio, lattice
from miqueldyn.errors import MiquelDynError

import checks
import oracles
import speed

SPREAD = 0.5


class OpFailed(Exception):
    """A command reported failure through its exit code."""


class Op:
    faces = 0
    failed = False


class Clock:
    """Times operations and counts faces, attempts and failures.

    busy_s adds up the operations' wall time and reference_s the same in
    reference seconds (speed.py); samples holds the reference time of
    each completed operation and loops the calibration loop's times.  An
    operation that raises MiquelDynError or OpFailed counts as attempted
    and failed; its time counts as busy time but is not a latency
    sample.  With a tracer, tracing is on during operations only.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = []
        self.wall_samples = []
        self.loops = []
        self.busy_s = 0.0
        self.reference_s = 0.0
        self.faces = 0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.failures = {}  # error type -> [count, first message]

    @contextmanager
    def op(self):
        rec = Op()
        self.attempted += 1
        with speed.Stopwatch() as watch:
            if self.tracer:
                self.tracer.enabled = True
            try:
                yield rec
            except (MiquelDynError, OpFailed) as err:
                rec.failed = True
                self.failed += 1
                entry = self.failures.setdefault(type(err).__name__, [0, str(err)])
                entry[0] += 1
            finally:
                if self.tracer:
                    self.tracer.enabled = False
        self.busy_s += watch.wall_s
        self.reference_s += watch.reference_s
        self.loops.append(watch.loop_s)
        if not rec.failed:
            self.samples.append(watch.reference_s)
            self.wall_samples.append(watch.wall_s)
            self.faces += rec.faces


def make_input(rows, cols, seed, path):
    """Generate, validate and write one Kasteleyn torus pattern."""
    p = lattice.generate_kasteleyn_cauchy_data(rows, cols, seed=seed, spread=SPREAD)
    state = lattice.make_torus_state(p, rows, cols)
    blob = jsonio.pattern_to_json(p)
    jsonio.write_json_atomic(path, blob)
    return state, blob


def _read(path):
    with open(path) as handle:
        return handle.read()


class Dynamics:
    """Parity sweeps of miquel_dynamics_step, each written as a step file.

    The trajectories start from fixed seeds so that the sweeps that fail
    today fail at the same place in every run; --seed only sets the
    order the trajectories run in.  A trajectory ends at its first
    failed sweep or after MAX_SWEEPS sweeps.
    """

    SIZE = 16
    SEEDS = (0, 1, 2, 3)
    MAX_SWEEPS = 6

    def __init__(self, seed, work_dir):
        k = seed % len(self.SEEDS)
        self.seeds = self.SEEDS[k:] + self.SEEDS[:k]
        self.work_dir = work_dir
        self._expected = {}

    def setup(self):
        n = self.SIZE
        self.starts = []
        for s in self.seeds:
            out = os.path.join(self.work_dir, "seed%d" % s)
            os.makedirs(out, exist_ok=True)
            state, blob = make_input(n, n, s, os.path.join(out, "pattern_000.json"))
            self.starts.append((s, state, blob, out))

    def round(self, clock):
        n = self.SIZE
        for s, state, blob, out in self.starts:
            expected = self._trajectory(s, state.step_parity, blob)
            for step in range(1, self.MAX_SWEEPS + 1):
                path = os.path.join(out, "pattern_%03d.json" % step)
                with clock.op() as op:
                    state = lattice.miquel_dynamics_step(state)
                    jsonio.write_json_atomic(path, jsonio.pattern_to_json(state.pattern))
                    op.faces = n * n // 2
                if op.failed:
                    break
                checks.check_sweep(json.loads(_read(path)), expected[step], n, n)

    def _trajectory(self, s, parity, blob):
        if s not in self._expected:
            centres, _, periods = checks.pattern_arrays(blob, self.SIZE, self.SIZE)
            self._expected[s] = oracles.centre_trajectory(centres, periods, parity,
                                                          self.MAX_SWEEPS)
        return self._expected[s]


class Inspect:
    """validate, star-ratios --json and export-svg through cli.run_command,
    then propagate_from_centers, on one pattern file per operation."""

    SIZE = 16
    FILES = 4

    def __init__(self, seed, work_dir):
        self.seeds = [seed * self.FILES + k for k in range(self.FILES)]
        self.work_dir = work_dir

    def setup(self):
        n = self.SIZE
        self.inputs = []
        for s in self.seeds:
            path = os.path.join(self.work_dir, "pattern_seed%d.json" % s)
            _, blob = make_input(n, n, s, path)
            self.inputs.append((path, blob))

    def round(self, clock):
        n = self.SIZE
        for path, blob in self.inputs:
            svg = path[:-len(".json")] + ".svg"
            with clock.op() as op:
                validated = cli.run_command(["validate", path, "--json"])
                ratios = cli.run_command(["star-ratios", path, "--json"])
                drawn = cli.run_command(["export-svg", path, "--out", svg, "--json"])
                p = jsonio.pattern_from_json(jsonio.read_json(path))
                rebuilt = circle_pattern.propagate_from_centers(
                    p.centers_drawing(), 0, p.vertex_points[0])
                for result in (validated, ratios, drawn):
                    if result.exit_code:
                        raise OpFailed(result.report)
                op.faces = n * n
            if op.failed:
                continue
            checks.check_inspect(blob, n, n, validated.report, ratios.report,
                                 _read(svg), rebuilt.vertex_points)


class Renewal:
    """check-urban-renewal through cli.run_command at every face of the
    largest grid tori that brute-force enumeration admits after the move."""

    SHAPES = ((2, 10), (10, 2))

    def __init__(self, seed, work_dir):
        self.seeds = [seed * len(self.SHAPES) + k for k in range(len(self.SHAPES))]
        self.work_dir = work_dir
        self._expected = {}

    def setup(self):
        self.inputs = []
        for (rows, cols), s in zip(self.SHAPES, self.seeds):
            path = os.path.join(self.work_dir, "pattern_%dx%d_seed%d.json" % (rows, cols, s))
            _, blob = make_input(rows, cols, s, path)
            self.inputs.append((rows, cols, path, blob))

    def round(self, clock):
        for rows, cols, path, blob in self.inputs:
            for face in range(rows * cols):
                with clock.op() as op:
                    result = cli.run_command(["check-urban-renewal", path,
                                              "--face", str(face), "--json"])
                    if result.exit_code:
                        raise OpFailed(result.report)
                    op.faces = 1
                if op.failed:
                    continue
                z_before, z_after = self._permanents(path, rows, cols, blob, face)
                checks.check_renewal(result.report, face, z_before, z_after)

    def _permanents(self, path, rows, cols, blob, face):
        """Permanents before and after the move, computed once per run."""
        key = (path, face)
        if key not in self._expected:
            centres, _, periods = checks.pattern_arrays(blob, rows, cols)
            graph = blob["graph"]
            before = ({e["id"]: (e["minus"], e["plus"]) for e in graph["edges"]},
                      oracles.grid_edge_weights(centres, periods),
                      {f["id"]: [(eid, d == 1) for eid, d in f["edge_cycle"]]
                       for f in graph["faces"]})
            moved = circle_pattern.miquel_move(jsonio.pattern_from_json(blob), face)
            after = ({eid: (e.minus, e.plus) for eid, e in moved.graph.edges.items()},
                     dimer.weights_from_pattern(moved),
                     {fid: list(walk) for fid, walk in moved.graph.faces.items()})
            self._expected[key] = checks.renewal_expectation(before, after, face)
        return self._expected[key]


class Octahedral:
    """patch_from_pattern, LEVELS levels of propagate_octahedral, and
    transversal_star_ratios at the top level, per torus pattern."""

    SIZE = 16
    PAD = 16
    LEVELS = 20
    PATTERNS = 2

    def __init__(self, seed, work_dir):
        self.seeds = [seed * self.PATTERNS + k for k in range(self.PATTERNS)]
        self.work_dir = work_dir
        self._expected = {}

    def setup(self):
        n = self.SIZE
        self.inputs = []
        for s in self.seeds:
            path = os.path.join(self.work_dir, "pattern_seed%d.json" % s)
            self.inputs.append((s,) + make_input(n, n, s, path))

    def round(self, clock):
        for s, state, blob in self.inputs:
            with clock.op() as op:
                patch = lattice.patch_from_pattern(state, pad=self.PAD)
                top_level = patch.window[2][1] + self.LEVELS
                top = lattice.propagate_octahedral(patch, top_level)
                ratios = lattice.transversal_star_ratios(top, top_level)
                op.faces = len(top.values) - len(patch.values)
            if op.failed:
                continue
            trajectory, periods = self._trajectory(s, state, blob)
            checks.check_octahedral(top.values, top.window, trajectory, periods, ratios)

    def _trajectory(self, s, state, blob):
        if s not in self._expected:
            centres, _, periods = checks.pattern_arrays(blob, self.SIZE, self.SIZE)
            self._expected[s] = (oracles.centre_trajectory(
                centres, periods, state.step_parity, self.LEVELS), periods)
        return self._expected[s]


WORKLOADS = {
    "dynamics": Dynamics,
    "inspect": Inspect,
    "renewal": Renewal,
    "octahedral": Octahedral,
}
