"""Each workload check passes on the program's output and fails on a
slightly perturbed one; the tracer's accounting; the entry point's
refusal to run without the program."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from miqueldyn import (cli, generate_kasteleyn_cauchy_data, jsonio, make_torus_state,
                       miquel_dynamics_step, miquel_move, patch_from_pattern,
                       propagate_from_centers, propagate_octahedral,
                       transversal_star_ratios, weights_from_pattern)
from miqueldyn.errors import ConstructionFailure

import checks
import oracles
import tracing
import workloads
from checks import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent


def _input(rows, cols, seed):
    p = generate_kasteleyn_cauchy_data(rows, cols, seed=seed, spread=0.5)
    return p, make_torus_state(p, rows, cols), jsonio.pattern_to_json(p)


def test_dynamics_check_catches_a_centre_moved_by_1e6_of_a_period():
    _, state, blob = _input(8, 8, seed=0)
    Z, _, periods = checks.pattern_arrays(blob, 8, 8)
    expected = oracles.centre_trajectory(Z, periods, 0, 1)[1]
    out = jsonio.pattern_to_json(miquel_dynamics_step(state).pattern)
    checks.check_sweep(out, expected, 8, 8)
    moved = copy.deepcopy(out)
    moved["centers"]["9"][0] += 1e-6 * abs(periods[0])
    with pytest.raises(CheckFailed, match="recurrence"):
        checks.check_sweep(moved, expected, 8, 8)


def test_dynamics_check_catches_a_moved_vertex_and_a_broken_grid():
    _, state, blob = _input(8, 8, seed=1)
    Z, _, periods = checks.pattern_arrays(blob, 8, 8)
    expected = oracles.centre_trajectory(Z, periods, 0, 1)[1]
    out = jsonio.pattern_to_json(miquel_dynamics_step(state).pattern)
    moved = copy.deepcopy(out)
    moved["vertices"][next(iter(moved["vertices"]))][1] += 1e-5
    with pytest.raises(CheckFailed, match="radii"):
        checks.check_sweep(moved, expected, 8, 8)
    rewired = copy.deepcopy(out)
    faces = rewired["graph"]["faces"]
    faces[0]["edge_cycle"], faces[1]["edge_cycle"] = (faces[1]["edge_cycle"],
                                                      faces[0]["edge_cycle"])
    with pytest.raises(CheckFailed):
        checks.check_square_grid_torus(rewired["graph"], 8, 8)


def _inspect_outputs(tmp_path, rows, cols):
    p, _, blob = _input(rows, cols, seed=2)
    path = str(tmp_path / "p.json")
    svg = str(tmp_path / "p.svg")
    jsonio.write_json_atomic(path, blob)
    validated = cli.run_command(["validate", path, "--json"]).report
    ratios = cli.run_command(["star-ratios", path, "--json"]).report
    cli.run_command(["export-svg", path, "--out", svg, "--json"])
    rebuilt = propagate_from_centers(p.centers_drawing(), 0, p.vertex_points[0])
    return blob, validated, ratios, Path(svg).read_text(), rebuilt.vertex_points


def test_inspect_check_catches_an_inverted_star_ratio(tmp_path):
    blob, validated, ratios, svg, vertices = _inspect_outputs(tmp_path, 4, 6)
    checks.check_inspect(blob, 4, 6, validated, ratios, svg, vertices)
    report = json.loads(ratios)
    re, im = report["values"]["7"]
    norm = re * re + im * im
    report["values"]["7"] = [re / norm, -im / norm]
    with pytest.raises(CheckFailed, match="star-ratio"):
        checks.check_inspect(blob, 4, 6, validated, json.dumps(report), svg, vertices)


def test_inspect_check_catches_a_dropped_svg_circle(tmp_path):
    blob, validated, ratios, svg, vertices = _inspect_outputs(tmp_path, 4, 6)
    lines = svg.splitlines()
    first = next(k for k, line in enumerate(lines) if 'class="face-circle"' in line)
    dropped = "\n".join(lines[:first] + lines[first + 1:])
    with pytest.raises(CheckFailed, match="face circles"):
        checks.check_inspect(blob, 4, 6, validated, ratios, dropped, vertices)


def _renewal(rows, cols, face):
    p, _, blob = _input(rows, cols, seed=3)
    Z, _, periods = checks.pattern_arrays(blob, rows, cols)
    before = ({eid: (e.minus, e.plus) for eid, e in p.graph.edges.items()},
              oracles.grid_edge_weights(Z, periods),
              {fid: list(walk) for fid, walk in p.graph.faces.items()})
    moved = miquel_move(p, face)
    after = ({eid: (e.minus, e.plus) for eid, e in moved.graph.edges.items()},
             weights_from_pattern(moved),
             {fid: list(walk) for fid, walk in moved.graph.faces.items()})
    return p, blob, before, after


def test_renewal_check_catches_one_changed_weight(tmp_path):
    p, blob, before, after = _renewal(4, 4, face=5)
    path = str(tmp_path / "p.json")
    jsonio.write_json_atomic(path, blob)
    report = cli.run_command(["check-urban-renewal", path, "--face", "5", "--json"]).report
    z_before, z_after = checks.renewal_expectation(before, after, 5)
    checks.check_renewal(report, 5, z_before, z_after)
    edges, weights, faces = before
    changed = dict(weights)
    changed[0] *= 1.001
    with pytest.raises(CheckFailed):
        checks.check_renewal(report, 5, *checks.renewal_expectation(
            (edges, changed, faces), after, 5))
    z_changed, _ = oracles.edge_probabilities(edges, changed, ())
    with pytest.raises(CheckFailed, match="z_before"):
        checks.check_renewal(report, 5, z_changed, z_after)


def test_octahedral_check_catches_a_moved_value():
    _, state, blob = _input(8, 8, seed=4)
    Z, _, periods = checks.pattern_arrays(blob, 8, 8)
    patch = patch_from_pattern(state, pad=4)
    top = propagate_octahedral(patch, 7)
    ratios = transversal_star_ratios(top, 7)
    trajectory = oracles.centre_trajectory(Z, periods, 0, 6)
    checks.check_octahedral(top.values, top.window, trajectory, periods, ratios)
    values = dict(top.values)
    point = next(p for p in values if p[2] == 4)
    values[point] += 1e-6 * abs(periods[0])
    with pytest.raises(CheckFailed):
        checks.check_octahedral(values, top.window, trajectory, periods, ratios)


def test_tracer_times_recursion_at_the_outermost_call_and_restores_the_program():
    original = jsonio.canonical_dumps
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.canonical_dumps is not original
        tracer.enabled = True
        jsonio.canonical_dumps({"a": [1.0, [2.0, {"b": 3}]]})
        cli.run_command(["--version"])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert jsonio.canonical_dumps is original and cli.canonical_dumps is original
    assert tracer.calls["jsonio.canonical_dumps"] == 1
    assert tracer.calls["cli.run_command"] == 1
    assert tracer.calls["lattice.miquel_dynamics_step"] == 0
    assert all(t >= 0 for t in tracer.self_s.values())


def test_tracer_self_time_leaves_out_nested_traced_calls(tmp_path):
    _, _, blob = _input(4, 4, seed=5)
    path = str(tmp_path / "p.json")
    jsonio.write_json_atomic(path, blob)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        cli.run_command(["validate", path, "--json"])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    outer = next(s for s in tracer.spans if s[1] == "cli.run_command")
    assert tracer.calls["circle_pattern.validate_pattern"] == 1
    nested = sum(end - start for _, name, start, end, parent in tracer.spans
                 if parent == outer[0])
    assert nested > 0
    assert tracer.self_s["cli.run_command"] == pytest.approx(
        outer[3] - outer[2] - nested, abs=1e-9)


def test_tracer_skips_a_function_the_program_no_longer_has(monkeypatch):
    layers = dict(tracing.LAYERS, geometry=("no_such_function", "star_ratio"))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "geometry.no_such_function" not in tracer.calls
    assert "geometry.star_ratio" in tracer.calls


def test_run_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "renewal",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_clock_counts_a_failed_operation_without_a_latency_sample():
    clock = workloads.Clock()
    with clock.op() as op:
        op.faces = 3
    with clock.op() as op:
        raise ConstructionFailure("face 1: fourth second-intersection is not concyclic")
    assert op.failed and (clock.attempted, clock.failed, clock.faces) == (2, 1, 3)
    assert len(clock.samples) == 1 and len(clock.loops) == 2
    assert clock.failures == {"ConstructionFailure": [1, "face 1: fourth "
                                                      "second-intersection is not concyclic"]}
    assert clock.reference_s > clock.samples[0] > 0 and clock.busy_s > 0
