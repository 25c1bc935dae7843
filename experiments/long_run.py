"""Long runs of Miquel dynamics on square-grid tori.

Runs seeds 0-5 at 4x4, 8x8 and 32x32 for 1000 parity sweeps each,
starting from generate_kasteleyn_cauchy_data(n, n, seed, spread=0.5).
After every sweep the vertices are derived from the centres and the
anchor, and the run records the worst relative residuals seen: the
closure gap across the torus wraps and the spread of each face's
corner distances from its centre, both over the face radius.  It also
records the wall seconds per sweep (the sweep alone, without the
vertex derivation).  The records go to a JSON file; the script exits
with status 1 if a run fails or a residual reaches 1e-9.

    PYTHONPATH=src python3 experiments/long_run.py [--out PATH]
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from miqueldyn import generate_kasteleyn_cauchy_data, make_torus_state, miquel_dynamics_step
from miqueldyn.errors import MiquelDynError
from miqueldyn.lattice import VERTEX_RTOL, torus_vertices

SIZES = (4, 8, 32)
SEEDS = range(6)
SWEEPS = 1000
SPREAD = 0.5
HERE = os.path.dirname(os.path.abspath(__file__))


def long_run(n, seed):
    state = make_torus_state(generate_kasteleyn_cauchy_data(n, n, seed, SPREAD), n, n)
    record = {"size": "%dx%d" % (n, n), "seed": seed, "sweeps": 0, "error": None,
              "closure_max": 0.0, "concyclic_max": 0.0}
    busy = 0.0
    try:
        for _ in range(SWEEPS):
            start = time.perf_counter()
            state = miquel_dynamics_step(state)
            busy += time.perf_counter() - start
            grid = torus_vertices(state)
            record["closure_max"] = max(record["closure_max"], float(grid.closure.max()))
            record["concyclic_max"] = max(record["concyclic_max"],
                                          float(grid.concyclic.max()))
            record["sweeps"] += 1
        state.pattern  # the checks the pattern is built under
    except MiquelDynError as err:
        record["error"] = "%s: %s" % (type(err).__name__, err)
    record["sweep_s"] = busy / max(record["sweeps"], 1)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "BENCH_long_run.json"))
    args = parser.parse_args(argv)

    runs = []
    for n in SIZES:
        for seed in SEEDS:
            rec = long_run(n, seed)
            runs.append(rec)
            print("%5s seed %d: %4d sweeps, closure %.1e, concyclic %.1e, "
                  "%.1f us per sweep%s"
                  % (rec["size"], seed, rec["sweeps"], rec["closure_max"],
                     rec["concyclic_max"], rec["sweep_s"] * 1e6,
                     "" if rec["error"] is None else ", " + rec["error"]))
    ok = all(r["error"] is None and r["sweeps"] == SWEEPS
             and max(r["closure_max"], r["concyclic_max"]) < VERTEX_RTOL for r in runs)
    report = {
        "what": "Miquel dynamics long runs: worst relative vertex residuals "
                "and wall seconds per sweep",
        "spread": SPREAD,
        "sweeps": SWEEPS,
        "tolerance": VERTEX_RTOL,
        "ok": ok,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform(), "cpus": os.cpu_count()},
        "runs": runs,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("all runs ok" if ok else "a run failed or crossed the tolerance")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
