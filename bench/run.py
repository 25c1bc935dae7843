"""Benchmark of miqueldyn: Miquel dynamics, pattern inspection, urban
renewal and octahedral propagation, end to end and per layer.

    python3 bench/run.py --workload dynamics --seed 0 --seconds 20 --trace 0

runs one workload in this process for about --seconds seconds of timed
operations, checks every output, and prints a summary line followed by
one JSON object as the last line: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1 spends
half the time untraced and half traced and reports per-layer call
counts and self times per round, with the tracing overhead.
--workload all runs every workload in its own process.  The program is
imported from src/ next to this directory; scratch files go to
.bench_work/ there.
"""

import os

# One thread per process; numpy reads these when it is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("dynamics", "inspect", "renewal", "octahedral")
SETUP_REPEATS = 5
# Times `import miqueldyn` in a fresh interpreter; argv[1] is src/.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import miqueldyn; "
                "print(time.perf_counter() - t)")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import miqueldyn from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import miqueldyn
    except ImportError as err:
        sys.exit("bench: cannot import miqueldyn from %s: %s" % (src, err))
    if not Path(miqueldyn.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit("bench: miqueldyn was imported from %s, not %s" % (miqueldyn.__file__, src))


def _import_seconds(first):
    """Median, in reference seconds, of this process's import time and
    SETUP_REPEATS - 1 imports in fresh interpreters."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        with speed.Stopwatch() as watch:
            probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                                   stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(probe.stdout) * speed.REFERENCE_S / watch.loop_s)
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _measure(workload, clock, seconds):
    """Whole rounds until the timed operations add up to `seconds`."""
    while True:
        workload.round(clock)
        clock.rounds += 1
        if clock.busy_s >= seconds:
            return clock


def _failures(clock):
    return ", ".join("%s x%d (%s)" % (kind, n, msg)
                     for kind, (n, msg) in sorted(clock.failures.items())) or "none"


def run_one(args):
    with speed.Stopwatch() as first_import:
        _import_program()

    import checks
    import tracing
    import workloads

    work_dir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(work_dir))
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        with speed.Stopwatch() as watch:
            workload.setup()
        setup_runs.append(watch.reference_s)
    setup_s = _import_seconds(first_import.reference_s) + statistics.median(setup_runs)

    seconds = args.seconds / 2 if args.trace else args.seconds
    clocks = [workloads.Clock()]
    tracer = None
    correct = True
    try:
        _measure(workload, clocks[0], seconds)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            clocks.append(workloads.Clock(tracer))
            try:
                _measure(workload, clocks[1], seconds)
            finally:
                tracer.uninstall()
    except checks.CheckFailed as err:
        print("bench: %s: check failed: %s" % (args.workload, err), file=sys.stderr)
        correct = False

    plain = clocks[0]
    attempted = sum(c.attempted for c in clocks)
    failed = sum(c.failed for c in clocks)
    metrics = {}
    if correct and not args.trace:
        metrics = {
            "faces_per_s": _metric(plain.faces / plain.reference_s, "1/s"),
            "op_s_p50": _metric(statistics.median(plain.samples), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    elif correct:
        traced = clocks[1]
        rounds = traced.rounds
        scale = speed.REFERENCE_S / statistics.median(traced.loops)
        for name in tracing.traced_names():
            if name in tracer.calls:
                metrics[name + ".calls"] = _metric(tracer.calls[name] / rounds, "count")
                metrics[name + ".self_s"] = _metric(tracer.self_s[name] * scale / rounds, "s")
        for name, count in tracer.counts.items():
            metrics[name] = _metric(count / rounds, "count")
        untraced_fps = plain.faces / plain.reference_s
        traced_fps = traced.faces / traced.reference_s
        metrics["trace.faces_per_s_untraced"] = _metric(untraced_fps, "1/s")
        metrics["trace.faces_per_s_traced"] = _metric(traced_fps, "1/s")
        metrics["trace.overhead_pct"] = _metric(100.0 * (1 - traced_fps / untraced_fps), "%")
        with open(work_dir / "spans.json", "w") as handle:
            json.dump({"columns": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": tracer.spans}, handle)

    print("%s: seed=%d rounds=%s attempted=%d failed=%d samples=%d failures: %s"
          % (args.workload, args.seed, "+".join(str(c.rounds) for c in clocks),
             attempted, failed, len(plain.samples), _failures(plain)))
    if plain.samples:
        print("  wall seconds: faces_per_s %.6g, op_s_p50 %.6g; calibration loop %.4g ms"
              % (plain.faces / plain.busy_s, statistics.median(plain.wall_samples),
                 1000 * statistics.median(plain.loops)))
    if not args.trace:
        for name, m in metrics.items():
            print("  %-12s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            code = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
