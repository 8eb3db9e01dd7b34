"""The puhda benchmark: one command, three workloads, per-layer tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_narrow --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced calls with calls that have every ``puhda`` layer wrapped,
and reports the per-layer metrics plus the tracing overhead. Either way the
outputs of every timed call are checked, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Earlier lines name every metric with its unit, the machine,
and any failed check. BENCHMARK.json at the root lists the metrics and
their units; NOTES.md says what each workload and metric is for.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS threads before NumPy is imported: one thread keeps the two-core
# timings steady, and the matrices are too small to gain from more.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import Checker  # noqa: E402
from layers import METHODS, NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("grid_narrow", "trainer_loop", "ablate_wide")
SETUPS = 3            # set-ups (and fresh-interpreter imports) per untraced run
MIN_CALLS = 3         # timed calls per untraced run, however short --seconds is
MIN_TRACE_CALLS = 2   # traced and untraced calls each, per traced run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="sets the synthetic-data and split seeds")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the closed loop of timed calls runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code on toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int:
    """Thread count the bundled OpenBLAS reports, else the pinned value."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return BLAS_THREADS


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports ``puhda.cli`` (and NumPy) and exits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import puhda.cli"], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_calls(workload, state, seconds, min_rounds, tracers, checker):
    """Closed loop: each round makes one call per tracer, timing, checking and discarding it.

    Alternating traced and untraced calls in one loop lets the overhead ratio
    compare calls made under the same machine load.
    """
    walls = [[] for _ in tracers]
    outcomes, first_peak = [], None
    begin = time.perf_counter()
    while len(walls[0]) < min_rounds or time.perf_counter() - begin < seconds:
        for i, tracer in enumerate(tracers):
            out = workload.work / f"out-{len(walls[i])}-{i}"
            with tracer.active():
                start = time.perf_counter()
                raw = workload.call(state, out, tracer)
                walls[i].append(time.perf_counter() - start)
            first_peak = first_peak or peak_rss_mb()
            outcomes.append(workload.check(checker, state, out, raw))
            shutil.rmtree(out, ignore_errors=True)
    checker.check(len({o.digest for o in outcomes}) == 1,
                  "repeated calls (traced or not) produced different outputs")
    return walls, outcomes, first_peak


def tally(checker, outcomes):
    """(attempted, failed): cells plus output checks."""
    cells = sum(o.cells for o in outcomes)
    ok_cells = sum(o.ok_cells for o in outcomes)
    return cells + checker.attempted, cells - ok_cells + len(checker.failures)


def _listing(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def show(name, value, unit, note=""):
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"metric {name} = {text} {unit}{'  (' + note + ')' if note else ''}")


def untraced_run(workload, args, import_s, checker):
    """End-to-end metrics, with a note on how each was measured."""
    setup_times, states = [], []
    for i in range(SETUPS):
        start = time.perf_counter()
        states.append(workload.setup(f"u{i}"))
        setup_times.append(time.perf_counter() - start)
    checker.check(len({workload.fingerprint(s) for s in states}) == 1,
                  "repeated set-ups produced different inputs")
    imports = [import_seconds() for _ in range(SETUPS)]
    (walls,), outcomes, first_peak = timed_calls(workload, states[0], args.seconds, MIN_CALLS,
                                                 [NullTracer()], checker)
    attempted, failed = tally(checker, outcomes)
    accuracy = outcomes[0].accuracy
    values = {
        "setup_s": statistics.median(imports) + statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "cells_per_s": statistics.median(o.ok_cells / w for o, w in zip(outcomes, walls)),
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": first_peak,
        "test_accuracy.mean": statistics.fmean(accuracy.values()),
    }
    notes = {
        "setup_s": f"median of {SETUPS} fresh-interpreter imports {_listing(imports)} + median "
                   f"of {SETUPS} set-ups {_listing(setup_times)}; this process imported in "
                   f"{import_s:.4f}",
        "wall_s": f"median of {len(walls)} calls: {_listing(walls)}",
        "cells_per_s": f"{outcomes[0].ok_cells} ok cells per call",
        "ok_ratio": "1 - failed_ratio",
        "peak_rss_mb": f"set-ups plus the first call; {peak_rss_mb():.1f} after all "
                       f"{len(walls)} calls",
        "test_accuracy.mean": f"over the {len(accuracy)} methods trained",
    }
    show("failed_ratio", failed / attempted, "ratio", f"{failed} failed of {attempted} attempted")
    for method in METHODS:
        show(f"test_accuracy.{method}", accuracy.get(method), "ratio",
             "" if method in accuracy else "not trained by this workload")
    return attempted, failed, values, notes


def traced_run(workload, args, checker):
    """Per-layer metrics; prints the per-span table on the way."""
    state = workload.setup("u0")
    tracer = Tracer()
    tracer.phase = "setup"
    with tracer.active():
        traced_state = workload.setup("t0")
    checker.check(workload.fingerprint(traced_state) == workload.fingerprint(state),
                  "the traced set-up produced different inputs")
    tracer.phase = "run"
    (walls, traced_walls), outcomes, _ = timed_calls(workload, state, args.seconds,
                                                     MIN_TRACE_CALLS, [NullTracer(), tracer],
                                                     checker)
    attempted, failed = tally(checker, outcomes)
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    values = tracer.metrics(n_setups=1, n_runs=len(traced_walls), overhead_ratio=overhead)
    for method in METHODS:
        values[f"trainers.test_accuracy.{method}"] = outcomes[0].accuracy.get(method, 0.0)

    for name, calls, total, own in tracer.summary():
        print(f"span {name} calls={calls} total_s={total:.4f} self_s={own:.4f}")
    notes = {"trace.overhead_ratio": f"untraced calls {_listing(walls)}; "
                                     f"traced calls {_listing(traced_walls)}"}
    return attempted, failed, values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "puhda" / "__init__.py").is_file():
        print(f"error: no puhda package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    import_s = time.perf_counter() - START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](workloads.SIZES[args.scale], args.seed, work)
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: closed loop, one caller, jobs=1. "
          f"{workload.why}")
    checker = Checker()
    try:
        if args.trace:
            attempted, failed, values, notes = traced_run(workload, args, checker)
        else:
            attempted, failed, values, notes = untraced_run(workload, args, import_s, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(set(values) ^ set(units))} "
                           "do not match BENCHMARK.json")
    for name, unit in units.items():
        show(name, values[name], unit, notes.get(name, ""))
    for reason in checker.failures:
        print(f"check failed: {reason}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
