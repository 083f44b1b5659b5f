"""Benchmark of kernelbundle: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

The package is imported from ``src/`` of the checkout.  The report goes to
standard output; its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep-n8", "sweep-n16", "locate-n64")
# One BLAS thread: the matrices are at most 64 x 64, and a single thread
# keeps timings steady on a shared machine with few cores.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads(np):
    """Thread count the bundled OpenBLAS reports, else the one requested."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return BLAS_THREADS


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(np),
    }


def timed_setup(wl, setup_s: list):
    t0 = time.perf_counter()
    state = wl.setup()
    setup_s.append(time.perf_counter() - t0)
    return state


def timed_phase(wl, state, seconds, setup_s: list) -> list:
    """Units of work, cycling through the workload's inputs until the deadline.

    The set-up repeats left after the first are spread evenly over the
    phase, so that ``setup_s`` samples the machine over the same window as
    the points; the machine's speed drifts over seconds.
    """
    results = []
    start = time.perf_counter()
    due = [start + seconds * k / wl.setup_repeats for k in range(1, wl.setup_repeats)]
    for unit in itertools.cycle(wl.units):
        results.append(wl.run_unit(state, unit))
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            timed_setup(wl, setup_s)
        if time.perf_counter() - start >= seconds:
            break
    for _ in due:
        timed_setup(wl, setup_s)
    return results


def rate(results) -> float:
    done = sum(r.attempted - r.failed for r in results)
    return done / sum(r.wall_s for r in results)


def run_workload(args, workdir) -> int:
    import stats
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, workdir)
    setup_s: list = []
    state = timed_setup(wl, setup_s)
    wl.warm_up(state)
    results = timed_phase(wl, state, args.seconds, setup_s)

    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            tracer.phase = "setup"
            state = wl.setup()
            tracer.phase = "pass"
            passed = [wl.run_unit(state, unit) for unit in wl.units]
        # against the same inputs untraced: the timed phase starts with one pass
        same = results[: len(wl.units)]
        results += passed
        pass_points = sum(r.attempted for r in passed)
        metrics = tracing.layer_metrics(tracer.spans, pass_points)
        metrics["trace.overhead_points_per_s"] = {"value": rate(passed) - rate(same), "unit": "1/s"}
        rows = [(name, m["value"], m["unit"], pass_points) for name, m in metrics.items()]
    else:
        point_s = [t for r in results for t in r.point_s]
        metrics = {
            "setup_s": {"value": stats.median(setup_s), "unit": "s"},
            "points_per_s": {"value": rate(results), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        done = sum(r.attempted - r.failed for r in results)
        counts = {"setup_s": len(setup_s), "points_per_s": done, "peak_rss_mb": 1}
        rows = [(name, m["value"], m["unit"], counts[name]) for name, m in metrics.items()]
        # printed, not gated: see README.md
        rows.insert(2, ("point_ms_p50", 1e3 * stats.median(point_s), "ms", len(point_s)))
        p90 = stats.tail_percentile(point_s, 90)
        if p90 is not None:
            rows.insert(3, ("point_ms_p90", 1e3 * p90, "ms", len(point_s)))

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    rows.append(("fail_ratio", failed / attempted, "", attempted))
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("inputs " + json.dumps(wl.inputs(), sort_keys=True))
    for name, value, unit, n in rows:
        print(f"  {name:34s} {value:14.6g} {unit:12s} n={n}")
    for p in problems[:20]:
        print(f"  check failed: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in turn, in its own process so peak RSS is its own."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, check=False)
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kernelbundle", "__init__.py")):
        print(f"error: no kernelbundle package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import kernelbundle

    if os.path.dirname(os.path.abspath(kernelbundle.__file__)) != os.path.join(SRC, "kernelbundle"):
        print(f"error: kernelbundle imported from {kernelbundle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as workdir:
        return run_workload(args, workdir)


if __name__ == "__main__":
    sys.exit(main())
