"""Benchmark of the suffmdp pipeline layers; see README.md beside this file.

    python3 bench/run.py --workload screen-p64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a JSON report with the environment,
per-call timings, output digests and outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-from", type=float, metavar="T0",
                        help="import and build the inputs, print the time since T0 "
                             "on the monotonic clock, and exit (used to time set-up)")
    return parser.parse_args(argv)


def _limit_blas_threads() -> int:
    """One BLAS thread, set before numpy loads.

    The program's matrix products have at most a few hundred rows, so a
    second BLAS thread gains nothing and its spinning adds noise; with one,
    harness workers x BLAS threads also stays within nproc.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def _import_package():
    if not (SRC / "suffmdp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'suffmdp'} not found; run from a suffmdp source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import suffmdp

    if Path(suffmdp.__file__).resolve().parent != SRC / "suffmdp":
        sys.exit(f"error: imported suffmdp from {suffmdp.__file__}, not from {SRC}")


def _blas_record(requested: int) -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    actual = None
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            actual = fn()
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads_requested": requested,
        "threads": actual,
    }


def _environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(blas_threads),
    }


def _monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _time_setup(args) -> tuple:
    """Set-up time of fresh interpreters that import and build the inputs.

    Each child reports the time since just before it was launched, so the
    parent's polling of the child does not add to it.  Returns the wall
    times and the same times scaled to the reference speed by the probes
    taken between children.
    """
    import speed

    walls, scaled = [], []
    before = speed.probe()
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-from", repr(_monotonic())]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        wall = float(proc.stdout.split()[-1])
        after = speed.probe()
        walls.append(wall)
        scaled.append(speed.scale(wall, before, after))
        before = after
    return walls, scaled


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    blas_threads = _limit_blas_threads()
    _import_package()
    import speed
    from tracing import Tracer, installed, layer_metrics, self_time_table
    from workloads import WORKLOADS

    args = _parse_args(argv, sorted(WORKLOADS))

    make = WORKLOADS[args.workload]
    if args.setup_from is not None:
        make(args.seed, args.smoke)
        print(_monotonic() - args.setup_from)
        return 0

    env = _environment(blas_threads)
    setup_walls, setup_times = _time_setup(args)
    make(args.seed, smoke=True).call()  # warm lazy imports and thread pools
    prepared = make(args.seed, args.smoke)

    calls = []  # one record per top-level call
    problems = []
    outcomes = {}
    attempted = failed = 0
    layer_runs = []
    self_s = {}
    trace_path = None
    start = time.perf_counter()
    before = speed.probe(prepared.workers)
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        load = [os.getloadavg()[0]]
        tracer = Tracer()
        t0 = time.perf_counter()
        try:
            if traced:
                with installed(tracer), tracer.span(prepared.top):
                    result = prepared.call()
            else:
                result = prepared.call()
        except Exception:
            traceback.print_exc()
            problems.append(f"call {len(calls)} raised")
            attempted += 1
            failed += 1
            break
        elapsed = time.perf_counter() - t0
        after = speed.probe(prepared.workers)
        found = prepared.check(result)
        problems += [f"call {len(calls)}: {p}" for p in found]
        ops, ops_failed = prepared.operations(result)
        attempted += ops
        failed += max(ops_failed, int(bool(found)))
        outcomes = prepared.outcomes(result)
        calls.append({
            "traced": traced,
            "run_s": elapsed,
            "probe_s": [before, after],
            "scaled_s": speed.scale(elapsed, before, after),
            "digest": prepared.digest(result),
            "loadavg": load + [os.getloadavg()[0]],
        })
        if traced:
            root = next(sp for sp in tracer.spans if sp.parent is None)
            layers = layer_metrics(tracer.spans, root, prepared.workers)
            layer_runs.append(_scale_times(layers, calls[-1]["scaled_s"] / elapsed))
            for sp in tracer.spans:
                if sp.name == "dcov.pooled_test" and sp.counts["p_value"] < sp.counts["floor"] * (1 - 1e-9):
                    problems.append(f"pooled p-value {sp.counts['p_value']} below its floor")
            self_s = self_time_table(tracer.spans)
            trace_path = _write_trace(args, tracer.spans)
        before = after
        spent = time.perf_counter() - start
        longest = max(c["run_s"] + c["probe_s"][1] for c in calls)
        if len(calls) >= 1 + args.trace and spent + longest > args.seconds:
            break

    digests = sorted({c["digest"] for c in calls})
    if len(digests) > 1:
        problems.append(f"{len(digests)} different output digests across calls on the same inputs")
        failed += len(calls) - 1
    untraced = [c["scaled_s"] for c in calls if not c["traced"]]
    traced_s = [c["scaled_s"] for c in calls if c["traced"]]
    if args.trace:
        metrics = {k: _median([r[k] for r in layer_runs]) for k in layer_runs[0]} if layer_runs else {}
        metrics["trace.overhead_frac"] = (
            _median(traced_s) / _median(untraced) - 1.0 if traced_s and untraced else 0.0
        )
        for key in ("failed_frac", "true_vars_missed", "false_vars_kept", "policy_value"):
            metrics[f"outcome.{key}"] = outcomes.get(key, 0.0)
    else:
        metrics = {
            "run_ref_s": _median(untraced),
            "setup_s": _median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = _units()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "env": env,
        "setup_wall_s": setup_walls,
        "setup_s": setup_times,
        "wall_s": [c["run_s"] for c in calls if not c["traced"]],
        "traced_wall_s": [c["run_s"] for c in calls if c["traced"]],
        "probe_s": [c["probe_s"] for c in calls],
        "run_ref_s": untraced,
        "traced_run_ref_s": traced_s,
        "loadavg": [c["loadavg"] for c in calls],
        "digests": digests,
        "recorded_digest": _recorded_digest(args, digests),
        "outcomes": outcomes,
        "self_s": self_s,
        "problems": problems,
        "trace_file": trace_path,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _scale_times(metrics: dict, factor: float) -> dict:
    """Rescale one traced call's per-layer times by its speed factor, as its
    run time is rescaled; counts and shares are left as they are."""
    out = {}
    for name, value in metrics.items():
        if name.endswith("_per_s"):
            value /= factor
        elif name.endswith(("_s", "_ms")):
            value *= factor
        out[name] = value
    return out


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _recorded_digest(args, digests) -> str:
    """Compare with the digest stored for this workload and seed, if any.

    A mismatch is reported, not counted as a failure: a change that alters
    results on purpose shows here until the table is refreshed.
    """
    table = json.loads((BENCH_DIR / "digests.json").read_text())
    stored = None if args.smoke else table.get(args.workload, {}).get(str(args.seed))
    if stored is None:
        return "unrecorded"
    return "match" if digests == [stored] else "differs"


def _write_trace(args, spans) -> str:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps([sp.__dict__ for sp in spans]))
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
