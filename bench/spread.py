"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload screen-p64 --seeds 1-10 [--trace 0] [--record-digests]

Runs are sequential, one process at a time, from the checkout root.  For
every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  Each
run's report and result lines are kept under ``.bench_out/runs/``.
``--record-digests`` stores every run's output digest in
``bench/digests.json``, keyed by workload and seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_out" / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    values: dict[str, list] = {}
    digests = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        log = out_dir / f"{args.workload}-seed{seed}-trace{args.trace}.txt"
        log.write_text(proc.stdout + proc.stderr)
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}; see {log}")
            return 1
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        digests[str(seed)] = report["digests"][0] if len(report["digests"]) == 1 else None
        wall = statistics.median(report["wall_s"] or report["traced_wall_s"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"calls={len(report['probe_s'])} wall_s={wall:.4g} "
              f"digest={report['recorded_digest']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        values.setdefault("(wall_s, unscaled)", []).append(wall)

    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        rel = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name, "")
        print(f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {rel:8.4f} {bound:>6}")

    if args.record_digests:
        path = BENCH_DIR / "digests.json"
        table = json.loads(path.read_text())
        table.setdefault(args.workload, {}).update(
            {seed: d for seed, d in digests.items() if d is not None}
        )
        table = {
            w: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
            for w, seeds in sorted(table.items())
        }
        path.write_text(json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
