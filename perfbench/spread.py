"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload winding --seeds 1-10 --seconds 20 [--trace 1]

Runs are sequential.  For each metric it prints the median and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, and the failed share of each run.  Each run's result
line is appended to ``.perfbench-results/<workload>-trace<T>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    out = ROOT / ".perfbench-results" / f"{args.workload}-trace{args.trace}.jsonl"
    out.parent.mkdir(exist_ok=True)
    results = []
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(out, "a") as fh:
            log = [line for line in done.stdout.splitlines() if line.startswith("# latency")]
            fh.write(json.dumps({"seed": seed, **result, "log": log}) + "\n")
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()} if not args.trace else ""
        print(f"seed {seed}: correct={result['correct']} {result['failed']}/{result['attempted']} failed {shown}",
              flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        else:
            spread = float("nan")
        print(f"{name:45s} median {med:.6g} {results[0]['metrics'][name]['unit']:9s} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
