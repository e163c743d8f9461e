"""Benchmark of the ramphop command line, end to end or layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep|panels|winding --seed N \
        --seconds S --trace 0|1

Each op is one in-process call of ``ramphop.cli.main(argv)``, writing into
a scratch directory of its own.  The run repeats whole rounds of the
workload's ops, each in a seeded shuffled order, for about S seconds, then
checks every op's files against references computed apart from the
program.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are end to end, with ``--trace 1`` they are per layer.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for this process and the set-up probes it starts;
# must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
# Every op is timed at least twice per run.  A single call's latency swings
# by up to 1.7x on a shared host, and a panels round is longer than a run.
MIN_ROUNDS = 2
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import ramphop\n"
    "print(repr(time.perf_counter() - start))\n"
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup() -> float:
    """Median wall time of ``import ramphop`` in a fresh interpreter.

    One probe runs first untimed, so that where Python writes byte-code
    caches, every timed probe finds them, as a user's second run does.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def tree_digest(path: Path) -> tuple[str, int]:
    """Hash of every file name and content under ``path``, and their bytes."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(path.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            size += len(data)
            h.update(p.relative_to(path).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), size


def run_ops(workload, rng, seconds: float, scratch: Path, cli, tracer):
    """Whole rounds for about ``seconds``; one record per op, wall per round.

    A further round starts only while the elapsed time plus the mean round
    time so far stays within ``seconds``; the first MIN_ROUNDS always run.
    """
    records = []
    round_walls = []
    start = time.perf_counter()
    while len(round_walls) < MIN_ROUNDS or (
        time.perf_counter() - start + statistics.fmean(round_walls) <= seconds
    ):
        round_start = time.perf_counter()
        for ops in workload.passes:
            for i in rng.permutation(len(ops)):
                op = ops[int(i)]
                outdir = scratch / f"op{len(records):05d}"
                outdir.mkdir()
                argv = op.command(outdir)
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    t0 = time.perf_counter()
                    try:
                        rc = cli.main(argv)
                    except Exception as exc:  # an uncaught error is a failed op
                        rc = f"{type(exc).__name__}: {exc}"
                    latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
                records.append({"op": op, "rc": rc, "latency": latency, "dir": outdir,
                                "stderr": stderr.getvalue(), "round": len(round_walls)})
        round_walls.append(time.perf_counter() - round_start)
    return records, round_walls


def verify(workload, records, refs, scratch: Path):
    """Check every distinct output; returns (problems, bytes written).

    Ops with the same key and the same files are checked once.  An op whose
    check fails only on its ``known_fault`` is marked failed; any other
    check failure is a problem that makes the run incorrect.
    """
    problems = []
    verdicts: dict[tuple[str, str], list[str]] = {}
    verified = {}
    total_bytes = 0
    for rec in records:
        digest, size = tree_digest(rec["dir"])
        total_bytes += size
        if rec["rc"] != 0:
            rec["failed"] = f"exit {rec['rc']}: {rec['stderr'].strip()[-200:]}"
            continue
        op = rec["op"]
        key = (op.key, digest)
        if key not in verdicts:
            try:
                verdicts[key] = op.check(rec["dir"], refs)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                verdicts[key] = [f"unreadable output: {type(exc).__name__}: {exc}"]
        found = verdicts[key]
        if not found:
            verified.setdefault(op.key, rec["dir"])
        elif op.known_fault and all(f.startswith(op.known_fault) for f in found):
            rec["failed"] = "; ".join(found)
        else:
            problems.extend(f"{op.key}: {f}" for f in found)
    if not problems:
        problems += workloads.self_test(workload, verified, refs, scratch / "selftest")
    return problems, total_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "panels", "winding"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ramphop" / "cli.py").is_file():
        print(f"error: no ramphop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = None if args.trace else measure_setup()

    import ramphop.cli as cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    rng = np.random.default_rng(args.seed)
    refs = checks.References()
    workload = workloads.WORKLOADS[args.workload](rng, refs)
    print(f"# {args.workload} seed={args.seed}: {len(workload.ops)} ops per round", flush=True)
    for op in workload.ops:
        print(f"#   {op.key}")

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        records, round_walls = run_ops(workload, rng, args.seconds, scratch, cli, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, total_bytes = verify(workload, records, refs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(records)
    failed = [r for r in records if "failed" in r]
    by_key: dict[str, list[float]] = {}
    for r in records:
        by_key.setdefault(r["op"].key, []).append(r["latency"])
    for key, lat in by_key.items():
        print(f"# latency {key}: median {statistics.median(lat):.4f} s over {len(lat)}: "
              + " ".join(f"{x:.4f}" for x in lat))
    for reason in sorted({f"{r['op'].key}: {r['failed']}" for r in failed}):
        print(f"# failed: {reason}")
    for p in problems:
        print(f"# WRONG: {p}")
    # Throughput is taken per round over the time spent inside ops (failed
    # ones included), and its median reported, so that a slow spell of the
    # host that covers a few rounds moves it little.
    per_round = []
    for k in range(len(round_walls)):
        in_round = [r for r in records if r["round"] == k]
        busy = sum(r["latency"] for r in in_round)
        per_round.append(sum(1 for r in in_round if "failed" not in r) / busy)
    ops_per_s = statistics.median(per_round)
    # A failed op misses any latency limit, so it enters the percentile as inf.
    latencies = [math.inf if "failed" in r else r["latency"] for r in records]
    print(f"# {attempted} ops in {len(round_walls)} rounds, {sum(round_walls):.2f} s, "
          f"{len(failed)} failed", flush=True)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        nonzero = sum(1 for r in records if r["rc"] != 0)
        values = tracer.per_op(attempted, total_bytes, nonzero, ops_per_s)
        units = metric_units()
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
