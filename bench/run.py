"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload verify-gfp --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout; nothing is installed.  The
workload runs in a fresh single-threaded interpreter (worker.py) with
PYTHONPATH=src.  With --trace 0 the result holds the end-to-end metrics
of BENCHMARK.json, with --trace 1 the per-layer ones.  --record FILE
appends the result, tagged with workload and seed, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5  # set-up is timed in this many fresh interpreters
LIMIT_S = 170  # the whole run, workers included


def run_worker(args, mode, work, deadline):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--work", str(work),
    ]
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr.decode() if isinstance(e.stderr, bytes) else e.stderr or "")
        raise SystemExit(f"error: {mode} worker ran past the {LIMIT_S} s limit")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {mode} worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the result to this JSON-lines file")
    args = parser.parse_args()

    deadline = time.monotonic() + LIMIT_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "starconfig" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a starconfig source checkout (no src/starconfig)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    work = BENCH / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_worker(args, "setup", work, deadline)["setup_s"])
    out = run_worker(args, "trace" if args.trace else "timed", work, deadline)
    setups.append(out["setup_s"])
    measured = dict(out["metrics"], setup_s=statistics.median(setups))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "notes": out["notes"],
            "result": result,
        }
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    if args.trace:
        notes = out["notes"]
        print(
            f"trace: {notes['untraced_wall_s']:.3f} s untraced pass, "
            f"{notes['traced_wall_s']:.3f} s traced (x{notes['trace_overhead']:.2f}), "
            f"{notes['spans']} spans in {work / 'spans.jsonl'}",
            file=sys.stderr,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
