#!/usr/bin/env python3
"""Fixed-work benchmark of the specdraft library.

    python3 perfbench/run.py --workload chat-greedy --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The first run prepares corpora,
tries and a model file under perfbench/.prepared. Each run then starts two
set-up probes and one serving process, all fresh interpreters with BLAS
pinned to one thread, and prints one JSON object as its last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The exit code is 0 only when every request ran and passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PREP_DIR = BENCH_DIR / ".prepared"
SETUP_PROBES = 2        # set-up is also timed in the serving process
PREPARE_TIMEOUT_S = 800
RUN_TIMEOUT_S = 150     # for all probes and the serving process together


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args,
         "--prep-dir", str(PREP_DIR), "--spawned-at", repr(spawned_at)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "specdraft" / "__init__.py").is_file():
        print("run.py: no src/specdraft here; run from the root of a specdraft checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    env = child_env(root)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        run_worker(["prepare"], env, PREPARE_TIMEOUT_S)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        workload = ["--workload", args.workload]
        setups = [run_worker(["probe", *workload], env, deadline - time.monotonic())["setup_s"]
                  for _ in range(SETUP_PROBES)]
        served = run_worker(["serve", *workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            env, deadline - time.monotonic())
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1

    measured = dict(served["metrics"])
    measured["setup_s"] = statistics.median([*setups, served["setup_s"]])
    missing = [m["name"] for m in metrics_spec if m["name"] not in measured]
    if missing:
        print(f"run.py: {args.workload}: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": served["correct"],
        "attempted": served["attempted"],
        "failed": served["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }
    print(f"{args.workload}: {result['attempted']} requests attempted, "
          f"{result['failed']} failed")
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
