#!/usr/bin/env python3
"""Benchmark snapshot: run perfbench on every workload, untraced and traced,
and write the results with the machine they ran on to BENCH_<short-sha>.json.

    python3 scripts/bench_snapshot.py [--root .] [--out FILE]

Each run is `python3 perfbench/run.py --workload W --seed 1 --seconds S
--trace T` from the checkout root, for every workload that BENCHMARK.json
lists, with S its `run_seconds` and T 0 (end-to-end metrics) and 1
(per-layer metrics). A run that fails keeps its exit code and whatever it
printed, so a snapshot is written either way. The short sha is the
checkout's HEAD.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run_perfbench(root: Path, workload: str, trace: int, seconds: float) -> dict:
    """One perfbench run: its JSON line, with the exit code added."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"error": proc.stderr.strip()[-2000:]}
    return {"exit_code": proc.returncode, **result}


def commit_of(root: Path) -> str | None:
    """Short sha of HEAD, or None outside a git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def assemble(runs: dict, commit: str | None, seconds: float) -> dict:
    """The snapshot, from {(workload, trace): run result}."""
    workloads = {}
    for (name, trace), run in runs.items():
        entry = workloads.setdefault(name, {})
        metrics = {m: v["value"] for m, v in run.get("metrics", {}).items()}
        entry["per_layer" if trace else "end_to_end"] = metrics
        entry.setdefault("status", {})[f"trace{trace}"] = {
            k: v for k, v in run.items() if k != "metrics"}
    speeds = [w["per_layer"]["runtime.machine_speed"] for w in workloads.values()
              if "runtime.machine_speed" in w.get("per_layer", {})]
    return {
        "commit": commit,
        "seed": SEED,
        "seconds": seconds,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            # perfbench's probe speed, the median over the traced runs: above
            # 1 is faster than its reference machine.
            "machine_speed": statistics.median(speeds) if speeds else None,
        },
        "workloads": workloads,
    }


def main(argv=None, runner=run_perfbench) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    ap.add_argument("--out", type=Path, help="default: BENCH_<short-sha>.json in the root")
    args = ap.parse_args(argv)

    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            run = runs[name, trace] = runner(args.root, name, trace, seconds)
            print(f"{name} --trace {trace}: exit {run['exit_code']}", file=sys.stderr)
    commit = commit_of(args.root)
    snapshot = assemble(runs, commit, seconds)
    out = args.out or args.root / f"BENCH_{commit or 'unknown'}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0 if all(run["exit_code"] == 0 for run in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
