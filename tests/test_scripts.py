"""Smoke test: each experiment script in scripts/ runs to completion at toy
size; the benchmark snapshot's JSON assembly, with perfbench stubbed out."""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, args):
    """The standard output of a successful run of scripts/<script>."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script, args", [
    ("gamma_sweep.py", ["--gammas", "0.6", "--seeds", "1", "--steps", "5", "--d", "3"]),
    ("shifted_ablation.py", ["--seeds", "1", "--steps", "5", "--d", "3"]),
    ("ngram_ablation.py", ["--runs", "2", "--max-tokens", "10"]),
])
def test_script_runs(script, args):
    assert _run(script, args).strip()


def _environment():
    """The versions a digest's bits may depend on, as transcript_digests.txt names them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def test_transcript_digest_repeats():
    # The digest is the bit-identity check for refactors, so two runs agree,
    # and the first one prints the values pinned in transcript_digests.txt.
    args = ["--requests", "1", "--long-prompt", "64"]
    first = _run("transcript_digest.py", args).splitlines()
    assert first == _run("transcript_digest.py", args).splitlines()
    digests = [line.split()[0] for line in first]
    assert len(digests) == 7
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests)
    pinned = [line for line in (ROOT / "tests" / "transcript_digests.txt").read_text().splitlines()
              if line and not line.startswith("#")]
    made_in = dict(line.split(": ", 1) for line in pinned[:3])
    for field, value in _environment().items():
        assert made_in.get(field) == value, (
            f"transcript_digests.txt was made with {field} {made_in.get(field)}, "
            f"this run has {value}: the digests may differ for that reason alone")
    assert len(pinned[3:]) == len(first)
    for i, (got, want) in enumerate(zip(first, pinned[3:]), start=1):
        assert got == want, f"digest {i} {want.split(None, 1)[1]} changed: {want.split()[0]} -> {got}"


def _bench_snapshot():
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", ROOT / "scripts" / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_snapshot_assembles_every_workload_and_trace(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def stub(root, workload, trace, seconds):
        calls.append((workload, trace, seconds))
        names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
        metrics = {name: {"value": float(i + trace), "unit": "x"} for i, name in enumerate(names)}
        if trace:
            metrics["runtime.machine_speed"]["value"] = {"train": 0.9}.get(workload, 1.2)
        failed = int(workload == "train" and trace == 0)
        return {"exit_code": failed, "correct": not failed, "attempted": 3, "failed": failed,
                "metrics": metrics}

    out = tmp_path / "snap.json"
    code = _bench_snapshot().main(["--root", str(ROOT), "--out", str(out)], runner=stub)
    assert code == 1  # one run failed, and the snapshot is written all the same
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    assert calls == [(name, trace, seconds) for name in names for trace in (0, 1)]
    snap = json.loads(out.read_text())
    assert snap["seed"] == 1 and snap["seconds"] == seconds
    assert set(snap["machine"]) == {"cores", "python", "numpy", "machine_speed"}
    assert snap["machine"]["cores"] == os.cpu_count()
    assert snap["machine"]["machine_speed"] == 1.2
    assert sorted(snap["workloads"]) == sorted(names)
    for name in names:
        entry = snap["workloads"][name]
        assert entry["end_to_end"] == {m["name"]: float(i)
                                       for i, m in enumerate(bench["end_to_end"])}
        assert sorted(entry["per_layer"]) == sorted(m["name"] for m in bench["per_layer"])
        assert entry["status"]["trace1"] == {"exit_code": 0, "correct": True,
                                             "attempted": 3, "failed": 0}
    assert snap["workloads"]["train"]["status"]["trace0"]["exit_code"] == 1
