"""One benchmark process: prepare artefacts, probe set-up, or serve a run.

    worker.py prepare --prep-dir DIR
    worker.py probe --workload W --prep-dir DIR --spawned-at T
    worker.py serve --workload W --prep-dir DIR --spawned-at T --seed N --seconds S --trace 0|1

run.py starts each role in a fresh process and reads the JSON object that
the process prints as its last line. --spawned-at is the parent's
time.monotonic() just before the spawn, so set-up time includes interpreter
start and imports.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import prepare
import tracing
from workloads import D, WORKLOADS, peak_rss_mb, run_request

MIN_STEPS = 100  # cycles or optimizer steps per pass, so p90 has 10 beyond it

# On a shared host the machine's speed drifts, by 20-30% over minutes on
# the reference VM. A fixed slice of interpreter and numpy work that never calls
# specdraft is timed before the first request and after every request; each
# timing is scaled by REFERENCE_SLICE_S over the mean of the two slices
# around it, so end-to-end times read as if at the reference speed.
REFERENCE_SLICE_S = 0.023  # the slice's median time on the 2-core reference VM


def machine_slice() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    a = np.arange(64.0)
    for _ in range(2_000):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def machine_speed() -> float:
    """REFERENCE_SLICE_S over one slice, after one that warms the interpreter."""
    machine_slice()
    return REFERENCE_SLICE_S / machine_slice()


def run_pass(workload, system, requests: list, extend=None) -> list:
    """Serve `requests` in order, then each request extend(results) returns
    until it returns None. Every request is bracketed by machine slices, and
    its result carries the speed factor for its timings."""
    machine_slice()
    before = machine_slice()
    results = []
    while True:
        if len(results) == len(requests):
            req = extend(results) if extend else None
            if req is None:
                return results
            requests.append(req)
        res = run_request(workload, system, requests[len(results)])
        after = machine_slice()
        res.speed = 2 * REFERENCE_SLICE_S / (before + after)
        before = after
        results.append(res)


def first_pass(workload, system, seed: int, seconds: float):
    """Serve the seed's request stream: at least workload.min_requests(seconds)
    requests and MIN_STEPS steps. Both counts are fixed by the seed, so
    the work is too."""
    rng = workload.rng(seed)
    minimum = workload.min_requests(seconds)

    def extend(results):
        done = [r for r in results if r.error is None]
        if len(results) >= minimum and (
                len(done) < len(results) or sum(r.steps for r in done) >= MIN_STEPS):
            return None
        return workload.request(system, rng, len(results))

    requests = []
    return requests, run_pass(workload, system, requests, extend)


def verdicts(workload, system, requests, results) -> list[tuple[str, str] | None]:
    """("raised" | "wrong", reason) or None for every request of a pass."""
    if any(r.error is not None for r in results):
        return [r.error and ("raised", r.error) for r in results]
    return [v and ("wrong", v) for v in workload.check(system, requests, results)]


def totals(workload, results, scaled: bool = True):
    """(done results, wall seconds, tokens, steps); wall at reference speed
    unless scaled is False."""
    done = [r for r in results if r.error is None]
    wall = sum(r.wall_s * (r.speed if scaled else 1.0) for r in done)
    tokens = sum(workload.output_tokens(r) for r in done)
    steps = sum(r.steps for r in done)
    return done, wall, tokens, steps


def end_to_end(workload, results, scaled: bool = True) -> dict:
    done, wall, tokens, steps = totals(workload, results, scaled)
    speed = [r.speed if scaled else 1.0 for r in done]
    step_ms = [ms * k for r, k in zip(done, speed) for ms in r.step_ms]
    return {
        "tokens_per_s": tokens / wall,
        "ttft_ms.p50": statistics.median(r.first_ms * k for r, k in zip(done, speed)),
        "cycle_ms.p50": float(np.percentile(step_ms, 50)),
        "cycle_ms.p90": float(np.percentile(step_ms, 90)),
        "tau": tokens / steps,
        "train_steps_per_s": steps / wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def accept_rates(results) -> dict:
    """alpha_t = P(accept at depth t | depth t reached), over every cycle."""
    accepted = np.array([a for r in results if r.error is None for a in r.accepted],
                        dtype=np.int64)
    rates = {}
    for t in range(1, D + 1):
        reached = int((accepted >= t - 1).sum())
        rates[f"engine.accept_rate.d{t}"] = (
            int((accepted >= t).sum()) / reached if reached else 0.0)
    return rates


def rebuild_timings(workload, system, prep_dir: Path) -> dict:
    """Time build_trie and save_trie again on the prepared corpus."""
    if workload.trie_name is None:
        return {"ngram.build_s": 0.0, "ngram.save_s": 0.0}
    vocab_size = system.trie.vocab_size
    system.trie = None
    gc.collect()
    scratch = prep_dir / f"{workload.trie_name}.rebuild.trie"
    try:
        build_s, save_s = prepare.time_build_and_save(
            workload.corpus(prep_dir), vocab_size, scratch)
    finally:
        scratch.unlink(missing_ok=True)
    return {"ngram.build_s": build_s, "ngram.save_s": save_s}


def serve(args) -> dict:
    workload = WORKLOADS[args.workload]
    system = workload.setup(args.prep_dir)
    setup_s = time.monotonic() - args.spawned_at

    warm_rng = workload.rng(args.seed, stream=1)
    run_request(workload, system, workload.warmup(workload.request(system, warm_rng, 0)))
    setup_s *= machine_speed()
    requests, untraced = first_pass(workload, system, args.seed, args.seconds)
    if not args.trace:
        metrics = end_to_end(workload, untraced)  # peak memory before any check runs
        raw = end_to_end(workload, untraced, scaled=False)
        speed = statistics.median(r.speed for r in untraced if r.error is None)
        print(f"{args.workload}: machine speed {speed:.3f}; unscaled "
              + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()), file=sys.stderr)
    outcomes = verdicts(workload, system, requests, untraced)
    if args.trace:
        # The same requests twice more: untraced, with the target's lazy
        # caches as warm as the traced pass finds them, as the base for the
        # tracing overhead; then traced. Both must repeat the outputs.
        base = run_pass(workload, system, list(requests))
        tracer = tracing.Tracer()
        tracer.install(workload.drafter_class(system))
        try:
            traced = run_pass(workload, system, list(requests))
        finally:
            tracer.uninstall()
        for rerun in (base, traced):
            repeat = verdicts(workload, system, requests, rerun)
            for i, (a, b) in enumerate(zip(untraced, rerun)):
                if repeat[i] is None and a.error is None and not a.same_output(b):
                    repeat[i] = ("wrong", "a repeated request changed its output")
            outcomes += repeat
    failures = [v for v in outcomes if v is not None]
    if system.trie is not None:
        trie_verdict = checks.trie_matches_corpus(
            system.trie, workload.corpus(args.prep_dir),
            np.random.Generator(np.random.PCG64(args.seed)))
        if trie_verdict is not None:
            failures.append(("wrong", trie_verdict))
    if args.trace:
        metrics = layer_metrics(workload, system, tracer, untraced, base, traced,
                                args.prep_dir)
    for kind, reason in dict.fromkeys(failures):
        print(f"{args.workload}: {kind}: {reason}", file=sys.stderr)
    return {"setup_s": setup_s,
            "correct": not any(kind == "wrong" for kind, _ in failures),
            "attempted": len(outcomes),
            "failed": sum(v is not None for v in outcomes),
            "metrics": metrics}


def layer_metrics(workload, system, tracer, untraced, base, traced, prep_dir) -> dict:
    _, _, _, steps = totals(workload, untraced)
    _, b_wall, b_tokens, _ = totals(workload, base)
    _, t_wall, t_tokens, t_steps = totals(workload, traced)
    metrics = tracing.layer_metrics(tracer, t_steps)
    for key in ("load_s", "nodes", "file_bytes", "resident_bytes_per_node"):
        metrics[f"ngram.{key}"] = system.ngram.get(key, 0.0)
    metrics["engine.cycles"] = steps
    metrics.update(accept_rates(untraced))
    metrics["runtime.machine_speed"] = statistics.median(
        r.speed for r in untraced if r.error is None)
    untraced_rate, traced_rate = b_tokens / b_wall, t_tokens / t_wall
    metrics["runtime.untraced_tokens_per_s"] = untraced_rate
    metrics["runtime.traced_tokens_per_s"] = traced_rate
    metrics["runtime.tracing_overhead_pct"] = (untraced_rate / traced_rate - 1) * 100
    metrics.update(rebuild_timings(workload, system, prep_dir))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("role", choices=["prepare", "probe", "serve"])
    ap.add_argument("--prep-dir", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--spawned-at", type=float)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.role == "prepare":
        if not prepare.is_prepared(args.prep_dir):
            prepare.prepare(args.prep_dir)
        result = {"prepared": True}
    elif args.role == "probe":
        WORKLOADS[args.workload].setup(args.prep_dir)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s * machine_speed()}
    else:
        result = serve(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
