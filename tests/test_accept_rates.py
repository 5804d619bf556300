"""The engine's per-depth acceptance rates against the benchmark's own
independent count over the same cycles: the two must agree exactly."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import prepare  # noqa: E402
import worker  # noqa: E402
from workloads import D, PRUNE, Result  # noqa: E402

from specdraft import NoisyOracleDrafter, build_trie  # noqa: E402
from specdraft.engine import DecodeConfig, _accept_rates, decode  # noqa: E402


@pytest.fixture(scope="module")
def chat_runs():
    """A few chat-like requests: the chat target, a trie over its chain and
    the noisy-oracle drafter, decoded greedily at the reference point."""
    target = prepare.make_target(prepare.CHAT_TARGET)
    sampler = prepare.ChainSampler(target)
    rng = np.random.default_rng(9)
    trie = build_trie(sampler.sample(10, 400, rng).tolist(), prepare.TRIE_ORDER,
                      target.vocab_size)
    runs = []
    for seed, length in enumerate((4, 16, 40, 9)):
        prompt = sampler.sample(1, length, rng)[0].tolist()
        cfg = DecodeConfig(d=D, max_tokens=64, seed=seed, prune=PRUNE)
        runs.append(decode(prompt, target, NoisyOracleDrafter(target, seed=seed), trie, cfg,
                           measure_base=False)[1])
    return runs


def by_depth(rates):
    return {f"engine.accept_rate.d{t}": rate for t, rate in enumerate(rates, start=1)}


def test_accept_rates_match_the_benchmark_count(chat_runs):
    accepted = [[r.accepted for r in metrics.records] for metrics in chat_runs]
    pooled = worker.accept_rates([Result(accepted=a) for a in accepted])
    assert pooled == by_depth(_accept_rates([a for run in accepted for a in run], D))
    assert 0 < pooled["engine.accept_rate.d1"] < 1
    for metrics, run in zip(chat_runs, accepted):
        assert by_depth(metrics.accept_rates) == worker.accept_rates([Result(accepted=run)])
