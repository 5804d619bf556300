import numpy as np
import pytest

from specdraft import engine
from specdraft.engine import (
    DecodeConfig,
    baseline_decode,
    decode,
    estimate_speedup,
    exactness_check,
    verify,
)
from specdraft.errors import ConfigError
from specdraft.models import (
    AdversarialDrafter,
    MarkovTarget,
    NoisyOracleDrafter,
    OracleDrafter,
    ToyDraft,
    UniformDrafter,
)
from specdraft.ngram import build_trie
from specdraft.tree import ROOT_ID, DraftTree, ParallelLogits, PruneConfig, prune

from oracles import argmax_rollout


@pytest.fixture
def target():
    return MarkovTarget(21, 8, 2, concentration=0.15)


def small_cfg(**kw):
    defaults = dict(d=3, temperature=0.0, max_tokens=30, seed=0,
                    prune=PruneConfig(k=4, w=4, theta=10))
    defaults.update(kw)
    return DecodeConfig(**defaults)


# -- verify -----------------------------------------------------------------------


def test_verify_accepts_greedy_chain(target):
    prefix = [1, 2]
    cfg = small_cfg()
    logits = OracleDrafter(target).predict(prefix, None, 3)
    tree = prune(logits, None, cfg.prune, prefix)
    accepted, bonus = verify(tree, prefix, target, 0.0, np.random.default_rng(0))
    chain = target.greedy_chain(prefix, 4)
    assert accepted == chain[:3]
    assert bonus == chain[3]


def test_verify_immediate_mismatch(target):
    prefix = [1, 2]
    best = int(np.argmax(target.next_dist(prefix, 0.0)))
    wrong = (best + 1) % target.vocab_size
    tree = DraftTree(parent=[ROOT_ID], token=[wrong], level=[0], score=[-0.5])
    accepted, bonus = verify(tree, prefix, target, 0.0, np.random.default_rng(0))
    assert accepted == []
    assert bonus == best


def test_verify_full_support_always_descends(target):
    # When the offered children carry all target mass, some child is always
    # accepted; the walk reaches the tree's depth every time.
    prefix = [0, 3]
    V = target.vocab_size
    rows = np.zeros((2, V))
    cfg = PruneConfig(k=V, w=V, theta=V + V * V)
    tree = prune(ParallelLogits(rows), None, cfg, prefix)
    rng = np.random.default_rng(1)
    for _ in range(40):
        accepted, bonus = verify(tree, prefix, target, 1.0, rng)
        assert len(accepted) == 2
        assert 0 <= bonus < V


def test_verify_tries_children_in_tree_order(target):
    # The walk's first draw decides the first-listed root child: it is
    # accepted iff the draw falls below its share of the target mass. Listing
    # the same children in the other order spends that draw on the other one.
    prefix = [1, 2]
    dist = target.next_dist(prefix, 1.0)
    a, b = np.argsort(dist)[-2:].tolist()
    for first, second in ((a, b), (b, a)):
        tree = DraftTree(parent=[ROOT_ID, ROOT_ID], token=[first, second], level=[0, 0],
                         score=[-0.1, -0.2])
        for seed in range(30):
            draw = np.random.default_rng(seed).random()
            accepted, _ = verify(tree, prefix, target, 1.0, np.random.default_rng(seed))
            assert (accepted == [first]) == (draw < dist[first] / float(dist.sum()))


def test_verify_rejects_empty_tree(target):
    with pytest.raises(ConfigError):
        verify(DraftTree([], [], [], []), [0], target, 0.0, np.random.default_rng(0))


# -- decode -----------------------------------------------------------------------


def test_decode_oracle_tau_is_depth_plus_one(target):
    cfg = small_cfg(max_tokens=40)
    out, metrics = decode([1, 2], target, OracleDrafter(target), None, cfg)
    assert metrics.tau == cfg.d + 1
    assert out == baseline_decode([1, 2], target, 40, 0.0)


def test_decode_uniform_tau_band():
    target = MarkovTarget(3, 256, 2, concentration=0.1)
    cfg = DecodeConfig(d=3, temperature=0.0, max_tokens=1100, seed=5,
                       prune=PruneConfig(k=25, w=8, theta=16))
    out, metrics = decode([0], target, UniformDrafter(256, seed=4), None, cfg,
                          measure_base=False)
    assert metrics.cycles >= 1000
    assert 1.0 <= metrics.tau <= 1.2


def test_decode_single_token(target):
    out, metrics = decode([1], target, OracleDrafter(target), None,
                          small_cfg(max_tokens=1))
    assert metrics.cycles == 1
    assert len(out) == 1
    assert metrics.tau == 1.0


def test_decode_eos_truncates_mid_cycle(target):
    # Pick the greedy token two steps in as EOS: decode must stop right after
    # it even though the cycle accepted further tokens.
    chain = baseline_decode([1, 2], target, 10, 0.0)
    eos = chain[2]
    cfg = small_cfg(max_tokens=30, eos_token=eos)
    out, metrics = decode([1, 2], target, OracleDrafter(target), None, cfg)
    assert out == chain[: chain.index(eos) + 1]
    assert out[-1] == eos


def test_cycle_accounting(target):
    cfg = small_cfg(max_tokens=23, seed=3)
    out, metrics = decode([1, 2], target, NoisyOracleDrafter(target, seed=3), None, cfg)
    assert metrics.tokens_out == len(out) == 23
    assert metrics.tokens_out == sum(r.accepted + 1 for r in metrics.records)
    assert metrics.tokens_out == sum(r.emitted for r in metrics.records)
    assert 1.0 <= metrics.tau <= cfg.d + 1
    for r in metrics.records:
        assert r.draft_ms >= 0 and r.prune_ms >= 0 and r.verify_ms >= 0


def test_greedy_losslessness_randomized():
    rng = np.random.default_rng(42)
    for case in range(8):
        target = MarkovTarget(int(rng.integers(1e6)), 16, 2)
        drafter = [
            OracleDrafter(target),
            UniformDrafter(16, seed=case),
            AdversarialDrafter(target),
            NoisyOracleDrafter(target, seed=case),
        ][case % 4]
        cfg = DecodeConfig(d=3, temperature=0.0, max_tokens=50, seed=case,
                           prune=PruneConfig(k=3, w=3, theta=8))
        prompt = list(rng.integers(0, 16, size=2))
        out, _ = decode(prompt, target, drafter, None, cfg, measure_base=False)
        assert out == baseline_decode(prompt, target, 50, 0.0)


def test_oracle_never_below_corrupted_oracle(target):
    for seed in range(5):
        cfg = small_cfg(seed=seed, max_tokens=40)
        _, m_oracle = decode([1, 2], target, OracleDrafter(target), None, cfg,
                             measure_base=False)
        _, m_noisy = decode([1, 2], target,
                            NoisyOracleDrafter(target, noise=2.0, seed=seed),
                            None, cfg, measure_base=False)
        assert m_oracle.tau >= m_noisy.tau


def test_decode_requires_prompt(target):
    with pytest.raises(ConfigError):
        decode([], target, OracleDrafter(target), None, small_cfg())


@pytest.mark.parametrize("bad", [8, 99, -3])
def test_decode_and_baseline_reject_out_of_vocab_prompt(target, bad):
    # V = 8: any prompt token outside [0, 8) is a configuration error.
    with pytest.raises(ConfigError, match="prompt tokens"):
        decode([1, bad], target, OracleDrafter(target), None, small_cfg())
    with pytest.raises(ConfigError, match="prompt tokens"):
        baseline_decode([bad], target, 5)


def test_concurrent_sessions_share_target_and_trie(target):
    # Sessions own their RNGs; the trie and target are shared read-only.
    from concurrent.futures import ThreadPoolExecutor

    corpus = [target.greedy_chain([t], 40) for t in range(4)]
    trie = build_trie(corpus, 3, target.vocab_size)

    def run(seed):
        cfg = small_cfg(seed=seed, temperature=0.8, max_tokens=25)
        drafter = NoisyOracleDrafter(target, seed=seed)
        return decode([1, 2], target, drafter, trie, cfg, measure_base=False)[0]

    sequential = [run(s) for s in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run, range(4)))
    assert threaded == sequential


def test_metrics_report_and_records(target):
    _, metrics = decode([1, 2], target, OracleDrafter(target), None,
                        small_cfg(max_tokens=12))
    text = metrics.report()
    assert "tau" in text and "verify_ms" in text
    recs = metrics.to_records()
    assert len(recs) == metrics.cycles
    assert {"cycle", "accepted", "emitted", "draft_ms", "prune_ms",
            "verify_ms"} <= set(recs[0])


def test_cycle_records_explain_tau(target, monkeypatch):
    corpus = [target.greedy_chain([t], 60) for t in range(4)]
    trie = build_trie(corpus, 3, target.vocab_size)
    sizes = []

    def recording_prune(*args):
        tree = prune(*args)
        sizes.append(len(tree))
        return tree

    monkeypatch.setattr(engine, "prune", recording_prune)
    cfg = small_cfg(temperature=1.0, max_tokens=60, seed=3)
    out, metrics = decode([1, 2], target, NoisyOracleDrafter(target, seed=3), trie, cfg,
                          measure_base=False)
    records = metrics.records
    assert [sum(r.nodes_per_level) for r in records] == sizes
    assert all(len(r.nodes_per_level) == cfg.d for r in records)
    assert max(sizes) <= cfg.prune.theta
    assert sum(r.accepted for r in records) == metrics.tokens_out - metrics.cycles
    accepted = [r.accepted for r in records]
    assert len(metrics.accept_rates) == cfg.d
    for t, rate in enumerate(metrics.accept_rates, start=1):
        reached = [a for a in accepted if a >= t - 1]
        assert 0.0 <= rate <= 1.0
        assert rate == (sum(a >= t for a in reached) / len(reached) if reached else 0.0)
    assert metrics.accept_rates[0] > 0


def test_same_seed_same_records(target):
    corpus = [target.greedy_chain([t], 60) for t in range(4)]
    trie = build_trie(corpus, 3, target.vocab_size)

    def run():
        cfg = small_cfg(temperature=0.7, max_tokens=40, seed=4)
        out, metrics = decode([3, 1], target, NoisyOracleDrafter(target, seed=4), trie, cfg,
                              measure_base=False)
        records = [{k: v for k, v in rec.items() if not k.endswith("_ms")}
                   for rec in metrics.to_records()]
        return out, records, metrics.accept_rates, metrics.tau

    assert run() == run()


# -- exactness ----------------------------------------------------------------------


def test_exactness_zero_samples_sentinel(target):
    cfg = small_cfg(temperature=1.0)
    assert exactness_check(target, OracleDrafter(target), None, cfg, 0) == 1.0


def test_exactness_requires_positive_temperature(target):
    with pytest.raises(ConfigError):
        exactness_check(target, OracleDrafter(target), None, small_cfg(), 10)


def test_exactness_small_run():
    target = MarkovTarget(3, 4, 2)
    cfg = DecodeConfig(d=2, temperature=1.0, max_tokens=3, seed=7,
                       prune=PruneConfig(k=2, w=2, theta=4))
    tv = exactness_check(target, OracleDrafter(target), None, cfg, 4000)
    assert tv <= 0.05  # ~64 outcomes at n=4000; noise floor is ~0.03


def test_exactness_with_sampling_drafter():
    # The trained drafter samples its shifted next-token embedding from the
    # same rng stream the verifier draws from; output must stay exact.
    from specdraft.models import ToyDraft

    target = MarkovTarget(3, 4, 1)
    drafter = ToyDraft(4, np.zeros((4, 8)), seed=1)
    cfg = DecodeConfig(d=2, temperature=0.9, max_tokens=3, seed=11,
                       prune=PruneConfig(k=2, w=2, theta=4))
    tv = exactness_check(target, drafter, None, cfg, 4000)
    assert tv <= 0.06


def test_greedy_losslessness_with_trie(target):
    corpus = [target.greedy_chain([t], 60) for t in range(4)]
    trie = build_trie(corpus, 3, target.vocab_size)
    for seed in range(4):
        cfg = small_cfg(seed=seed, max_tokens=80)
        out, _ = decode([1, 2], target, NoisyOracleDrafter(target, seed=seed),
                        trie, cfg, measure_base=False)
        assert out == baseline_decode([1, 2], target, 80, 0.0)


class RowCountingTarget(MarkovTarget):
    """Counts the feature rows asked of it."""

    rows = 0

    def features(self, prefix, start=0):
        self.rows += len(prefix) - start
        return super().features(prefix, start)


def test_greedy_toy_draft_long_prompt_incremental_features():
    target = RowCountingTarget(21, 16, 2, concentration=0.3)
    drafter = ToyDraft(16, target.embeddings, seed=1)
    prompt = target.sample_sequence(np.random.default_rng(4), 300)
    tokens, metrics = decode(prompt, target, drafter, None, small_cfg(d=4, max_tokens=60))
    assert tokens == argmax_rollout(target, prompt, 60)
    assert metrics.cycles >= 20
    # The prompt's rows once, then only the rows of each cycle's emitted
    # tokens; the last cycle's tokens are never drafted from.
    assert target.rows == len(prompt) + len(tokens) - metrics.records[-1].emitted


# -- speedup model -------------------------------------------------------------------


def test_estimate_speedup_examples():
    s, r = estimate_speedup(4.0, 10.0, 0.0, 0.0, 10.0)
    assert (s, r) == (4.0, 0.0)
    s, r = estimate_speedup(3.67, 20.0, 1.5, 2.0, 20.0)
    assert s == pytest.approx(3.1234, abs=1e-3)
    assert r == pytest.approx(0.1489, abs=1e-3)


def test_estimate_speedup_limits_and_monotonicity():
    s1, _ = estimate_speedup(2.0, 10.0, 1.0, 1.0, 10.0)
    s2, _ = estimate_speedup(2.0, 10.0, 100.0, 1.0, 10.0)
    s3, _ = estimate_speedup(2.0, 10.0, 10000.0, 1.0, 10.0)
    assert s1 > s2 > s3
    s_hi, _ = estimate_speedup(3.0, 10.0, 1.0, 1.0, 10.0)
    s_lo, _ = estimate_speedup(2.0, 10.0, 1.0, 1.0, 10.0)
    assert s_hi > s_lo


def test_estimate_speedup_validation():
    with pytest.raises(ConfigError):
        estimate_speedup(0.5, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        estimate_speedup(2.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        estimate_speedup(2.0, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        estimate_speedup(2.0, 1.0, 1.0, 1.0, 0.0)


def test_decode_config_validation():
    with pytest.raises(ConfigError):
        DecodeConfig(d=0)
    with pytest.raises(ConfigError):
        DecodeConfig(max_tokens=0)
    with pytest.raises(ConfigError):
        DecodeConfig(temperature=-0.1)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
def test_decode_config_rejects_non_finite_temperature(temperature):
    with pytest.raises(ConfigError, match="temperature"):
        DecodeConfig(temperature=temperature)
