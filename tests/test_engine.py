from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdraft import engine
from specdraft import tree as tree_module
from specdraft.engine import (
    DecodeConfig,
    baseline_decode,
    decode,
    estimate_speedup,
    verify,
)
from specdraft.errors import ConfigError
from specdraft.models import (
    AdversarialDrafter,
    MarkovTarget,
    NoisyOracleDrafter,
    OracleDrafter,
    Session,
    ToyDraft,
    UniformDrafter,
    temperature_adjust,
)
from specdraft.ngram import NgramTrie, build_trie
from specdraft.training import evaluate_alpha
from specdraft.tree import ROOT_ID, DraftTree, ParallelLogits, PruneConfig, prune

from oracles import ScriptedRandom, argmax_rollout, check_verify_law, exactness_check


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
    logits = OracleDrafter(target).predict(target.start(prefix), 3)
    tree = prune(logits, None, cfg.prune, prefix)
    accepted, bonus = verify(tree, target.start(prefix), 0.0, np.random.default_rng(0))
    chain = target.greedy_chain(prefix, 4)
    assert accepted == chain[:3]
    assert bonus == chain[3]


def test_verify_immediate_mismatch(target):
    prefix = [1, 2]
    best = int(np.argmax(target.next_dist(prefix, 0.0)))
    wrong = (best + 1) % target.vocab_size
    tree = DraftTree(parent=[ROOT_ID], token=[wrong], level=[0], score=[-0.5])
    accepted, bonus = verify(tree, target.start(prefix), 0.0, np.random.default_rng(0))
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
        accepted, bonus = verify(tree, target.start(prefix), 1.0, rng)
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
            accepted, _ = verify(tree, target.start(prefix), 1.0,
                                 np.random.default_rng(seed))
            assert (accepted == [first]) == (draw < dist[first] / float(dist.sum()))


def test_verify_rejects_empty_tree(target):
    with pytest.raises(ConfigError):
        verify(DraftTree([], [], [], []), target.start([0]), 0.0, np.random.default_rng(0))


# -- the exact law of verify ------------------------------------------------------

LAW_TEMPERATURES = (0.0, 0.5, 1.0, 2.0)


class OneRowTarget:
    """A target whose conditional is `row` after every prefix."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float64)
        self.vocab_size = len(self.row)

    def start(self, prompt):
        return Session(self, list(prompt))

    def next_dist(self, prefix, temperature=1.0):
        return temperature_adjust(self.row, temperature)

    def tree_dists(self, prefix, tree, temperature=1.0):
        return np.tile(self.next_dist(prefix, temperature), (len(tree) + 1, 1))


def _full_tree(V, depth):
    """Every token at level 0, and every token under each level-0 node when
    depth is 2: the walk meets children holding all of the target's mass."""
    cfg = PruneConfig(k=V, w=V, theta=V + V * V)
    return prune(ParallelLogits(np.zeros((depth, V))), None, cfg, [0])


@given(st.data())
@settings(max_examples=40, derandomize=True)
def test_verify_law_on_pruned_trees(data):
    V = data.draw(st.integers(2, 8))
    d = data.draw(st.integers(1, 4))
    cfg = PruneConfig(k=data.draw(st.integers(1, V)), w=data.draw(st.integers(1, 4)),
                      theta=data.draw(st.integers(1, 12)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    target = MarkovTarget(int(rng.integers(1000)), V, data.draw(st.integers(1, 2)),
                          concentration=data.draw(st.sampled_from([0.05, 0.3, 2.0])))
    prefix = rng.integers(0, V, size=2).tolist()
    tree = prune(ParallelLogits(rng.standard_normal((d, V)) * 2), None, cfg, prefix)
    for temperature in LAW_TEMPERATURES:
        check_verify_law(target, prefix, tree, temperature)


@pytest.mark.parametrize("temperature", LAW_TEMPERATURES)
def test_verify_law_on_hand_built_trees(target, temperature):
    prefix = [1, 2]
    a, b = np.argsort(target.next_dist(prefix, 1.0))[::-1][:2].tolist()
    # Duplicate sibling tokens: the second copy of a token holds no residual
    # mass, so it is rejected, and its subtree is never reached.
    duplicates = DraftTree(parent=[ROOT_ID, ROOT_ID, ROOT_ID, 0, 0, 1],
                           token=[a, a, b, b, b, a], level=[0, 0, 0, 1, 1, 1],
                           score=[0.0] * 6)
    assert check_verify_law(target, prefix, duplicates, temperature) > 0
    # Near-zero and zero masses beside one token holding almost all of it;
    # at temperature 0 every row is one-hot.
    peaked = MarkovTarget(3, 6, 1, concentration=0.01)
    for context in range(6):
        check_verify_law(peaked, [context], _full_tree(6, 2), temperature)
    # Children that hold all of the mass, in an order whose subtractions
    # round (the fp corner below).
    check_verify_law(OneRowTarget([0.1, 0.7, 0.2]), [0], _full_tree(3, 2), temperature)


def test_verify_falls_back_to_the_heaviest_child_when_rounding_rejects_all_mass():
    # At [0.1, 0.7, 0.2] with children 0, 1, 2 in that order, rounding leaves
    # 0.2 / (1 - 0.1 - 0.7) just below 1, so the largest draw below 1 rejects
    # the last child that holds mass. The residual is then all zero: verify
    # accepts the heaviest child instead of drawing a bonus from no mass,
    # which would give token V.
    target = OneRowTarget([0.1, 0.7, 0.2])
    tree = DraftTree(parent=[ROOT_ID] * 3, token=[0, 1, 2], level=[0] * 3, score=[0.0] * 3)
    rng = ScriptedRandom([0.99, 0.99, 1 - 2 ** -53, 0.5])
    assert verify(tree, target.start([0]), 1.0, rng) == ([1], 1)
    assert rng.drawn == 4


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
    # The reference rejects what the system under test rejects.
    with pytest.raises(ConfigError):
        decode([], target, OracleDrafter(target), None, small_cfg())
    with pytest.raises(ConfigError, match="prompt must be nonempty"):
        baseline_decode([], target, 5)


@pytest.mark.parametrize("bad", [8, 99, -3, 1.7, "3", True])
def test_decode_and_baseline_reject_out_of_vocab_prompt(target, bad):
    # V = 8: any prompt token that is not an integer in [0, 8) is a
    # configuration error, never truncated or converted.
    with pytest.raises(ConfigError, match="prompt tokens"):
        decode([1, bad], target, OracleDrafter(target), None, small_cfg())
    with pytest.raises(ConfigError, match="prompt tokens"):
        baseline_decode([bad], target, 5)


@pytest.mark.parametrize("eos", [-5, 8, 1000])
def test_decode_and_baseline_reject_out_of_vocab_eos(target, eos):
    # V = 8: such an end token could never be emitted, so it would never stop a decode.
    with pytest.raises(ConfigError, match="eos_token"):
        decode([1, 2], target, OracleDrafter(target), None, small_cfg(eos_token=eos))
    with pytest.raises(ConfigError, match="eos_token"):
        baseline_decode([1, 2], target, 20, eos_token=eos)


@pytest.mark.parametrize("bad", [
    {"temperature": float("nan")}, {"temperature": float("inf")}, {"temperature": -0.5},
    {"max_tokens": -3}, {"max_tokens": 0}, {"max_tokens": 2.5}, {"max_tokens": True},
    {"seed": -1}, {"seed": 1.5}, {"eos_token": 2.0},
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_baseline_rejects_what_decode_config_rejects(target, bad):
    # The reference checks its arguments as DecodeConfig does: a NaN
    # temperature would emit tokens outside the vocabulary, and a negative
    # max_tokens an empty transcript.
    with pytest.raises(ConfigError):
        DecodeConfig(**bad)
    with pytest.raises(ConfigError):
        baseline_decode([1, 2], target, **{"max_tokens": 5, **bad})


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
    """Records how many feature rows each features call asks for."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = []

    def features(self, prefix, start=0):
        self.rows.append(len(prefix) - start)
        return super().features(prefix, start)


def test_greedy_toy_draft_long_prompt_incremental_features():
    for shifted in (True, False):
        target = RowCountingTarget(21, 16, 2, concentration=0.3)
        drafter = ToyDraft(16, target.embeddings, seed=1, shifted=shifted)
        prompt = target.sample_sequence(np.random.default_rng(4), 300)
        tokens, metrics = decode(prompt, target, drafter, None, small_cfg(d=4, max_tokens=60))
        assert tokens == argmax_rollout(target, prompt, 60)
        assert metrics.cycles >= 20
        # One call per cycle: the prompt's rows once, then at most the rows
        # of the e tokens the previous cycle emitted plus the two last ones
        # that the drafter rebuilds.
        assert len(target.rows) == metrics.cycles
        assert target.rows[0] == len(prompt)
        for asked, previous in zip(target.rows[1:], metrics.records):
            assert asked <= previous.emitted + 2


@pytest.mark.parametrize("drafter_class", [OracleDrafter, NoisyOracleDrafter])
def test_decode_asks_no_features_of_a_drafter_that_reads_none(drafter_class):
    target = RowCountingTarget(21, 16, 2, concentration=0.3)
    prompt = target.sample_sequence(np.random.default_rng(4), 300)
    _, metrics = decode(prompt, target, drafter_class(target), None,
                        small_cfg(temperature=1.0, max_tokens=40))
    assert metrics.cycles > 1
    assert target.rows == []


def test_decode_cycle_makes_one_target_call_and_one_trie_call_per_level(monkeypatch):
    # Verify scores the whole tree in one tree_dists call, and prune scores
    # each level it expands in one key_scores call on its node keys and one
    # combine call; nothing in a cycle calls the per-node next_dist or
    # children_scores. Prune may stop before level d once no beam entry can
    # reach the tree, and some cycle here does.
    calls = Counter()
    for owner, name in ((MarkovTarget, "next_dist"), (MarkovTarget, "tree_dists"),
                        (NgramTrie, "children_scores"), (NgramTrie, "key_scores"),
                        (tree_module, "combine")):
        def counted(*args, _name=name, _method=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    target = MarkovTarget(21, 32, 2, concentration=0.3)
    trie = build_trie([target.sample_sequence(np.random.default_rng(1), 500)], 3, 32)
    cfg = small_cfg(d=5, max_tokens=40, prune=PruneConfig())
    stopped_early = []
    for drafter in (NoisyOracleDrafter(target, seed=2), UniformDrafter(32, seed=3)):
        calls.clear()
        _, metrics = decode([1, 2], target, drafter, trie, cfg, measure_base=False)
        assert metrics.cycles > 1
        assert set(calls) == {"tree_dists", "key_scores", "combine"}
        assert calls["tree_dists"] == metrics.cycles
        assert calls["key_scores"] == calls["combine"] <= cfg.d * metrics.cycles
        stopped_early.append(calls["key_scores"] < cfg.d * metrics.cycles)
    assert any(stopped_early)


def test_one_session_per_request_or_sequence(monkeypatch):
    # decode and baseline_decode start one session per request, and
    # evaluate_alpha one per held-out sequence; every later call extends it.
    starts = []
    start = MarkovTarget.start

    def counted(self, prompt):
        starts.append(list(prompt))
        return start(self, prompt)

    monkeypatch.setattr(MarkovTarget, "start", counted)
    target = MarkovTarget(21, 16, 2, concentration=0.3)
    prompts = [[1, 2], [3], [4, 5, 6]]
    for drafter in (NoisyOracleDrafter(target, seed=1), ToyDraft(16, target.embeddings, seed=1)):
        starts.clear()
        for prompt in prompts:
            _, metrics = decode(prompt, target, drafter, None, small_cfg(max_tokens=20))
            assert metrics.cycles > 1
        assert starts == prompts
    starts.clear()
    for prompt in prompts:
        baseline_decode(prompt, target, 20, temperature=1.0)
    assert starts == prompts
    starts.clear()
    sequences = [target.sample_sequence(np.random.default_rng(i), 12) for i in range(3)]
    evaluate_alpha(ToyDraft(16, target.embeddings, seed=1), target, sequences, 3)
    assert starts == [seq[:1] for seq in sequences]


@pytest.mark.parametrize("width", [7, 9, 100])
def test_decode_rejects_a_drafter_of_another_width(target, width):
    # V = 8: logit rows wider or narrower than the target's vocabulary
    # are a configuration error, before any tree is pruned or verified.
    with pytest.raises(ConfigError, match=f"{width} wide.*vocab_size 8"):
        decode([1, 2], target, UniformDrafter(width, seed=0), None, small_cfg())


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
