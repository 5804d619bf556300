import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdraft.errors import ConfigError, ModelFormatError
from specdraft.engine import DecodeConfig, decode
from specdraft.models import (
    BATCH_SEEDING_MIN,
    CHAIN_LOGIT,
    FEAT_WIDTH,
    MODEL_WIDTH,
    AdversarialDrafter,
    MarkovTarget,
    NoisyOracleDrafter,
    OracleDrafter,
    ToyDraft,
    UniformDrafter,
    _SeedState,
    _seed_states,
    positional_encoding,
    sample_from,
    temperature_adjust,
)
from specdraft.training import build_training_batch
from specdraft.tree import ROOT_ID, DraftTree

from oracles import chain, concat_inputs, context_rng, readout_attention


# -- markov target ---------------------------------------------------------------


def test_rows_are_the_seeded_dirichlet_draws():
    # A context's row is the draw of its own seeded generator from the
    # Dirichlet with every parameter equal to the concentration.
    t = MarkovTarget(7, 16, 2, concentration=0.4)
    for ctx in [(0, 0), (3, 9), (15, 1), (3, 9)]:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, 1, *ctx])))
        expect = temperature_adjust(rng.dirichlet(np.full(16, 0.4)), 1.0)
        assert np.array_equal(t.next_dist(list(ctx)), expect)


def test_rows_sum_to_one():
    t = MarkovTarget(3, 16, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        ctx = list(rng.integers(0, 16, size=2))
        assert abs(t.next_dist(ctx).sum() - 1.0) < 1e-12


def test_temperature_adjust():
    dist = np.array([0.2, 0.5, 0.3])
    assert np.array_equal(temperature_adjust(dist, 0.0), [0.0, 1.0, 0.0])
    assert np.allclose(temperature_adjust(dist, 1.0), dist)
    sharp = temperature_adjust(dist, 0.5)
    assert sharp[1] > dist[1]
    with pytest.raises(ConfigError):
        temperature_adjust(dist, -1.0)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -1e-9, "1", None, True])
def test_temperature_adjust_rejects_non_temperatures(temperature):
    # A NaN temperature would otherwise give a NaN row, from which
    # sampling draws a token outside the vocabulary.
    with pytest.raises(ConfigError, match="temperature"):
        temperature_adjust(np.array([0.2, 0.5, 0.3]), temperature)
    with pytest.raises(ConfigError, match="temperature"):
        MarkovTarget(7, 4, 2).next_dist([1, 2], temperature)


def test_temperature_adjust_small_temperature_stays_finite():
    dist = MarkovTarget(4, 256, 2).next_dist([1, 2])
    cold = temperature_adjust(dist, 0.001)
    assert np.all(np.isfinite(cold))
    assert abs(cold.sum() - 1.0) < 1e-12
    assert np.argmax(cold) == np.argmax(temperature_adjust(dist, 0.0))


@pytest.mark.parametrize("temperature", [0.0, 0.001, 0.5, 1.0, 2.0])
def test_temperature_adjust_rows_match_per_row_calls(temperature):
    rng = np.random.default_rng(11)
    dists = rng.dirichlet(np.full(256, 0.3), size=12)
    dists[3, [7, 200]] = dists[3].max() + 0.1  # tied maxima: the lowest id wins at T=0
    dists[5, :] = 1 / 256                      # all tied
    dists[8, [0, 255]] = 0.5                   # tied at the ends
    got = temperature_adjust(dists, temperature)
    assert np.array_equal(got, np.stack([temperature_adjust(row, temperature) for row in dists]))
    if temperature == 0:
        assert got[3, 7] == 1.0 and got[5, 0] == 1.0 and got[8, 0] == 1.0
        assert (got.sum(axis=1) == 1.0).all()


@pytest.mark.parametrize("temperature", [0.25, 0.5, 2.0])
def test_temperature_adjust_is_p_to_the_one_over_t_renormalized(temperature):
    # The reference never calls temperature_adjust: p^(1/T) / sum p^(1/T) in
    # exact fractions where 1/T is an integer (T = 0.25, 0.5), and from
    # logarithms, shifted by their max and summed by math.fsum, at T = 2.
    rng = np.random.default_rng(12)
    rows = rng.dirichlet(np.full(64, 0.3), size=6)
    rows[1, :8] = [1e-30, 1e-12, 0.0, 0.0, 0.3, 1e-300, 0.25, 0.25]  # tiny, zero and tied
    inverse = 1 / temperature

    def reference(row):
        if inverse == int(inverse):
            powed = [Fraction(float(p)) ** int(inverse) for p in row]
            return [float(x / sum(powed)) for x in powed]
        logs = [math.log(p) * inverse if p > 0 else -math.inf for p in row]
        top = max(logs)
        total = math.fsum(math.exp(x - top) for x in logs)
        return [math.exp(x - top) / total for x in logs]

    want = np.array([reference(row) for row in rows])
    assert np.max(np.abs(temperature_adjust(rows, temperature) - want)) < 1e-12
    for row, expect in zip(rows, want):
        assert np.max(np.abs(temperature_adjust(row, temperature) - expect)) < 1e-12


def path_of(tree, i):
    path = []
    while i != ROOT_ID:
        path.append(int(tree.token[i]))
        i = int(tree.parent[i])
    return path[::-1]


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("temperature", [0.0, 0.5, 1.0])
def test_next_dists_match_next_dist_per_prefix(order, temperature):
    # A sequence's conditionals, as training takes them: one tree_dists call
    # on a chain from its first token draws the contexts met for the first
    # time in position order, as a target asked one prefix at a time draws
    # them. That the rows match is a check of the target contract
    # (tests/test_target_contract.py), which runs on these targets too.
    rng = np.random.default_rng(order)
    for n in (1, 2, 3, 17):  # shorter than the order, and longer
        seq = [int(x) for x in rng.integers(0, 9, size=n)]
        t, ref = MarkovTarget(13, 9, order), MarkovTarget(13, 9, order)
        t.tree_dists(seq[:1], chain(seq[1:]), temperature)
        for i in range(n):
            ref.next_dist(seq[:i + 1], temperature)
        assert list(t._rows) == list(ref._rows)


def test_features_match_per_position_contexts():
    t = MarkovTarget(9, 8, 3)
    prefix = [int(x) for x in np.random.default_rng(1).integers(0, 8, size=40)]
    feats = t.features(prefix)
    for i in range(len(prefix)):
        ref = t.features(prefix[: i + 1])
        assert np.array_equal(feats[i], ref[i])
        # Row i, one position at a time: the low, mid and high vectors of the
        # trailing `order` tokens up to i, left-padded with token 0.
        block = context_rng(9, 2, t.order, prefix[max(0, i + 1 - t.order): i + 1])
        assert np.array_equal(feats[i], block.standard_normal(3 * FEAT_WIDTH))


def test_features_start_out_of_range():
    t = MarkovTarget(9, 8, 3)
    for start in (-1, 4):
        with pytest.raises(ConfigError):
            t.features([1, 2, 3], start)


@pytest.mark.parametrize("bad", [20, 16, -1, 2 ** 64])
def test_features_reject_a_token_outside_the_vocabulary(bad):
    # At V=16 and order 2 the window (3, 20) would read as id 3*16 + 20, the
    # id of (4, 4), and return that context's row; a negative token or one
    # past int64 would end in an OverflowError. Each names the token.
    t = MarkovTarget(9, 16, 2)
    row = t.features([4, 4])[1]
    with pytest.raises(ConfigError, match=f"token {bad} at position 1 "):
        t.features([3, bad])
    with pytest.raises(ConfigError, match=f"token {bad} at position 0 "):
        t.features([bad, 3], 1)  # row 1's window reads position 0
    assert np.array_equal(t.features([4, 4])[1], row)


def test_features_check_only_the_windows_of_the_rows_asked_for():
    # Rows start .. n-1 read positions start - order + 1 .. n-1: a bad token
    # before those is not read, so a cycle's check costs its new rows only.
    t = MarkovTarget(9, 16, 2)
    assert np.array_equal(t.features([20, 3, 4], 2), t.features([0, 3, 4], 2))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_features_of_a_fresh_target_equal_the_cold_rows(order):
    # The rows gathered from the table, which grows while the call fills it,
    # are the seeded draws of each position's context, from every start.
    prefix = [int(x) for x in np.random.default_rng(order).integers(0, 100, size=160)]
    expect = np.array([context_rng(9, 2, order, prefix[:i + 1]).standard_normal(3 * FEAT_WIDTH)
                       for i in range(len(prefix))])
    contexts = {tuple(([0] * order + prefix[:i + 1])[-order:]) for i in range(len(prefix))}
    assert len(contexts) > len(MarkovTarget(9, 100, order)._table)  # past the first capacity
    for start in range(len(prefix) + 1):
        assert np.array_equal(MarkovTarget(9, 100, order).features(prefix, start), expect[start:])


def test_feature_rows_do_not_depend_on_the_order_contexts_were_met():
    prefix = [int(x) for x in np.random.default_rng(3).integers(0, 40, size=300)]
    a, b = MarkovTarget(9, 40, 2), MarkovTarget(9, 40, 2)
    a.features(prefix)
    b.features(prefix[::-1])
    b.features(prefix[150:])
    assert list(a._slot) != list(b._slot)
    assert np.array_equal(a.features(prefix), b.features(prefix))
    assert np.array_equal(a.features(prefix[::-1], 7), b.features(prefix[::-1], 7))


@pytest.mark.parametrize("vocab_size, highest", [(2, 62), (64, 10), (256, 7)])
def test_target_order_whose_context_ids_overflow_int64_is_rejected(vocab_size, highest):
    # A context's id is its window read as a base-V number, so V ** order
    # must stay below 2 ** 63.
    t = MarkovTarget(1, vocab_size, highest)
    assert t.features([vocab_size - 1] * (highest + 2)).shape == (highest + 2, 3 * FEAT_WIDTH)
    with pytest.raises(ConfigError, match=rf"\[1, {highest}\] at vocab_size {vocab_size}.*int64"):
        MarkovTarget(1, vocab_size, highest + 1)


def test_target_validation():
    with pytest.raises(ConfigError):
        MarkovTarget(0, 1, 1)
    with pytest.raises(ConfigError):
        MarkovTarget(0, 4, 0)


@pytest.mark.parametrize("bad", [
    {"concentration": float("nan")}, {"concentration": float("inf")},
    {"concentration": 0.0}, {"concentration": -1.0}, {"concentration": "0.3"},
    {"seed": 1.0}, {"seed": True}, {"seed": -1}, {"vocab_size": 8.0}, {"vocab_size": True},
    {"order": 2.0}, {"order": True},
], ids=lambda c: ",".join(f"{k}={v!r}" for k, v in c.items()))
def test_target_rejects_what_it_cannot_build(bad):
    # A NaN concentration built NaN rows, from which baseline_decode sampled
    # tokens outside the vocabulary.
    with pytest.raises(ConfigError):
        MarkovTarget(**{"seed": 1, "vocab_size": 8, "order": 2, **bad})


@pytest.mark.parametrize("order", [1, 3])
def test_rollout_from_a_long_prefix_equals_one_from_its_last_order_tokens(order):
    t = MarkovTarget(5, 8, order)
    prefix = t.sample_sequence(np.random.default_rng(2), 500)

    def sampled(start):
        rng = np.random.default_rng(6)
        return t.rollout(start, 12, lambda row: sample_from(row, rng))

    assert sampled(prefix) == sampled(prefix[-order:])
    assert t.rollout(prefix, 12, np.argmax) == t.rollout(prefix[-order:], 12, np.argmax)
    assert t.rollout([3], 4, np.argmax) == t.rollout([0] * order + [3], 4, np.argmax)


@pytest.mark.parametrize("bad", [16, -1])
def test_rollout_rejects_a_picked_token_outside_the_vocabulary(bad):
    # Read into the next context id, the token would alias another context's
    # row: at V=16, order 2, (3, 16) reads as the id of (4, 0).
    t = MarkovTarget(1, 16, 2)
    picks = iter([bad, 0, 0])
    with pytest.raises(ConfigError, match=rf"token {bad} .*outside \[0, 16\)"):
        t.rollout([3], 3, lambda row: next(picks))


@pytest.mark.parametrize("vocab_size, order", [(2, 62), (256, 7), (64, 10)])
def test_rows_at_the_widest_context_ids_are_the_seeded_draws(vocab_size, order):
    # The highest order at each vocabulary size, with tokens near V - 1: ids
    # just below V ** order, within a factor of V of 2 ** 63.
    seed, V = 3, vocab_size
    t = MarkovTarget(seed, V, order)

    def row(prefix):
        p = context_rng(seed, 1, order, prefix).dirichlet(np.full(V, 0.3))
        return p / p.sum()

    prefix = [V - 1 - i % 2 for i in range(order + 1)]
    tokens = [V - 1, V - 2, V - 1, 0, V - 1, V - 2, V - 1]
    tree = DraftTree([ROOT_ID, ROOT_ID, 0, 0, 1, 2, 5], tokens, [0, 0, 1, 1, 1, 2, 3],
                     np.zeros(7))
    want = [row(prefix)] + [row(prefix + path_of(tree, i)) for i in range(len(tree.token))]
    assert np.array_equal(t.tree_dists(prefix, tree), np.stack(want))
    seq = list(prefix)
    for _ in range(6):
        seq.append(int(np.argmax(row(seq))))
    assert t.rollout(prefix, 6, np.argmax) == seq[len(prefix):]


def test_short_prefix_padded():
    t = MarkovTarget(5, 8, 3)
    assert np.array_equal(t.next_dist([4]), t.next_dist([0, 0, 4]))


def test_sample_sequence_seeded():
    t = MarkovTarget(5, 8, 1)
    s1 = t.sample_sequence(np.random.default_rng(3), 20)
    s2 = t.sample_sequence(np.random.default_rng(3), 20)
    assert s1 == s2 and len(s1) == 20


@pytest.mark.parametrize("vocab_size", [2 ** 32 + 1, 2 ** 40])
def test_target_vocab_past_2_to_the_32_is_rejected(vocab_size):
    # Each token is one 32-bit word of a row's seed; the 2**20 cap on a row's
    # size keeps every token within that word, before any array is built.
    with pytest.raises(ConfigError, match=r"vocab_size must be <= 2\*\*20"):
        MarkovTarget(1, vocab_size, 1)


def _reading_calls(t):
    """Every MarkovTarget call that reads a prefix's tokens, as call(prefix)."""
    one_node = DraftTree([ROOT_ID], [1], [0], [0.0])
    return (t.next_dist, t.features, lambda prefix: t.tree_dists(prefix, one_node),
            lambda prefix: t.rollout(prefix, 3, np.argmax))


def test_a_token_that_is_no_seed_word_raises():
    # Wrapped into 32 bits, -1 would silently draw the row of 2**32 - 1, and
    # 20 at V=16 would draw a row for a context no sequence holds.
    t = MarkovTarget(1, 16, 2)
    for call in _reading_calls(t):
        for prefix in ([3, -1], [3, -1] * BATCH_SEEDING_MIN, [3, 2 ** 32], [3, 20], [3, 2 ** 70]):
            with pytest.raises(ConfigError, match=r"outside \[0, 16\)"):
                call(prefix)


def test_a_rejected_call_draws_no_row():
    t = MarkovTarget(1, 16, 2)
    t.tree_dists([1], chain([2, 3, 4]))
    t.features([1, 2, 3, 4])
    rows, slots = dict(t._rows), dict(t._slot)
    for call in _reading_calls(t):
        with pytest.raises(ConfigError, match="token 20 at position 4"):
            call([5, 6, 7, 8, 20])
    for token in (16, -1):  # a tree token is checked too, once for the whole tree
        tree = DraftTree([ROOT_ID, 0, 0], [1, 2, token], [0, 1, 1], [0.0] * 3)
        with pytest.raises(ConfigError, match=f"tree node 2's token {token} is outside"):
            t.tree_dists([5, 6], tree)
    assert t._rows.keys() == rows.keys() and t._slot == slots
    assert all(t._rows[ctx] is row for ctx, row in rows.items())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 2 ** 32 - 1), min_size=n, max_size=n), min_size=1, max_size=6)))
def test_seed_states_are_seed_sequence_states(rows):
    # Rows shorter than, as long as and longer than the pool of 4 words.
    entropy = np.array(rows, dtype=np.uint32)
    states = _seed_states(entropy)
    assert states.shape == (len(rows), 4) and states.dtype == np.uint64
    for row, state in zip(entropy, states):
        seq = np.random.SeedSequence(row)
        assert np.array_equal(state, seq.generate_state(4, np.uint64))
        assert np.random.PCG64(_SeedState(state)).state == np.random.PCG64(seq).state


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1])
def test_rows_of_any_seed_are_the_seeded_numpy_draws(seed):
    # numpy splits a seed past 32 bits into several words, and so must the
    # rows drawn together.
    prefix = [int(x) for x in np.random.default_rng(4).integers(0, 16, size=3 * BATCH_SEEDING_MIN)]
    t = MarkovTarget(seed, 16, 2, concentration=0.4)
    dists, feats = t.tree_dists(prefix[:1], chain(prefix[1:])), t.features(prefix)
    assert len(t._rows) >= BATCH_SEEDING_MIN and len(t._slot) >= BATCH_SEEDING_MIN
    one = MarkovTarget(seed, 16, 2, concentration=0.4)
    for i in range(len(prefix)):
        rng = context_rng(seed, 1, 2, prefix[:i + 1])
        expect = temperature_adjust(rng.dirichlet(np.full(16, 0.4)), 1.0)
        assert np.array_equal(dists[i], expect)
        assert np.array_equal(one.next_dist(prefix[:i + 1]), expect)
        expect = context_rng(seed, 2, 2, prefix[:i + 1]).standard_normal(3 * FEAT_WIDTH)
        assert np.array_equal(feats[i], expect)
        assert np.array_equal(one.features(prefix[:i + 1])[i], expect)


# (seed, order): entropy of 3 words, shorter than the pool, then 5 and 6, longer.
COLD_TARGETS = [(13, 1), (13, 3), (2 ** 64 + 1, 2)]
NEW_CONTEXTS = [1, BATCH_SEEDING_MIN - 1, BATCH_SEEDING_MIN, 60]


@pytest.mark.parametrize("seed, order", COLD_TARGETS)
@pytest.mark.parametrize("m", NEW_CONTEXTS)
def test_cold_tree_dists_equal_one_context_at_a_time(seed, order, m):
    # A chain of m nodes with distinct tokens under a warm root context meets
    # m new contexts in one call.
    tokens = [int(x) for x in np.random.default_rng(m).permutation(97)[:m + 1]]
    prefix = tokens[:1]
    tree = DraftTree([ROOT_ID, *range(m - 1)], tokens[1:], list(range(m)), np.zeros(m))
    t = MarkovTarget(seed, 97, order)
    t.next_dist(prefix)
    got = t.tree_dists(prefix, tree, 0.5)
    assert len(t._rows) == 1 + m
    ref = MarkovTarget(seed, 97, order)
    want = [ref.next_dist(prefix, 0.5)] + [ref.next_dist(tokens[:i + 2], 0.5) for i in range(m)]
    assert np.array_equal(got, np.stack(want))


@pytest.mark.parametrize("seed, order", COLD_TARGETS)
@pytest.mark.parametrize("m", NEW_CONTEXTS)
def test_cold_next_dists_and_features_equal_one_context_at_a_time(seed, order, m):
    # A prefix of m distinct tokens has m distinct contexts.
    prefix = [int(x) for x in np.random.default_rng(m).permutation(97)[:m]]
    t = MarkovTarget(seed, 97, order)
    dists, feats = t.tree_dists(prefix[:1], chain(prefix[1:])), t.features(prefix)
    assert len(t._rows) == m and len(t._slot) == m
    ref = MarkovTarget(seed, 97, order)
    for i in range(m):
        assert np.array_equal(dists[i], ref.next_dist(prefix[:i + 1]))
        feat = context_rng(seed, 2, order, prefix[:i + 1]).standard_normal(3 * FEAT_WIDTH)
        assert np.array_equal(feats[i], feat)


# -- toy draft -------------------------------------------------------------------


@pytest.fixture
def target():
    return MarkovTarget(9, 8, 1)


@pytest.fixture
def model(target):
    return ToyDraft(8, target.embeddings, seed=2)


def test_single_forward_per_predict(target, model, monkeypatch, rng):
    calls = []
    forward_core = model.forward_core

    def counted(*args, **kwargs):
        calls.append(args)
        return forward_core(*args, **kwargs)

    monkeypatch.setattr(model, "forward_core", counted)
    for d in (1, 4):
        calls.clear()
        model.predict(target.start([1, 2, 3]), d, rng=rng)
        assert len(calls) == 1


@pytest.mark.parametrize("shifted", [True, False])
@pytest.mark.parametrize("d", [1, 8])
@pytest.mark.parametrize("n", [1, 2, 300])
def test_forward_matches_per_row_attention_oracle(shifted, d, n):
    class OneHotTarget(MarkovTarget):
        """A one-hot conditional makes 3 the shifted token at any temperature."""

        def next_dist(self, prefix, temperature=1.0):
            return np.eye(self.vocab_size)[3]

    target = OneHotTarget(9, 16, 2)
    model = ToyDraft(16, target.embeddings, seed=5, shifted=shifted)
    prefix = [int(x) for x in np.random.default_rng(n).integers(0, 16, size=n)]
    emb_tokens = prefix[1:] + [3] if shifted else prefix
    rows = model.predict(target.start(prefix), d, rng=np.random.default_rng(0)).rows
    expect = readout_attention(model.params, target.embeddings, target.features(prefix),
                               emb_tokens, d, shifted)
    assert rows.shape == (d, 16)
    assert np.max(np.abs(rows - expect)) < 1e-12


def test_predict_memory_stays_linear_in_prefix(rng):
    # Full L x L attention at n = 4096 needs a 4103 x 4103 float64 score
    # matrix (134 MB); the d read-out rows need a few MB.
    target = MarkovTarget(9, 64, 2)
    model = ToyDraft(64, target.embeddings, seed=2)
    session = target.start(int(x) for x in np.random.default_rng(0).integers(0, 64, size=4096))
    tracemalloc.start()
    try:
        model.predict(session, 8, rng=rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_predict_shape_and_d1_boundary(target, model, rng):
    logits = model.predict(target.start([1, 2, 3]), 1, rng=rng)
    assert logits.rows.shape == (1, 8)
    logits5 = model.predict(target.start([1, 2, 3]), 5, rng=rng)
    assert logits5.rows.shape == (5, 8)


def test_causal_extension_leaves_earlier_rows_unchanged(target, model, rng):
    # Appending more mask positions must not change earlier output rows.
    short = model.predict(target.start([1, 2, 3]), 2, rng=rng).rows
    long = model.predict(target.start([1, 2, 3]), 5, rng=rng).rows
    assert np.allclose(short, long[:2], atol=1e-12)


def test_prefix_perturbation_does_not_leak_backwards(target, model, rng):
    # Changing the prefix changes outputs only through attention over visible
    # positions: with d masks appended, the mask rows may change, but an
    # identical shared prefix forward is bitwise reproducible.
    a = model.predict(target.start([1, 2, 3]), 3, rng=rng).rows
    b = model.predict(target.start([1, 2, 3]), 3, rng=rng).rows
    assert np.array_equal(a, b)


def test_shifted_read_position_alignment(target):
    # With value mixing disabled the layer is the identity on its input, so
    # each output row exposes exactly its read position's input signal: row t
    # must equal head(z[n + t - 1]).
    model = ToyDraft(8, target.embeddings, seed=4)
    model.params["Wv"][:] = 0.0
    prefix = [1, 2, 3, 4]
    n = len(prefix)
    d = 3
    feats = target.features(prefix)
    nxt = int(np.argmax(target.next_dist(prefix)))
    emb_tokens = prefix[1:] + [nxt]
    rows = model.predict(target.start(prefix), d, rng=np.random.default_rng(0)).rows
    oracle = readout_attention(model.params, target.embeddings, feats, emb_tokens, d, True)
    assert np.max(np.abs(rows - oracle)) < 1e-12

    g = feats @ model.params["W_in"]
    e = target.embeddings[np.asarray(emb_tokens)]
    z = np.concatenate([
        np.concatenate([g, e], axis=-1),
        np.tile(model.params["mask_vec"], (d - 1, 1)),
    ])
    z = z + positional_encoding(range(n + d - 1))
    expect = z @ model.params["W_head"] + model.params["b_head"]
    for t in range(d):
        assert np.allclose(rows[t], expect[n - 1 + t], atol=1e-12)


def test_unshifted_reads_mask_positions(target, rng):
    model = ToyDraft(8, target.embeddings, seed=4, shifted=False)
    model.params["Wv"][:] = 0.0
    prefix = [1, 2, 3]
    n, d = len(prefix), 2
    rows = model.predict(target.start(prefix), d, rng=rng).rows
    g = target.features(prefix) @ model.params["W_in"]
    e = target.embeddings[np.asarray(prefix)]
    z = np.concatenate([
        np.concatenate([g, e], axis=-1),
        np.tile(model.params["mask_vec"], (d, 1)),
    ])
    z = z + positional_encoding(range(n + d))
    expect = z @ model.params["W_head"] + model.params["b_head"]
    for t in range(d):
        assert np.allclose(rows[t], expect[n + t], atol=1e-12)


def test_predict_requires_rng_when_sampling(target, model, rng):
    # The shifted token is drawn at every temperature; at 0 the draw is the
    # argmax of the target conditional whatever the generator yields.
    for temperature in (0.0, 1.0):
        with pytest.raises(TypeError):
            model.predict(target.start([1, 2]), 2, temperature=temperature)
        out = model.predict(target.start([1, 2]), 2, temperature=temperature, rng=rng)
        assert out.rows.shape == (2, 8)
    nxt = int(np.argmax(target.next_dist([1, 2])))
    greedy = model.predict(target.start([1, 2]), 2, rng=np.random.default_rng(99)).rows
    oracle = readout_attention(model.params, target.embeddings, target.features([1, 2]),
                               [2, nxt], 2, True)
    assert np.max(np.abs(greedy - oracle)) < 1e-12
    for seed in range(5):
        out = model.predict(target.start([1, 2]), 2, rng=np.random.default_rng(seed))
        assert np.array_equal(out.rows, greedy)


# -- drafting cache ------------------------------------------------------------


def _cycles(shifted, d, prompt_len, seed=0, vocab=16, n_cycles=None):
    """A multi-cycle drafting run: (target, model, prefixes), the prefix
    growing by 1, 2, .., d, 1, .. tokens from one cycle to the next."""
    target = MarkovTarget(9, vocab, 2)
    model = ToyDraft(vocab, target.embeddings, seed=5, shifted=shifted)
    gen = np.random.default_rng(seed)
    prefix = [int(x) for x in gen.integers(0, vocab, size=prompt_len)]
    prefixes = [list(prefix)]
    for c in range(n_cycles or 2 * d + 2):
        prefix += [int(x) for x in gen.integers(0, vocab, size=1 + c % d)]
        prefixes.append(list(prefix))
    return target, model, prefixes


CACHE_CASES = [(shifted, d, prompt_len)
               for shifted in (True, False) for d in (1, 3, 8) for prompt_len in (1, 6)]


def _grown(target, prefixes):
    """One session extended through `prefixes`, by one or more tokens at a
    time: yields (i, session) with session.tokens equal to prefixes[i]."""
    session = target.start(prefixes[0])
    for i, prefix in enumerate(prefixes):
        session.extend(prefix[len(session.tokens):])
        assert session.tokens == prefix
        yield i, session


@pytest.mark.parametrize("shifted, d, prompt_len", CACHE_CASES)
def test_cached_logits_equal_fresh_cache_bit_for_bit(shifted, d, prompt_len):
    # A session grown cycle by cycle drafts what a session started on its
    # whole prefix drafts.
    target, model, prefixes = _cycles(shifted, d, prompt_len)
    for i, session in _grown(target, prefixes):
        for temperature in (0.0, 1.0):
            grown = model.predict(session, d, rng=np.random.default_rng(i),
                                  temperature=temperature).rows
            fresh = model.predict(target.start(prefixes[i]), d, rng=np.random.default_rng(i),
                                  temperature=temperature).rows
            assert np.array_equal(grown, fresh), (i, temperature)


@pytest.mark.parametrize("shifted, d, prompt_len", CACHE_CASES)
def test_cached_logits_match_readout_attention(shifted, d, prompt_len):
    target, model, prefixes = _cycles(shifted, d, prompt_len, seed=1)
    for _, session in _grown(target, prefixes):
        rows = model.predict(session, d, rng=np.random.default_rng(0)).rows
        prefix = session.tokens
        emb_tokens = prefix[1:] + [int(np.argmax(target.next_dist(prefix)))] if shifted else prefix
        expect = readout_attention(model.params, target.embeddings, target.features(prefix),
                                   emb_tokens, d, shifted)
        assert np.max(np.abs(rows - expect)) < 1e-12


@pytest.mark.parametrize("shifted", [True, False])
@pytest.mark.parametrize("d", [1, 4])
def test_cache_reused_on_another_prefix_gives_the_fresh_result(shifted, d):
    # Two drafters take turns on one growing session: each finds the other's
    # cache in session.draft, starts its own, and drafts the fresh result.
    target, model, prefixes = _cycles(shifted, d, 20, seed=2)
    other = ToyDraft(16, target.embeddings, seed=6, shifted=shifted)
    for i, session in _grown(target, prefixes):
        for drafter in ((model, other) if i % 2 else (other, model)):
            reused = drafter.predict(session, d, rng=np.random.default_rng(0)).rows
            fresh = drafter.predict(target.start(prefixes[i]), d,
                                    rng=np.random.default_rng(0)).rows
            assert np.array_equal(reused, fresh), (i, drafter is model)


@pytest.mark.parametrize("shifted, d, prompt_len", CACHE_CASES)
def test_later_cycle_projects_only_its_new_positions(shifted, d, prompt_len, monkeypatch):
    target, model, prefixes = _cycles(shifted, d, prompt_len, seed=4)
    built = []
    build_inputs = model.build_inputs

    def counted(feats, emb_tokens, n_mask, position_ids):
        z = build_inputs(feats, emb_tokens, n_mask, position_ids)
        built.append(z.shape[1])
        return z

    monkeypatch.setattr(model, "build_inputs", counted)
    n_mask = d - 1 if shifted else d
    for i, session in _grown(target, prefixes):
        model.predict(session, d, rng=np.random.default_rng(0))
        if i == 0:
            assert built[-1] == len(prefixes[0]) + n_mask
            continue
        emitted = len(prefixes[i]) - len(prefixes[i - 1])
        # Shifted: the emitted positions, the re-embedded last one and the
        # masks. Unshifted: the emitted ones and the masks, but never fewer
        # than two prefix positions.
        expect = emitted + n_mask + 1 if shifted else max(emitted, 2) + n_mask
        assert built[-1] == expect
    assert built[-1] < len(prefixes[-1]) + n_mask


@pytest.mark.parametrize("shifted", [True, False])
@pytest.mark.parametrize("shape", ["n=1", "n=2", "n=1100", "train"])
def test_build_inputs_equals_concatenated_inputs(shifted, shape):
    target = MarkovTarget(7, 64, 2)
    model = ToyDraft(64, target.embeddings, seed=5, shifted=shifted)
    if shape == "train":
        corpus = [target.sample_sequence(np.random.default_rng(i), 24) for i in range(16)]
        batch = build_training_batch(target, corpus, 8, 0.6, shifted=shifted)
        args = (batch.feats, batch.emb_tokens, len(batch.position_ids) - batch.n_prefix,
                batch.position_ids)
    else:
        n = int(shape[2:])
        prefix = target.sample_sequence(np.random.default_rng(n), n)
        emb = prefix[1:] + [3] if shifted else prefix
        n_mask = 7 if shifted else 8
        args = (target.features(prefix)[None], np.asarray(emb)[None], n_mask,
                np.arange(n + n_mask))
    z = model.build_inputs(*args)
    assert z.shape == (len(args[0]), len(args[3]), MODEL_WIDTH)
    assert np.array_equal(z, concat_inputs(model, *args))


@pytest.mark.parametrize("shifted", [True, False])
def test_cached_predict_over_a_long_prompt_equals_a_fresh_drafter(shifted):
    # The first cycle projects all 1,100 prompt positions straight into the
    # cache's rows; two later cycles add to them.
    target = MarkovTarget(7, 64, 2)
    model = ToyDraft(64, target.embeddings, seed=5, shifted=shifted)
    gen = np.random.default_rng(8)
    session = target.start(target.sample_sequence(gen, 1100))
    for extension in ([], [int(x) for x in gen.integers(0, 64, 3)], [int(gen.integers(64))]):
        session.extend(extension)
        fresh = ToyDraft(64, target.embeddings, seed=5, shifted=shifted)
        got = model.predict(session, 8, rng=np.random.default_rng(1), temperature=1.0).rows
        want = fresh.predict(target.start(session.tokens), 8, rng=np.random.default_rng(1),
                             temperature=1.0).rows
        assert np.array_equal(got, want)
    assert session.draft.final == len(session.tokens) - shifted


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_decode_transcripts_match_a_drafter_without_cache(temperature):
    # Long-context shaped decodes: every cycle's logits, and therefore the
    # tokens and the per-cycle acceptance, are those of a fresh-cache draft.
    target = MarkovTarget(9, 64, 2)
    model = ToyDraft(64, target.embeddings, seed=5)

    class Recorded:
        def __init__(self, keep_cache):
            self.keep_cache, self.rows = keep_cache, []

        def predict(self, session, d, *, rng, temperature=0.0):
            if not self.keep_cache:
                session = target.start(session.tokens)
            out = model.predict(session, d, rng=rng, temperature=temperature)
            self.rows.append(out.rows)
            return out

    gen = np.random.default_rng(7)
    for request in range(3):
        prompt = [int(x) for x in gen.integers(0, 64, size=300 + 40 * request)]
        cfg = DecodeConfig(d=8, temperature=temperature, max_tokens=24, seed=request)
        runs = []
        for keep_cache in (True, False):
            drafter = Recorded(keep_cache)
            out, metrics = decode(prompt, target, drafter, None, cfg, measure_base=False)
            runs.append((out, [r.accepted for r in metrics.records], drafter.rows))
        (out_a, acc_a, rows_a), (out_b, acc_b, rows_b) = runs
        assert out_a == out_b and acc_a == acc_b
        assert len(rows_a) == len(rows_b) > 1
        assert all(np.array_equal(a, b) for a, b in zip(rows_a, rows_b))


def test_model_save_load_round_trip(tmp_path, target, model, rng):
    p = tmp_path / "m.npz"
    model.save(p)
    loaded = ToyDraft.load(p)
    assert loaded.shifted == model.shifted
    assert np.array_equal(model.predict(target.start([1, 2, 3]), 3, rng=rng).rows,
                          loaded.predict(target.start([1, 2, 3]), 3, rng=rng).rows)


def test_model_load_rejects_other_version(tmp_path, target, model):
    p = tmp_path / "m.npz"
    model.save(p)
    data = dict(np.load(p))
    data["version"] = np.int64(99)
    np.savez(p, **data)
    with pytest.raises(ModelFormatError):
        ToyDraft.load(p)


def _rewrite_model(path, **changes):
    data = dict(np.load(path))
    for name, value in changes.items():
        if value is None:
            del data[name]
        else:
            data[name] = value
    np.savez(path, **data)


def _with(arr, index, value):
    arr[index] = value
    return arr


def _described(value):
    if value is None:
        return "missing"
    if value.dtype.kind == "f" and not np.isfinite(value).all():
        return "non-finite"
    return value.shape


@pytest.mark.parametrize("changes", [
    {"W_head": np.zeros((3, 3))},
    {"b_head": np.zeros(9)},
    {"Wq": None},
    {"mask_vec": None},
    {"embeddings": np.zeros((8, 4))},
    {"embeddings": None},
    {"vocab_size": None},
    {"vocab_size": np.int64(9)},
    {"Wk": np.array(["a"] * 24 * 24).reshape(24, 24)},
    {"Wv": np.empty((24, 24), dtype=object)},
    {"Wq": _with(np.zeros((24, 24)), (3, 5), np.nan)},
    {"b_head": _with(np.zeros(8), 2, np.inf)},
    {"embeddings": _with(np.zeros((8, 8)), (7, 0), np.nan)},
    # Header scalars are integers, never truncated, and shifted is 0 or 1.
    pytest.param({"version": np.float64(1.9)}, id="version=1.9"),
    pytest.param({"vocab_size": np.float64(8.7)}, id="vocab_size=8.7"),
    pytest.param({"shifted": np.float64(0.6)}, id="shifted=0.6"),
    pytest.param({"shifted": np.int64(7)}, id="shifted=7"),
], ids=lambda c: ",".join(f"{k}={_described(v)}" for k, v in c.items()))
def test_model_load_rejects_malformed_arrays(tmp_path, model, changes):
    p = tmp_path / "m.npz"
    model.save(p)
    _rewrite_model(p, **changes)
    with pytest.raises(ModelFormatError):
        ToyDraft.load(p)


@pytest.mark.parametrize("content", [b"", b"not an archive", b"PK\x03\x04truncated"])
def test_model_load_rejects_non_archives(tmp_path, content):
    p = tmp_path / "m.npz"
    p.write_bytes(content)
    with pytest.raises(ModelFormatError):
        ToyDraft.load(p)


def test_model_load_rejects_single_array(tmp_path):
    p = tmp_path / "m.npy"
    np.save(p, np.zeros(3))
    with pytest.raises(ModelFormatError):
        ToyDraft.load(p)


# -- reference drafters -----------------------------------------------------------


def _chain_rows(chain, vocab_size, value, noise=None):
    """The rows a chain drafter should give: `value` at each row's chain
    token, added to `noise` (zeros if None)."""
    rows = np.zeros((len(chain), vocab_size)) if noise is None else noise
    rows[np.arange(len(chain)), chain] += value
    return rows


def test_oracle_argmax_matches_greedy_chain(target):
    drafter = OracleDrafter(target)
    prefix = [3, 1]
    rows = drafter.predict(target.start(prefix), 5).rows
    chain = target.rollout(prefix, 5, np.argmax)
    assert list(np.argmax(rows, axis=1)) == chain
    assert np.array_equal(rows, _chain_rows(chain, target.vocab_size, CHAIN_LOGIT))


def test_adversarial_argmax_matches_argmin_chain(target):
    drafter = AdversarialDrafter(target)
    prefix = [3, 1]
    rows = drafter.predict(target.start(prefix), 4).rows
    chain = target.rollout(prefix, 4, np.argmin)
    assert list(np.argmax(rows, axis=1)) == chain
    assert np.array_equal(rows, _chain_rows(chain, target.vocab_size, CHAIN_LOGIT))


def test_uniform_drafter_seeded_stream(target):
    a = UniformDrafter(8, seed=5)
    b = UniformDrafter(8, seed=5)
    session = target.start([0])
    assert np.array_equal(a.predict(session, 3).rows, b.predict(session, 3).rows)
    # stream advances call to call
    assert not np.array_equal(a.predict(session, 3).rows, b.predict(session, 3).rows[:0:-1])


def test_noisy_oracle_keeps_chain_in_topk(target):
    drafter = NoisyOracleDrafter(target, noise=0.5, base=2.0, seed=0)
    prefix = [2, 2]
    chain = target.rollout(prefix, 4, np.argmax)
    rows = drafter.predict(target.start(prefix), 4).rows
    for i, tok in enumerate(chain):
        top3 = np.argsort(-rows[i])[:3]
        assert tok in top3
    noise = np.random.Generator(np.random.PCG64(0)).standard_normal((4, target.vocab_size)) * 0.5
    assert np.array_equal(rows, _chain_rows(chain, target.vocab_size, 2.0, noise))


BAD_SEEDS = [-1, 1.5, True, "0", None]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_toy_draft_rejects_a_seed_that_is_no_integer_at_least_0(target, seed):
    with pytest.raises(ConfigError, match="seed"):
        ToyDraft(8, target.embeddings, seed=seed)


@pytest.mark.parametrize("shifted", ["x", 1, None, np.True_])
def test_toy_draft_rejects_a_shifted_that_is_no_bool(target, shifted):
    with pytest.raises(ConfigError, match="shifted"):
        ToyDraft(8, target.embeddings, shifted=shifted)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_uniform_drafter_rejects_a_seed_that_is_no_integer_at_least_0(seed):
    with pytest.raises(ConfigError, match="seed"):
        UniformDrafter(8, seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_noisy_oracle_drafter_rejects_a_seed_that_is_no_integer_at_least_0(target, seed):
    with pytest.raises(ConfigError, match="seed"):
        NoisyOracleDrafter(target, seed=seed)


def test_drafters_take_a_numpy_integer_seed(target):
    for make in (lambda s: ToyDraft(8, target.embeddings, seed=s).params["Wq"],
                 lambda s: UniformDrafter(8, seed=s).predict(target.start([0]), 2).rows,
                 lambda s: NoisyOracleDrafter(target, seed=s).predict(target.start([0]), 2).rows):
        assert np.array_equal(make(np.int64(3)), make(3))
