import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import rel_entr

from specdraft import training
from specdraft.errors import ConfigError, TrainingDivergedError
from specdraft.models import MarkovTarget, NoisyOracleDrafter, ToyDraft, _key_major_max, group_keys
from specdraft.ngram import LOG_FLOOR
from specdraft.training import (
    TrainingLogRecord,
    _batch_forward,
    _safe_q_log_q,
    batch_loss,
    build_position_ids,
    build_training_batch,
    build_training_mask,
    evaluate_alpha,
    floored_kl,
    train_toy_draft,
)

from oracles import (
    allocating_batch_loss,
    dense_backward,
    dense_forward,
    finite_diff_check,
    slot_by_slot_loss,
)


# -- scalar predicate oracle -------------------------------------------------------


def predicate_mask(prompt_len, draft_len, seq_len):
    """Literal scalar translation of the three reference mask predicates."""

    def prompt_causal(q_idx, kv_idx):
        in_prompt = (q_idx < prompt_len) and (kv_idx < prompt_len)
        causal = q_idx >= kv_idx
        valid = (q_idx < seq_len) and (kv_idx < seq_len)
        return in_prompt and causal and valid

    def draft_view_prompt(q_idx, kv_idx):
        is_draft = q_idx >= prompt_len
        kv_in_prompt = kv_idx < prompt_len
        draft_group = (q_idx - prompt_len) // draft_len
        valid_group = draft_group < seq_len
        allowed_prompt = kv_idx <= draft_group
        return is_draft and kv_in_prompt and valid_group and allowed_prompt

    def draft_internal_causal(q_idx, kv_idx):
        is_draft_q = q_idx >= prompt_len
        is_draft_k = kv_idx >= prompt_len
        q_group = (q_idx - prompt_len) // draft_len
        k_group = (kv_idx - prompt_len) // draft_len
        same_group = q_group == k_group
        causal = q_idx >= kv_idx
        valid = q_group < seq_len
        return is_draft_q and is_draft_k and same_group and causal and valid

    M = prompt_len * (draft_len + 1)
    out = np.zeros((M, M), dtype=bool)
    for q in range(M):
        for kv in range(M):
            out[q, kv] = (prompt_causal(q, kv) or draft_view_prompt(q, kv)
                          or draft_internal_causal(q, kv))
    return out


def test_mask_figure_example():
    # prefix length 3, mask block length 2
    m = build_training_mask(3, 2)
    assert m.shape == (9, 9)
    # prompt query 2 attends prompt kv {0,1,2}
    assert list(np.flatnonzero(m[2])) == [0, 1, 2]
    # block for prefix group 1 occupies rows 5,6: sees prompt {0,1} + itself causally
    assert list(np.flatnonzero(m[5])) == [0, 1, 5]
    assert list(np.flatnonzero(m[6])) == [0, 1, 5, 6]
    # groups 0 and 1 mutually invisible
    assert not m[3:5, 5:7].any() and not m[5:7, 3:5].any()


def test_mask_degenerate_block():
    m = build_training_mask(4, 1)
    # each single-mask position attends its own prefix group plus itself
    for g in range(4):
        row = 4 + g
        assert list(np.flatnonzero(m[row])) == list(range(g + 1)) + [row]


def test_mask_matches_predicates_small():
    for P in range(1, 6):
        for d in range(1, 6):
            got = build_training_mask(P, d)
            assert np.array_equal(got, predicate_mask(P, d, P)), (P, d)


def test_mask_structure_property():
    # true entries are same-example: prompt kv or same block
    P, d = 6, 4
    m = build_training_mask(P, d)
    M = P * (d + 1)
    for q in range(M):
        for kv in np.flatnonzero(m[q]):
            if q >= P and kv >= P:
                assert (q - P) // d == (kv - P) // d


def test_mask_validation():
    with pytest.raises(ConfigError):
        build_training_mask(0, 2)


def test_position_ids_examples():
    assert list(build_position_ids(3, 2)) == [0, 1, 2, 1, 2, 2, 3, 3, 4]
    assert list(build_position_ids(3, 1)) == [0, 1, 2, 1, 2, 3]
    ids = build_position_ids(5, 4)
    P, m = 5, 4
    for g in range(P):
        block = ids[P + g * m: P + (g + 1) * m]
        assert list(block) == list(range(g + 1, g + m + 1))
        assert all(np.diff(block) == 1)


# -- annealed KL -------------------------------------------------------------------


def test_kl_zero_at_match():
    q = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]])
    loss, grad, floored = floored_kl(np.log(q), q, 0.6 ** np.arange(2))
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad, 0.0, atol=1e-12)
    assert not floored


def test_kl_weighted_sum():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((2, 5))
    q = rng.dirichlet(np.ones(5), size=2)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    kl = rel_entr(q, p).sum(axis=1)  # independent oracle
    loss, _, _ = floored_kl(logits, q, 0.6 ** np.arange(2))
    assert loss == pytest.approx(kl[0] + 0.6 * kl[1], rel=1e-9)
    # numeric mirror of the constants: KL1=0.1, KL2=0.2 -> 0.22
    assert 0.1 + 0.6 * 0.2 == pytest.approx(0.22)


def test_kl_gamma_to_zero_keeps_first_position():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((3, 4))
    q = rng.dirichlet(np.ones(4), size=3)
    lo, _, _ = floored_kl(logits, q, 1e-12 ** np.arange(3))
    only_first, _, _ = floored_kl(logits[:1], q[:1], 1.0 ** np.arange(1))
    assert lo == pytest.approx(only_first, rel=1e-9)


def test_kl_floor_flagged():
    logits = np.array([[0.0, -2000.0]])
    q = np.array([[0.5, 0.5]])
    loss, grad, floored = floored_kl(logits, q, 0.6 ** np.arange(1))
    assert floored
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_kl_gradient_matches_central_difference():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((2, 6))
    q = rng.dirichlet(np.ones(6), size=2)
    weights = 0.6 ** np.arange(2)
    _, grad, _ = floored_kl(logits, q, weights)
    h = 1e-5
    for idx in [(0, 0), (0, 3), (1, 5)]:
        bumped = logits.copy()
        bumped[idx] += h
        up, _, _ = floored_kl(bumped, q, weights)
        bumped[idx] -= 2 * h
        down, _, _ = floored_kl(bumped, q, weights)
        fd = (up - down) / (2 * h)
        assert grad[idx] == pytest.approx(fd, abs=1e-7)


def test_kl_where_the_cheap_floor_test_fails_but_nothing_clamps():
    # Row 0's smallest log-probability, about -20, clears the floor (log 1e-9,
    # about -20.7), but row 1's total, 8, is the largest: the whole-array test
    # min(logits - top) >= floor + max(log total) fails, and each row's own
    # log-probabilities decide. Nothing clamps, so the loss is the plain KL.
    rng = np.random.default_rng(7)
    logits = np.stack([np.r_[0.0, np.full(7, -20.0)], np.zeros(8)])
    logits += rng.uniform(-0.01, 0.01, size=logits.shape)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_total = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert shifted.min() < LOG_FLOOR + log_total.max()
    assert (shifted - log_total).min() >= LOG_FLOOR
    q = rng.dirichlet(np.ones(8), size=2)
    weights = 0.6 ** np.arange(2)
    loss, grad, floored = floored_kl(logits, q, weights)
    assert not floored
    p = np.exp(shifted - log_total)
    want = rel_entr(q, p).sum(axis=1) @ weights  # independent oracle
    assert abs(loss - want) <= 1e-12 * want
    h = 1e-5
    for idx in [(0, 0), (0, 4), (1, 2), (1, 7)]:
        bumped = logits.copy()
        bumped[idx] += h
        up = floored_kl(bumped, q, weights)[0]
        bumped[idx] -= 2 * h
        down = floored_kl(bumped, q, weights)[0]
        assert grad[idx] == pytest.approx((up - down) / (2 * h), abs=1e-7)


@pytest.mark.parametrize("shifted", [True, False])
def test_batch_label_terms_are_row_sums_of_the_labels(shifted):
    # The per-row constants the KL reads are built once per batch, summed
    # over each position's conditional and gathered like the labels: sum q
    # log q and sum q of each slot's own label row, up to the rounding of a
    # sum over another matrix, and the gradient's label term q * weight / norm.
    model, batch = _step_setup("train", shifted)
    q_log_q, mass, scaled = batch.label_terms
    ones = np.ones(batch.labels.shape[-1])
    G, d = batch.labels.shape[1:3]
    assert np.allclose(q_log_q, _safe_q_log_q(batch.labels) @ ones, rtol=1e-14, atol=0)
    assert np.allclose(mass, batch.labels @ ones, rtol=1e-14, atol=0)
    slot_scale = (batch.slot_weights / batch.norm).reshape(G, d)
    assert np.array_equal(scaled, batch.labels * slot_scale[:, :, None])
    assert q_log_q.shape == mass.shape == batch.labels.shape[:3]


@pytest.mark.parametrize("seed", range(4))
def test_key_major_row_max_equals_max_over_the_last_axis(seed):
    # Training's softmax takes each score row's max from a key-major copy.
    # On score arrays masked as forward_core masks them (-1e30 where a key is
    # hidden, rows with one key left, ties, zeros of both signs), it equals
    # max(axis=-1), and the softmax's exp(s - max) keeps every bit.
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((3, 4, 5, 23))
    s[..., ::3] = np.round(s[..., ::3])  # ties
    mask = rng.random((4, 5, 23)) < 0.4
    mask[0, 0] = False
    mask[0, 0, 5] = True  # a row that sees one key
    np.copyto(s, -1e30, where=~mask)
    got, want = _key_major_max(s), s.max(axis=-1, keepdims=True)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.exp(s - got).tobytes() == np.exp(s - want).tobytes()


def test_kl_config_validation(setup):
    # The KL weighting's settings, gamma and d, are checked where the batch
    # that carries the weights is built.
    target, corpus, _ = setup
    for gamma, d in ((0.0, 3), (1.5, 3), (float("nan"), 3), (True, 3), (0.6, 0), (0.6, 2.5)):
        with pytest.raises(ConfigError):
            build_training_batch(target, corpus, d, gamma)
    batch = build_training_batch(target, corpus, 3, 0.5)
    assert list(batch.slot_weights[:3]) == [1.0, 0.5, 0.25]


# -- trainer -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def setup():
    target = MarkovTarget(5, 8, 1, concentration=0.05)
    rng = np.random.default_rng(0)
    corpus = [target.sample_sequence(rng, 14) for _ in range(12)]
    heldout = [target.sample_sequence(rng, 14) for _ in range(30)]
    return target, corpus, heldout


def test_zero_steps_returns_init(setup):
    target, corpus, _ = setup
    trained = train_toy_draft(target, corpus, 0.6, 4, steps=0, lr=0.1, seed=3)
    fresh = ToyDraft(8, target.embeddings, seed=3)
    for name in fresh.params:
        assert np.array_equal(trained.params[name], fresh.params[name])
    with pytest.raises(ConfigError):
        train_toy_draft(target, corpus, 0.6, 4, steps=-1, lr=0.1, seed=3)


def test_loss_strictly_decreases_first_100_steps(setup):
    target, corpus, _ = setup
    log = []
    train_toy_draft(target, corpus, 0.6, 4, steps=101, lr=0.05, seed=1, log=log)
    losses = [r.loss for r in log]
    assert all(losses[i] > losses[i + 1] for i in range(100))


def test_divergence_aborts():
    # A smooth target keeps the initial KL small, so a blown-up loss clears
    # the 10x threshold before the epsilon floor caps it.
    target = MarkovTarget(5, 8, 1, concentration=5.0)
    rng = np.random.default_rng(0)
    corpus = [target.sample_sequence(rng, 14) for _ in range(8)]
    with pytest.raises(TrainingDivergedError) as exc:
        train_toy_draft(target, corpus, 0.6, 4, steps=300, lr=40.0, seed=1)
    assert exc.value.loss > 10 * exc.value.initial_loss


def test_non_finite_loss_aborts_without_warning(setup):
    # An update of lr=1e308 overflows the next forward, whose loss is NaN:
    # no threshold comparison holds for it, so the guard must ask for a
    # finite loss, and the overflow must not surface as a RuntimeWarning.
    target, corpus, _ = setup
    log = []
    with pytest.raises(TrainingDivergedError) as exc:
        train_toy_draft(target, corpus, 0.6, 4, steps=3, lr=1e308, seed=1, log=log)
    assert exc.value.step == 1 and np.isnan(exc.value.loss)
    assert [r.step for r in log] == [0] and np.isfinite(log[0].loss)


@pytest.mark.parametrize("steps, eval_every", [(1, 0), (3, 1)])
def test_each_update_is_checked_before_its_weights_are_read(setup, steps, eval_every):
    # The last update, and an update followed by an evaluation, are checked
    # too: the blown-up weights reach neither evaluate_alpha nor the hook
    # nor the caller.
    target, corpus, heldout = setup
    log, hooked = [], []

    def hook(step, model, batch):
        hooked.append(step)
        log[-1].alpha = evaluate_alpha(model, target, heldout, 4)

    with pytest.raises(TrainingDivergedError) as exc:
        train_toy_draft(target, corpus, 0.6, 4, steps=steps, lr=1e308, seed=1,
                        eval_every=eval_every, log=log, checkpoint_hook=hook)
    assert exc.value.step == 1 and np.isnan(exc.value.loss)
    assert [(r.step, r.alpha) for r in log] == [(0, None)] and not hooked


def test_heldout_alpha_beats_uniform_5x(setup):
    target, corpus, heldout = setup
    model = train_toy_draft(target, corpus, 0.6, 4, steps=400, lr=0.1, seed=1)
    alpha = evaluate_alpha(model, target, heldout, 4)
    assert alpha[0] >= 5 * (1 / 8)
    assert alpha[0] >= 0.60
    # positional decay: earlier positions easier than later ones
    assert alpha[0] > alpha[2]


# Hit counts per future position from the per-prefix evaluation that
# rebuilt each prefix's features and drafted with no cache: 270 held-out
# prefixes of length 14 sequences, 165 of length 60 ones.
ALPHA_HITS = {
    (True, False, "heldout"): [232, 213, 206, 202],
    (True, False, "long"): [150, 140, 143, 144],
    (True, True, "heldout"): [260, 248, 250, 254],
    (True, True, "long"): [164, 157, 161, 162],
    (False, False, "heldout"): [224, 214, 208, 204],
    (False, False, "long"): [134, 133, 135, 135],
    (False, True, "heldout"): [250, 247, 252, 254],
    (False, True, "long"): [150, 151, 152, 152],
}


def _alpha_per_prefix(drafter, target, sequences, d, vs_greedy):
    """evaluate_alpha's contract, each prefix drafted from scratch."""
    hits, total = np.zeros(d), 0
    for seq in sequences:
        for g in range(1, len(seq) - d):
            prefix = seq[: g + 1]
            rows = drafter.predict(target.start(prefix), d, rng=np.random.default_rng(0)).rows
            truth = target.rollout(prefix, d, np.argmax) if vs_greedy else seq[g + 1: g + 1 + d]
            hits += np.argmax(rows, axis=1) == truth
            total += 1
    return [float(h / total) for h in hits]


@pytest.mark.parametrize("shifted", [True, False])
def test_evaluate_alpha_with_one_cache_per_sequence_is_unchanged(setup, shifted):
    target, corpus, heldout = setup
    gen = np.random.default_rng(1)
    long = [target.sample_sequence(gen, 60) for _ in range(3)]
    model = train_toy_draft(target, corpus, 0.6, 4, steps=60, lr=0.1, seed=1, shifted=shifted)
    for vs_greedy in (False, True):
        for name, seqs in (("heldout", heldout), ("long", long)):
            alpha = evaluate_alpha(model, target, seqs, 4, vs_greedy=vs_greedy)
            total = sum(len(seq) - 5 for seq in seqs)
            assert alpha == [h / total for h in ALPHA_HITS[shifted, vs_greedy, name]]
            assert alpha == _alpha_per_prefix(model, target, seqs, 4, vs_greedy)


def test_supervised_slot_count(setup):
    target, corpus, _ = setup
    d = 4
    batch = build_training_batch(target, corpus, d, 0.6)
    L = len(corpus[0])
    groups = L - d
    assert len(batch.slot_positions) == groups * d
    assert batch.labels.shape == (len(corpus), groups, d, 8)
    lam = 0.6 ** np.arange(d)
    assert np.allclose(batch.slot_weights[:d], lam)
    # each slot's weight matches its future-position index
    assert np.allclose(batch.slot_weights, np.tile(lam, groups))


@pytest.mark.parametrize("shifted", [True, False])
def test_batch_holds_one_copy_of_each_conditional(setup, shifted):
    # The L-1 per-position conditionals are the labels' only copy: slot (g, t)
    # reads row g + t through a read-only view, and so do the per-slot row
    # sums. The scaled labels are the one V-wide array the batch holds per slot.
    target, corpus, _ = setup
    batch = build_training_batch(target, corpus, 3, 0.6, shifted=shifted)
    B, G, d, V = batch.labels.shape
    assert batch.conditionals.shape == (B, len(corpus[0]) - 1, V) == (B, G + d - 1, V)
    assert np.shares_memory(batch.labels, batch.conditionals)
    assert not batch.labels.flags.writeable
    for g in range(G):
        for t in range(d):
            assert np.array_equal(batch.labels[:, g, t], batch.conditionals[:, g + t])
    assert all(x.shape == (B, G, d) and not x.flags.writeable for x in batch.label_terms[:2])
    per_slot = [x for x in (*vars(batch).values(), *batch.label_terms)
                if isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape[-1] == V
                and x.size >= B * G * d * V and not np.shares_memory(x, batch.conditionals)]
    assert len(per_slot) == 1 and per_slot[0] is batch.label_terms[2]
    with pytest.raises(ConfigError, match="shifted"):
        build_training_batch(target, corpus, 3, 0.6, shifted="no")


@pytest.mark.parametrize("shifted", [True, False])
def test_slots_and_labels_match_per_slot_reference(setup, shifted):
    # Slot (g, t) reads future position t of group g from the prompt position
    # g (shifted, t = 1) or from block g, and is labeled with the target's
    # conditional given the first g + t tokens. Position i embeds token i + 1
    # (shifted, the last one inert) or token i.
    target, corpus, _ = setup
    d = 3
    batch = build_training_batch(target, corpus, d, 0.6, shifted=shifted)
    P, m = len(corpus[0]), d - 1 if shifted else d
    s = 0
    for g in range(P - d):
        for t in range(1, d + 1):
            if shifted:
                pos = g if t == 1 else P + g * m + (t - 2)
            else:
                pos = P + g * m + (t - 1)
            assert batch.slot_positions[s] == pos
            for b, seq in enumerate(corpus):
                assert np.array_equal(batch.labels[b, g, t - 1], target.next_dist(seq[:g + t], 1.0))
            s += 1
    assert s == len(batch.slot_positions)
    for b, seq in enumerate(corpus):
        assert list(batch.emb_tokens[b]) == (list(seq[1:]) + [0] if shifted else list(seq))


def test_prefix_isolation(setup):
    # Perturbing tokens strictly beyond position g+1 leaves the supervised
    # outputs of group g bitwise unchanged (the group's own shifted embedding
    # legitimately exposes position g+1).
    target, corpus, _ = setup
    d = 3
    seq_a = list(corpus[0])
    g = 4
    seq_b = list(seq_a)
    for j in range(g + 2, len(seq_b)):
        seq_b[j] = (seq_b[j] + 3) % 8

    model = ToyDraft(8, target.embeddings, seed=9)
    outs = []
    for seq in (seq_a, seq_b):
        batch = build_training_batch(target, [seq], d, 0.6)
        M = len(batch.position_ids)
        z = model.build_inputs(batch.feats, batch.emb_tokens,
                               M - batch.n_prefix, batch.position_ids)
        queries = batch.slot_positions.reshape(batch.mask.shape[:2])
        logits, _ = model.forward_core(z, batch.mask, queries)
        outs.append(logits[0, g])
    assert np.array_equal(outs[0], outs[1])


def test_gamma_zero_limit_trains_only_first_position(setup):
    # gamma -> 0+ drives the weights of t >= 2 to zero; check weights directly.
    target, corpus, _ = setup
    w = build_training_batch(target, corpus, 4, 1e-9).slot_weights[:4]
    assert w[0] == 1.0 and np.all(w[1:] < 1e-8)


def test_unshifted_batch_supervises_mask_positions_only(setup):
    target, corpus, _ = setup
    d = 3
    batch = build_training_batch(target, corpus, d, 0.6, shifted=False)
    assert np.all(batch.slot_positions >= batch.n_prefix)
    shifted = build_training_batch(target, corpus, d, 0.6, shifted=True)
    groups = len(corpus[0]) - d
    assert (shifted.slot_positions < shifted.n_prefix).sum() == groups


@pytest.mark.parametrize("bad", [8, -1, 2.5, True, "3"])
def test_training_and_evaluation_reject_tokens_outside_the_vocabulary(setup, bad):
    # V = 8: token 8 raised IndexError, -1 numpy's ValueError, 2.5 was read
    # as 2, and evaluate_alpha scored an out-of-range token without a word.
    target, corpus, heldout = setup
    corpus = corpus[:-1] + [corpus[-1][:5] + [bad] + corpus[-1][6:]]
    heldout = [heldout[0][:5] + [bad] + heldout[0][6:]]
    with pytest.raises(ConfigError, match="training sequence 11 tokens"):
        build_training_batch(target, corpus, 3, 0.6)
    with pytest.raises(ConfigError, match="training sequence 11 tokens"):
        train_toy_draft(target, corpus, 0.6, 3, steps=2, lr=0.1, seed=1)
    with pytest.raises(ConfigError, match="evaluation sequence 0 tokens"):
        evaluate_alpha(NoisyOracleDrafter(target), target, heldout, 3)


@pytest.mark.parametrize("bad", [
    {"steps": 2.5}, {"steps": -1}, {"steps": True}, {"eval_every": -1}, {"eval_every": 1.5},
    {"lr": -1.0}, {"lr": 0.0}, {"lr": float("nan")}, {"lr": float("inf")}, {"lr": "0.1"},
], ids=lambda c: ",".join(f"{k}={v!r}" for k, v in c.items()))
def test_trainer_rejects_bad_numbers(setup, bad):
    # lr=-1 climbed the loss and lr=0 wrote an untrained model; eval_every=-1
    # fired the hook every step.
    target, corpus, _ = setup
    with pytest.raises(ConfigError):
        train_toy_draft(target, corpus, 0.6, 3, seed=1,
                        **{"steps": 3, "lr": 0.1, "eval_every": 1, **bad})


def test_training_batch_validation(setup):
    target, corpus, _ = setup
    with pytest.raises(ConfigError):
        build_training_batch(target, [], 3, 0.6)
    with pytest.raises(ConfigError):
        build_training_batch(target, [[1, 2, 3], [1, 2]], 2, 0.6)
    with pytest.raises(ConfigError):
        build_training_batch(target, [[1, 2, 3]], 5, 0.6)
    with pytest.raises(ConfigError):
        build_training_batch(target, corpus, 1, 0.6, shifted=True)


# -- row-subset forward/backward --------------------------------------------------


@pytest.mark.parametrize("shifted", [True, False])
def test_batch_keeps_every_position_a_slot_sees(setup, shifted):
    # The batch holds the leading positions of the full packed layout; the
    # positions it drops are seen by no supervised slot.
    target, corpus, _ = setup
    d = 3
    batch = build_training_batch(target, corpus, d, 0.6, shifted=shifted)
    P, m = len(corpus[0]), d - 1 if shifted else d
    M = len(batch.position_ids)
    assert M == P + (P - d) * m
    assert np.array_equal(batch.position_ids, build_position_ids(P, m)[:M])
    assert not build_training_mask(P, m)[batch.slot_positions, M:].any()


# Every prompt length P and draft length d <= 8 that supervises a slot:
# d < P, and d >= 2 for shifted training.
SMALL_LAYOUTS = [(P, d, shifted) for P in range(2, 9) for d in range(1, P)
                 for shifted in (True, False) if d >= 2 or not shifted]


@pytest.mark.parametrize("P, d, shifted", SMALL_LAYOUTS)
def test_group_keys_unmask_exactly_what_the_dense_layout_shows(P, d, shifted):
    # Every position that the dense mask shows a slot is one of its group's
    # unmasked keys, and no other key is unmasked.
    target = MarkovTarget(5, 8, 1)
    corpus = [target.sample_sequence(np.random.default_rng(P), P)]
    batch = build_training_batch(target, corpus, d, 0.6, shifted=shifted)
    m = d - 1 if shifted else d
    dense = predicate_mask(P, m, P)
    G, rows, K = batch.mask.shape
    assert (G, rows, K) == (P - d, d, P - d + m)
    keys = group_keys(len(batch.position_ids), G, K)
    for g in range(G):
        assert len(set(keys[g].tolist())) == K
        for r in range(d):
            slot = batch.slot_positions[g * d + r]
            assert sorted(keys[g][batch.mask[g, r]]) == list(np.flatnonzero(dense[slot])), \
                (g, r)


def _layout(target, corpus, model, case, d=3):
    """(z, dense mask, query rows, feats, n_prefix), and the grouped forward's
    (attn_mask, rows, kv), for a training batch of draft length d or a
    drafting forward of 4 rows."""
    if case == "drafting":
        prefix, d = corpus[0], 4
        n, n_mask = len(prefix), d - 1
        feats = target.features(prefix)[None]
        z = model.build_inputs(feats, np.asarray(prefix[1:] + [0])[None], n_mask,
                               np.arange(n + n_mask))
        mask = np.tril(np.ones((n + n_mask, n + n_mask), dtype=bool))
        kv = (z @ model.params["Wk"], z @ model.params["Wv"])
        rows = slice(n + n_mask - d, n + n_mask)
        return (z, mask, rows, feats, n), (np.tri(d, d - 1, -1, dtype=bool), rows, kv)
    shifted = case == "shifted"
    batch = build_training_batch(target, corpus, d, 0.6, shifted=shifted)
    M = len(batch.position_ids)
    z = model.build_inputs(batch.feats, batch.emb_tokens, M - batch.n_prefix,
                           batch.position_ids)
    mask = build_training_mask(batch.n_prefix, d - 1 if shifted else d)[:M, :M]
    queries = batch.slot_positions.reshape(batch.mask.shape[:2])
    return (z, mask, batch.slot_positions, batch.feats, batch.n_prefix), \
        (batch.mask, queries, None)


def _assert_grouped_matches_dense(model, dense, grouped):
    """The grouped forward gives the logits of the dense forward over every
    position of the layout on its query rows, to 1e-12, and its backward the
    dense backward's gradients with d(loss)/d(logits) zero on every other
    row. Drafting is one group over every key, with no backward."""
    (z, mask, rows, feats, n_prefix), (attn_mask, queries, kv) = dense, grouped
    full_logits, full_cache = dense_forward(model, z, mask)
    logits, cache = model.forward_core(z, attn_mask, queries, kv=kv)
    assert np.max(np.abs(logits - full_logits[:, queries])) <= 1e-12
    if kv is not None:
        return

    dlogits = np.random.default_rng(1).standard_normal(logits.shape)
    dfull = np.zeros_like(full_logits)
    dfull[:, queries] = dlogits
    cache["dlogits"] = dlogits
    grads = model.backward_core(cache, feats, n_prefix)
    expect = dense_backward(model, full_cache, dfull, feats, n_prefix)
    assert grads.keys() == expect.keys()
    for name, g in expect.items():
        assert np.max(np.abs(grads[name] - g)) <= 1e-12 * max(1.0, np.max(np.abs(g))), name


@pytest.mark.parametrize("case", ["shifted", "unshifted", "drafting"])
def test_row_subset_backward_matches_full_rows(setup, case):
    target, corpus, _ = setup
    model = ToyDraft(8, target.embeddings, seed=9, shifted=case != "unshifted")
    _assert_grouped_matches_dense(model, *_layout(target, corpus, model, case))


@pytest.mark.parametrize("P, d, shifted", SMALL_LAYOUTS)
def test_grouped_attention_matches_dense_at_every_small_layout(P, d, shifted):
    # The shared keys, scored once per sequence, and each group's block give
    # the dense logits and gradients at every small layout, also where G = 1
    # or m = 1 leaves one part a single key wide.
    target = MarkovTarget(5, 8, 1, concentration=0.05)
    corpus = [target.sample_sequence(np.random.default_rng(P), P) for _ in range(3)]
    model = ToyDraft(8, target.embeddings, seed=9, shifted=shifted)
    case = "shifted" if shifted else "unshifted"
    _assert_grouped_matches_dense(model, *_layout(target, corpus, model, case, d))


# -- the training step against its reference -----------------------------------------


# (target seed, V, order, concentration, sequences, length, d): the shape the
# benchmark and the CLI defaults train at, whose labels are 1 MB, and
# test_07's, whose labels are 30 KB.
STEP_SHAPES = {
    "train": (7, 64, 2, 0.2, 16, 24, 8),
    "test_07": (5, 8, 1, 0.05, 12, 14, 4),
}


def _step_setup(shape, shifted):
    seed, V, order, concentration, n, length, d = STEP_SHAPES[shape]
    target = MarkovTarget(seed, V, order, concentration=concentration)
    rng = np.random.default_rng(0)
    corpus = [target.sample_sequence(rng, length) for _ in range(n)]
    batch = build_training_batch(target, corpus, d, 0.6, shifted=shifted)
    return ToyDraft(V, target.embeddings, seed=4, shifted=shifted), batch


@pytest.mark.parametrize("shifted", [True, False])
@pytest.mark.parametrize("shape", sorted(STEP_SHAPES))
def test_batch_loss_matches_allocating_reference(shape, shifted):
    # Building the step's intermediates in place, in the arrays each call
    # makes, changes no bit of the loss or the grads, step after step.
    model, batch = _step_setup(shape, shifted)
    for _ in range(4):
        loss, grads, floored = batch_loss(model, batch)
        want_loss, want_grads, want_floored = allocating_batch_loss(model, batch)
        assert loss == want_loss and floored == want_floored
        assert batch_loss(model, batch, want_grads=False)[0] == want_loss
        assert grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            assert np.array_equal(grads[name], g), name
        for name, g in grads.items():
            model.params[name] -= 0.1 * g


def test_later_calls_leave_returned_results_unchanged():
    # A caller may keep a step's loss and grads while it calls again on the
    # same batch (the finite-difference check does): they are its own.
    model, batch = _step_setup("train", True)
    loss, grads, _ = batch_loss(model, batch)
    kept = {name: g.copy() for name, g in grads.items()}
    only_loss = batch_loss(model, batch, want_grads=False)[0]
    model.params["Wv"] *= 1.5
    later = batch_loss(model, batch, want_grads=False)
    assert later[0] != loss and later[1] is None
    later = batch_loss(model, batch)
    assert only_loss == loss and later[0] != loss
    for name, g in kept.items():
        assert np.array_equal(grads[name], g), name
        assert not np.array_equal(later[1][name], g), name
        assert not np.shares_memory(grads[name], later[1][name])


@pytest.mark.parametrize("shifted", [True, False])
def test_two_forwards_in_flight_on_one_batch(shifted):
    # A second forward on the batch, at other weights, before the first one's
    # backward runs, changes no bit of the first one's grads.
    m1, batch = _step_setup("train", shifted)
    m2 = ToyDraft(m1.vocab_size, m1.embeddings, seed=5, shifted=shifted)
    loss1, _, backward1 = _batch_forward(m1, batch)
    loss2, _, backward2 = _batch_forward(m2, batch)
    grads = backward1()
    want_loss, want_grads, _ = batch_loss(m1, batch)
    assert loss1 == want_loss and loss2 != loss1
    for name, g in want_grads.items():
        assert np.array_equal(grads[name], g), name
    assert np.array_equal(backward2()["Wq"], batch_loss(m2, batch)[1]["Wq"])


@pytest.mark.parametrize("P, d, shifted", SMALL_LAYOUTS + [
    pytest.param(None, None, True, id="train-shifted"),
    pytest.param(None, None, False, id="train-unshifted"),
])
def test_batch_loss_matches_slot_by_slot_reference(P, d, shifted):
    # Loss and every gradient agree with slots that attend by hand to what the
    # dense mask shows them, to 1e-12 relative, at every small layout (three
    # sequences of test_07's target) and at the train shape.
    if P is None:
        seed, V, order, concentration, n, length, d = STEP_SHAPES["train"]
    else:
        seed, V, order, concentration, n, length = 5, 8, 1, 0.05, 3, P
    target = MarkovTarget(seed, V, order, concentration=concentration)
    rng = np.random.default_rng(0)
    corpus = [target.sample_sequence(rng, length) for _ in range(n)]
    batch = build_training_batch(target, corpus, d, 0.6, shifted=shifted)
    model = ToyDraft(V, target.embeddings, seed=4, shifted=shifted)
    m = d - 1 if shifted else d
    loss, grads, _ = batch_loss(model, batch)
    want_loss, want_grads = slot_by_slot_loss(model, target, corpus, d, 0.6, shifted,
                                              predicate_mask(length, m, length))
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


@pytest.mark.parametrize("shifted", [True, False])
def test_training_step_in_the_clamped_regime(shifted):
    # Head weights scaled tenfold push some label-carrying log-probabilities
    # below the floor, so the step clamps: it still matches the slot-by-slot
    # reference and, bit for bit, the allocating one, and floored_kl leaves
    # the logits it is handed as they were.
    seed, V, order, concentration, n, length, d = STEP_SHAPES["test_07"]
    target = MarkovTarget(seed, V, order, concentration=concentration)
    rng = np.random.default_rng(0)
    corpus = [target.sample_sequence(rng, length) for _ in range(n)]
    batch = build_training_batch(target, corpus, d, 0.6, shifted=shifted)
    model = ToyDraft(V, target.embeddings, seed=4, shifted=shifted)
    model.params["W_head"] *= 10.0
    loss, grads, floored = batch_loss(model, batch)
    assert floored

    m = d - 1 if shifted else d
    want_loss, want_grads = slot_by_slot_loss(model, target, corpus, d, 0.6, shifted,
                                              predicate_mask(length, m, length))
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, g in want_grads.items():
        assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name
    same_loss, same_grads, same_floored = allocating_batch_loss(model, batch)
    assert loss == same_loss and same_floored
    for name, g in same_grads.items():
        assert np.array_equal(grads[name], g), name

    M = len(batch.position_ids)
    z = model.build_inputs(batch.feats, batch.emb_tokens, M - batch.n_prefix,
                           batch.position_ids)
    queries = batch.slot_positions.reshape(batch.mask.shape[:2])
    logits = model.forward_core(z, batch.mask, queries)[0]
    assert logits.shape == batch.labels.shape
    kept = logits.copy()
    assert floored_kl(logits, batch.labels, batch.slot_weights.reshape(queries.shape))[2]
    assert np.array_equal(logits, kept)


# Head biases that send the smallest shifted logit to either side of the
# two floor tests. In place: it clears LOG_FLOOR + log V. Copying: it does
# not, but it clears LOG_FLOOR + max log total, so nothing clamps. Clamped:
# it clears LOG_FLOOR alone, and the last token's log-probability, about
# -20.5 - log 7, is clamped.
KL_PATHS = {"in_place": [0.0] + [-5.0] * 7, "copying": [0.0] + [-19.5] * 7,
            "clamped": [0.0] * 7 + [-20.5]}


def _kl_path_setup(path, shifted):
    return _kl_setup(KL_PATHS[path], shifted)


def _kl_setup(head_bias, shifted):
    # d = 3, so a (B, G, d, V) array's rows sit at other places in a matrix
    # than its (B, G * d, V) copy's.
    target = MarkovTarget(5, 8, 1, concentration=0.05)
    rng = np.random.default_rng(0)
    corpus = [target.sample_sequence(rng, 12) for _ in range(5)]
    batch = build_training_batch(target, corpus, 3, 0.6, shifted=shifted)
    model = ToyDraft(8, target.embeddings, seed=4, shifted=shifted)
    model.params["W_head"] *= 0.01
    model.params["b_head"][:] = head_bias
    M = len(batch.position_ids)
    z = model.build_inputs(batch.feats, batch.emb_tokens, M - batch.n_prefix,
                           batch.position_ids)
    queries = batch.slot_positions.reshape(batch.mask.shape[:2])
    return model, batch, model.forward_core(z, batch.mask, queries)[0]


@pytest.mark.parametrize("shifted", [True, False])
@pytest.mark.parametrize("path", sorted(KL_PATHS))
def test_each_kl_path_matches_the_allocating_reference(path, shifted):
    model, batch, logits = _kl_path_setup(path, shifted)
    low = (logits - logits.max(axis=-1, keepdims=True)).min()
    top_log_total = np.log(np.exp(logits - logits.max(axis=-1, keepdims=True)).sum(-1)).max()
    assert (low >= LOG_FLOOR + np.log(logits.shape[-1]) + 1e-6) == (path == "in_place")
    assert (low >= LOG_FLOOR + top_log_total) == (path != "clamped") and low >= LOG_FLOOR
    loss, grads, floored = batch_loss(model, batch)
    want_loss, want_grads, want_floored = allocating_batch_loss(model, batch)
    assert loss == want_loss and floored == want_floored == (path == "clamped")
    for name, g in want_grads.items():
        assert np.array_equal(grads[name], g), name


@pytest.mark.parametrize("shifted", [True, False])
def test_kl_in_the_nat_below_the_in_place_bound_matches_the_allocating_reference(shifted):
    # The smallest shifted logit lies in [LOG_FLOOR + log V - 1, LOG_FLOOR +
    # log V), so the softmax may not be taken in place, and the last token's
    # log-probability, about that less log 7, is clamped where the labels
    # hold mass.
    V = 8
    model, batch, logits = _kl_setup([0.0] * 7 + [LOG_FLOOR + np.log(V) - 0.5], shifted)
    shifted_logits = logits - logits.max(axis=-1, keepdims=True)
    assert LOG_FLOOR + np.log(V) - 1 <= shifted_logits.min() < LOG_FLOOR + np.log(V)
    logp = shifted_logits - np.log(np.exp(shifted_logits).sum(axis=-1, keepdims=True))
    assert ((logp < LOG_FLOOR) & (batch.labels > 0)).any()
    loss, grads, floored = batch_loss(model, batch)
    want_loss, want_grads, want_floored = allocating_batch_loss(model, batch)
    assert loss == want_loss and floored and want_floored
    for name, g in want_grads.items():
        assert np.array_equal(grads[name], g), name


@pytest.mark.parametrize("path", sorted(KL_PATHS))
def test_floored_kl_on_the_label_view_equals_it_on_a_contiguous_copy(path):
    _, batch, logits = _kl_path_setup(path, True)
    B, G, d, V = batch.labels.shape
    loss, grad, floored = floored_kl(logits, batch.labels, batch.slot_weights.reshape(G, d))
    copy = np.ascontiguousarray(batch.labels).reshape(B, G * d, V)
    flat_loss, flat_grad, flat_floored = floored_kl(logits.reshape(B, G * d, V), copy,
                                                    batch.slot_weights)
    assert loss == flat_loss and floored == flat_floored == (path == "clamped")
    assert grad.shape == logits.shape and grad.tobytes() == flat_grad.tobytes()


# -- finite differences --------------------------------------------------------------


def test_finite_diff_at_random_init(setup):
    target, corpus, _ = setup
    batch = build_training_batch(target, corpus, 3, 0.6)
    model = ToyDraft(8, target.embeddings, seed=12)
    assert finite_diff_check(model, batch, 1e-4, n_coords=60) <= 1e-4


def test_finite_diff_near_optimum_absolute(setup):
    # At a well-trained point both sides are ~0 for most coordinates.
    target, corpus, _ = setup
    model = train_toy_draft(target, corpus, 0.6, 3, steps=300, lr=0.1, seed=2)
    batch = build_training_batch(target, corpus, 3, 0.6)
    _, grads, _ = batch_loss(model, batch)
    h = 1e-4
    name = "W_head"
    idx = (0, 0)
    orig = model.params[name][idx]
    model.params[name][idx] = orig + h
    up, _, _ = batch_loss(model, batch, want_grads=False)
    model.params[name][idx] = orig - h
    down, _, _ = batch_loss(model, batch, want_grads=False)
    model.params[name][idx] = orig
    assert abs(grads[name][idx] - (up - down) / (2 * h)) < 1e-8


def test_finite_diff_during_training_checkpoints(setup):
    target, corpus, _ = setup
    worst = []

    def hook(step, model, batch):
        worst.append(finite_diff_check(model, batch, 1e-4, n_coords=25, seed=step))

    train_toy_draft(target, corpus, 0.6, 3, steps=150, lr=0.1, seed=4,
                    eval_every=50, checkpoint_hook=hook)
    assert len(worst) == 3
    assert max(worst) <= 1e-4


def test_hook_that_runs_steps_leaves_training_unchanged(setup):
    # The hook may run steps on the batch it is handed at other weights, as
    # the gradient audit does, while the trainer holds a forward whose grads
    # it has yet to take.
    target, corpus, _ = setup

    def audit(step, model, batch):
        kept = model.params["Wq"].copy()
        model.params["Wq"] *= 2.0
        batch_loss(model, batch)
        model.params["Wq"][...] = kept

    plain = train_toy_draft(target, corpus, 0.6, 3, steps=20, lr=0.1, seed=4)
    hooked = train_toy_draft(target, corpus, 0.6, 3, steps=20, lr=0.1, seed=4, eval_every=1,
                             checkpoint_hook=audit)
    for name, p in plain.params.items():
        assert np.array_equal(hooked.params[name], p), name


def test_finite_diff_h_bounds(setup):
    target, corpus, _ = setup
    batch = build_training_batch(target, corpus, 3, 0.6)
    model = ToyDraft(8, target.embeddings, seed=12)
    with pytest.raises(ConfigError):
        finite_diff_check(model, batch, 1e-1)
    with pytest.raises(ConfigError):
        finite_diff_check(model, batch, 1e-8)


@pytest.mark.parametrize("name, value", [("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "1"),
                                         ("shifted", "no"), ("shifted", 1)])
def test_train_toy_draft_rejects_a_bad_seed_or_shifted_before_building_the_batch(
        setup, monkeypatch, name, value):
    target, corpus, _ = setup

    def unreachable(*args, **kwargs):
        raise AssertionError("the batch was built")

    monkeypatch.setattr(training, "build_training_batch", unreachable)
    with pytest.raises(ConfigError, match=name):
        train_toy_draft(target, corpus, 0.6, 3, steps=1, lr=0.1, **{"seed": 1, name: value})


def test_log_records_shape(setup):
    target, corpus, heldout = setup
    log: list[TrainingLogRecord] = []

    def hook(step, model, batch):
        log[-1].alpha = evaluate_alpha(model, target, heldout, 3)

    train_toy_draft(target, corpus, 0.6, 3, steps=40, lr=0.1, seed=5,
                    eval_every=20, log=log, checkpoint_hook=hook)
    assert len(log) == 40
    assert log[19].alpha is not None and len(log[19].alpha) == 3
    assert log[0].alpha is None
    assert log[0].to_dict() == {"step": 0, "loss": log[0].loss}


# -- the allocator policy: a request's freed arrays stay mapped for the next -------


def _run_fresh(code: str) -> str:
    """Run `code` in a fresh interpreter on this checkout's package, with one
    BLAS thread; return its standard output."""
    env = dict(os.environ, PYTHONPATH=str(Path(training.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# A 3-step warm-up request, then a second at perfbench's train shape (16
# sequences of 24 tokens, V=64, order 2, d=8): the page faults from the call
# to its first checkpoint hook, when the step's working set is first built.
SECOND_REQUEST_FAULTS = """
import resource
import numpy as np
from specdraft.models import MarkovTarget
from specdraft.training import train_toy_draft

target, rng = MarkovTarget(7, 64, 2, concentration=0.2), np.random.default_rng(1)
def request(steps, hook=None):
    corpus = [target.sample_sequence(rng, 24) for _ in range(16)]
    train_toy_draft(target, corpus, 0.6, 8, steps, 0.1, 0, eval_every=1, checkpoint_hook=hook)
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
request(3)
first, start = [], faults()
request(1, lambda *_: first.append(faults() - start))
print(first[0])
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_a_second_request_reuses_the_first_ones_freed_memory():
    # Trimmed back to the OS, the first request's freed heap faulted in
    # again: about 3,100 pages before the second request's first hook. With
    # the policy pinned only at the first forward, the first batch is mapped
    # apart and every later one takes the freed step region: about 300.
    assert int(_run_fresh(SECOND_REQUEST_FAULTS)) < 200


def test_a_step_holds_one_forward_at_a_time():
    # At perfbench's train shape after a warm-up request: a spent forward's
    # arrays, its gradient buffer among them, are freed before the next
    # forward runs. Two forwards held at once traced 9.4 MiB, one 5.8, and
    # one plus the 1 MiB gradient buffer 6.8.
    target, rng = MarkovTarget(7, 64, 2, concentration=0.2), np.random.default_rng(1)
    corpora = [[target.sample_sequence(rng, 24) for _ in range(16)] for _ in range(2)]
    train_toy_draft(target, corpora[0], 0.6, 8, 3, 0.1, 0)
    tracemalloc.start()
    try:
        train_toy_draft(target, corpora[1], 0.6, 8, 10, 0.1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.3 * 2**20


def test_backward_core_consumes_its_cache():
    model, batch = _step_setup("train", True)
    M = len(batch.position_ids)
    z = model.build_inputs(batch.feats, batch.emb_tokens, M - batch.n_prefix, batch.position_ids)
    queries = batch.slot_positions.reshape(batch.mask.shape[:2])
    logits, cache = model.forward_core(z, batch.mask, queries)
    cache["dlogits"] = np.ones_like(logits)
    model.backward_core(cache, batch.feats, batch.n_prefix)
    assert cache == {}
    with pytest.raises(KeyError):
        model.backward_core(cache, batch.feats, batch.n_prefix)


def test_a_libc_without_mallopt_is_left_as_it_is(setup, monkeypatch):
    target, corpus, _ = setup
    looked_up = []

    class NoMallopt:  # as musl's or macOS's libc
        def __init__(self, name):
            assert name is None

        def __getattr__(self, name):
            looked_up.append(name)
            raise AttributeError(name)

    expected = []
    train_toy_draft(target, corpus, 0.6, 3, steps=3, lr=0.1, seed=1, log=expected)
    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    training._keep_freed_memory_mapped.cache_clear()
    log = []
    try:
        train_toy_draft(target, corpus, 0.6, 3, steps=3, lr=0.1, seed=1, log=log)
    finally:
        training._keep_freed_memory_mapped.cache_clear()
    assert looked_up == ["mallopt"]
    assert [r.loss for r in log] == [r.loss for r in expected]


def test_decoding_never_sets_the_allocator_policy():
    # Only a training forward pins the thresholds; importing and decoding,
    # with the toy drafter too, leave glibc's dynamic rule alone.
    code = """
import specdraft.cli
from specdraft import training
from specdraft.engine import DecodeConfig, decode
from specdraft.models import MarkovTarget, ToyDraft

target = MarkovTarget(7, 64, 2)
decode([3, 5], target, ToyDraft(64, target.embeddings), None, DecodeConfig(max_tokens=8))
print(training._keep_freed_memory_mapped.cache_info().misses)
"""
    assert _run_fresh(code).split() == ["0"]
