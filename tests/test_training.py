import numpy as np
import pytest
from scipy.special import rel_entr

from specdraft.errors import ConfigError, TrainingDivergedError
from specdraft.models import MarkovTarget, ToyDraft
from specdraft.training import (
    TrainingLogRecord,
    batch_loss,
    build_position_ids,
    build_training_batch,
    build_training_mask,
    evaluate_alpha,
    finite_diff_check,
    floored_kl,
    train_toy_draft,
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
            for valid in range(P + 1):
                got = build_training_mask(P, d, valid)
                want = predicate_mask(P, d, valid)
                assert np.array_equal(got, want), (P, d, valid)


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
    with pytest.raises(ConfigError):
        build_training_mask(3, 2, valid_len=5)


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


def test_heldout_alpha_beats_uniform_5x(setup):
    target, corpus, heldout = setup
    model = train_toy_draft(target, corpus, 0.6, 4, steps=400, lr=0.1, seed=1)
    alpha = evaluate_alpha(model, target, heldout, 4)
    assert alpha[0] >= 5 * (1 / 8)
    assert alpha[0] >= 0.60
    # positional decay: earlier positions easier than later ones
    assert alpha[0] > alpha[2]


def test_supervised_slot_count(setup):
    target, corpus, _ = setup
    d = 4
    batch = build_training_batch(target, corpus, d, 0.6)
    L = len(corpus[0])
    groups = L - d
    assert len(batch.slot_positions) == groups * d
    assert batch.labels.shape == (len(corpus), groups * d, 8)
    lam = 0.6 ** np.arange(d)
    assert np.allclose(batch.slot_weights[:d], lam)
    # each slot's weight matches its future-position index
    assert np.allclose(batch.slot_weights, np.tile(lam, groups))


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
                assert np.array_equal(batch.labels[b, s], target.next_dist(seq[:g + t], 1.0))
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
        M = batch.mask.shape[0]
        z = model.build_inputs(batch.feats, batch.emb_tokens,
                               M - batch.n_prefix, batch.position_ids)
        logits, _ = model.forward_core(z, batch.mask)
        slots = batch.slot_positions[g * d:(g + 1) * d]
        outs.append(logits[0, slots, :])
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
    M = batch.mask.shape[0]
    assert M == P + (P - d) * m
    full = build_training_mask(P, m)
    assert np.array_equal(batch.mask, full[:M, :M])
    assert np.array_equal(batch.position_ids, build_position_ids(P, m)[:M])
    assert not full[batch.slot_positions, M:].any()


def _layout(target, corpus, model, case):
    """(z, mask, query rows, feats, n_prefix) for a training batch or a
    drafting forward."""
    if case == "drafting":
        prefix, d = corpus[0], 4
        n, n_mask = len(prefix), d - 1
        feats = target.features(prefix).rows[None]
        z = model.build_inputs(feats, np.asarray(prefix[1:] + [0])[None], n_mask,
                               np.arange(n + n_mask))
        mask = np.tril(np.ones((n + n_mask, n + n_mask), dtype=bool))
        return z, mask, slice(n + n_mask - d, n + n_mask), feats, n
    batch = build_training_batch(target, corpus, 3, 0.6, shifted=case == "shifted")
    z = model.build_inputs(batch.feats, batch.emb_tokens,
                           batch.mask.shape[0] - batch.n_prefix, batch.position_ids)
    return z, batch.mask, batch.slot_positions, batch.feats, batch.n_prefix


@pytest.mark.parametrize("case", ["shifted", "unshifted", "drafting"])
def test_row_subset_backward_matches_full_rows(setup, case):
    # Querying a subset of rows gives the full-rows forward's logits on those
    # rows, and the gradients of the full-rows backward with d(loss)/d(logits)
    # zero on every other row.
    target, corpus, _ = setup
    model = ToyDraft(8, target.embeddings, seed=9, shifted=case != "unshifted")
    z, mask, rows, feats, n_prefix = _layout(target, corpus, model, case)
    full_logits, full_cache = model.forward_core(z, mask)
    logits, cache = model.forward_core(z, mask[rows], rows)
    assert np.max(np.abs(logits - full_logits[:, rows])) <= 1e-12

    dlogits = np.random.default_rng(1).standard_normal(logits.shape)
    dfull = np.zeros_like(full_logits)
    dfull[:, rows] = dlogits
    grads = model.backward_core(cache, dlogits, feats, n_prefix)
    expect = model.backward_core(full_cache, dfull, feats, n_prefix)
    assert grads.keys() == expect.keys()
    for name, g in expect.items():
        assert np.max(np.abs(grads[name] - g)) <= 1e-12 * max(1.0, np.max(np.abs(g))), name


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


def test_finite_diff_h_bounds(setup):
    target, corpus, _ = setup
    batch = build_training_batch(target, corpus, 3, 0.6)
    model = ToyDraft(8, target.embeddings, seed=12)
    with pytest.raises(ConfigError):
        finite_diff_check(model, batch, 1e-1)
    with pytest.raises(ConfigError):
        finite_diff_check(model, batch, 1e-8)


def test_log_records_shape(setup):
    target, corpus, heldout = setup
    log: list[TrainingLogRecord] = []
    train_toy_draft(target, corpus, 0.6, 3, steps=40, lr=0.1, seed=5,
                    eval_sequences=heldout, eval_every=20, log=log)
    assert len(log) == 40
    assert log[19].alpha is not None and len(log[19].alpha) == 3
    assert log[0].alpha is None
    assert log[0].to_dict() == {"step": 0, "loss": log[0].loss}
