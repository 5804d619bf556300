import tracemalloc

import numpy as np
import pytest

from specdraft.errors import ConfigError, ModelFormatError
from specdraft.models import (
    AdversarialDrafter,
    MarkovTarget,
    NoisyOracleDrafter,
    OracleDrafter,
    ToyDraft,
    UniformDrafter,
    positional_encoding,
    temperature_adjust,
)

from oracles import readout_attention


# -- markov target ---------------------------------------------------------------


def test_same_seed_identical_tables():
    a = MarkovTarget(7, 4, 2)
    b = MarkovTarget(7, 4, 2)
    for ctx in [(0, 0), (1, 3), (2, 2)]:
        assert np.array_equal(a.next_dist(ctx), b.next_dist(ctx))
        fa, fb = a.features(list(ctx)), b.features(list(ctx))
        assert np.array_equal(fa.concatenated(), fb.concatenated())
    assert np.array_equal(a.embeddings, b.embeddings)


def test_rows_sum_to_one():
    t = MarkovTarget(3, 16, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        ctx = list(rng.integers(0, 16, size=2))
        assert abs(t.next_dist(ctx).sum() - 1.0) < 1e-12


def test_greedy_continuation_reproducible():
    a = MarkovTarget(7, 4, 2)
    b = MarkovTarget(7, 4, 2)
    assert a.greedy_chain([1, 2], 8) == b.greedy_chain([1, 2], 8)


def test_temperature_adjust():
    dist = np.array([0.2, 0.5, 0.3])
    assert np.array_equal(temperature_adjust(dist, 0.0), [0.0, 1.0, 0.0])
    assert np.allclose(temperature_adjust(dist, 1.0), dist)
    sharp = temperature_adjust(dist, 0.5)
    assert sharp[1] > dist[1]
    with pytest.raises(ConfigError):
        temperature_adjust(dist, -1.0)


def test_temperature_adjust_small_temperature_stays_finite():
    dist = MarkovTarget(4, 256, 2).next_dist([1, 2])
    cold = temperature_adjust(dist, 0.001)
    assert np.all(np.isfinite(cold))
    assert abs(cold.sum() - 1.0) < 1e-12
    assert np.argmax(cold) == np.argmax(temperature_adjust(dist, 0.0))


def test_features_match_per_position_contexts():
    t = MarkovTarget(9, 8, 3)
    prefix = [int(x) for x in np.random.default_rng(1).integers(0, 8, size=40)]
    feats = t.features(prefix)
    for i in range(len(prefix)):
        ref = t.features(prefix[: i + 1])
        assert np.array_equal(feats.low[i], ref.low[i])
        assert np.array_equal(feats.mid[i], ref.mid[i])
        assert np.array_equal(feats.high[i], ref.high[i])
        # Row i, one position at a time: the block of the trailing `order`
        # tokens up to i, left-padded with token 0.
        block = t._feat(t._context(prefix[max(0, i + 1 - t.order): i + 1]))
        assert np.array_equal(np.stack([feats.low[i], feats.mid[i], feats.high[i]]), block)


def test_features_extend_to_the_full_prefix():
    # Rows from `start` on, appended to the rows of prefix[:start], are the
    # rows of the whole prefix: also for start < order, where a row's context
    # reaches back past `start`.
    t = MarkovTarget(9, 8, 3)
    rng = np.random.default_rng(2)
    for n in (0, 1, 2, 5, 17):
        prefix = [int(x) for x in rng.integers(0, 8, size=n)]
        full = t.features(prefix)
        for start in range(n + 1):
            tail = t.features(prefix, start)
            assert tail.low.shape == (n - start, 8)
            joined = t.features(prefix[:start]).extended(tail)
            for name in ("low", "mid", "high", "next_dist"):
                assert np.array_equal(getattr(joined, name), getattr(full, name))


def test_features_start_out_of_range():
    t = MarkovTarget(9, 8, 3)
    for start in (-1, 4):
        with pytest.raises(ConfigError):
            t.features([1, 2, 3], start)


def test_target_validation():
    with pytest.raises(ConfigError):
        MarkovTarget(0, 1, 1)
    with pytest.raises(ConfigError):
        MarkovTarget(0, 4, 0)


def test_short_prefix_padded():
    t = MarkovTarget(5, 8, 3)
    assert np.array_equal(t.next_dist([4]), t.next_dist([0, 0, 4]))


def test_sample_sequence_seeded():
    t = MarkovTarget(5, 8, 1)
    s1 = t.sample_sequence(np.random.default_rng(3), 20)
    s2 = t.sample_sequence(np.random.default_rng(3), 20)
    assert s1 == s2 and len(s1) == 20


# -- toy draft -------------------------------------------------------------------


@pytest.fixture
def target():
    return MarkovTarget(9, 8, 1)


@pytest.fixture
def model(target):
    return ToyDraft(8, target.embeddings, seed=2)


def test_single_forward_per_predict(target, model):
    feats = target.features([1, 2, 3])
    before = model.attention_calls
    model.predict([1, 2, 3], feats, 4)
    assert model.attention_calls == before + 1


@pytest.mark.parametrize("shifted", [True, False])
@pytest.mark.parametrize("d", [1, 8])
@pytest.mark.parametrize("n", [1, 2, 300])
def test_forward_matches_per_row_attention_oracle(shifted, d, n):
    target = MarkovTarget(9, 16, 2)
    model = ToyDraft(16, target.embeddings, seed=5, shifted=shifted)
    prefix = [int(x) for x in np.random.default_rng(n).integers(0, 16, size=n)]
    feats = target.features(prefix).concatenated()
    emb_tokens = prefix[1:] + [3] if shifted else prefix
    rows = model.forward(feats, emb_tokens, d)
    expect = readout_attention(model.params, target.embeddings, feats, emb_tokens, d, shifted)
    assert rows.shape == (d, 16)
    assert np.max(np.abs(rows - expect)) < 1e-12


def test_predict_memory_stays_linear_in_prefix():
    # Full L x L attention at n = 4096 needs a 4103 x 4103 float64 score
    # matrix (134 MB); the d read-out rows need a few MB.
    target = MarkovTarget(9, 64, 2)
    model = ToyDraft(64, target.embeddings, seed=2)
    prefix = [int(x) for x in np.random.default_rng(0).integers(0, 64, size=4096)]
    feats = target.features(prefix)
    tracemalloc.start()
    try:
        model.predict(prefix, feats, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_predict_shape_and_d1_boundary(target, model):
    feats = target.features([1, 2, 3])
    logits = model.predict([1, 2, 3], feats, 1)
    assert logits.rows.shape == (1, 8)
    logits5 = model.predict([1, 2, 3], feats, 5)
    assert logits5.rows.shape == (5, 8)


def test_causal_extension_leaves_earlier_rows_unchanged(target, model):
    # Appending more mask positions must not change earlier output rows.
    feats = target.features([1, 2, 3])
    short = model.predict([1, 2, 3], feats, 2).rows
    long = model.predict([1, 2, 3], feats, 5).rows
    assert np.allclose(short, long[:2], atol=1e-12)


def test_prefix_perturbation_does_not_leak_backwards(target, model):
    # Changing the prefix changes outputs only through attention over visible
    # positions: with d masks appended, the mask rows may change, but an
    # identical shared prefix forward is bitwise reproducible.
    feats = target.features([1, 2, 3])
    a = model.predict([1, 2, 3], feats, 3).rows
    b = model.predict([1, 2, 3], feats, 3).rows
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
    nxt = int(np.argmax(feats.next_dist))
    emb_tokens = prefix[1:] + [nxt]
    rows = model.forward(feats.concatenated(), emb_tokens, d)

    g = feats.concatenated() @ model.params["W_in"]
    e = target.embeddings[np.asarray(emb_tokens)]
    z = np.concatenate([
        np.concatenate([g, e], axis=-1),
        np.tile(model.params["mask_vec"], (d - 1, 1)),
    ])
    z = z + positional_encoding(range(n + d - 1))
    expect = z @ model.params["W_head"] + model.params["b_head"]
    for t in range(d):
        assert np.allclose(rows[t], expect[n - 1 + t], atol=1e-12)


def test_unshifted_reads_mask_positions(target):
    model = ToyDraft(8, target.embeddings, seed=4, shifted=False)
    model.params["Wv"][:] = 0.0
    prefix = [1, 2, 3]
    n, d = len(prefix), 2
    feats = target.features(prefix)
    rows = model.predict(prefix, feats, d).rows
    g = feats.concatenated() @ model.params["W_in"]
    e = target.embeddings[np.asarray(prefix)]
    z = np.concatenate([
        np.concatenate([g, e], axis=-1),
        np.tile(model.params["mask_vec"], (d, 1)),
    ])
    z = z + positional_encoding(range(n + d))
    expect = z @ model.params["W_head"] + model.params["b_head"]
    for t in range(d):
        assert np.allclose(rows[t], expect[n + t], atol=1e-12)


def test_predict_requires_rng_when_sampling(target, model):
    feats = target.features([1, 2])
    with pytest.raises(ConfigError):
        model.predict([1, 2], feats, 2, temperature=1.0)
    out = model.predict([1, 2], feats, 2, temperature=1.0,
                        rng=np.random.default_rng(0))
    assert out.rows.shape == (2, 8)


def test_model_save_load_round_trip(tmp_path, target, model):
    p = tmp_path / "m.npz"
    model.save(p)
    loaded = ToyDraft.load(p)
    assert loaded.shifted == model.shifted
    feats = target.features([1, 2, 3])
    assert np.array_equal(model.predict([1, 2, 3], feats, 3).rows,
                          loaded.predict([1, 2, 3], feats, 3).rows)


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
], ids=lambda c: ",".join(f"{k}={'missing' if v is None else v.shape}" for k, v in c.items()))
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


def test_oracle_argmax_matches_greedy_chain(target):
    drafter = OracleDrafter(target)
    prefix = [3, 1]
    rows = drafter.predict(prefix, None, 5).rows
    assert list(np.argmax(rows, axis=1)) == target.greedy_chain(prefix, 5)


def test_adversarial_argmax_matches_argmin_chain(target):
    drafter = AdversarialDrafter(target)
    prefix = [3, 1]
    rows = drafter.predict(prefix, None, 4).rows
    assert list(np.argmax(rows, axis=1)) == target.rollout(prefix, 4, np.argmin)


def test_uniform_drafter_seeded_stream(target):
    a = UniformDrafter(8, seed=5)
    b = UniformDrafter(8, seed=5)
    assert np.array_equal(a.predict([0], None, 3).rows, b.predict([0], None, 3).rows)
    # stream advances call to call
    assert not np.array_equal(a.predict([0], None, 3).rows,
                              b.predict([0], None, 3).rows[:0:-1])


def test_noisy_oracle_keeps_chain_in_topk(target):
    drafter = NoisyOracleDrafter(target, noise=0.5, base=2.0, seed=0)
    prefix = [2, 2]
    chain = target.greedy_chain(prefix, 4)
    rows = drafter.predict(prefix, None, 4).rows
    for i, tok in enumerate(chain):
        top3 = np.argsort(-rows[i])[:3]
        assert tok in top3
