import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdraft import tree as tree_module
from specdraft.errors import ConfigError, InvalidTreeError
from specdraft.models import MarkovTarget
from specdraft.ngram import EPSILON, LOG_CEILING, LOG_FLOOR, NgramTrie, build_trie
from specdraft.tree import (
    ROOT_ID,
    DraftTree,
    ParallelLogits,
    PruneConfig,
    combine,
    prune,
    top_k_candidates,
)

from oracles import WindowCounter, oracle_prune, tree_to_paths


# -- top-k ----------------------------------------------------------------------


def test_top_k_basic():
    row = np.array([2.0, 1.0, 0.0])
    e = np.exp(row - row.max())
    sm = e / e.sum()
    tokens, scores = top_k_candidates(row, 2)
    assert tokens.tolist() == [0, 1]
    assert scores[0] == pytest.approx(math.log(sm[0] + EPSILON))
    assert scores[1] == pytest.approx(math.log(sm[1] + EPSILON))


def test_top_k_uniform_all():
    V = 5
    tokens, scores = top_k_candidates(np.zeros(V), V)
    assert tokens.tolist() == list(range(V))  # ties break by token id
    for s in scores:
        assert s == pytest.approx(math.log(1 / V + EPSILON))


def test_top_k_dominant_entry():
    row = np.zeros(8)
    row[3] = 1e4
    (tok,), (s,) = top_k_candidates(row, 1)
    assert tok == 3
    assert s == pytest.approx(math.log(1 + EPSILON), abs=1e-9)


def test_top_k_rejects_bad_k():
    with pytest.raises(ConfigError):
        top_k_candidates(np.zeros(4), 5)
    with pytest.raises(ConfigError):
        top_k_candidates(np.zeros(4), 0)


# -- combine --------------------------------------------------------------------


def test_combine_reference_constants():
    assert (tree_module.W_NG, tree_module.LOGIT_DECAY, tree_module.LEVEL_EXPONENT) == \
        (0.5, 0.9, 0.7)
    assert combine(-0.1, -0.2, 0) == pytest.approx(-0.2)
    assert combine(-1.0, -1.0, 1) == pytest.approx(
        (0.9 * -1 + 0.5 * -1) * 2 ** -0.7
    )
    assert combine(-1.0, -1.0, 1) == pytest.approx(-0.8618, abs=1e-4)
    assert combine(0.0, 0.0, 7) == 0.0


def test_combine_clamps_positive():
    # log(p + eps) can be marginally positive at p ~ 1
    assert combine(1e-9, 1e-9, 0) == 0.0


def test_combine_rejects_negative_level():
    with pytest.raises(ConfigError):
        combine(-1.0, -1.0, -1)


def test_prune_config_validation():
    with pytest.raises(ConfigError):
        PruneConfig(k=0)
    with pytest.raises(ConfigError):
        PruneConfig(w=0)
    with pytest.raises(ConfigError):
        PruneConfig(theta=0)
    # The operating point is all there is to set: the score is fixed.
    assert [f.name for f in fields(PruneConfig)] == ["k", "w", "theta"]


@pytest.mark.parametrize("field, value", [
    ("k", True), ("theta", 2.5), ("w", "4"), ("k", math.nan), ("w", math.inf),
])
def test_prune_config_rejects_non_finite_and_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        PruneConfig(**{field: value})


def test_prune_reads_only_the_trailing_context():
    # The trie scores a candidate by its last order-1 tokens, so a long
    # prefix and its tail must give the same tree.
    rng = np.random.default_rng(17)
    V = 12
    prefix = list(rng.integers(0, V, size=4096))
    trie = build_trie([prefix], 3, vocab_size=V)
    rows = rng.standard_normal((4, V))
    cfg = PruneConfig(k=5, w=6, theta=24)
    full = prune(ParallelLogits(rows), trie, cfg, prefix)
    tail = prune(ParallelLogits(rows), trie, cfg, prefix[-(trie.order - 1):])
    for name in ("parent", "token", "level", "score"):
        assert np.array_equal(getattr(full, name), getattr(tail, name)), name


# -- prune vs exhaustive oracle --------------------------------------------------


def assert_matches_oracle(rows, corpus, cfg, prefix, order=3, trie_vocab=None):
    trie_vocab = rows.shape[1] if trie_vocab is None else trie_vocab
    trie = build_trie(corpus, order, vocab_size=trie_vocab) if corpus else None
    counter = WindowCounter(corpus, order) if corpus else None
    tree = prune(ParallelLogits(rows), trie, cfg, prefix)
    got = tree_to_paths(tree)
    want = oracle_prune(rows, counter, cfg, prefix)
    assert list(got) == list(want)  # the same nodes in the same order
    for path, (level, score) in want.items():
        assert got[path][0] == level
        assert abs(got[path][1] - score) < 1e-12
    return got


@pytest.mark.parametrize("V", [64, 256])
def test_prune_matches_oracle_at_reference_point(V):
    # The reference operating point, with logits on a 0.5 grid so that many
    # candidates tie, and a trie over the target's own chain. Prefixes come
    # from that chain and the rows favour its continuation, so trie hits
    # reach deep levels; a boost of 30 makes the chain's increments clamp to
    # 0, so children tie their parents. verify tries siblings in tree order
    # and draws once per trial, so the node order must match the oracle's.
    target = MarkovTarget(V, V, 2, concentration=0.1)
    rng = np.random.default_rng(V)
    chain = target.sample_sequence(rng, 4000)
    cfg = PruneConfig(k=25, w=20, theta=59)
    for boost in (4.0, 4.0, 30.0):
        i = int(rng.integers(0, len(chain) - 14))
        prefix = chain[i:i + 6]
        rows = np.round(rng.standard_normal((8, V)) * 4) / 2
        rows[np.arange(8), chain[i + 6:i + 14]] += boost
        assert len(assert_matches_oracle(rows, [chain], cfg, prefix)) == cfg.theta


@pytest.mark.parametrize("with_trie", [True, False])
@pytest.mark.parametrize("theta", [8, 59])
def test_prune_bound_matches_oracle(monkeypatch, theta, with_trie):
    # Prune stops expanding a beam entry that scores below the theta-th best
    # pool score, and stops the level loop once none is left. At the
    # reference k, w and d, on 0.5-grid logits boosted along the trie's chain
    # (increments clamp to 0, so scores tie at the bound), the tree must
    # still match the oracle, and a counted combine must show that the bound
    # cut beam entries or levels on some input: with a trie a level's
    # increments are (beam, k), without one they are (k,) per level.
    sizes = []

    def counted(s_logit, s_ng, level):
        sizes.append(np.broadcast(s_logit, s_ng).size)
        return combine(s_logit, s_ng, level)

    monkeypatch.setattr(tree_module, "combine", counted)
    V, d = 64, 8
    target = MarkovTarget(V, V, 2, concentration=0.1)
    rng = np.random.default_rng(theta)
    chain = target.sample_sequence(rng, 4000)
    cfg = PruneConfig(k=25, w=20, theta=theta)
    full = cfg.k * (1 + cfg.w * (d - 1)) if with_trie else cfg.k * d
    cut = []
    for boost in (4.0, 4.0, 30.0):
        i = int(rng.integers(0, len(chain) - 6 - d))
        prefix = chain[i:i + 6]
        rows = np.round(rng.standard_normal((d, V)) * 4) / 2
        rows[np.arange(d), chain[i + 6:i + 6 + d]] += boost
        sizes.clear()
        got = assert_matches_oracle(rows, [chain] if with_trie else [], cfg, prefix)
        assert len(got) == cfg.theta
        cut.append(sum(sizes) < full)
    assert any(cut)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_prune_oracle_equivalence_on_tie_heavy_grids(data):
    # Logits on a 0.5 grid over a few values tie many candidates and many
    # pool scores, and a small alphabet's corpus lets continuations hit the
    # trie, so beam entries sit at, just above and just below the bound.
    V = data.draw(st.integers(4, 16))
    d = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, min(V, 6)))
    cfg = PruneConfig(k=k, w=data.draw(st.integers(1, 12)), theta=data.draw(st.integers(1, 40)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    rows = rng.integers(-3, 4, size=(d, V)) / 2
    alphabet = rng.choice(V, size=min(V, 3), replace=False)
    corpus = [list(rng.choice(alphabet, size=40))] if data.draw(st.booleans()) else []
    rows[:, alphabet] += data.draw(st.sampled_from([0.0, 1.0, 30.0]))
    prefix = list(rng.choice(alphabet, size=2))
    assert_matches_oracle(rows, corpus, cfg, prefix)


def _spied_prune(monkeypatch, rows, trie, cfg, prefix):
    """prune's tree, with the level of every combine call, marked True for
    the bound's call on scalars, and the size of every key_scores call."""
    combined, keyed = [], []
    key_scores = NgramTrie.key_scores

    def counted(s_logit, s_ng, level):
        combined.append((level, np.ndim(s_logit) == 0))
        return combine(s_logit, s_ng, level)

    def spied(self, keys):
        keyed.append(np.size(keys))
        return key_scores(self, keys)

    monkeypatch.setattr(tree_module, "combine", counted)
    monkeypatch.setattr(NgramTrie, "key_scores", spied)
    return prune(ParallelLogits(rows), trie, cfg, prefix), combined, keyed


def test_prune_drops_a_beam_entry_whose_best_child_ties_the_bound(monkeypatch):
    # The prefix [0] continues with 1 or 2, each half the time, and each of
    # them by 3 every time. theta = k = 2, so after level 0 the bound is the
    # second node's score. Row 1's token 3 is certain and so is its trie
    # continuation, so its increment clamps to 0: the first entry's best
    # child beats the bound, and the second's ties it exactly and would lose
    # that tie to theta shallower nodes, so only the first is expanded.
    corpus = [[0, 1, 3], [0, 2, 3]]
    trie = build_trie(corpus, 2, vocab_size=4)
    assert trie.node_scores.max() == LOG_CEILING  # no trie scores above it
    rows = np.array([[0.0, 2.0, 1.0, 0.0], [0.0, 0.0, 0.0, 30.0]])
    cfg = PruneConfig(k=2, w=2, theta=2)
    _, top_scores = top_k_candidates(rows, cfg.k)
    assert combine(top_scores[1, 0], LOG_CEILING, 1) == 0.0
    tree, combined, keyed = _spied_prune(monkeypatch, rows, trie, cfg, [0])
    monkeypatch.undo()
    assert tree_to_paths(tree) == {(1,): (0, tree.score[0]), (1, 3): (1, tree.score[0])}
    assert combined == [(0, False), (1, True), (1, False)]
    assert keyed == [cfg.k, cfg.k]  # level 1 expands one beam entry of two
    assert_matches_oracle(rows, corpus, cfg, [0], order=2)


def test_prune_ends_the_loop_when_no_child_can_beat_the_bound(monkeypatch):
    # Without a trie every child's increment carries W_NG * LOG_FLOOR, about
    # -6.4 at level 1, which the 1-nat gap between the two level-0 nodes
    # cannot cover: once they fill theta = 2, the bound ends the loop
    # before level 1, and the tree is those two nodes.
    rows = np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    cfg = PruneConfig(k=2, w=2, theta=2)
    _, top_scores = top_k_candidates(rows, cfg.k)
    assert combine(top_scores[1, 0], LOG_FLOOR, 1) < -6
    tree, combined, _ = _spied_prune(monkeypatch, rows, None, cfg, [0])
    monkeypatch.undo()
    assert combined == [(0, False), (1, True)]
    assert tree.token.tolist() == [0, 1] and tree.level.tolist() == [0, 0]
    assert_matches_oracle(rows, [], cfg, [0])


@pytest.mark.parametrize("order, width", [(3, np.int32), (6, np.int64)])
def test_prune_builds_node_keys_in_the_tries_key_width(monkeypatch, order, width):
    # V = 64: keys fit int32 up to order 5, so a needle of another width
    # would make every search cast the table or its needles.
    rng = np.random.default_rng(order)
    V = 64
    corpus = [list(rng.integers(0, 8, size=400))]
    trie = build_trie(corpus, order, vocab_size=V)
    assert trie.keys.dtype == width
    dtypes = []
    key_scores = NgramTrie.key_scores

    def spied(self, keys):
        dtypes.append(keys.dtype)
        return key_scores(self, keys)

    monkeypatch.setattr(NgramTrie, "key_scores", spied)
    rows = rng.standard_normal((5, V))
    rows[:, :8] += 3.0
    tree = prune(ParallelLogits(rows), trie, PruneConfig(k=25, w=20, theta=59), corpus[0][-6:])
    assert len(tree) == 59 and len(dtypes) >= 2
    assert set(dtypes) == {trie.keys.dtype}


@given(st.data())
@settings(max_examples=120)
def test_prune_oracle_equivalence(data):
    V = data.draw(st.integers(3, 10))
    d = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, min(3, V)))
    w = data.draw(st.integers(1, 90))
    theta = data.draw(st.integers(1, 130))
    seed = data.draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((d, V)) * 2
    corpus = [list(rng.integers(0, V, size=30))] if data.draw(st.booleans()) else []
    prefix = list(rng.integers(0, V, size=3))
    cfg = PruneConfig(k=k, w=w, theta=theta)
    assert_matches_oracle(rows, corpus, cfg, prefix)


@given(st.data())
@settings(max_examples=150)
def test_prune_oracle_with_padded_contexts_and_another_trie_vocabulary(data):
    # A prompt shorter than order-1 gives padded context keys; a trie
    # vocabulary below the logits' lets out-of-vocabulary candidates slide
    # into a beam entry's key and, order-1 levels later, out of it again,
    # and one above it holds continuations no candidate can be.
    V = data.draw(st.integers(3, 8))
    trie_vocab = data.draw(st.integers(2, 12))
    order = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, V))
    cfg = PruneConfig(k=k, w=data.draw(st.integers(1, 30)), theta=data.draw(st.integers(1, 80)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    # A small alphabet makes windows repeat, so continuations hit the trie.
    alphabet = rng.choice(trie_vocab, size=min(trie_vocab, 4), replace=False)
    corpus = [list(rng.choice(alphabet, size=60))]
    prefix = list(rng.choice(np.append(alphabet, [V - 1]), size=data.draw(st.integers(1, 4))))
    rows = rng.standard_normal((d, V)) * 2
    rows[:, alphabet[alphabet < V]] += 1.5
    assert_matches_oracle(rows, corpus, cfg, prefix, order, trie_vocab)


@pytest.mark.parametrize("trie_vocab", [128, 16])
def test_prune_with_a_trie_of_another_vocabulary(trie_vocab):
    # V=64 logits. A trie of V=128 holds continuations (token 100) that no
    # candidate can be, and one of V=16 has none for most candidates: both
    # score like the flat counter, with no index out of bounds.
    rng = np.random.default_rng(trie_vocab)
    prefix = [1, 2]
    corpus = [list(rng.integers(0, min(trie_vocab, 64), size=200)),
              prefix + [100 % trie_vocab, 3] + prefix + [3, 1, 2]]
    trie = build_trie(corpus, 3, vocab_size=trie_vocab)
    assert trie.vocab_size == trie_vocab and 100 % trie_vocab in trie.counts(prefix)
    rows = np.round(rng.standard_normal((3, 64)) * 4) / 2
    cfg = PruneConfig(k=25, w=20, theta=59)
    tree = prune(ParallelLogits(rows), trie, cfg, prefix)
    want = oracle_prune(rows, WindowCounter(corpus, 3), cfg, prefix)
    got = tree_to_paths(tree)
    assert list(got) == list(want)
    for path, (level, score) in want.items():
        assert got[path][0] == level and abs(got[path][1] - score) < 1e-12


def test_prune_oracle_with_exact_ties():
    # All-uniform rows make every expansion at a level score identically.
    # With theta = 12 the tree reaches the last level, so which tied
    # candidates survived the beam shows.
    rows = np.zeros((3, 4))
    for theta in (8, 12):
        assert_matches_oracle(rows, [], PruneConfig(k=3, w=2, theta=theta), [0])


def test_prune_depth_one_is_top_k():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((1, 12))
    cfg = PruneConfig(k=5, w=3, theta=4)
    tree = prune(ParallelLogits(rows), None, cfg, [1, 2])
    want, _ = top_k_candidates(rows[0], min(cfg.k, cfg.theta))
    assert tree.token.tolist() == want[: cfg.theta].tolist()
    assert (tree.parent == ROOT_ID).all() and (tree.level == 0).all()


def test_prune_dominant_chain_with_matching_trie():
    V, d = 6, 4
    chain = [2, 3, 4, 5]
    prefix = [0, 1]
    rows = np.zeros((d, V))
    for i, t in enumerate(chain):
        rows[i, t] = 9.0
    corpus = [prefix + chain] * 4
    trie = build_trie(corpus, 3, vocab_size=V)
    cfg = PruneConfig(k=2, w=2, theta=10)
    tree = prune(ParallelLogits(rows), trie, cfg, prefix)
    paths = tree_to_paths(tree)
    assert tuple(chain) in paths
    # The full chain is the best-scoring node at its depth and the deepest path.
    depth = max(level for level, _ in paths.values())
    assert depth == d - 1
    assert paths[tuple(chain)][0] == d - 1
    assert_matches_oracle(rows, corpus, cfg, prefix)


def test_beam_soundness():
    # With w < k^d, every pool sequence extends a beam survivor of the
    # previous level: recompute the beams exhaustively and check containment.
    rng = np.random.default_rng(3)
    V, d = 8, 3
    rows = rng.standard_normal((d, V))
    cfg = PruneConfig(k=3, w=2, theta=60)
    tree = prune(ParallelLogits(rows), None, cfg, [0])
    got = tree_to_paths(tree)

    beams = {0: {()}}
    cur = [((), 0.0)]
    floor = math.log(EPSILON)
    for level in range(d):
        cands = list(zip(*(a.tolist() for a in top_k_candidates(rows[level], cfg.k))))
        new = []
        for path, sc in cur:
            for t, s_logit in cands:
                new.append((path + (t,), sc + combine(s_logit, floor, level)))
        new.sort(key=lambda it: (-it[1], it[0][-1]))
        cur = new[: cfg.w]
        beams[level + 1] = {p for p, _ in new[: cfg.w]}
    for path in got:
        if len(path) > 1:
            assert path[:-1] in beams[len(path) - 1]


def test_scores_monotone_and_ancestor_closed():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((4, 9)) * 3
    cfg = PruneConfig(k=3, w=4, theta=12)
    tree = prune(ParallelLogits(rows), None, cfg, [4])
    assert len(tree) <= cfg.theta
    for i, p in enumerate(tree.parent.tolist()):
        if p != ROOT_ID:
            assert 0 <= p < i
            assert tree.score[i] <= tree.score[p]
            assert tree.level[i] == tree.level[p] + 1
        else:
            assert tree.level[i] == 0


def test_ngram_boost_never_lowers_rank():
    # Raising the trie probability of one continuation must not lower its
    # rank among its siblings.
    rng = np.random.default_rng(5)
    V = 6
    rows = rng.standard_normal((1, V))
    cfg = PruneConfig(k=V, w=V, theta=V)
    prefix = [1, 2]
    target_tok = int(np.argsort(rows[0])[0])  # weakest logit

    def rank_of(corpus):
        trie = build_trie(corpus, 3, vocab_size=V) if corpus else None
        tree = prune(ParallelLogits(rows), trie, cfg, prefix)
        order = tree.token.tolist()
        return order.index(target_tok)

    base_rank = rank_of([])
    boosted = rank_of([[1, 2, target_tok]] * 3)
    assert boosted <= base_rank


def test_prune_rejects_empty_prefix():
    with pytest.raises(ConfigError):
        prune(ParallelLogits(np.zeros((1, 4))), None, PruneConfig(k=2, w=2, theta=2), [])


def test_prune_refuses_a_child_that_outranks_its_parent(monkeypatch):
    # Without combine's <= 0 clamp a child could outscore its parent and be
    # picked without it; the tree's own checks refuse that result.
    monkeypatch.setattr(tree_module, "combine", lambda s_logit, s_ng, level:
                        np.full_like(s_logit, 1.0 + level))
    with pytest.raises(InvalidTreeError):
        prune(ParallelLogits(np.zeros((2, 4))), None, PruneConfig(k=2, w=2, theta=3), [0])


def test_parallel_logits_validation():
    with pytest.raises(ConfigError):
        ParallelLogits(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(ConfigError):
        ParallelLogits(np.array([[1.0, np.inf]]))


# -- tree structure and linearized attention mask --------------------------------


def chain_tree(tokens):
    n = len(tokens)
    return DraftTree(np.arange(n) - 1, tokens, np.arange(n), -np.arange(n, dtype=float))


def test_linearize_chain_is_lower_triangular():
    tree = chain_tree([5, 6, 7])
    assert tree.token.tolist() == [5, 6, 7]
    assert (4 + tree.level).tolist() == [4, 5, 6]
    assert np.array_equal(tree.attention_mask(), np.tril(np.ones((3, 3), dtype=bool)))


def test_linearize_siblings_isolated():
    tree = DraftTree(parent=[ROOT_ID, ROOT_ID], token=[1, 2], level=[0, 0],
                     score=[-0.1, -0.2])
    assert (10 + tree.level).tolist() == [10, 10]
    assert np.array_equal(tree.attention_mask(), np.eye(2, dtype=bool))


def test_linearize_full_binary_depth_two():
    # Root children 0/1; each has two children: 7 nodes... depth 2 => 2 levels
    # below the two roots -> take one root with a full binary subtree of
    # depth 2 plus a second root child: leaves see exactly 3 tree positions.
    tree = DraftTree(parent=[ROOT_ID, ROOT_ID, 0, 0, 2, 2, 3],
                     token=[0, 1, 0, 1, 0, 1, 0],
                     level=[0, 0, 1, 1, 2, 2, 2],
                     score=[-0.1, -0.2, -0.3, -0.4, -0.5, -0.6, -0.7])
    mask = tree.attention_mask()
    for leaf_idx in (4, 5, 6):
        assert mask[leaf_idx].sum() == 3


def test_empty_tree_has_empty_mask():
    assert DraftTree([], [], [], []).attention_mask().shape == (0, 0)


def test_draft_tree_rejects_orphans_and_disorder():
    with pytest.raises(InvalidTreeError):
        DraftTree([99], [1], [1], [0.0])  # orphan
    with pytest.raises(InvalidTreeError):
        DraftTree([-2], [1], [0], [0.0])  # parent id below ROOT_ID
    with pytest.raises(InvalidTreeError):
        DraftTree([1, ROOT_ID], [2, 1], [1, 0], [-0.5, -0.1])  # child listed before parent
    with pytest.raises(InvalidTreeError):
        DraftTree([0], [1], [0], [-0.1])  # its own parent
    with pytest.raises(InvalidTreeError):
        DraftTree([ROOT_ID, 0], [1, 2], [0, 2], [-0.1, -0.2])  # level skip
    with pytest.raises(InvalidTreeError):
        DraftTree([ROOT_ID], [1], [1], [-0.1])  # root child below level 0
    with pytest.raises(InvalidTreeError):
        DraftTree([ROOT_ID, 0], [1], [0, 1], [-0.1, -0.2])  # ragged arrays


@pytest.mark.parametrize("name", ["parent", "token", "level"])
@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, -2 ** 64])
def test_draft_tree_names_an_array_holding_a_value_past_int64(name, big):
    arrays = {"parent": [ROOT_ID, 0], "token": [1, 2], "level": [0, 1]}
    arrays[name] = [arrays[name][0], big]
    with pytest.raises(InvalidTreeError, match=f"^{name} holds a value past int64"):
        DraftTree(**arrays, score=[0.0, 0.0])


@given(st.integers(0, 2 ** 31))
def test_linearized_mask_rows_reproduce_parent_chains(seed):
    # The attention-mask row of every node admits exactly its ancestors and
    # itself, in list order -- the context a tree-attention forward would see.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, 8))
    cfg = PruneConfig(k=3, w=3, theta=9)
    tree = prune(ParallelLogits(rows), None, cfg, [0])
    mask = tree.attention_mask()
    for idx in range(len(tree)):
        chain = []
        cur = idx
        while cur != ROOT_ID:
            chain.append(int(tree.token[cur]))
            cur = int(tree.parent[cur])
        chain.reverse()
        assert tree.token[np.flatnonzero(mask[idx])].tolist() == chain
        assert len(chain) == 1 + tree.level[idx]  # prefix_len + level is its position
