import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdraft import tree as tree_module
from specdraft.errors import ConfigError, InvalidTreeError
from specdraft.models import MarkovTarget
from specdraft.ngram import EPSILON, build_trie
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
    assert full.to_records() == tail.to_records()


# -- prune vs exhaustive oracle --------------------------------------------------


def assert_matches_oracle(rows, corpus, cfg, prefix):
    trie = build_trie(corpus, 3, vocab_size=rows.shape[1]) if corpus else None
    counter = WindowCounter(corpus, 3) if corpus else None
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


def test_to_records():
    tree = chain_tree([3, 4])
    recs = tree.to_records()
    assert recs[0] == {"id": 0, "parent_id": ROOT_ID, "token": 3, "level": 0,
                       "score": 0.0}
