"""Draft token tree construction from one set of parallel per-position logits.

One drafting forward yields d rows of logits, one per future position. Pruning
walks the positions level by level and scores each level at once: the beam
times the row's top-k tokens is one (beam, k) matrix of expansions, scored by
`combine` from the draft logit score and the n-gram continuity score. Every
expansion enters a pool of parallel arrays and the best w become the next
beam, but a beam entry scoring below the theta-th best pool score is not
expanded, as none of its descendants can reach the tree, so pruning may end
before level d. The top-theta pool nodes form the DraftTree that
verification walks: it checks its own structure and carries its own
tree-attention mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidTreeError, check_int
from .ngram import EPSILON, LOG_FLOOR, NgramTrie

ROOT_ID = -1


@dataclass
class ParallelLogits:
    """d rows of vocabulary logits; row i scores the (i+1)-th future position."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[0] < 1:
            raise ConfigError(f"logits must be (d, V) with d >= 1, got {self.rows.shape}")
        if not np.all(np.isfinite(self.rows)):
            raise ConfigError("logit rows must be finite")

    @property
    def d(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class PruneConfig:
    """The operating point: top-k candidates per position, beam width w and
    theta-node trees, by default the reference 25/20/59. `combine` is the score."""

    k: int = 25
    w: int = 20
    theta: int = 59

    def __post_init__(self):
        for name in ("k", "w", "theta"):
            check_int(name, getattr(self, name), minimum=1)


@dataclass
class DraftTree:
    """Ancestor-closed scored token tree as parallel arrays, parents before
    children. Node i has id i; parent[i] is its parent's id, or ROOT_ID for a
    child of the prefix; level 0 is the first future position; score is the
    cumulative combined score. Construction raises InvalidTreeError unless
    every parent id lies in [ROOT_ID, i) and every level is one more than its
    parent's (0 under ROOT_ID), and for a parent, token or level past int64."""

    parent: np.ndarray
    token: np.ndarray
    level: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        for name in ("parent", "token", "level"):
            try:
                setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
            except OverflowError:
                raise InvalidTreeError(f"{name} holds a value past int64") from None
        self.score = np.asarray(self.score, dtype=np.float64)
        n = len(self.token)
        if any(a.shape != (n,) for a in (self.parent, self.token, self.level, self.score)):
            raise InvalidTreeError("parent, token, level and score must be 1-D and of one length")
        parent, level = self.parent, self.level
        bad = np.flatnonzero((parent < ROOT_ID) | (parent >= np.arange(n)))
        if bad.size:
            raise InvalidTreeError(f"node {bad[0]} appears before its parent {parent[bad[0]]} "
                                   "or the parent is missing")
        parent_level = np.where(parent == ROOT_ID, -1, level[np.maximum(parent, 0)])
        bad = np.flatnonzero(level != parent_level + 1)
        if bad.size:
            raise InvalidTreeError(f"node {bad[0]} has level {level[bad[0]]} under a parent "
                                   f"of level {parent_level[bad[0]]}")

    def __len__(self) -> int:
        return len(self.token)

    def attention_mask(self) -> np.ndarray:
        """Bool (N, N) tree-attention mask: entry (q, kv) is true iff kv is q or
        one of q's ancestors; node i sits at position prefix_len + level[i].
        Prefix positions are always visible and are not part of the matrix.
        Built one level at a time: each node's row is its parent's plus itself."""
        n = len(self)
        mask = np.zeros((n, n), dtype=bool)
        by_level = np.argsort(self.level, kind="stable")
        bounds = np.cumsum(np.bincount(self.level)).tolist()
        for lo, hi in zip([0] + bounds, bounds):
            idx = by_level[lo:hi]
            if lo:
                mask[idx] = mask[self.parent[idx]]
            mask[idx, idx] = True
        return mask


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, in float64."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def top_k_candidates(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k highest-logit tokens of each row, with s_logit = log(softmax(row) + EPSILON).

    Works over the last axis: for (d, V) rows both arrays are (d, k). Sorted
    by descending logit; ties broken by ascending token ID.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if k > rows.shape[-1]:
        raise ConfigError(f"k = {k} exceeds vocabulary size {rows.shape[-1]}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    tokens = np.argsort(-rows, axis=-1, kind="stable")[..., :k]
    probs = np.exp(log_softmax(rows))
    return tokens, np.log(np.take_along_axis(probs, tokens, axis=-1) + EPSILON)


W_NG = 0.5            # weight of the n-gram continuity score
LOGIT_DECAY = 0.9     # the logit score's weight at level l is LOGIT_DECAY^l
LEVEL_EXPONENT = 0.7  # the increment's weight at level l is (l+1)^-LEVEL_EXPONENT


def combine(s_logit, s_ng, level: int):
    """Score increment for extending a candidate at tree depth `level`.

    (LOGIT_DECAY^level * s_logit + W_NG * s_ng) * (level+1)^-LEVEL_EXPONENT,
    clamped to <= 0 so cumulative scores never increase along a path. The
    scores may be floats or arrays that broadcast together.
    """
    if level < 0:
        raise ConfigError(f"level must be >= 0, got {level}")
    w_logit = LOGIT_DECAY ** level
    w_level = (level + 1) ** (-LEVEL_EXPONENT)
    return np.minimum(0.0, (w_logit * s_logit + W_NG * s_ng) * w_level)


def prune(
    logits: ParallelLogits,
    trie: NgramTrie | None,
    cfg: PruneConfig,
    prefix: Sequence[int],
) -> DraftTree:
    """Continuity-aware pruning of the implicit candidate tree.

    The beam starts as the bare prefix with score 0. At level l every beam
    entry expands by row l's top-k tokens, and `combine` scores the level's
    (beam, k) expansions from their logit scores and the trie scores of one
    `trie.key_scores` call (the floor without a trie, or for a token outside
    its vocabulary). Every expansion enters the pool, in beam order, then
    top-k order; the top w become the next beam, and the top-theta pool nodes
    form the tree. Before every level but the first, once the pool holds
    theta nodes, the beam keeps only its entries scoring at least the
    theta-th best pool score, and an empty beam ends the loop before level
    d: the tree is the same as if every entry were expanded. A beam entry
    is (pool id, context key, score): its trailing order-1 tokens as one
    int64 key, all that the trie reads, so pruning costs the same for any
    prefix length. An expansion's node key is key * base +
    digit; modulo `trie.context_limit` it is the expansion's context key. Ties
    break as (higher score, lower level, lower token, lower parent id, pool order).
    """
    if len(prefix) == 0:
        raise ConfigError("prefix must be nonempty")
    top_tokens, top_scores = top_k_candidates(logits.rows, cfg.k)
    if trie is not None:
        top_digits = trie.digits(top_tokens)
        beam_keys = np.array([trie.context_key(prefix)])

    beam_ids = np.array([ROOT_ID])
    beam_scores = np.zeros(1)
    top = None  # the theta best pool scores, once the pool holds theta nodes
    pool = []  # per level: (parent, token, level, score) arrays of its expansions
    size = 0
    for depth in range(logits.d):
        if trie is not None:
            node_keys = beam_keys[:, None] * trie.base + top_digits[depth]
        s_ng = LOG_FLOOR if trie is None else trie.key_scores(node_keys)
        inc = combine(top_scores[depth], s_ng, depth)
        level_scores = (beam_scores[:, None] + inc).ravel()
        level_parents = np.repeat(beam_ids, cfg.k)
        level_tokens = top_tokens[depth][None, :].repeat(len(beam_ids), axis=0).ravel()
        best = _ranked(cfg.w, level_scores, level_tokens, level_parents)[: cfg.w]
        if trie is not None:
            beam_keys = node_keys.ravel()[best] % trie.context_limit
        beam_ids = size + best
        beam_scores = level_scores[best]
        size += len(level_scores)
        pool.append((level_parents, level_tokens, np.full(len(level_scores), depth), level_scores))
        if depth + 1 == logits.d or size < cfg.theta:
            continue
        # Branch and bound: `top` holds the theta best pool scores so far,
        # and `bound` is the least of them. Increments are clamped <= 0, so a
        # node scores at most its parent, and a deeper node loses a score tie
        # to a shallower one: every later node scoring at most `bound` ranks
        # behind theta pool nodes, and so does every descendant of a beam
        # entry below `bound`. Dropping such an entry frees beam slots at
        # later levels; a node taking one ranks below the dropped entry's
        # descendant it displaces, so it too scores at most `bound` and never
        # reaches the tree. The beam is ranked by score, so the entries kept
        # are a prefix, in their old order, and parent ids still compare as
        # before.
        seen = np.concatenate([top, level_scores] if top is not None else [a[3] for a in pool])
        top = np.partition(seen, len(seen) - cfg.theta)[-cfg.theta:]
        bound = top[0]
        kept = np.count_nonzero(beam_scores >= bound)
        if kept == 0:
            break
        beam_ids, beam_scores = beam_ids[:kept], beam_scores[:kept]
        if trie is not None:
            beam_keys = beam_keys[:kept]
    parent, token, level, score = (np.concatenate(a) for a in zip(*pool))

    # Top-theta selection. Increments are clamped <= 0, so a parent scores at
    # least as high as its child and sorts strictly before it: the top theta
    # are ancestor-closed. Parent ids are remapped by the inverse permutation,
    # whose extra last slot keeps ROOT_ID; were a parent ever left out, its
    # child would land under ROOT_ID below level 0, which DraftTree rejects.
    picked = _ranked(cfg.theta, score, level, token, parent)[: cfg.theta]
    tree_id = np.full(size + 1, ROOT_ID)
    tree_id[picked] = np.arange(len(picked))
    return DraftTree(tree_id[parent[picked]], token[picked], level[picked], score[picked])


def _ranked(n: int, score: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Indices of the entries scoring at least the n-th best score, ranked by
    (higher score, *keys ascending, lower index): the top n of the full
    ranking come first. One stable np.lexsort ranks just these candidates."""
    if len(score) <= n:
        return np.lexsort((*reversed(keys), -score))
    candidates = np.flatnonzero(score >= -np.partition(-score, n - 1)[n - 1])
    order = np.lexsort(tuple(k[candidates] for k in reversed(keys)) + (-score[candidates],))
    return candidates[order]
