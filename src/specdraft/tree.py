"""Draft token tree construction from one set of parallel per-position logits.

One drafting forward yields d rows of logits, one per future position. Pruning
walks the positions level by level and scores each level at once: the beam
times the row's top-k tokens is one (beam, k) matrix of expansions, scored by
`combine` from the draft logit score and the n-gram continuity score. Every
expansion's score enters the pool, and the best w become the next beam. A
beam entry is not expanded when even its best possible child, from the next
row's best logit score and the best trie score, cannot beat the theta-th best
pool score: none of its descendants could reach the tree, so pruning may
expand fewer entries and end before level d. The top-theta pool nodes form
the DraftTree that verification walks: it checks its own structure and
carries its own tree-attention mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidTreeError, check_int
from .ngram import EPSILON, LOG_CEILING, LOG_FLOOR, NgramTrie

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
        parent, level = self.parent, self.level
        n = len(self.token)
        if not parent.shape == self.token.shape == level.shape == self.score.shape == (n,):
            raise InvalidTreeError("parent, token, level and score must be 1-D and of one length")
        bad = ((parent < ROOT_ID) | (parent >= np.arange(n))).nonzero()[0]
        if bad.size:
            raise InvalidTreeError(f"node {bad[0]} appears before its parent {parent[bad[0]]} "
                                   "or the parent is missing")
        # Every parent id is now in [ROOT_ID, n): ROOT_ID (-1) reads the appended level -1.
        parent_level = np.concatenate((level, [-1]))[parent]
        bad = (level != parent_level + 1).nonzero()[0]
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


def top_k_candidates(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k highest-logit tokens of each row, with s_logit = log(softmax(row) + EPSILON).

    Works over the last axis: for (d, V) rows both arrays are (d, k). Sorted
    by descending logit; ties broken by ascending token ID. Only the picked
    entries of the log-softmax are exponentiated back and logged.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if k > rows.shape[-1]:
        raise ConfigError(f"k = {k} exceeds vocabulary size {rows.shape[-1]}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    tokens = np.argsort(-rows, axis=-1, kind="stable")[..., :k]
    shifted = rows - rows.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(shifted, tokens, axis=-1)
    return tokens, np.log(np.exp(picked) + EPSILON)


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
    `trie.key_scores` call: a continuation the trie never saw backs off to
    its token's unigram, and the floor scores a token that starts no corpus
    window or lies outside the trie's vocabulary, and every expansion
    without a trie. Every expansion enters the pool, in beam order, then
    top-k order; the top w become the next beam, and the top-theta pool nodes
    form the tree. Pool node i is expansion i % k of beam entry i // k, over
    all levels' beams. Before every level but the first, once the pool holds
    theta nodes, the beam keeps only the entries whose best possible child
    beats the theta-th best pool score, and an empty beam ends the loop
    before level d: the tree is the same as if every entry were expanded. A
    beam entry's context is its trailing order-1 tokens as one key, in the
    trie's key width: all that the trie reads, so pruning costs the same for
    any prefix length. An expansion's node key is key * base + digit; modulo
    `trie.context_limit` it is the expansion's context key. Ties break as
    (higher score, lower level, lower token, lower parent id, pool order).
    """
    if len(prefix) == 0:
        raise ConfigError("prefix must be nonempty")
    top_tokens, top_scores = top_k_candidates(logits.rows, cfg.k)
    best_ng = LOG_FLOOR if trie is None else LOG_CEILING  # no s_ng, back-off included, is higher
    if trie is not None:
        top_digits = trie.digits(top_tokens).astype(trie.keys.dtype)
        beam_keys = np.array([trie.context_key(prefix)], trie.keys.dtype)
    beam_ids, beam_scores, size = np.array([ROOT_ID]), np.zeros(1), 0  # size: pool nodes so far
    top = None  # the theta best pool scores, once the pool holds theta nodes
    parents, scores = [], []  # per level: the beam's pool ids, its expansions' scores
    for depth in range(logits.d):
        if trie is not None:
            node_keys = beam_keys[:, None] * trie.base + top_digits[depth]
        s_ng = LOG_FLOOR if trie is None else trie.key_scores(node_keys)
        level = (beam_scores[:, None] + combine(top_scores[depth], s_ng, depth)).ravel()
        parents.append(beam_ids)
        scores.append(level)
        if depth + 1 == logits.d:
            break
        candidates = _contenders(cfg.w, level)
        beam, digit = divmod(candidates, cfg.k)
        best = np.lexsort((beam_ids[beam], top_tokens[depth, digit], -level[candidates]))[: cfg.w]
        if trie is not None:
            beam_keys = node_keys[beam[best], digit[best]] % trie.context_limit
        beam_ids, beam_scores = size + candidates[best], level[candidates[best]]
        size += len(level)
        if size < cfg.theta:
            continue
        # Branch and bound. combine is monotone in both scores and clamped <= 0,
        # so no child of a beam entry scores above the entry's score plus
        # combine(the next row's best s_logit, best_ng), no node scores above
        # its parent, and a deeper node loses a score tie to a shallower one:
        # no descendant of an entry whose best child scores at most `top[0]`
        # outranks theta pool nodes. A node taking a beam slot so freed ranks
        # below the dropped entry's child it displaces, so it never reaches the
        # tree. The beam is ranked by score, so the kept entries are a prefix.
        seen = np.concatenate((top, level) if top is not None else scores)
        seen.partition(len(seen) - cfg.theta)
        top = seen[-cfg.theta:]
        kept = beam_scores + combine(top_scores[depth + 1, 0], best_ng, depth + 1) > top[0]
        if not kept[0]:
            break
        beam_ids, beam_scores = beam_ids[kept], beam_scores[kept]
        if trie is not None:
            beam_keys = beam_keys[kept]

    # Top-theta selection, ranking only the contenders. A parent scores at
    # least its child and sorts strictly before it, so the top theta are
    # ancestor-closed. Parent ids are remapped by the inverse permutation,
    # whose extra last slot keeps ROOT_ID: were a parent ever left out, its
    # child would land under ROOT_ID below level 0, which DraftTree rejects.
    score = np.concatenate(scores)
    candidates = _contenders(cfg.theta, score)
    beam, digit = divmod(candidates, cfg.k)
    level = np.cumsum([len(ids) for ids in parents]).searchsorted(beam, "right")
    parent, token = np.concatenate(parents)[beam], top_tokens[level, digit]
    tree_id = np.full(len(score) + 1, ROOT_ID)
    score = score[candidates]
    picked = np.lexsort((parent, token, level, -score))[: cfg.theta]
    tree_id[candidates[picked]] = np.arange(len(picked))
    return DraftTree(tree_id[parent[picked]], token[picked], level[picked], score[picked])


def _contenders(n: int, score: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the entries scoring at least the n-th best
    score: the top n under any tie-break, for a stable lexsort to rank."""
    if len(score) <= n:
        return np.arange(len(score))
    worst = -score
    worst.partition(n - 1)
    return (score >= -worst[n - 1]).nonzero()[0]
