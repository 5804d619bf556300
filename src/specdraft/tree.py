"""Draft token tree construction from one set of parallel per-position logits.

One drafting forward yields d rows of logits, one per future position. Pruning
walks the positions level by level and scores each level at once: the beam
times the row's top-k tokens is one (beam, k) matrix of expansions, scored by
`combine` from the draft logit score and the n-gram continuity score. Every
expansion enters a pool of parallel arrays, the best w become the next beam,
and the top-theta pool nodes form an ancestor-closed DraftTree: parallel
parent, token, level and score arrays, parents before children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidTreeError, check_int, check_number
from .ngram import EPSILON, NgramTrie

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

    @property
    def vocab_size(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class PruneConfig:
    """Pruning hyperparameters. Defaults follow the reference operating point:
    top-25 candidates per position, beam width 20, 59-node trees, n-gram
    weight 0.5, logit weight 0.9^level, level weight (level+1)^-0.7."""

    k: int = 25
    w: int = 20
    theta: int = 59
    w_ng: float = 0.5
    logit_decay: float = 0.9
    level_exponent: float = 0.7
    epsilon: float = EPSILON

    def __post_init__(self):
        for name in ("k", "w", "theta"):
            check_int(name, getattr(self, name), minimum=1)
        for name in ("w_ng", "logit_decay", "level_exponent", "epsilon"):
            check_number(name, getattr(self, name))
        if self.w_ng < 0:
            raise ConfigError(f"w_ng must be >= 0, got {self.w_ng}")
        if not 0 < self.logit_decay <= 1:
            raise ConfigError(f"logit_decay must be in (0, 1], got {self.logit_decay}")
        if self.level_exponent < 0:
            raise ConfigError(f"level_exponent must be >= 0, got {self.level_exponent}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")


@dataclass
class DraftTree:
    """Ancestor-closed scored token tree as parallel arrays, parents before
    children. Node i has id i; parent[i] is its parent's id, or ROOT_ID for a
    child of the prefix; level 0 is the first future position; score is the
    cumulative combined score."""

    parent: np.ndarray
    token: np.ndarray
    level: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.token = np.asarray(self.token, dtype=np.int64)
        self.level = np.asarray(self.level, dtype=np.int64)
        self.score = np.asarray(self.score, dtype=np.float64)
        n = len(self.token)
        if any(a.shape != (n,) for a in (self.parent, self.token, self.level, self.score)):
            raise InvalidTreeError("parent, token, level and score must be 1-D and of one length")

    def __len__(self) -> int:
        return len(self.token)

    def render(self) -> str:
        """Indented text rendering for debugging."""
        lines = []
        by_parent: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent.tolist()):
            by_parent.setdefault(p, []).append(i)

        def walk(parent_id: int, indent: int):
            for i in by_parent.get(parent_id, []):
                lines.append(f"{'  ' * indent}{self.token[i]} (score={self.score[i]:.4f})")
                walk(i, indent + 1)

        walk(ROOT_ID, 0)
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        """Machine-readable adjacency listing for golden tests."""
        columns = zip(self.parent.tolist(), self.token.tolist(), self.level.tolist(),
                      self.score.tolist())
        return [{"id": i, "parent_id": p, "token": t, "level": lv, "score": s}
                for i, (p, t, lv, s) in enumerate(columns)]


@dataclass
class LinearizedTree:
    tokens: list[int]
    position_ids: list[int]
    attention_mask: np.ndarray  # bool (N, N); prefix visibility is implicit


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, in float64."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def top_k_candidates(rows: np.ndarray, k: int,
                     eps: float = EPSILON) -> tuple[np.ndarray, np.ndarray]:
    """The k highest-logit tokens of each row, with s_logit = log(softmax(row) + eps).

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
    return tokens, np.log(np.take_along_axis(probs, tokens, axis=-1) + eps)


def combine(s_logit, s_ng, level: int, cfg: PruneConfig):
    """Score increment for extending a candidate at tree depth `level`.

    (logit_decay^level * s_logit + w_ng * s_ng) * (level+1)^-level_exponent,
    clamped to <= 0 so cumulative scores never increase along a path. The
    scores may be floats or arrays that broadcast together.
    """
    if level < 0:
        raise ConfigError(f"level must be >= 0, got {level}")
    w_logit = cfg.logit_decay ** level
    w_level = (level + 1) ** (-cfg.level_exponent)
    return np.minimum(0.0, (w_logit * s_logit + cfg.w_ng * s_ng) * w_level)


def prune(
    logits: ParallelLogits,
    trie: NgramTrie | None,
    cfg: PruneConfig,
    prefix: Sequence[int],
) -> DraftTree:
    """Continuity-aware pruning of the implicit candidate tree.

    The active beam starts as the bare prefix with score 0. At future position
    i (level i-1) every active candidate expands by the row's top-k tokens;
    `combine` scores the level's (beam, k) expansions from the logit scores
    and the trie's continuity scores for each candidate's trailing context.
    Every expansion enters the pool, in beam order, then top-k order, and the
    top w become the next beam. The result is the top-theta pool nodes.

    A beam entry is (pool id, trailing context, score). The trie reads only
    the last order-1 tokens of a context, so that is all an entry keeps, and
    pruning costs the same for any prefix length. Ties everywhere break as
    (higher score, lower level, lower token, lower parent id, pool order).
    """
    if len(prefix) == 0:
        raise ConfigError("prefix must be nonempty")
    floor = float(np.log(cfg.epsilon))
    keep = trie.order - 1 if trie is not None else 0
    tail = tuple(int(t) for t in prefix[-keep:]) if keep else ()
    top_tokens, top_scores = top_k_candidates(logits.rows, cfg.k, eps=cfg.epsilon)

    beam_ids = np.array([ROOT_ID])
    beam_scores = np.zeros(1)
    contexts = [tail]
    pool = []  # per level: (parent, token, level, score) arrays of its expansions
    size = 0
    for depth in range(logits.d):
        row_tokens = top_tokens[depth]
        s_ng = floor
        if trie is not None:
            # One children_scores call per beam entry, scattered into a dense
            # (beam, V) matrix and gathered at the top-k tokens.
            found = [trie.children_scores(context, eps=cfg.epsilon) for context in contexts]
            dense = np.full((len(contexts), logits.vocab_size), floor)
            beam_of = np.repeat(np.arange(len(found)), [len(f) for f in found])
            dense[beam_of, [t for f in found for t in f]] = [v for f in found for v in f.values()]
            s_ng = dense[:, row_tokens]
        inc = combine(top_scores[depth], s_ng, depth, cfg)
        level_scores = (beam_scores[:, None] + inc).ravel()
        level_parents = np.repeat(beam_ids, cfg.k)
        level_tokens = row_tokens[None, :].repeat(len(contexts), axis=0).ravel()
        best = _ranked(cfg.w, level_scores, level_tokens, level_parents)[: cfg.w]
        contexts = [(contexts[b] + (t,))[-keep:] if keep else ()
                    for b, t in zip((best // cfg.k).tolist(), level_tokens[best].tolist())]
        beam_ids = size + best
        beam_scores = level_scores[best]
        size += len(level_scores)
        pool.append((level_parents, level_tokens, np.full(len(level_scores), depth), level_scores))
    parent, token, level, score = (np.concatenate(a) for a in zip(*pool))

    # Top-theta selection. Increments are clamped <= 0, so a parent scores at
    # least as high as its child and sorts strictly before it: the ranked
    # candidates are ancestor-closed, and the parent check guards that
    # invariant rather than implementing a search.
    ranked = _ranked(cfg.theta, score, level, token, parent)
    tree_id = {ROOT_ID: ROOT_ID}  # pool id -> tree id
    picked: list[int] = []
    tree_parent: list[int] = []
    for i, p in zip(ranked.tolist(), parent[ranked].tolist()):
        if len(picked) >= cfg.theta:
            break
        if p not in tree_id:
            continue  # unreachable under score monotonicity; skip, never strand
        tree_id[i] = len(picked)
        picked.append(i)
        tree_parent.append(tree_id[p])
    return DraftTree(tree_parent, token[picked], level[picked], score[picked])


def _ranked(n: int, score: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Indices of the entries scoring at least the n-th best score, ranked by
    (higher score, *keys ascending, lower index): the top n of the full
    ranking come first. One stable np.lexsort ranks just these candidates."""
    if len(score) <= n:
        return np.lexsort((*reversed(keys), -score))
    candidates = np.flatnonzero(score >= -np.partition(-score, n - 1)[n - 1])
    order = np.lexsort(tuple(k[candidates] for k in reversed(keys)) + (-score[candidates],))
    return candidates[order]


def linearize(tree: DraftTree, prefix_len: int) -> LinearizedTree:
    """Flatten a draft tree for tree-attention verification.

    Nodes keep their stored order (parents before children); position IDs are
    prefix_len + level; mask entry (q, kv) is true iff kv is q or one of q's
    ancestors. Prefix positions are always visible and are not part of the
    matrix. The mask is built one level at a time: each node's row is its
    parent's row plus itself.
    """
    n = len(tree)
    parent, level = tree.parent, tree.level
    bad = np.flatnonzero((parent < ROOT_ID) | (parent >= np.arange(n)))
    if bad.size:
        raise InvalidTreeError(f"node {bad[0]} appears before its parent {parent[bad[0]]} "
                               "or the parent is missing")
    parent_level = np.where(parent == ROOT_ID, -1, level[np.maximum(parent, 0)])
    bad = np.flatnonzero(level != parent_level + 1)
    if bad.size:
        raise InvalidTreeError(f"node {bad[0]} has level {level[bad[0]]} under a parent "
                               f"of level {parent_level[bad[0]]}")
    mask = np.zeros((n, n), dtype=bool)
    by_level = np.argsort(level, kind="stable")
    bounds = np.cumsum(np.bincount(level)).tolist()
    for lo, hi in zip([0] + bounds, bounds):
        idx = by_level[lo:hi]
        if lo:
            mask[idx] = mask[parent[idx]]
        mask[idx, idx] = True
    return LinearizedTree(tree.token.tolist(), (prefix_len + level).tolist(), mask)
