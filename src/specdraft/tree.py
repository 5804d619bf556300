"""Draft token tree construction from one set of parallel per-position logits.

One drafting forward yields d rows of logits, one per future position. Those
rows induce a combinatorially large tree of candidate continuations; pruning
walks the positions level by level, expanding an active beam by the top-k
tokens of each row, scoring every expansion with a blend of the draft logit
score and an n-gram continuity score, and finally keeping the top-theta
scoring nodes as an ancestor-closed tree ready for tree-attention
verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidTreeError
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
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.w < 1:
            raise ConfigError(f"beam width must be >= 1, got {self.w}")
        if self.theta < 1:
            raise ConfigError(f"theta must be >= 1, got {self.theta}")
        if not (math.isfinite(self.w_ng) and self.w_ng >= 0):
            raise ConfigError(f"w_ng must be finite and >= 0, got {self.w_ng}")
        if not 0 < self.logit_decay <= 1:
            raise ConfigError(f"logit_decay must be in (0, 1], got {self.logit_decay}")
        if not (math.isfinite(self.level_exponent) and self.level_exponent >= 0):
            raise ConfigError(
                f"level_exponent must be finite and >= 0, got {self.level_exponent}"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")


@dataclass
class DraftNode:
    id: int
    parent_id: int  # ROOT_ID for children of the prefix
    token: int
    level: int  # 0 = first future position
    score: float  # cumulative combined score


@dataclass
class DraftTree:
    """Ancestor-closed scored token tree, nodes listed parents-before-children."""

    nodes: list[DraftNode]

    def __len__(self) -> int:
        return len(self.nodes)

    def render(self) -> str:
        """Indented text rendering for debugging."""
        lines = []
        by_parent: dict[int, list[DraftNode]] = {}
        for n in self.nodes:
            by_parent.setdefault(n.parent_id, []).append(n)

        def walk(parent_id: int, indent: int):
            for n in by_parent.get(parent_id, []):
                lines.append(f"{'  ' * indent}{n.token} (score={n.score:.4f})")
                walk(n.id, indent + 1)

        walk(ROOT_ID, 0)
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        """Machine-readable adjacency listing for golden tests."""
        return [
            {
                "id": n.id,
                "parent_id": n.parent_id,
                "token": n.token,
                "level": n.level,
                "score": n.score,
            }
            for n in self.nodes
        ]


@dataclass
class LinearizedTree:
    tokens: list[int]
    position_ids: list[int]
    attention_mask: np.ndarray  # bool (N, N); prefix visibility is implicit

    def __len__(self) -> int:
        return len(self.tokens)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, in float64."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def top_k_candidates(row: np.ndarray, k: int, eps: float = EPSILON) -> list[tuple[int, float]]:
    """The k highest-logit tokens with s_logit = log(softmax(row) + eps).

    Sorted by descending score; ties broken by ascending token ID.
    """
    row = np.asarray(row, dtype=np.float64)
    if k > row.shape[0]:
        raise ConfigError(f"k = {k} exceeds vocabulary size {row.shape[0]}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    order = np.lexsort((np.arange(row.shape[0]), -row))[:k]
    probs = np.exp(log_softmax(row))
    return [(int(t), float(np.log(probs[t] + eps))) for t in order]


def combine(s_logit: float, s_ng: float, level: int, cfg: PruneConfig) -> float:
    """Score increment for extending a candidate at tree depth `level`.

    (logit_decay^level * s_logit + w_ng * s_ng) * (level+1)^-level_exponent,
    clamped to <= 0 so cumulative scores never increase along a path.
    """
    if level < 0:
        raise ConfigError(f"level must be >= 0, got {level}")
    w_logit = cfg.logit_decay ** level
    w_level = (level + 1) ** (-cfg.level_exponent)
    return min(0.0, (w_logit * s_logit + cfg.w_ng * s_ng) * w_level)


def prune(
    logits: ParallelLogits,
    trie: NgramTrie | None,
    cfg: PruneConfig,
    prefix: Sequence[int],
) -> DraftTree:
    """Continuity-aware pruning of the implicit candidate tree.

    The active beam starts as the bare prefix with score 0. At future position
    i (level i-1) every active candidate expands by the row's top-k tokens;
    each expansion is scored by `combine` of the logit score and the trie's
    continuity score for the candidate's trailing context, enters the global
    pool, and competes for the top-w beam. The result is the top-theta pool
    nodes, ancestor-closed.

    A beam entry is (node id, trailing context, score). The trie reads only
    the last order-1 tokens of a context, so that is all an entry keeps, and
    pruning costs the same for any prefix length. Ties everywhere break as
    (higher score, lower level, lower token, lower parent id).
    """
    if len(prefix) == 0:
        raise ConfigError("prefix must be nonempty")
    floor = float(np.log(cfg.epsilon))
    keep = trie.order - 1 if trie is not None else 0
    tail = tuple(int(t) for t in prefix[-keep:]) if keep else ()

    pool: list[DraftNode] = []
    beam: list[tuple[int, tuple[int, ...], float]] = [(ROOT_ID, tail, 0.0)]
    for level in range(logits.d):
        topk = top_k_candidates(logits.rows[level], cfg.k, eps=cfg.epsilon)
        start = len(pool)
        for parent_id, context, score in beam:
            ng_scores = {} if trie is None else trie.children_scores(context, eps=cfg.epsilon)
            for token, s_logit in topk:
                inc = combine(s_logit, ng_scores.get(token, floor), level, cfg)
                pool.append(DraftNode(len(pool), parent_id, token, level, score + inc))
        # Stable sort: beam order, then top-k order, among exact ties.
        survivors = sorted(pool[start:], key=lambda n: (-n.score, n.token, n.parent_id))[: cfg.w]
        contexts = {parent_id: context for parent_id, context, _ in beam}
        beam = [(n.id, (contexts[n.parent_id] + (n.token,))[-keep:] if keep else (), n.score)
                for n in survivors]

    # Top-theta selection. Since increments are clamped <= 0 and parents sort
    # strictly before their children under this key, walking the sorted pool
    # keeps the selection ancestor-closed; the parent check guards the
    # invariant rather than implementing a search.
    ranked = sorted(pool, key=lambda n: (-n.score, n.level, n.token, n.parent_id))
    selected: dict[int, int] = {}  # old id -> new id
    nodes: list[DraftNode] = []
    for node in ranked:
        if len(nodes) >= cfg.theta:
            break
        if node.parent_id != ROOT_ID and node.parent_id not in selected:
            continue  # unreachable under score monotonicity; skip, never strand
        new_id = len(nodes)
        selected[node.id] = new_id
        parent = ROOT_ID if node.parent_id == ROOT_ID else selected[node.parent_id]
        nodes.append(DraftNode(new_id, parent, node.token, node.level, node.score))
    return DraftTree(nodes)


def linearize(tree: DraftTree, prefix_len: int) -> LinearizedTree:
    """Flatten a draft tree for tree-attention verification.

    Nodes keep their stored order (parents before children); position IDs are
    prefix_len + level; mask entry (q, kv) is true iff kv is q or one of q's
    ancestors. Prefix positions are always visible and are not part of the
    matrix.
    """
    n = len(tree.nodes)
    index_of: dict[int, int] = {}
    mask = np.zeros((n, n), dtype=bool)
    tokens = []
    position_ids = []
    for idx, node in enumerate(tree.nodes):
        if node.id in index_of:
            raise InvalidTreeError(f"duplicate node id {node.id}")
        if node.parent_id == ROOT_ID:
            if node.level != 0:
                raise InvalidTreeError(f"root child {node.id} has level {node.level}")
        else:
            if node.parent_id not in index_of:
                raise InvalidTreeError(
                    f"node {node.id} appears before its parent {node.parent_id} "
                    "or the parent is missing"
                )
            parent_idx = index_of[node.parent_id]
            if node.level != tree.nodes[parent_idx].level + 1:
                raise InvalidTreeError(f"node {node.id} level skips its parent's")
            mask[idx] = mask[parent_idx]
        index_of[node.id] = idx
        mask[idx, idx] = True
        tokens.append(node.token)
        position_ids.append(prefix_len + node.level)
    return LinearizedTree(tokens, position_ids, mask)
