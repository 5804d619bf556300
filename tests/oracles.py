"""Independent reference implementations the package is tested against.

These deliberately avoid the package's data structures: the window counter is
a flat hash map, the pruning oracle enumerates candidate sequences as tuples
with plain sorts, and the greedy rollout takes argmaxes by hand. They
implement the same contracts (scoring formulas, tie-break order) independently.
"""

import math
from collections import Counter

import numpy as np


class WindowCounter:
    """Flat hash-map counter over every window prefix, for trie equivalence."""

    def __init__(self, corpus, order):
        self.order = order
        self.prefix_counts = Counter()
        self._children = {}
        for seq in corpus:
            for s in range(len(seq) - order + 1):
                w = tuple(seq[s:s + order])
                for length in range(order + 1):
                    self.prefix_counts[w[:length]] += 1
                for length in range(order):
                    bucket = self._children.setdefault(w[:length], Counter())
                    bucket[w[length]] += 1

    def _ctx(self, context):
        context = tuple(context)
        if len(context) > self.order - 1:
            context = context[-(self.order - 1):]
        return context

    def prob(self, context, token):
        ctx = self._ctx(context)
        den = self.prefix_counts.get(ctx, 0)
        num = self.prefix_counts.get(ctx + (int(token),), 0)
        if den == 0 or num == 0:
            return None
        return num / den

    def score(self, context, token, eps=1e-9):
        p = self.prob(context, token)
        return math.log(eps) if p is None else math.log(p + eps)

    def children(self, context):
        return dict(self._children.get(self._ctx(context), {}))

    def children_scores(self, context, eps=1e-9):
        ctx = self._ctx(context)
        den = self.prefix_counts.get(ctx, 0)
        if den == 0:
            return {}
        return {t: math.log(c / den + eps) for t, c in self.children(context).items()}


def oracle_prune(rows, counter, cfg, prefix):
    """Level-synchronous brute-force enumeration of the pruning contract.

    Returns {draft-token path tuple: (level, cumulative score)} for the
    selected tree. `counter` is a WindowCounter or None (epsilon floor).
    """
    rows = np.asarray(rows, dtype=np.float64)
    d, V = rows.shape
    floor = math.log(cfg.epsilon)

    def topk(row):
        order = sorted(range(V), key=lambda t: (-row[t], t))[:cfg.k]
        e = np.exp(row - row.max())
        p = e / e.sum()
        return [(t, math.log(p[t] + cfg.epsilon)) for t in order]

    nodes = {}  # path -> dict(score, level, order, parent)
    beam = [((), 0.0)]
    created = 0
    for level in range(d):
        cands = topk(rows[level])
        new = []
        for path, sc in beam:
            seq = tuple(prefix) + path
            for t, s_logit in cands:
                if counter is None:
                    s_ng = floor
                else:
                    s_ng = counter.score(seq, t, eps=cfg.epsilon)
                inc = (cfg.logit_decay ** level * s_logit + cfg.w_ng * s_ng) \
                    * (level + 1) ** (-cfg.level_exponent)
                score = sc + min(0.0, inc)
                nodes[path + (t,)] = {
                    "score": score, "level": level, "order": created,
                    "parent": path,
                }
                created += 1
                new.append((path + (t,), score))
        def parent_order(path):
            return -1 if len(path) == 1 else nodes[path[:-1]]["order"]
        new.sort(key=lambda it: (-it[1], it[0][-1], parent_order(it[0])))
        beam = new[:cfg.w]

    def rank_key(item):
        path, info = item
        p_order = -1 if len(path) == 1 else nodes[path[:-1]]["order"]
        return (-info["score"], info["level"], path[-1], p_order)

    selected = {}
    for path, info in sorted(nodes.items(), key=rank_key):
        if len(selected) >= cfg.theta:
            break
        if len(path) > 1 and path[:-1] not in selected:
            continue
        selected[path] = (info["level"], info["score"])
    return selected


def argmax_rollout(target, prompt, length):
    """Greedy decoding by hand: argmax of the untempered conditional,
    one token at a time, without the package's samplers or decode loop."""
    seq = [int(t) for t in prompt]
    for _ in range(length):
        seq.append(int(np.argmax(target.next_dist(seq, 1.0))))
    return seq[len(prompt):]


def tree_to_paths(tree):
    """Canonical form of a DraftTree: {draft path tuple: (level, score)}."""
    by_id = {n.id: n for n in tree.nodes}
    out = {}
    for n in tree.nodes:
        path = []
        cur = n
        while True:
            path.append(cur.token)
            if cur.parent_id == -1:
                break
            cur = by_id[cur.parent_id]
        out[tuple(reversed(path))] = (n.level, n.score)
    return out


def readout_attention(params, embeddings, feats, emb_tokens, d, shifted):
    """Drafting logits of the single-layer drafter, one read-out row at a
    time: each of the last d input positions attends by hand to every input
    position up to its own, with the sinusoids written out per position."""
    n = len(feats)
    length = n + (d - 1 if shifted else d)
    width = params["Wq"].shape[0]
    half = width // 2
    inputs = []
    for pos in range(length):
        if pos < n:
            x = np.concatenate([feats[pos] @ params["W_in"], embeddings[emb_tokens[pos]]])
        else:
            x = np.array(params["mask_vec"], dtype=np.float64)
        for j in range(half):
            angle = pos * 10000.0 ** (-j / half)
            x[2 * j] += math.sin(angle)
            x[2 * j + 1] += math.cos(angle)
        inputs.append(x)
    rows = []
    for r in range(length - d, length):
        q = inputs[r] @ params["Wq"]
        scores = [float(q @ (inputs[j] @ params["Wk"])) / math.sqrt(width) for j in range(r + 1)]
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = sum(weights)
        ctx = sum(w / total * (inputs[j] @ params["Wv"]) for j, w in enumerate(weights))
        rows.append((inputs[r] + ctx) @ params["W_head"] + params["b_head"])
    return np.array(rows)
