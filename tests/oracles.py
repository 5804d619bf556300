"""Independent reference implementations the package is tested against.

These deliberately avoid the package's data structures: the window counter is
a flat hash map, the trie's node table scores each node by a binary search
over its distinct ratios' math.log, the pruning oracle enumerates candidate
sequences as tuples with plain sorts, and the greedy rollout takes argmaxes
by hand. They implement the same contracts (scoring formulas, tie-break
order) independently. The training step is written out with a fresh array
per intermediate, over the whole packed layout with a dense mask, and one
supervised slot at a time; the gradient and sampling checks compare the
package against central differences and exact enumeration. Verify's
acceptance rule is enumerated branch by branch in exact rational arithmetic.
It and the exactness check read the target's law from its untempered
conditionals, tempered here (`tempered`), not by the package's
temperature_adjust. ReferenceTarget draws MarkovTarget's documented rows
afresh on every call, with no ids, tables or cache, behind a session that
holds the target protocol's members and nothing else.
"""

import math
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.special import softmax

from specdraft.engine import decode, verify
from specdraft.errors import ConfigError
from specdraft.models import EMB_WIDTH, FEAT_WIDTH, positional_encoding
from specdraft.ngram import LOG_FLOOR
from specdraft.training import batch_loss
from specdraft.tree import ROOT_ID, DraftTree


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

    def backoff_score(self, context, token):
        """The score with stupid back-off: an unseen continuation scores its
        token's unigram, the windows it starts over all windows, times 0.4,
        and log(1e-9) only when no window starts with the token."""
        if self.prob(context, token) is not None:
            return self.score(context, token)
        unigram = self.prob((), token)
        return math.log(1e-9) if unigram is None else math.log(unigram + 1e-9) + math.log(0.4)

    def children(self, context):
        return dict(self._children.get(self._ctx(context), {}))

    def children_scores(self, context, eps=1e-9):
        ctx = self._ctx(context)
        den = self.prefix_counts.get(ctx, 0)
        if den == 0:
            return {}
        return {t: math.log(c / den + eps) for t, c in self.children(context).items()}


def searchsorted_node_table(order, base, window_keys, window_counts):
    """The reference for ngram's node table: (keys, counts, scores) of every
    node, in key order, from the distinct full windows' increasing keys and
    counts. Each level's groups start where the key over the base changes
    (np.diff), and each node's score is math.log(ratio + 1e-9) of its count
    over its parent's, computed once per distinct ratio and found per node by
    a binary search over the sorted distinct ratios. The root's ratio is 0."""
    top = base ** order
    keys, counts, ratios, values = [window_keys], [window_counts], [], window_keys
    for length in range(order - 1, 0, -1):
        values = values // base
        starts = np.flatnonzero(np.diff(values, prepend=-1))
        level_counts = np.add.reduceat(counts[-1], starts)
        ratios.append(counts[-1] / np.repeat(level_counts, np.diff(starts, append=len(values))))
        values = values[starts]
        keys.append(values + (top - base ** length))
        counts.append(level_counts)
    total = counts[-1].sum()
    ratios += [counts[-1] / total, [0.0]]
    keys.append([top - 1])
    counts.append([total])
    ratio = np.concatenate(ratios)
    distinct = np.sort(ratio)
    distinct = distinct[np.diff(distinct, prepend=-1.0) != 0]
    scores = np.array([math.log(r + 1e-9) for r in distinct.tolist()])
    return np.concatenate(keys), np.concatenate(counts), scores[distinct.searchsorted(ratio)]


def oracle_prune(rows, counter, cfg, prefix):
    """Level-synchronous brute-force enumeration of the pruning contract.

    Returns {draft-token path tuple: (level, cumulative score)} for the
    selected tree. `counter` is a WindowCounter, scoring by its back-off,
    or None (epsilon floor). The score's constants are written out, not
    read from the package: epsilon 1e-9, logit weight 0.9^level, n-gram
    weight 0.5 and level weight (level+1)^-0.7.
    """
    eps = 1e-9
    rows = np.asarray(rows, dtype=np.float64)
    d, V = rows.shape
    floor = math.log(eps)

    def topk(row):
        order = sorted(range(V), key=lambda t: (-row[t], t))[:cfg.k]
        e = np.exp(row - row.max())
        p = e / e.sum()
        return [(t, math.log(p[t] + eps)) for t in order]

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
                    s_ng = counter.backoff_score(seq, t)
                inc = (0.9 ** level * s_logit + 0.5 * s_ng) * (level + 1) ** (-0.7)
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


def tempered(p, temperature):
    """The untempered row p at `temperature`, p^(1/T) / sum p^(1/T), taken as
    softmax(log p / T): a zero-mass token stays at 0, and T = 0 gives the
    one-hot of the lowest-id argmax."""
    p = np.asarray(p, dtype=np.float64)
    if temperature == 0:
        return np.eye(len(p))[int(np.argmax(p))]
    with np.errstate(divide="ignore"):
        return softmax(np.log(p) / temperature)


def target_row(target, prefix, temperature):
    """The target's conditional after `prefix` at `temperature`, tempered by
    `tempered` from its untempered row."""
    return tempered(target.next_dist(prefix, 1.0), temperature)


def context_rng(seed, tag, order, prefix):
    """The generator of prefix's context by MarkovTarget's documented seeding
    rule, Generator(PCG64(SeedSequence([seed, tag, *context]))), the context
    being prefix's trailing `order` tokens left-padded with token 0; tag 1
    draws a transition row (a Dirichlet draw), tag 2 a feature row (standard
    normals)."""
    context = ([0] * order + [int(t) for t in prefix])[-order:]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, *context])))


class ReferenceTarget:
    """MarkovTarget's documented rows, drawn afresh on every call: a row is
    context_rng's draw for its context, with no context ids, no tables, no
    cache and no batched seeding, and the tempering is written out per row.
    Its sessions hold only the target protocol's members (engine.TargetModel,
    engine.TargetSession), so a caller that reaches past them fails here."""

    def __init__(self, seed, vocab_size, order, concentration=0.3):
        self.seed, self.vocab_size, self.order = seed, vocab_size, order
        self.concentration = concentration
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
        self.embeddings = rng.standard_normal((vocab_size, EMB_WIDTH))

    def context(self, prefix):
        """The tokens a row of `prefix` reads, each checked to lie in [0, V)."""
        window = list(prefix)[max(0, len(prefix) - self.order):]
        for token in window:
            if not 0 <= token < self.vocab_size:
                raise ConfigError(f"token {token} is outside [0, {self.vocab_size})")
        return window

    def row(self, prefix):
        """The untempered conditional after `prefix`: its context's Dirichlet draw."""
        rng = context_rng(self.seed, 1, self.order, self.context(prefix))
        return rng.dirichlet(np.full(self.vocab_size, self.concentration))

    def dist(self, prefix, temperature):
        """The row tempered: its argmax at T = 0, p / sum p at T = 1, else
        p^(1/T) renormalized, scaled by its max first."""
        if not (math.isfinite(temperature) and temperature >= 0):
            raise ConfigError(f"temperature must be a finite number >= 0, got {temperature}")
        p = self.row(prefix)
        if temperature == 0:
            return np.eye(self.vocab_size)[int(np.argmax(p))]
        if temperature == 1:
            return p / p.sum()
        powed = (p / p.max()) ** (1.0 / temperature)
        return powed / powed.sum()

    def feature_row(self, prefix):
        return context_rng(self.seed, 2, self.order, self.context(prefix)).standard_normal(
            3 * FEAT_WIDTH)

    def start(self, prompt):
        return ReferenceSession(self, prompt)

    def sample_sequence(self, rng, length):
        def inverse_cdf(row):
            cum = np.cumsum(row)
            return int((cum <= rng.random() * cum[-1]).sum())
        return ReferenceSession(self, []).rollout(length, inverse_cdf)


class ReferenceSession:
    """ReferenceTarget's session: the prefix, the drafter's slot and the
    protocol's queries, each answered from scratch."""

    __slots__ = ("tokens", "draft", "_target")

    def __init__(self, target, prompt):
        self._target, self.tokens, self.draft = target, list(prompt), None

    def extend(self, tokens):
        self.tokens.extend(tokens)

    def features(self, start=0):
        n = len(self.tokens)
        if not 0 <= start <= n:
            raise ConfigError(f"features start must be in [0, {n}], got {start}")
        rows = [self._target.feature_row(self.tokens[:i + 1]) for i in range(start, n)]
        return np.array(rows).reshape(n - start, 3 * FEAT_WIDTH)

    def next_dist(self, temperature=1.0):
        return self._target.dist(self.tokens, temperature)

    def tree_dists(self, tree, temperature=1.0):
        paths = []
        for parent, token in zip(tree.parent.tolist(), tree.token.tolist()):
            paths.append((paths[parent] if parent != ROOT_ID else []) + [token])
        prefixes = [self.tokens] + [self.tokens + path for path in paths]
        return np.array([self._target.dist(p, temperature) for p in prefixes])

    def rollout(self, length, pick):
        seq = list(self.tokens)
        for step in range(length):
            token = int(pick(self._target.row(seq)))
            if not 0 <= token < self._target.vocab_size:
                raise ConfigError(f"picked token {token} at step {step} is outside "
                                  f"[0, {self._target.vocab_size})")
            seq.append(token)
        return seq[len(self.tokens):]


def chain(tokens):
    """The draft tree whose nodes are `tokens`, each the child of the one
    before: on a session holding one token before them, tree_dists gives the
    conditional after every prefix of the sequence."""
    n = len(tokens)
    return DraftTree(np.arange(-1, n - 1), tokens, np.arange(n), np.zeros(n))


def tree_to_paths(tree):
    """Canonical form of a DraftTree, read from its parent, token, level and
    score arrays: {draft path tuple: (level, score)}, in tree order."""
    parent, token = tree.parent.tolist(), tree.token.tolist()
    paths = []
    for i, p in enumerate(parent):
        paths.append((paths[p] if p != ROOT_ID else ()) + (token[i],))
    return {path: (level, score)
            for path, level, score in zip(paths, tree.level.tolist(), tree.score.tolist())}


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


def concat_inputs(model, feats, emb_tokens, n_mask, position_ids):
    """The drafter's input z built from separate arrays: the projected
    features and the embeddings joined along the width, the mask rows joined
    after them, and the sinusoids of the position ids added to the result."""
    B, n, _ = feats.shape
    g = feats @ model.params["W_in"]
    e = model.embeddings[np.asarray(emb_tokens)]
    prefix = np.concatenate([g, e], axis=-1)
    masks = np.broadcast_to(model.params["mask_vec"], (B, n_mask, prefix.shape[-1]))
    return np.concatenate([prefix, masks], axis=1) + positional_encoding(position_ids)[None]


def dense_forward(model, z, attn_mask, rows=slice(None)):
    """The attention layer, residual and head over the whole packed layout:
    query rows `rows` of z, each scored against every position of z and
    masked by its (M,) row of attn_mask. (logits, cache) as forward_core
    returns them for one group."""
    p = model.params
    scale = 1.0 / np.sqrt(z.shape[-1])
    zq = z[:, rows]
    q = zq @ p["Wq"]
    k = z @ p["Wk"]
    v = z @ p["Wv"]
    s = (q @ k.transpose(0, 2, 1)) * scale
    s = np.where(attn_mask, s, -1e30)
    s = s - s.max(axis=-1, keepdims=True)
    attn = np.exp(s)
    attn = attn / attn.sum(axis=-1, keepdims=True)
    y = zq + attn @ v
    logits = y @ p["W_head"] + p["b_head"]
    return logits, {"z": z, "zq": zq, "rows": rows, "q": q, "k": k, "v": v,
                    "attn": attn, "y": y, "scale": scale}


def dense_backward(model, cache, dlogits, feats, n_prefix):
    """dense_forward's gradients given d(loss)/d(logits) for its query rows."""
    p = model.params
    z, zq, rows, q, k, v = (cache[name] for name in ("z", "zq", "rows", "q", "k", "v"))
    attn, y, scale = cache["attn"], cache["y"], cache["scale"]
    grads = {"W_head": np.tensordot(y, dlogits, axes=([0, 1], [0, 1])),
             "b_head": dlogits.sum(axis=(0, 1))}
    dy = dlogits @ p["W_head"].T
    dattn = dy @ v.transpose(0, 2, 1)
    dv = attn.transpose(0, 2, 1) @ dy
    ds = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True)) * scale
    dq = ds @ k
    dk = ds.transpose(0, 2, 1) @ q
    grads["Wq"] = np.tensordot(zq, dq, axes=([0, 1], [0, 1]))
    grads["Wk"] = np.tensordot(z, dk, axes=([0, 1], [0, 1]))
    grads["Wv"] = np.tensordot(z, dv, axes=([0, 1], [0, 1]))
    dz = dk @ p["Wk"].T + dv @ p["Wv"].T
    dz[:, rows] += dy + dq @ p["Wq"].T
    grads["mask_vec"] = dz[:, n_prefix:, :].sum(axis=(0, 1))
    dg = dz[:, :n_prefix, :p["W_in"].shape[1]]
    grads["W_in"] = np.tensordot(feats, dg, axes=([0, 1], [0, 1]))
    return grads


def allocating_batch_loss(model, batch, want_grads=True):
    """The training step with a fresh array for every intermediate and no
    buffer kept between calls: (loss, grads, floored) as batch_loss returns
    them. The shared prompt keys and each group's block are gathered by
    position; every sequence's query rows are scored against the shared
    keys in one product and each group against its block in another, and
    the key and value gradients are put back by position. The arithmetic,
    and the memory layout of every array whose layout sets a summation
    order, are batch_loss's, so the two agree bit for bit. The row max is a
    plain max (the same element whatever the order); row sums are products
    with ones or row-dot einsums; unless a log-probability may lie below the
    floor, a row's KL is sum q log q - q . (logits - max) + sum q * log total,
    with the batch's row sums of q log q and q; and the weight gradients are
    2-D products over every row."""
    p = model.params
    M, P = len(batch.position_ids), batch.n_prefix
    G, d, K = batch.mask.shape
    B, W, m = len(batch.feats), model.params["Wq"].shape[0], K - G
    z = model.build_inputs(batch.feats, batch.emb_tokens, M - P, batch.position_ids)
    rows = batch.slot_positions.reshape(G, d)
    # Prompt positions 0 .. G-1 are every group's keys; block g follows them.
    shared, blocks = np.arange(G), P + np.arange(G * m).reshape(G, m)

    def transposed(x):
        return np.ascontiguousarray(np.swapaxes(x, -1, -2))

    def by_sequence(x):
        return x.reshape(B, G * d, x.shape[-1])

    scale = 1.0 / np.sqrt(z.shape[-1])
    zq = z[:, rows]
    q = zq @ p["Wq"]
    k_all, v_all = z @ p["Wk"], z @ p["Wv"]
    k_shared, k_block = k_all[:, shared], k_all[:, blocks]
    v_shared, v_block = v_all[:, shared], v_all[:, blocks]
    s_shared = (by_sequence(q) @ transposed(k_shared)).reshape(B, G, d, G)
    s = np.concatenate([s_shared, q @ transposed(k_block)], axis=-1) * scale
    s = np.where(batch.mask, s, -1e30)
    s = s - s.max(axis=-1, keepdims=True)
    attn = np.exp(s)
    attn = attn / (attn @ np.ones(K))[..., None]
    a_shared, a_block = by_sequence(attn[..., :G]), attn[..., G:]
    y = a_block @ v_block + (a_shared @ v_shared).reshape(B, G, d, W) + zq
    logits = y @ p["W_head"] + p["b_head"]

    # The (B, G, d, V) labels and their (B, G, d) row sums, copied slot by
    # slot into (B, S, V) and (B, S).
    labels = batch.labels.reshape(B, G * d, -1)
    weights, norm = batch.slot_weights, batch.norm
    ones = np.ones(labels.shape[-1])  # a row sum is a product with ones
    # The labels' row sums are batch data, which the training tests check.
    label_term, mass = (x.reshape(B, G * d) for x in batch.label_terms[:2])
    scaled = labels * (weights / norm)[..., None]
    shifted = logits.reshape(labels.shape)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e @ ones
    if shifted.min() >= LOG_FLOOR + np.log(total).max():
        floored, kept, q_kept = False, mass, scaled
        kl = label_term - np.einsum("...v,...v->...", labels, shifted) + mass * np.log(total)
    else:
        logp = shifted - np.log(total)[..., None]
        unfloored = logp >= LOG_FLOOR
        floored = bool(np.any(~unfloored & (labels > 0)))
        kept, q_kept = (labels * unfloored) @ ones, scaled * unfloored
        kl = label_term - np.einsum("...v,...v->...", labels, np.maximum(logp, LOG_FLOOR))
    # Added slot by slot, every sequence's term of a slot in turn, as
    # batch_loss adds them.
    loss = float(np.ascontiguousarray((weights * kl).T).sum()) / norm
    if not want_grads:
        return loss, None, floored
    dlogits = (e * (weights / norm * kept / total)[..., None] - q_kept).reshape(logits.shape)

    def summed(x, dx):  # x.T @ dx over every row of both
        return x.reshape(-1, x.shape[-1]).T @ dx.reshape(-1, dx.shape[-1])

    grads = {"W_head": summed(y, dlogits),
             "b_head": np.ones(B * G * d) @ dlogits.reshape(B * G * d, -1)}
    dy = dlogits @ p["W_head"].T
    dv_shared = np.swapaxes(a_shared, -1, -2) @ by_sequence(dy)
    dv_block = np.swapaxes(a_block, -1, -2) @ dy
    dattn = np.concatenate([(by_sequence(dy) @ transposed(v_shared)).reshape(B, G, d, G),
                            dy @ transposed(v_block)], axis=-1)
    ds = attn * (dattn - np.einsum("...k,...k->...", dattn, attn)[..., None])
    ds = ds * scale
    ds_shared, ds_block = by_sequence(ds[..., :G]), ds[..., G:]
    dq = ds_block @ k_block + (ds_shared @ k_shared).reshape(B, G, d, W)
    dk, dv = np.zeros_like(z), np.zeros_like(z)
    dk[:, shared] = np.swapaxes(ds_shared, -1, -2) @ by_sequence(q)
    dk[:, blocks] = np.swapaxes(ds_block, -1, -2) @ q
    dv[:, shared], dv[:, blocks] = dv_shared, dv_block
    grads["Wq"], grads["Wk"], grads["Wv"] = summed(zq, dq), summed(z, dk), summed(z, dv)
    dz = dk @ p["Wk"].T + dv @ p["Wv"].T
    dz[:, rows] += dy + dq @ p["Wq"].T
    grads["mask_vec"] = dz[:, P:, :].sum(axis=(0, 1))
    dg = dz[:, :P, :model.params["W_in"].shape[1]]
    grads["W_in"] = np.tensordot(batch.feats, dg, axes=([0, 1], [0, 1]))
    return loss, grads, floored


def slot_by_slot_loss(model, target, sequences, d, gamma, shifted, visible):
    """The training loss and its gradients, (loss, grads), one supervised
    slot and one sequence at a time.

    Slot (g, t) of a sequence of length P, g < P - d, sits at prompt
    position g (shifted, t = 0) or at position t of mask block g, packed
    after the prompt, and predicts token g + t + 1. It attends by hand to
    the packed positions that its row of `visible`, the (P(m+1), P(m+1))
    dense mask of the full layout, marks, with the inputs and sinusoids
    written out per position, and its KL term against the target's
    conditional, floored as floored_kl floors it, is weighted gamma^t. The
    loss averages over (sequence, prefix) pairs. Every gradient is
    accumulated by hand from each slot's forward."""
    p = model.params
    width = p["Wq"].shape[0]
    half, proj = width // 2, p["W_in"].shape[1]
    P, m = len(sequences[0]), d - 1 if shifted else d
    G = P - d
    grads = {name: np.zeros_like(w) for name, w in p.items()}
    loss = 0.0
    for seq in sequences:
        feats = target.features(seq)
        # Packed position -> (input vector, position id, prompt position or None).
        inputs, prompt_of = [], []
        for pos in range(P * (m + 1)):
            if pos < P:
                tok = (seq[pos + 1] if pos + 1 < P else 0) if shifted else seq[pos]
                x = np.concatenate([feats[pos] @ p["W_in"], model.embeddings[tok]])
                pid = pos
                prompt_of.append(pos)
            else:
                g, j = divmod(pos - P, m)
                x = np.array(p["mask_vec"], dtype=np.float64)
                pid = g + 1 + j
                prompt_of.append(None)
            for i in range(half):
                angle = pid * 10000.0 ** (-i / half)
                x[2 * i] += math.sin(angle)
                x[2 * i + 1] += math.cos(angle)
            inputs.append(x)
        dz = [np.zeros(width) for _ in inputs]
        for g in range(G):
            for t in range(d):
                r = g if shifted and t == 0 else P + g * m + t - int(shifted)
                seen = np.flatnonzero(visible[r])
                xq = inputs[r]
                qv = xq @ p["Wq"]
                keys = [inputs[j] @ p["Wk"] for j in seen]
                values = [inputs[j] @ p["Wv"] for j in seen]
                scores = np.array([qv @ kj for kj in keys]) / math.sqrt(width)
                a = np.exp(scores - scores.max())
                a /= a.sum()
                ctx = sum(aj * vj for aj, vj in zip(a, values))
                yv = xq + ctx
                logits = yv @ p["W_head"] + p["b_head"]
                shifted_logits = logits - logits.max()
                logp = shifted_logits - math.log(np.exp(shifted_logits).sum())
                label = target.next_dist(seq[:g + t + 1])
                weight = gamma ** t
                kept = label * (logp >= LOG_FLOOR)
                terms = [label[u] * (math.log(label[u]) - max(logp[u], LOG_FLOOR))
                         for u in range(len(label)) if label[u] > 0]
                loss += weight * sum(terms)
                dlogits = weight * (np.exp(logp) * kept.sum() - kept)
                grads["W_head"] += np.outer(yv, dlogits)
                grads["b_head"] += dlogits
                dy = p["W_head"] @ dlogits
                da = np.array([dy @ vj for vj in values])
                dscores = a * (da - (a * da).sum()) / math.sqrt(width)
                dq = sum(dsj * kj for dsj, kj in zip(dscores, keys))
                grads["Wq"] += np.outer(xq, dq)
                dz[r] += dy + p["Wq"] @ dq
                for j, aj, dsj in zip(seen, a, dscores):
                    dk, dv = dsj * qv, aj * dy
                    grads["Wk"] += np.outer(inputs[j], dk)
                    grads["Wv"] += np.outer(inputs[j], dv)
                    dz[j] += p["Wk"] @ dk + p["Wv"] @ dv
        for pos, dx in enumerate(dz):
            if prompt_of[pos] is None:
                grads["mask_vec"] += dx
            else:
                grads["W_in"] += np.outer(feats[prompt_of[pos]], dx[:proj])
    norm = len(sequences) * G
    return loss / norm, {name: g / norm for name, g in grads.items()}


VERIFY_DELTA = Fraction(1e-13)


def verify_branches(target, prefix, tree, temperature):
    """Every branch of the residual walk that verify's docstring specifies,
    the acceptance rule of Leviathan et al. (arXiv:2211.17192) over a tree:
    a list of (draws, accepted tokens, bonus token), where draws holds one
    (lo, hi, margin) per uniform the branch spends, u in [lo, hi).

    At each node reached, the conditional is the oracle's own
    target_row(target, prefix + path, T), read as exact fractions. The
    node's children are tried in tree order, one draw each: child c is
    accepted when u < r(c) / R, r being the residual mass and R its total;
    on rejection r(c) becomes 0. A child that holds all of R is always
    accepted, so the children after it are never tried. With every child
    rejected, one more draw u gives bonus x when
    r(<x) / R <= u < r(<=x) / R.

    `margin` is how far inside an end a draw is far enough from verify's
    threshold: VERIFY_DELTA, scaled for a child's test by the node's whole
    mass over R, because a float R kept by subtraction carries the rounding
    of the whole mass."""
    children = defaultdict(list)
    for node, parent in enumerate(tree.parent.tolist()):
        children[parent].append(node)
    tokens = tree.token.tolist()
    branches = []

    def walk(node, path, draws):
        row = target_row(target, list(prefix) + path, temperature)
        residual = [Fraction(float(p)) for p in row]
        whole = total = sum(residual)
        for child in children[node]:
            token = tokens[child]
            accept, margin = residual[token] / total, VERIFY_DELTA * whole / total
            if accept > 0:
                walk(child, path + [token], draws + [(Fraction(0), accept, margin)])
            if accept == 1:
                return
            draws = draws + [(accept, Fraction(1), margin)]
            total -= residual[token]
            residual[token] = Fraction(0)
        below = Fraction(0)
        for x, mass in enumerate(residual):
            if mass > 0:
                bonus = (below / total, (below + mass) / total, VERIFY_DELTA)
                branches.append((draws + [bonus], path, x))
            below += mass

    walk(ROOT_ID, [], [])
    return branches


class ScriptedRandom:
    """A stand-in for np.random.Generator whose random() returns `values` in
    order; `drawn` counts the draws taken."""

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def random(self):
        if self.drawn == len(self.values):
            raise AssertionError(f"a draw past the {len(self.values)} the branch spends")
        self.drawn += 1
        return self.values[self.drawn - 1]


def check_verify_law(target, prefix, tree, temperature, tol=1e-12):
    """The exact law of verify over `tree`, checked branch by branch.

    verify runs down each branch of verify_branches twice, with every draw
    its margin inside its interval's lower end, then inside its upper end,
    and must return the branch's tokens after spending exactly its draws; a
    branch with an interval no wider than twice its margin is not driven
    (it weighs under 2e-13 / R). Weighting each branch by the product of its
    interval lengths, for every node the walk reaches, P(next emitted token
    = x | node reached) must equal the node's target conditional p_node(x)
    to `tol`. Returns the number of branches."""
    branches = verify_branches(target, prefix, tree, temperature)
    reached = defaultdict(Fraction)
    emitted = defaultdict(Fraction)
    for draws, path, bonus in branches:
        if all(hi - lo > 2 * margin for lo, hi, margin in draws):
            for end in ([lo + margin for lo, _, margin in draws],
                        [hi - margin for _, hi, margin in draws]):
                rng = ScriptedRandom(float(u) for u in end)
                got = verify(tree, target.start(prefix), temperature, rng)
                assert got == (path, bonus), (got, path, bonus, draws)
                assert rng.drawn == len(draws), (rng.drawn, draws)
        weight = math.prod(hi - lo for lo, hi, _ in draws)
        for depth, token in enumerate(path + [bonus]):
            reached[tuple(path[:depth])] += weight
            emitted[tuple(path[:depth]), token] += weight
    assert reached[()] == 1
    for node, mass in reached.items():
        p_node = target_row(target, list(prefix) + list(node), temperature)
        law = [float(emitted[node, x] / mass) for x in range(len(p_node))]
        assert np.max(np.abs(np.array(law) - p_node)) <= tol, (node, law, p_node)
    return len(branches)


def exactness_check(target, drafter, trie, cfg, n_samples, prompt=(0,), horizon=3):
    """Total-variation distance between decode outputs and exact ancestral
    sampling of target_row over all length-`horizon` continuations.

    Requires temperature > 0 and a vocabulary small enough to enumerate.
    n_samples <= 0 returns the sentinel TV of 1.0 (nothing was measured).
    """
    if cfg.temperature <= 0:
        raise ConfigError("exactness check requires temperature > 0")
    if n_samples <= 0:
        return 1.0
    V = target.vocab_size
    prompt = list(prompt)

    exact: dict[tuple[int, ...], float] = {}

    def enumerate_seqs(prefix: list[int], prob: float, depth: int):
        if depth == horizon:
            exact[tuple(prefix[len(prompt):])] = prob
            return
        dist = target_row(target, prefix, cfg.temperature)
        for tok in range(V):
            p = float(dist[tok])
            if p > 0:
                enumerate_seqs(prefix + [tok], prob * p, depth + 1)

    enumerate_seqs(prompt, 1.0, 0)

    counts: dict[tuple[int, ...], int] = {}
    seeds = np.random.SeedSequence(cfg.seed).generate_state(n_samples, dtype=np.uint64)
    run_cfg = replace(cfg, max_tokens=horizon)
    for i in range(n_samples):
        sample_cfg = replace(run_cfg, seed=int(seeds[i]))
        tokens, _ = decode(prompt, target, drafter, trie, sample_cfg, measure_base=False)
        key = tuple(tokens[:horizon])
        counts[key] = counts.get(key, 0) + 1

    tv = 0.0
    for key in exact.keys() | counts.keys():
        tv += abs(counts.get(key, 0) / n_samples - exact.get(key, 0.0))
    return 0.5 * tv


def finite_diff_check(model, batch, h, n_coords=40, seed=0):
    """Max relative error between analytic and central-difference gradients
    over a random subsample of parameter coordinates."""
    if not 1e-6 <= h <= 1e-3:
        raise ConfigError(f"step size must be in [1e-6, 1e-3], got {h}")
    _, grads, _ = batch_loss(model, batch)
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    names = sorted(model.params)
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        param = model.params[name]
        idx = tuple(rng.integers(s) for s in param.shape)
        orig = param[idx]
        param[idx] = orig + h
        plus, _, _ = batch_loss(model, batch, want_grads=False)
        param[idx] = orig - h
        minus, _, _ = batch_loss(model, batch, want_grads=False)
        param[idx] = orig
        fd = (plus - minus) / (2 * h)
        a = grads[name][idx]
        rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst
