"""Output checks computed apart from the program.

Each check takes the program's output and recomputes what it must be from
first principles (an argmax rollout over the target's conditionals, window
counts over the trie's corpus, central differences of the training loss) or
tests a property any lossless decoder must have (a likelihood martingale).
A check returns None when the output passes and a one-line reason when it
does not.
"""

from __future__ import annotations

import math

import numpy as np

Z_LIMIT = 4.5        # |Z| above this rejects a run's sampled transcripts
EPS = 1e-9           # the trie's score floor, log(count / total + EPS)
GRAD_REL_TOL = 1e-4  # analytic against central-difference gradient
GRAD_STEP = 1e-5
LOSS_DROP = 0.1      # training must end at least 10% below its first loss


def decode_invariants(tokens, accepted, emitted, vocab_size: int, d: int,
                      max_tokens: int) -> str | None:
    """Token range, per-cycle acceptance and the emitted-token ledger."""
    if not tokens:
        return "no tokens"
    if len(tokens) != max_tokens:
        return f"{len(tokens)} tokens out, expected {max_tokens}"
    if any(not 0 <= t < vocab_size for t in tokens):
        return "token outside [0, V)"
    if sum(emitted) != len(tokens):
        return f"cycles emitted {sum(emitted)} tokens, output has {len(tokens)}"
    if any(a < 0 or a > d for a in accepted):
        return f"accepted count outside [0, {d}]"
    return None


def argmax_rollout(target, prompt, length: int) -> list[int]:
    """Greedy continuation from the target's conditionals, lowest id on ties."""
    seq = list(prompt)
    for _ in range(length):
        seq.append(int(np.argmax(target.next_dist(seq, 1.0))))
    return seq[len(prompt):]


def greedy_transcript(target, prompt, tokens) -> str | None:
    expected = argmax_rollout(target, prompt, len(tokens))
    for i, (got, want) in enumerate(zip(tokens, expected)):
        if got != want:
            return f"token {i} is {got}, argmax rollout gives {want}"
    return None


def martingale_z(target, transcripts) -> float:
    """Z statistic of sum(log p(x) + H(p)) over every emitted token.

    Under exact sampling from the target each term has mean zero and
    variance Var_p(log p), so Z is close to standard normal; tempered or
    greedy decoding drifts it upward, emitting a zero-mass token sends it
    to -inf.
    """
    total = 0.0
    variance = 0.0
    for prompt, tokens in transcripts:
        seq = list(prompt)
        for tok in tokens:
            p = np.asarray(target.next_dist(seq, 1.0), dtype=np.float64)
            p = p / p.sum()
            nz = p > 0
            logp = np.log(p[nz])
            entropy = -float(np.dot(p[nz], logp))
            if p[tok] <= 0:
                return -math.inf
            total += math.log(p[tok]) + entropy
            variance += float(np.dot(p[nz], logp * logp)) - entropy * entropy
            seq.append(tok)
    if variance <= 0:
        return 0.0
    return total / math.sqrt(variance)


def sampled_transcripts(target, transcripts) -> str | None:
    z = martingale_z(target, transcripts)
    if not abs(z) < Z_LIMIT:
        return f"likelihood martingale |Z| = {abs(z):.2f} >= {Z_LIMIT}"
    return None


def window_counts(corpus: np.ndarray, order: int, vocab_size: int):
    """Distinct window prefixes per length and full-window counts, by numpy.

    corpus is (sequences, length); windows never cross a sequence boundary.
    Returns (node_count, codes, counts) where node_count includes the root
    and codes are the full windows in base vocab_size.
    """
    windows = np.lib.stride_tricks.sliding_window_view(corpus, order, axis=1)
    windows = windows.reshape(-1, order).astype(np.int64)
    node_count = 1
    code = np.zeros(len(windows), dtype=np.int64)
    for j in range(order):
        code = code * vocab_size + windows[:, j]
        node_count += len(np.unique(code))
    codes, counts = np.unique(code, return_counts=True)
    return node_count, codes, counts


def trie_matches_corpus(trie, corpus: np.ndarray, rng: np.random.Generator,
                        n_contexts: int = 200) -> str | None:
    """Node count and children_scores on sampled contexts against counts."""
    order, V = trie.order, trie.vocab_size
    nodes, codes, counts = window_counts(corpus, order, V)
    got_nodes = trie.stats().node_count
    if got_nodes != nodes:
        return f"trie has {got_nodes} nodes, corpus windows give {nodes}"
    ctx_codes = codes // V
    seen = np.unique(ctx_codes)
    picked = rng.choice(seen, size=min(n_contexts, len(seen)), replace=False)
    unseen = np.setdiff1d(rng.integers(V ** (order - 1), size=32), seen)
    for ctx_code in [*picked.tolist(), *unseen[:4].tolist()]:
        lo, hi = np.searchsorted(ctx_codes, [ctx_code, ctx_code + 1])
        total = int(counts[lo:hi].sum())
        expected = {int(c % V): math.log(int(n) / total + EPS)
                    for c, n in zip(codes[lo:hi], counts[lo:hi])}
        context = [(ctx_code // V ** (order - 2 - j)) % V for j in range(order - 1)]
        got = trie.children_scores(context, eps=EPS)
        if got != expected:
            return f"children_scores({context}) differs from the window counts"
    return None


def training_loss_fell(losses) -> str | None:
    if len(losses) < 2:
        return "fewer than two logged losses"
    first, last = losses[0], losses[-1]
    if not last <= (1.0 - LOSS_DROP) * first:
        return f"loss went {first:.4f} -> {last:.4f}, less than a {LOSS_DROP:.0%} drop"
    return None


def gradient_matches(loss_fn, params: dict, grads: dict,
                     rng: np.random.Generator) -> str | None:
    """Analytic gradients against central differences of loss_fn(), at one
    random coordinate of every parameter tensor.

    loss_fn reads params in place; every touched coordinate is restored.
    """
    for name in sorted(params):
        param = params[name]
        idx = tuple(int(rng.integers(s)) for s in param.shape)
        orig = param[idx]
        param[idx] = orig + GRAD_STEP
        plus = loss_fn()
        param[idx] = orig - GRAD_STEP
        minus = loss_fn()
        param[idx] = orig
        fd = (plus - minus) / (2 * GRAD_STEP)
        a = float(grads[name][idx])
        rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
        if not rel <= GRAD_REL_TOL:
            return f"d loss / d {name}{list(idx)}: analytic {a:.6g}, central {fd:.6g}"
    return None
