"""Prefix-shared masked training of the toy drafter.

A training sequence of length L is packed as [prompt block | one mask block
per prompt position]: the prompt attends causally to itself, each mask block
sees only its own prompt prefix and itself (causally), and different blocks
never see each other. Every supervised prompt position therefore contributes
d future-position predictions to a single forward pass.

The forward attends in groups: group g is the d query rows of prefix g
(prompt row g and block g in shifted mode, block g alone unshifted), and it
scores only the K = G + m packed positions it can see, for G supervised
prefixes and blocks of m: prompt positions 0 .. G-1, which every group
shares, and its own block. Its mask is the (d, K) slice of
`build_training_mask`, so a sequence costs G * d * K scores (2,944 at L=24,
d=8) where attending every position would cost one per supervised slot and
position (17,408). No key is copied per group: the shared keys are scored
in one product for a sequence's G * d query rows, each block in one for its
group.

The objective is a position-annealed KL divergence (`floored_kl`) against the
target model's exact conditionals, weighted gamma^(t-1) for the t-th future
position. A batch holds each sequence's L-1 conditionals once: slot (g, t)
reads row g+t, and the row's sums of q log q and q, through read-only
(B, G, d, ...) window views. All arithmetic is float64 and gradients are
written by hand, so they can be validated against central differences. The
KL makes one full-width pass besides its softmax, in place over the logits
when no log-probability can reach the floor, and its gradient two.

A TrainingBatch is plain data that no step writes to: each step makes its
own arrays, so steps on one batch may overlap. A step holds one forward at
a time: its backward consumes the forward's arrays, the gradient buffer
among them, and frees each after its last use. Freed, they would go back to
the OS, and each request after the first would fault its working set in
again, so the first training batch built in a process pins glibc's mmap and
trim thresholds (`_keep_freed_memory_mapped`) before it makes its arrays;
pinned later, that batch alone is mapped apart and every later batch takes
part of the freed step region. A process that trains once, such as
`train-toy`, gains nothing.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigError, TrainingDivergedError, check_bool, check_int, check_number,
                     check_tokens)
from .engine import TargetModel
from .models import ToyDraft, group_keys
from .ngram import LOG_FLOOR
from .tree import DraftTree


def build_training_mask(prompt_len: int, block_len: int) -> np.ndarray:
    """Boolean attention mask over the packed layout of P*(block_len+1) slots.

    OR of three predicates: causal attention inside the prompt, each mask
    block viewing prompt positions up to its own group index, and causal
    attention inside a block.
    """
    P, m = prompt_len, block_len
    if P < 1 or m < 1:
        raise ConfigError(f"prompt_len and block_len must be >= 1, got {P}, {m}")
    M = P * (m + 1)
    q = np.arange(M)[:, None]
    kv = np.arange(M)[None, :]
    q_group = (q - P) // m
    kv_group = (kv - P) // m

    prompt_causal = (q < P) & (kv < P) & (q >= kv)
    draft_view_prompt = (q >= P) & (kv < P) & (kv <= q_group)
    draft_internal = (q >= P) & (kv >= P) & (q_group == kv_group) & (q >= kv)
    return prompt_causal | draft_view_prompt | draft_internal


def build_position_ids(prompt_len: int, block_len: int) -> np.ndarray:
    """Prompt positions 0..P-1; the block for prompt position g continues it
    with g+1 .. g+block_len."""
    P, m = prompt_len, block_len
    if P < 1 or m < 1:
        raise ConfigError(f"prompt_len and block_len must be >= 1, got {P}, {m}")
    blocks = [np.arange(g + 1, g + m + 1) for g in range(P)]
    return np.concatenate([np.arange(P)] + blocks)


def _safe_q_log_q(q: np.ndarray) -> np.ndarray:
    return np.where(q > 0, q * np.log(np.maximum(q, 1e-300)), 0.0)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """x @ ones, a (B, G, d, V) x taken as (B, G*d, V): a product rounds a row by its place."""
    flat = x.reshape(len(x), -1, x.shape[-1]) if x.ndim > 3 else x
    return (flat @ np.ones(x.shape[-1])).reshape(x.shape[:-1])


def floored_kl(logits: np.ndarray, q: np.ndarray,
               weights: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Weighted sum of KL(q || softmax(logits)) over the last axis, with the
    log-probabilities clamped at the epsilon floor.

    Returns (loss, d loss / d logits, floored) where `floored` flags any
    coordinate whose log-probability was clamped while carrying target mass.
    The gradient is exact for the clamped objective: clamped coordinates stop
    contributing their -q_v log p_v term. `weights` broadcasts against the
    per-row KL values, which the loss adds up with their first axis innermost
    (slot by slot for a batch's (B, S) or (B, G, d)). `logits` is left as it is.
    """
    terms = _row_sums(_safe_q_log_q(q)), _row_sums(q), q * np.asarray(weights)[..., None]
    loss, floored, grad = _floored_kl(np.array(logits, dtype=np.float64), weights, 1.0, q, terms)
    return loss, grad(), floored


def _floored_kl(logits, weights, norm, q, label_terms):
    """floored_kl / norm given the label terms (per row sum q log q and sum
    q, and q * weights / norm), with its gradient put off: (loss, floored,
    grad), where grad(), called at most once, builds d loss / d logits in
    the softmax the loss computed. Overwrites `logits`. Unclamped, a row's KL
    is sum q log q - q . (logits - top) + sum q * log total, for the row max
    `top` (found by argmax, faster) and the softmax's total (a product), at
    most V: if min(logits - top) clears LOG_FLOOR + log V, nothing clamps
    and the softmax is taken in place."""
    q_log_q, mass, q_scaled = label_terms
    top = np.take_along_axis(logits, logits.argmax(axis=-1)[..., None], axis=-1)
    shifted = np.subtract(logits, top, out=logits)
    q_dot, low = np.einsum("...v,...v->...", q, shifted), shifted.min()
    in_place = low >= LOG_FLOOR + np.log(logits.shape[-1]) + 1e-6  # 1e-6 >> a total's rounding
    p = np.exp(shifted, out=shifted if in_place else None)
    total = _row_sums(p)
    log_total = np.log(total)
    # logp >= min(shifted) - max(log total): nothing clamps. A NaN fails this test.
    if in_place or low >= LOG_FLOOR + log_total.max():
        floored, kept, q_kept = False, mass, q_scaled
        kl = q_log_q - q_dot + mass * log_total
    else:
        logp = np.subtract(shifted, log_total[..., None], out=shifted)
        unfloored = logp >= LOG_FLOOR
        floored = bool(np.any(~unfloored & (q > 0)))
        kept, q_kept = _row_sums(q * unfloored), q_scaled * unfloored
        kl = q_log_q - np.einsum("...v,...v->...", q, np.maximum(logp, LOG_FLOOR, out=logp))
    by_slot = np.moveaxis(np.atleast_1d(weights * kl), 0, -1)  # each slot's sequences in turn
    loss = float(np.ascontiguousarray(by_slot).sum()) / norm

    def grad() -> np.ndarray:
        # weights / norm * (kept * p - q_kept), where kept is a row's target
        # mass outside the clamp and p the softmax, exp(shifted) / total,
        # built in p's buffer, whose only reference it hands over.
        nonlocal p
        dlogits, p = np.multiply(p, (weights / norm * kept / total)[..., None], out=p), None
        dlogits -= q_kept
        return dlogits

    return loss, floored, grad


@dataclass
class TrainingBatch:
    """One packed, fully materialized training batch (fixed-length sequences)."""

    feats: np.ndarray          # (B, P, 3*FEAT_WIDTH)
    emb_tokens: np.ndarray     # (B, P)
    mask: np.ndarray           # (G, d, K) bool, each group's slots over its keys
    position_ids: np.ndarray   # (M,) the leading M positions of the layout
    n_prefix: int
    slot_positions: np.ndarray  # (S,) = (G*d,) distinct supervised positions, group by group
    slot_weights: np.ndarray    # (S,) annealing weight of each slot
    conditionals: np.ndarray    # (B, L-1, V) the target's conditional after each prefix
    labels: np.ndarray          # (B, G, d, V) read-only view: slot (g, t) reads conditional g+t
    norm: float                 # slots are averaged per (sequence, group)
    label_terms: tuple          # (B, G, d) views: rows' sum q log q, sum q; (B, G, d, V) q*w/norm


def build_training_batch(target: TargetModel, sequences: list[list[int]],
                         d: int, gamma: float, shifted: bool = True) -> TrainingBatch:
    """Pack equal-length sequences into the prefix-shared layout.

    Shifted mode uses mask blocks of length d-1 (the first future position is
    read from the prompt position itself); unshifted uses blocks of length d
    read entirely from mask positions. Group g is supervised when all d
    future tokens fall inside the sequence, i.e. for g < G = L-d. Blocks never
    see each other and prompt rows never see blocks, so the batch keeps only
    the leading M = P + G*m positions of the layout: the prompt and the
    supervised blocks, which are all that any supervised slot sees. Group g's
    d slots see only its K = G + m keys (`group_keys`), and `mask` holds
    their rows and columns of `build_training_mask`.
    """
    check_int("d", d, minimum=1)
    check_number("gamma", gamma)
    check_bool("shifted", shifted)
    if not 0 < gamma <= 1:
        raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
    if not sequences:
        raise ConfigError("need at least one training sequence")
    _keep_freed_memory_mapped()  # before the batch's arrays, so they take no fresh mapping
    sequences = [check_tokens(f"training sequence {i} tokens", seq, target.vocab_size)
                 for i, seq in enumerate(sequences)]
    L = len(sequences[0])
    if any(len(s) != L for s in sequences):
        raise ConfigError("training sequences must share one length")
    if L <= d:
        raise ConfigError(f"sequences of length {L} cannot supervise d={d} futures")
    m = d - 1 if shifted else d
    if m < 1:
        raise ConfigError("shifted training needs d >= 2")
    P, G = L, L - d  # groups g < G are supervised
    # Slot (g, t) predicts token g+t+1 (t = 0 .. d-1) from the t-th position
    # of block g; shifted mode reads t = 0 from prompt position g itself.
    g, t = np.divmod(np.arange(G * d), d)
    slot_positions = np.where(shifted & (t == 0), g, P + g * m + t - int(shifted))
    # Its label is the target's conditional given the first g+t+1 tokens: row g+t of
    # dists, from one tree_dists call per sequence on its tokens 1 .. L-2 as a chain.
    parent, level, dists, feats = np.arange(-1, L - 3), np.arange(L - 2), [], []
    for seq in sequences:
        session = target.start(seq[:1])
        dists.append(session.tree_dists(DraftTree(parent, seq[1:-1], level, np.zeros(L - 2))))
        session.extend(seq[1:])
        feats.append(session.features())
    dists = np.stack(dists)
    emb_tokens = np.array(sequences, dtype=np.int64)
    if shifted:
        emb_tokens = np.roll(emb_tokens, -1, axis=1)
        emb_tokens[:, -1] = 0  # inert: the last prompt position is seen by no slot
    M, K = P + G * m, G + m
    keys = group_keys(M, G, K)
    queries = slot_positions.reshape(G, d)

    def slots(rows):  # (B, L-1, ...) as a read-only (B, G, d, ...) view: (g, t) reads row g+t
        return np.moveaxis(sliding_window_view(rows, d, axis=1), -1, 2)
    labels, norm = slots(dists), float(len(sequences) * G)
    weights = np.tile(gamma ** np.arange(d, dtype=np.float64), G)
    return TrainingBatch(
        feats=np.stack(feats),
        emb_tokens=emb_tokens,
        mask=build_training_mask(P, m)[queries[:, :, None], keys[:, None, :]],
        position_ids=build_position_ids(P, m)[:M],
        n_prefix=P,
        slot_positions=slot_positions,
        slot_weights=weights, conditionals=dists, labels=labels, norm=norm,
        label_terms=(slots(_row_sums(_safe_q_log_q(dists))),  # summed per position
                     slots(_row_sums(dists)), labels * (weights / norm).reshape(G, d, 1)),
    )


def batch_loss(model: ToyDraft, batch: TrainingBatch,
               want_grads: bool = True):
    """Annealed KL over every supervised slot; returns (loss, grads, floored).

    The forward queries the slot positions alone, group by group, each over
    the keys its group sees; every other position of the layout serves as a
    key and value only.
    """
    loss, floored, backward = _batch_forward(model, batch)
    return loss, backward() if want_grads else None, floored


@functools.cache
def _keep_freed_memory_mapped() -> None:
    """Pin glibc's mmap threshold at 32 MiB, the ceiling of its dynamic
    threshold, and its trim threshold at 64 MiB, twice that, as the dynamic
    rule sets it. Both are set, as setting either turns that rule off, and
    its 128 KiB start would map every step array afresh. A libc without
    mallopt is left as it is."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _batch_forward(model: ToyDraft, batch: TrainingBatch):
    """batch_loss's forward: (loss, floored, backward), where backward(),
    called at most once, returns the grads, whatever else ran on the batch
    since, and frees the forward's arrays as it goes; the allocator policy
    was pinned when the batch was built."""
    M = len(batch.position_ids)
    z = model.build_inputs(batch.feats, batch.emb_tokens,
                           M - batch.n_prefix, batch.position_ids)
    queries = batch.slot_positions.reshape(batch.mask.shape[:2])
    logits, cache = model.forward_core(z, batch.mask, queries)
    loss, floored, kl_grad = _floored_kl(logits, batch.slot_weights.reshape(queries.shape),
                                         batch.norm, batch.labels, batch.label_terms)

    def backward() -> dict[str, np.ndarray]:
        cache["dlogits"] = kl_grad()  # backward_core frees it, and the forward, as it goes
        return model.backward_core(cache, batch.feats, batch.n_prefix)

    return loss, floored, backward


@dataclass
class TrainingLogRecord:
    step: int
    loss: float
    alpha: list[float] | None = None

    def to_dict(self) -> dict:
        rec = {"step": self.step, "loss": self.loss}
        if self.alpha is not None:
            rec["alpha"] = self.alpha
        return rec


def train_toy_draft(
    target: TargetModel,
    corpus: list[list[int]],
    gamma: float,
    d: int,
    steps: int,
    lr: float,
    seed: int,
    *,
    shifted: bool = True,
    eval_every: int = 0,
    checkpoint_hook=None,
    log: list[TrainingLogRecord] | None = None,
) -> ToyDraft:
    """Full-batch gradient descent on the annealed KL objective.

    steps, eval_every and seed must be integers >= 0, shifted a bool and
    lr a finite number > 0.
    The batch is built, and so checked, before any step, even when steps is
    0 and the fresh model is returned.
    Aborts with diagnostics if the loss exceeds 10x its initial value or is
    not finite; the overflow on the way there raises no RuntimeWarning.
    The loss of each update's weights is checked before anything reads them
    (the hook or the caller), so diverged weights never leave the loop.
    log[step] holds the loss of the weights that step updated.
    checkpoint_hook(step, model, batch) fires after every eval_every-th step
    (never when eval_every is 0) with the updated weights, once log[-1] is
    that step's record, so a hook may set log[-1].alpha; it must leave the
    weights as it found them.
    """
    check_int("training steps", steps, minimum=0)
    check_int("eval_every", eval_every, minimum=0)
    check_int("seed", seed, minimum=0)
    check_bool("shifted", shifted)
    check_number("lr", lr)
    if lr <= 0:
        raise ConfigError(f"lr must be > 0, got {lr}")
    batch = build_training_batch(target, corpus, d, gamma, shifted=shifted)
    model = ToyDraft(target.vocab_size, target.embeddings, seed=seed, shifted=shifted)
    if steps == 0:
        return model
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _, backward = _batch_forward(model, batch)
        initial_loss = loss
        _check_loss(0, loss, initial_loss)
        for step in range(steps):
            if log is not None:
                log.append(TrainingLogRecord(step, loss))
            for name, g in backward().items():
                model.params[name] -= lr * g
            # The updated weights' loss, checked before anything reads them;
            # its grads wait for the next step.
            loss, _, backward = _batch_forward(model, batch)
            _check_loss(step + 1, loss, initial_loss)
            if checkpoint_hook and eval_every and (step + 1) % eval_every == 0:
                checkpoint_hook(step, model, batch)
    return model


def _check_loss(step: int, loss: float, initial_loss: float) -> None:
    if not loss <= 10 * initial_loss:  # NaN fails every comparison
        raise TrainingDivergedError(step, loss, initial_loss)


def evaluate_alpha(drafter, target: TargetModel,
                   sequences: list[list[int]], d: int,
                   vs_greedy: bool = False) -> list[float]:
    """Held-out argmax accuracy per future position, inference conditions.

    alpha[t-1] is the fraction of (sequence, prefix) pairs whose row-t argmax
    equals the token t steps ahead -- the held-out sequence's token by
    default, or the target's own greedy continuation with vs_greedy (the
    quantity that controls greedy-decode acceptance). Works with anything
    exposing the predict() drafting interface; drafting runs at temperature 0,
    so the seeded generator it is handed never changes a row. A sequence's
    prefixes are one session, extended a token at a time: a drafter that
    keeps its rows there builds each prefix's new positions alone, and only
    the d read-out rows' attention still grows with the prefix.
    """
    check_int("d", d, minimum=1)
    sequences = [check_tokens(f"evaluation sequence {i} tokens", seq, target.vocab_size)
                 for i, seq in enumerate(sequences)]
    rng = np.random.Generator(np.random.PCG64(0))
    hits = np.zeros(d)
    total = 0
    for seq in sequences:
        session = target.start(seq[:1])
        for g in range(1, len(seq) - d):
            session.extend(seq[g:g + 1])
            rows = drafter.predict(session, d, rng=rng).rows
            preds = np.argmax(rows, axis=1)
            truth = (session.rollout(d, np.argmax) if vs_greedy
                     else seq[g + 1: g + 1 + d])
            for t in range(d):
                hits[t] += preds[t] == truth[t]
            total += 1
    if total == 0:
        raise ConfigError("no evaluation prefixes: sequences too short for d")
    return [float(h / total) for h in hits]
