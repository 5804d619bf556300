"""Prefix-shared masked training of the toy drafter.

A training sequence of length L is packed as [prompt block | one mask block
per prompt position]: the prompt attends causally to itself, each mask block
sees only its own prompt prefix and itself (causally), and different blocks
never see each other. Every supervised prompt position therefore contributes
d future-position predictions to a single forward pass.

The objective is a position-annealed KL divergence (`floored_kl`) against the
target model's exact conditionals, weighted gamma^(t-1) for the t-th future
position. All arithmetic is float64 and gradients are written by hand, so
they can be validated against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingDivergedError, check_int, check_number
from .models import MarkovTarget, ToyDraft
from .ngram import LOG_FLOOR
from .tree import log_softmax


def build_training_mask(prompt_len: int, block_len: int,
                        valid_len: int | None = None) -> np.ndarray:
    """Boolean attention mask over the packed layout of P*(block_len+1) slots.

    OR of three predicates: causal attention inside the prompt, each mask
    block viewing prompt positions up to its own group index, and causal
    attention inside a block. Prompt positions and block groups at or beyond
    valid_len are masked out entirely.
    """
    P, m = prompt_len, block_len
    if P < 1 or m < 1:
        raise ConfigError(f"prompt_len and block_len must be >= 1, got {P}, {m}")
    if valid_len is None:
        valid_len = P
    if not 0 <= valid_len <= P:
        raise ConfigError(f"valid_len must be in [0, {P}], got {valid_len}")
    M = P * (m + 1)
    q = np.arange(M)[:, None]
    kv = np.arange(M)[None, :]
    q_group = (q - P) // m
    kv_group = (kv - P) // m

    prompt_causal = (q < P) & (kv < P) & (q >= kv) & (q < valid_len) & (kv < valid_len)
    draft_view_prompt = (q >= P) & (kv < P) & (q_group < valid_len) & (kv <= q_group)
    draft_internal = ((q >= P) & (kv >= P) & (q_group == kv_group)
                      & (q >= kv) & (q_group < valid_len))
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


def floored_kl(logits: np.ndarray, q: np.ndarray,
               weights: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Weighted sum of KL(q || softmax(logits)) over the last axis, with the
    log-probabilities clamped at the epsilon floor.

    Returns (loss, d loss / d logits, floored) where `floored` flags any
    coordinate whose log-probability was clamped while carrying target mass.
    The gradient is exact for the clamped objective: clamped coordinates stop
    contributing their -q_v log p_v term. `weights` broadcasts against the
    per-row KL values.
    """
    logp = log_softmax(logits)
    unfloored = logp >= LOG_FLOOR
    floored = bool(np.any(~unfloored & (q > 0)))
    logp_eff = np.maximum(logp, LOG_FLOOR)
    kl = (_safe_q_log_q(q) - q * logp_eff).sum(axis=-1)
    loss = float((weights * kl).sum())

    # weights * (q_mass * p - q * unfloored), where q_mass is a row's target
    # mass outside the clamp. Built in place: each full-size temporary costs
    # every training step fresh pages from the allocator.
    q_kept = q * unfloored
    grad = np.exp(logp)
    grad *= q_kept.sum(axis=-1, keepdims=True)
    grad -= q_kept
    grad *= weights[..., None]
    return loss, grad, floored


@dataclass
class TrainingBatch:
    """One packed, fully materialized training batch (fixed-length sequences)."""

    feats: np.ndarray          # (B, P, 3*FEAT_WIDTH)
    emb_tokens: np.ndarray     # (B, P)
    mask: np.ndarray           # (M, M) bool, the leading M positions of the layout
    position_ids: np.ndarray   # (M,)
    n_prefix: int
    slot_positions: np.ndarray  # (S,) distinct packed positions carrying supervision
    slot_weights: np.ndarray    # (S,) annealing weight of each slot
    labels: np.ndarray          # (B, S, V) exact target conditionals
    norm: float                 # slots are averaged per (sequence, group)


def build_training_batch(target: MarkovTarget, sequences: list[list[int]],
                         d: int, gamma: float, shifted: bool = True) -> TrainingBatch:
    """Pack equal-length sequences into the prefix-shared layout.

    Shifted mode uses mask blocks of length d-1 (the first future position is
    read from the prompt position itself); unshifted uses blocks of length d
    read entirely from mask positions. Group g is supervised when all d
    future tokens fall inside the sequence, i.e. for g < L-d. Blocks never see
    each other and prompt rows never see blocks, so the batch keeps only the
    leading P + (L-d)*m positions of the layout: the prompt and the
    supervised blocks, which are all that any supervised slot sees.
    """
    check_int("d", d, minimum=1)
    check_number("gamma", gamma)
    if not 0 < gamma <= 1:
        raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
    if not sequences:
        raise ConfigError("need at least one training sequence")
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
    # Its label is the target's conditional given the first g+t+1 tokens.
    labels = np.stack([[target.next_dist(seq[:j], 1.0) for j in range(1, L)]
                       for seq in sequences])[:, g + t]
    emb_tokens = np.array(sequences, dtype=np.int64)
    if shifted:
        emb_tokens = np.roll(emb_tokens, -1, axis=1)
        emb_tokens[:, -1] = 0  # inert: the last prompt position is seen by no slot
    M = P + G * m
    return TrainingBatch(
        feats=np.stack([target.features(seq).rows for seq in sequences]),
        emb_tokens=emb_tokens,
        mask=build_training_mask(P, m)[:M, :M],
        position_ids=build_position_ids(P, m)[:M],
        n_prefix=P,
        slot_positions=slot_positions,
        slot_weights=np.tile(gamma ** np.arange(d, dtype=np.float64), G),
        labels=labels,
        norm=float(len(sequences) * G),
    )


def batch_loss(model: ToyDraft, batch: TrainingBatch,
               want_grads: bool = True):
    """Annealed KL over every supervised slot; returns (loss, grads, floored).

    The forward queries the slot positions alone; every other position of the
    layout serves as a key and value only.
    """
    M = batch.mask.shape[0]
    z = model.build_inputs(batch.feats, batch.emb_tokens,
                           M - batch.n_prefix, batch.position_ids)
    slots = batch.slot_positions
    logits, cache = model.forward_core(z, batch.mask[slots], slots)
    loss, dlogits, floored = floored_kl(logits, batch.labels, batch.slot_weights[None, :])
    loss /= batch.norm
    if not want_grads:
        return loss, None, floored
    dlogits /= batch.norm
    grads = model.backward_core(cache, dlogits, batch.feats, batch.n_prefix)
    return loss, grads, floored


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
    target: MarkovTarget,
    corpus: list[list[int]],
    gamma: float,
    d: int,
    steps: int,
    lr: float,
    seed: int,
    *,
    shifted: bool = True,
    eval_sequences: list[list[int]] | None = None,
    eval_every: int = 0,
    checkpoint_hook=None,
    log: list[TrainingLogRecord] | None = None,
) -> ToyDraft:
    """Full-batch gradient descent on the annealed KL objective.

    Aborts with diagnostics if the loss exceeds 10x its initial value.
    checkpoint_hook(step, model, batch) fires every eval_every steps, for
    gradient-audit instrumentation.
    """
    if steps < 0:
        raise ConfigError(f"training steps must be >= 0, got {steps}")
    model = ToyDraft(target.vocab_size, target.embeddings, seed=seed, shifted=shifted)
    if steps == 0:
        return model
    batch = build_training_batch(target, corpus, d, gamma, shifted=shifted)
    initial_loss = None
    for step in range(steps):
        loss, grads, _ = batch_loss(model, batch)
        if initial_loss is None:
            initial_loss = loss
        if loss > 10 * initial_loss:
            raise TrainingDivergedError(step, loss, initial_loss)
        for name, g in grads.items():
            model.params[name] -= lr * g
        if log is not None:
            alpha = None
            if eval_every and eval_sequences and (step + 1) % eval_every == 0:
                alpha = evaluate_alpha(model, target, eval_sequences, d)
            log.append(TrainingLogRecord(step, loss, alpha))
        if checkpoint_hook and eval_every and (step + 1) % eval_every == 0:
            checkpoint_hook(step, model, batch)
    return model


def evaluate_alpha(drafter, target: MarkovTarget,
                   sequences: list[list[int]], d: int,
                   vs_greedy: bool = False) -> list[float]:
    """Held-out argmax accuracy per future position, inference conditions.

    alpha[t-1] is the fraction of (sequence, prefix) pairs whose row-t argmax
    equals the token t steps ahead -- the held-out sequence's token by
    default, or the target's own greedy continuation with vs_greedy (the
    quantity that controls greedy-decode acceptance). Works with anything
    exposing the predict() drafting interface; drafting runs at temperature 0,
    so the seeded generator it is handed never changes a row.
    """
    check_int("d", d, minimum=1)
    rng = np.random.Generator(np.random.PCG64(0))
    hits = np.zeros(d)
    total = 0
    for seq in sequences:
        for g in range(1, len(seq) - d):
            prefix = seq[: g + 1]
            rows = drafter.predict(prefix, target.features(prefix), d, rng=rng).rows
            preds = np.argmax(rows, axis=1)
            truth = target.greedy_chain(prefix, d) if vs_greedy else seq[g + 1: g + 1 + d]
            for t in range(d):
                hits[t] += preds[t] == truth[t]
            total += 1
    if total == 0:
        raise ConfigError("no evaluation prefixes: sequences too short for d")
    return [float(h / total) for h in hits]


def finite_diff_check(model: ToyDraft, batch: TrainingBatch, h: float,
                      n_coords: int = 40, seed: int = 0) -> float:
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
