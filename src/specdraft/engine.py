"""Draft-verify decode loop with lossless tree verification.

A request is one target session, extended by the tokens each cycle emits.
Each cycle runs three stages: one drafting forward on the session producing
parallel logits, tree pruning, and tree verification against the target.
Verification takes the conditionals at the root and at every tree node from
one `tree_dists` call on the session, then walks the tree from the root; at
every node the offered children are tested one after another by rejection
against the running residual of the target conditional (each rejected
sibling's mass is removed and the residual renormalized), and when all
siblings are rejected the bonus token is sampled from what remains. Because
each sibling's acceptance probability equals exactly its residual target
mass, the joint law of (accepted path, bonus token) is identical to
ancestral sampling from the target -- for any draft tree whatsoever. The
same walk runs at temperature 0: the target conditional is then one-hot, so
every non-argmax sibling has zero residual mass and is rejected, the argmax
child is accepted with probability 1, and the bonus is the argmax.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .errors import ConfigError, check_int, check_number, check_tokens
from .models import Session, sample_from
from .ngram import NgramTrie
from .tree import ROOT_ID, DraftTree, ParallelLogits, PruneConfig, prune


class TargetModel(Protocol):
    vocab_size: int

    def start(self, prompt: Sequence[int]) -> Session:
        """One request's session, holding a copy of `prompt`."""


class DraftPredictor(Protocol):
    def predict(self, session: Session, d: int, *, rng: np.random.Generator,
                temperature: float = 0.0) -> ParallelLogits:
        """d rows of future-position logits from one drafting forward. The
        drafter asks `session` for what it reads of the prefix, such as the
        feature rows of the positions it builds. `rng` is decode's
        generator, which it shares with verify; a drafter that samples may
        draw from it, or from a seeded stream of its own, as UniformDrafter
        and NoisyOracleDrafter do. decode makes one session per request and
        extends it by each cycle's tokens, so a drafter may keep in
        `session.draft` what the next, longer prefix can reuse. A drafter
        with nothing to keep leaves it alone."""


@dataclass(frozen=True)
class DecodeConfig:
    d: int = 8
    temperature: float = 0.0
    max_tokens: int = 128
    seed: int = 0
    prune: PruneConfig = field(default_factory=PruneConfig)
    eos_token: int | None = None

    def __post_init__(self):
        check_int("draft length d", self.d, minimum=1)
        if self.d > 4096:  # a drafter allocates (d, V) rows, ToyDraft a (d, d) mask
            raise ConfigError(f"draft length d must be <= 4096, got {self.d}")
        check_int("max_tokens", self.max_tokens, minimum=1)
        check_int("seed", self.seed, minimum=0)
        if self.eos_token is not None:
            check_int("eos_token", self.eos_token)
        check_number("temperature", self.temperature)
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")


@dataclass
class CycleRecord:
    cycle: int
    accepted: int  # accepted draft tokens (bonus not counted)
    emitted: int   # tokens appended to the output this cycle
    nodes_per_level: list[int]  # draft tree nodes at each of the d levels
    draft_ms: float
    prune_ms: float
    verify_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DecodeMetrics:
    cycles: int
    tokens_out: int
    tau: float
    draft_ms: float   # per-stage medians, first cycle excluded once there is more than one
    prune_ms: float
    verify_ms: float
    base_ms: float | None
    modeled_speedup: float | None
    draft_ratio: float | None
    # alpha_t = P(accept at depth t | depth t reached), t = 1 .. d, over the cycles
    accept_rates: list[float] = field(default_factory=list)
    records: list[CycleRecord] = field(default_factory=list)

    def report(self) -> str:
        lines = [
            f"cycles           {self.cycles}",
            f"tokens_out       {self.tokens_out}",
            f"tau              {self.tau:.4f}",
            f"draft_ms (med)   {self.draft_ms:.4f}",
            f"prune_ms (med)   {self.prune_ms:.4f}",
            f"verify_ms (med)  {self.verify_ms:.4f}",
        ]
        if self.base_ms is not None:
            lines.append(f"base_ms (med)    {self.base_ms:.4f}")
        if self.modeled_speedup is not None:
            lines.append(f"modeled_speedup  {self.modeled_speedup:.3f}")
            lines.append(f"draft_ratio      {self.draft_ratio:.3f}")
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        return [r.to_dict() for r in self.records]


def verify(
    tree: DraftTree,
    session: Session,
    temperature: float,
    rng: np.random.Generator,
) -> tuple[list[int], int]:
    """Walk the draft tree against the session; returns (accepted path, bonus).

    The target conditionals at the root and at every tree node come from one
    `session.tree_dists` call, the stand-in for one batched tree-attention
    forward under `tree.attention_mask()`. The children of the current node
    are tried in tree order: each is accepted with probability equal to its
    mass under the residual target conditional, and on rejection that mass is
    removed and the residual renormalized. The bonus token comes from the
    final residual, so the output distribution is exactly the target's
    regardless of the drafter. The same walk runs at temperature 0, where the
    one-hot conditional makes it follow the argmax child and emit the argmax
    as bonus.
    """
    if len(tree) == 0:
        raise ConfigError("cannot verify an empty tree")
    # Row 0 is the root and row i+1 is node i.
    dists = session.tree_dists(tree, temperature)
    token = tree.token.tolist()

    accepted: list[int] = []
    current = ROOT_ID
    while True:
        dist = dists[current + 1]
        offered = np.flatnonzero(tree.parent == current).tolist()
        residual = dist.copy()
        total = float(residual.sum())
        chosen = None
        for child in offered:
            mass = float(residual[token[child]])
            if total <= 0.0:
                break
            if rng.random() < mass / total:
                chosen = child
                break
            residual[token[child]] = 0.0
            total -= mass
        if chosen is None:
            if residual.any():
                return accepted, sample_from(residual, rng)
            # All target mass sat on the offered children, and rounding let
            # the last of them be rejected (fp corner, `total` may still read
            # a few ulps above 0); fall back to the highest-mass child to
            # stay well-defined.
            chosen = max(offered, key=lambda c: float(dist[token[c]]))
        accepted.append(token[chosen])
        current = chosen


def _check_prompt(prompt: Sequence[int], eos_token: int | None, vocab_size: int) -> list[int]:
    """The prompt as a list of ints. An empty prompt, a prompt token that is not
    an integer in [0, vocab_size) or an end token outside it raises ConfigError."""
    if len(prompt) == 0:
        raise ConfigError("prompt must be nonempty")
    tokens = check_tokens("prompt tokens", prompt, vocab_size)
    if eos_token is not None and not 0 <= eos_token < vocab_size:
        raise ConfigError(f"eos_token must lie in [0, {vocab_size}), got {eos_token}")
    return tokens


def baseline_decode(
    prompt: Sequence[int],
    target: TargetModel,
    max_tokens: int,
    temperature: float = 0.0,
    seed: int = 0,
    eos_token: int | None = None,
) -> list[int]:
    """Plain autoregressive decoding (the reference for losslessness checks).
    Its arguments are checked as DecodeConfig checks them."""
    DecodeConfig(max_tokens=max_tokens, temperature=temperature, seed=seed, eos_token=eos_token)
    rng = np.random.Generator(np.random.PCG64(seed))
    session = target.start(_check_prompt(prompt, eos_token, target.vocab_size))
    out: list[int] = []
    while len(out) < max_tokens:
        tok = sample_from(session.next_dist(temperature), rng)
        out.append(tok)
        session.extend((tok,))
        if eos_token is not None and tok == eos_token:
            break
    return out


def _accept_rates(accepted: list[int], d: int) -> list[float]:
    """alpha_t for t = 1 .. d: of the cycles that accepted at least t-1 draft
    tokens, the share that accepted at least t; 0 where none reached depth t."""
    at_least = np.bincount(accepted, minlength=d + 1)[::-1].cumsum()[::-1].tolist()
    return [hit / reached if reached else 0.0 for reached, hit in zip(at_least, at_least[1:])]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def decode(
    prompt: Sequence[int],
    target: TargetModel,
    drafter: DraftPredictor,
    trie: NgramTrie | None,
    cfg: DecodeConfig,
    measure_base: bool = True,
) -> tuple[list[int], DecodeMetrics]:
    """Run draft -> prune -> verify cycles until max_tokens or the end token.

    One session per request holds the prefix, and the drafter's state in it
    lets a later cycle build only the positions of the tokens the previous
    one emitted. A missing trie scores every continuation at the epsilon
    floor (the no-n-gram ablation mode). Per-stage wall-clock latencies are
    recorded per cycle; medians exclude the first (warmup) cycle when more
    than one ran.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    session = target.start(_check_prompt(prompt, cfg.eos_token, target.vocab_size))
    out: list[int] = []
    records: list[CycleRecord] = []
    stop = False

    while not stop and len(out) < cfg.max_tokens:
        t0 = time.perf_counter_ns()
        logits = drafter.predict(session, cfg.d, temperature=cfg.temperature, rng=rng)
        if logits.rows.shape[1] != target.vocab_size:
            raise ConfigError(f"drafter logit rows are {logits.rows.shape[1]} wide, "
                              f"not the target's vocab_size {target.vocab_size}")
        t1 = time.perf_counter_ns()
        tree = prune(logits, trie, cfg.prune, session.tokens)
        t2 = time.perf_counter_ns()
        accepted, bonus = verify(tree, session, cfg.temperature, rng)
        t3 = time.perf_counter_ns()

        emitted = accepted + [bonus]
        if cfg.eos_token is not None and cfg.eos_token in emitted:
            emitted = emitted[: emitted.index(cfg.eos_token) + 1]
            stop = True
        room = cfg.max_tokens - len(out)
        if len(emitted) >= room:
            emitted = emitted[:room]
            stop = True
        out.extend(emitted)
        session.extend(emitted)
        records.append(CycleRecord(
            cycle=len(records),
            accepted=len(emitted) - 1,
            emitted=len(emitted),
            nodes_per_level=np.bincount(tree.level, minlength=cfg.d).tolist(),
            draft_ms=(t1 - t0) / 1e6,
            prune_ms=(t2 - t1) / 1e6,
            verify_ms=(t3 - t2) / 1e6,
        ))

    steady = records[1:] if len(records) > 1 else records
    draft_ms = _median([r.draft_ms for r in steady])
    prune_ms = _median([r.prune_ms for r in steady])
    verify_ms = _median([r.verify_ms for r in steady])

    base_ms = None
    modeled_speedup = None
    draft_ratio = None
    if measure_base:
        for _ in range(2):  # warm the target's lazy caches
            session.next_dist(cfg.temperature)
        samples = []
        for _ in range(5):
            b0 = time.perf_counter_ns()
            session.next_dist(cfg.temperature)
            samples.append((time.perf_counter_ns() - b0) / 1e6)
        base_ms = _median(samples)
        tau = len(out) / len(records)
        if verify_ms > 0 and base_ms > 0:
            modeled_speedup, draft_ratio = estimate_speedup(
                max(tau, 1.0), verify_ms, draft_ms, prune_ms, base_ms
            )

    metrics = DecodeMetrics(
        cycles=len(records),
        tokens_out=len(out),
        tau=len(out) / len(records),
        draft_ms=draft_ms,
        prune_ms=prune_ms,
        verify_ms=verify_ms,
        base_ms=base_ms,
        modeled_speedup=modeled_speedup,
        draft_ratio=draft_ratio,
        accept_rates=_accept_rates([r.accepted for r in records], cfg.d),
        records=records,
    )
    return out, metrics


def estimate_speedup(
    tau: float,
    t_verify: float,
    t_draft: float,
    t_prune: float,
    t_base: float,
) -> tuple[float, float]:
    """Analytical cycle model: how much faster than autoregressive decoding.

    speedup = tau * t_base / (t_verify + t_draft + t_prune);
    draft_ratio = (t_draft + t_prune) / (t_verify + t_draft + t_prune).
    Verification and baseline times must be positive; drafting and pruning
    may be zero (free drafting) but not negative; all must be finite.
    """
    for name, value in (("tau", tau), ("t_verify", t_verify), ("t_draft", t_draft),
                        ("t_prune", t_prune), ("t_base", t_base)):
        check_number(name, value)
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    if t_verify <= 0 or t_base <= 0:
        raise ConfigError("t_verify and t_base must be > 0")
    if t_draft < 0 or t_prune < 0:
        raise ConfigError("t_draft and t_prune must be >= 0")
    cycle = t_verify + t_draft + t_prune
    return tau * t_base / cycle, (t_draft + t_prune) / cycle
