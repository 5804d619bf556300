"""The four workloads: a fixed system under test and a seeded request stream.

The system (target, trie, drafter) is the same for every seed; the seed
makes the requests. A run serves a fixed number of them, set by --seconds
and never by a clock, so tau, cycle and token counts repeat exactly for a
seed.
"""

from __future__ import annotations

import os
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import prepare
from specdraft import NoisyOracleDrafter, PruneConfig, ToyDraft, engine, load_trie, training

PRUNE = PruneConfig(k=25, w=20, theta=59)
D = 8
TRAIN_SEQUENCES = 16
TRAIN_LENGTH = 24
TRAIN_STEPS = 25
GAMMA = 0.6
LR = 0.1


def resident_bytes() -> int:
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class System:
    """What set-up builds: everything a request needs, loaded once."""

    target: object
    trie: object = None
    toy_draft: object = None
    ngram: dict = field(default_factory=dict)  # load_s, nodes, file and resident bytes
    _sampler: object = field(default=None, repr=False)

    def sample(self, rng: np.random.Generator, length: int) -> tuple[int, ...]:
        """One sequence from the target's chain. The sampler is made on
        first use, so set-up time does not include it."""
        if self._sampler is None:
            self._sampler = prepare.ChainSampler(self.target)
        return tuple(int(t) for t in self._sampler.sample(1, length, rng)[0])


@dataclass(frozen=True)
class DecodeRequest:
    prompt: tuple[int, ...]
    seed: int
    max_tokens: int


@dataclass(frozen=True)
class TrainRequest:
    corpus: tuple[tuple[int, ...], ...]
    seed: int
    steps: int


@dataclass
class Result:
    """One request's output and timings. Its steps are decode cycles or
    optimizer steps; the first one is timed apart as first_ms."""

    wall_s: float = 0.0
    first_ms: float = 0.0
    step_ms: list = field(default_factory=list)  # every later step
    tokens: list = field(default_factory=list)   # decode output
    accepted: list = field(default_factory=list)
    emitted: list = field(default_factory=list)
    losses: list = field(default_factory=list)   # training log
    model: object = None
    error: str | None = None
    speed: float = 1.0  # scales this request's times to the reference speed

    @property
    def steps(self) -> int:
        return len(self.step_ms) + 1

    def same_output(self, other: "Result") -> bool:
        return self.tokens == other.tokens and self.losses == other.losses


def _load_trie(system: System, path: Path) -> None:
    before = resident_bytes()
    t0 = time.perf_counter()
    system.trie = load_trie(path)
    load_s = time.perf_counter() - t0
    nodes = system.trie.stats().node_count
    system.ngram = {
        "load_s": load_s,
        "nodes": nodes,
        "file_bytes": path.stat().st_size,
        "resident_bytes_per_node": (resident_bytes() - before) / nodes,
    }


class Workload:
    tag: int
    requests_per_s: float  # nominal, on the 2-core reference VM: sizes a run from --seconds

    def rng(self, seed: int, stream: int = 0) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, self.tag, stream])))

    def min_requests(self, seconds: float) -> int:
        return max(1, round(seconds * self.requests_per_s))


class DecodeWorkload(Workload):
    """Requests decoded one after another: a closed loop with one client."""

    def __init__(self, name, tag, target, trie, temperature, prompt_lengths,
                 max_tokens, drafter, requests_per_s):
        self.name = name
        self.tag = tag
        self.target_spec = target
        self.trie_name = trie
        self.temperature = temperature
        self.prompt_lengths = prompt_lengths
        self.max_tokens = max_tokens
        self.drafter = drafter  # "noisy-oracle" or "toy"
        self.requests_per_s = requests_per_s

    def setup(self, prep_dir: Path) -> System:
        system = System(prepare.make_target(self.target_spec))
        _load_trie(system, prep_dir / f"{self.trie_name}.trie")
        if self.drafter == "toy":
            system.toy_draft = ToyDraft.load(prep_dir / "toy_draft.npz")
        return system

    def corpus(self, prep_dir: Path) -> np.ndarray:
        return np.load(prep_dir / f"{self.trie_name}-corpus.npy")

    def request(self, system: System, rng: np.random.Generator, i: int) -> DecodeRequest:
        length = self.prompt_lengths[i % len(self.prompt_lengths)]
        return DecodeRequest(system.sample(rng, length),
                             int(rng.integers(2**31)), self.max_tokens)

    def warmup(self, req: DecodeRequest) -> DecodeRequest:
        return DecodeRequest(req.prompt, req.seed, 4)

    def make_drafter(self, system: System, seed: int):
        if self.drafter == "toy":
            return system.toy_draft
        return NoisyOracleDrafter(system.target, seed=seed)

    def drafter_class(self, system: System):
        return ToyDraft if self.drafter == "toy" else NoisyOracleDrafter

    def run(self, system: System, req: DecodeRequest) -> Result:
        cfg = engine.DecodeConfig(d=D, temperature=self.temperature,
                                  max_tokens=req.max_tokens, seed=req.seed, prune=PRUNE)
        drafter = self.make_drafter(system, req.seed)
        # A cycle's tokens are known once verify returns: its end stamps an
        # output burst. engine.verify may already be a tracer's wrapper.
        verify = engine.verify
        bursts = []

        def stamped(*args, **kwargs):
            result = verify(*args, **kwargs)
            bursts.append(time.perf_counter())
            return result

        engine.verify = stamped
        try:
            t0 = time.perf_counter()
            out, metrics = engine.decode(list(req.prompt), system.target, drafter,
                                         system.trie, cfg, measure_base=False)
            wall = time.perf_counter() - t0
        finally:
            engine.verify = verify
        if len(bursts) != len(metrics.records):
            raise RuntimeError(f"{len(bursts)} verify calls for {len(metrics.records)} cycles")
        return Result(wall_s=wall, first_ms=(bursts[0] - t0) * 1e3,
                      step_ms=list(np.diff(bursts) * 1e3),
                      tokens=list(out),
                      accepted=[r.accepted for r in metrics.records],
                      emitted=[r.emitted for r in metrics.records])

    def output_tokens(self, result: Result) -> int:
        return len(result.tokens)

    def check(self, system: System, requests, results) -> list[str | None]:
        """One verdict per request that ran."""
        V = system.target.vocab_size
        verdicts = [checks.decode_invariants(res.tokens, res.accepted, res.emitted,
                                             V, D, req.max_tokens)
                    for req, res in zip(requests, results)]
        if self.temperature == 0:
            return [v or checks.greedy_transcript(system.target, req.prompt, res.tokens)
                    for v, req, res in zip(verdicts, requests, results)]
        # The martingale test needs many tokens: it pools every request.
        pooled = checks.sampled_transcripts(
            system.target, [(req.prompt, res.tokens) for req, res in zip(requests, results)])
        return [v or pooled for v in verdicts]


class TrainWorkload(Workload):
    """Full-batch training of the toy drafter, each request on a fresh
    target-sampled corpus."""

    name = "train"
    tag = 4
    trie_name = None
    requests_per_s = 0.9

    def setup(self, prep_dir: Path) -> System:
        return System(prepare.make_target(prepare.CHAT_TARGET))

    def request(self, system: System, rng: np.random.Generator, i: int) -> TrainRequest:
        corpus = tuple(system.sample(rng, TRAIN_LENGTH)
                       for _ in range(TRAIN_SEQUENCES))
        return TrainRequest(corpus, int(rng.integers(2**31)), TRAIN_STEPS)

    def warmup(self, req: TrainRequest) -> TrainRequest:
        return TrainRequest(req.corpus, req.seed, 3)

    def drafter_class(self, system: System):
        return None

    def run(self, system: System, req: TrainRequest) -> Result:
        stamps = []
        log = []
        t0 = time.perf_counter()
        model = training.train_toy_draft(
            system.target, [list(s) for s in req.corpus], GAMMA, D, req.steps, LR,
            req.seed, log=log, eval_every=1,
            checkpoint_hook=lambda step, model, batch: stamps.append(time.perf_counter()))
        wall = time.perf_counter() - t0
        return Result(wall_s=wall, first_ms=(stamps[0] - t0) * 1e3,
                      step_ms=list(np.diff(stamps) * 1e3),
                      losses=[r.loss for r in log], model=model)

    def output_tokens(self, result: Result) -> int:
        """Training tokens processed: every corpus token, every step."""
        return result.steps * TRAIN_SEQUENCES * TRAIN_LENGTH

    def check(self, system: System, requests, results) -> list[str | None]:
        verdicts = []
        for req, res in zip(requests, results):
            verdict = checks.training_loss_fell(res.losses)
            if verdict is None:
                batch = training.build_training_batch(
                    system.target, [list(s) for s in req.corpus], D, GAMMA)
                _, grads, _ = training.batch_loss(res.model, batch)
                verdict = checks.gradient_matches(
                    lambda: training.batch_loss(res.model, batch, want_grads=False)[0],
                    res.model.params, grads,
                    np.random.Generator(np.random.PCG64(req.seed)))
            verdicts.append(verdict)
        return verdicts


SHORT_PROMPTS = (4, 8, 12, 16, 20, 24, 28, 32)
LONG_PROMPTS = tuple(1024 + 32 * i for i in range(8))

WORKLOADS = {w.name: w for w in [
    DecodeWorkload("chat-greedy", 1, prepare.CHAT_TARGET, "chat", 0.0, SHORT_PROMPTS,
                   16, "noisy-oracle", requests_per_s=7.2),
    DecodeWorkload("bytes-sampled", 2, prepare.BYTES_TARGET, "bytes", 1.0, SHORT_PROMPTS,
                   16, "noisy-oracle", requests_per_s=3.2),
    DecodeWorkload("long-context", 3, prepare.CHAT_TARGET, "chat", 0.0, LONG_PROMPTS,
                   8, "toy", requests_per_s=1.8),
    TrainWorkload(),
]}


def run_request(workload, system, req) -> Result:
    """Run one request; an exception is recorded as the request's failure."""
    try:
        return workload.run(system, req)
    except Exception:  # a failed request is counted, not fatal to the run
        return Result(error=traceback.format_exc(limit=3))
