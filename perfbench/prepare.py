"""Preparation: corpora, tries and model files that the workloads load.

These are made from fixed seeds that do not depend on the workload seed,
and are kept in ``perfbench/.prepared``. Corpora are sampled by the
benchmark itself from the target's conditionals, so a change to the
program's own samplers does not change the tries it is measured on. The
tries and the model file are written by the program, so the manifest holds
a hash of the program's source and of this file; when either changes,
everything is prepared again and the checks run on what the current code
wrote.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from specdraft import MarkovTarget, ToyDraft, build_trie, save_trie

TRIE_ORDER = 3

CHAT_TARGET = {"seed": 7, "vocab_size": 64, "order": 2, "concentration": 0.2}
BYTES_TARGET = {"seed": 11, "vocab_size": 256, "order": 2, "concentration": 0.05}

# name -> (target, sequences, sequence length, corpus seed)
TRIES = {
    "chat": (CHAT_TARGET, 30, 500, 101),
    "bytes": (BYTES_TARGET, 800, 2000, 202),
}
TOY_DRAFT_SEED = 303
MANIFEST = "manifest.json"
SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "specdraft"


def make_target(spec: dict) -> MarkovTarget:
    return MarkovTarget(spec["seed"], spec["vocab_size"], spec["order"],
                        spec["concentration"])


class ChainSampler:
    """Samples the target's order-2 chain: two uniform start tokens, then
    each token by inverse CDF of target.next_dist at its two-token context.

    A context's cumulative row is read from the target once, when first
    needed, and kept; a few short prompts keep only a few rows.
    """

    def __init__(self, target: MarkovTarget):
        self.target = target
        self.rows: dict[int, np.ndarray] = {}

    def _row(self, context: int) -> np.ndarray:
        row = self.rows.get(context)
        if row is None:
            V = self.target.vocab_size
            row = np.cumsum(self.target.next_dist([context // V, context % V], 1.0))
            row /= row[-1]
            self.rows[context] = row
        return row

    def sample(self, n_seq: int, length: int, rng: np.random.Generator) -> np.ndarray:
        """(n_seq, length) tokens, vectorised over sequences."""
        V = self.target.vocab_size
        seqs = np.empty((n_seq, length), dtype=np.int64)
        seqs[:, :2] = rng.integers(V, size=(n_seq, min(2, length)))
        for j in range(2, length):
            contexts = (seqs[:, j - 2] * V + seqs[:, j - 1]).tolist()
            cum = np.array([self._row(c) for c in contexts])
            u = rng.random(n_seq)[:, None]
            seqs[:, j] = np.minimum((cum <= u).sum(axis=1), V - 1)
        return seqs


def time_build_and_save(corpus: np.ndarray, vocab_size: int, path: Path):
    """(build seconds, save seconds) for one corpus's trie, saved to path."""
    t0 = time.perf_counter()
    trie = build_trie(corpus.tolist(), TRIE_ORDER, vocab_size)
    t1 = time.perf_counter()
    save_trie(trie, path)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def code_hash() -> str:
    """SHA-256 over the program's source files and this file."""
    h = hashlib.sha256()
    for path in [*sorted(SOURCE_DIR.rglob("*.py")), Path(__file__).resolve()]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def is_prepared(prep_dir: Path) -> bool:
    """Whether the manifest exists and was written by the current code."""
    try:
        manifest = json.loads((prep_dir / MANIFEST).read_text())
    except (OSError, ValueError):
        return False
    return manifest.get("code") == code_hash()


def prepare(prep_dir: Path) -> None:
    """Write every artefact, then the manifest that marks them complete."""
    prep_dir.mkdir(parents=True, exist_ok=True)
    (prep_dir / MANIFEST).unlink(missing_ok=True)
    for name, (spec, n_seq, length, seed) in TRIES.items():
        target = make_target(spec)
        corpus = ChainSampler(target).sample(
            n_seq, length, np.random.Generator(np.random.PCG64(seed)))
        np.save(prep_dir / f"{name}-corpus.npy", corpus)
        time_build_and_save(corpus, spec["vocab_size"], prep_dir / f"{name}.trie")
    chat = make_target(CHAT_TARGET)
    ToyDraft(chat.vocab_size, chat.embeddings, seed=TOY_DRAFT_SEED).save(
        prep_dir / "toy_draft.npz")
    (prep_dir / MANIFEST).write_text(json.dumps({"code": code_hash()}))
