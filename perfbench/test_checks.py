"""Self-tests of the benchmark's output checks: each passes a right output
and rejects a wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import prepare  # noqa: E402
import workloads  # noqa: E402
from specdraft import (  # noqa: E402
    ToyDraft,
    baseline_decode,
    build_trie,
)
from specdraft.training import batch_loss, build_training_batch  # noqa: E402


@pytest.fixture(scope="module")
def chat():
    return prepare.make_target(prepare.CHAT_TARGET)


@pytest.fixture(scope="module")
def byte_target():
    return prepare.make_target(prepare.BYTES_TARGET)


def _prompts(target, seed, lengths=workloads.SHORT_PROMPTS):
    rng = np.random.default_rng(seed)
    sampler = prepare.ChainSampler(target)
    return [tuple(sampler.sample(1, n, rng)[0].tolist()) for n in lengths]


def test_greedy_transcript_passes_baseline_and_rejects_a_flipped_token(chat):
    prompt = _prompts(chat, 0)[3]
    tokens = baseline_decode(prompt, chat, 64, temperature=0.0)
    assert checks.greedy_transcript(chat, prompt, tokens) is None
    flipped = list(tokens)
    flipped[17] = (flipped[17] + 1) % chat.vocab_size
    assert "token 17" in checks.greedy_transcript(chat, prompt, flipped)


def _round(target, temperature, seed):
    """A bytes-sampled run's requests, decoded by plain sampling at `temperature`."""
    workload = workloads.WORKLOADS["bytes-sampled"]
    run_seconds = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]
    system = workloads.System(target)
    rng = workload.rng(seed)
    requests = [workload.request(system, rng, i)
                for i in range(workload.min_requests(run_seconds))]
    return [(r.prompt, baseline_decode(r.prompt, target, r.max_tokens,
                                       temperature=temperature, seed=r.seed))
            for r in requests]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_martingale_passes_exact_sampling(byte_target, seed):
    assert checks.sampled_transcripts(byte_target, _round(byte_target, 1.0, seed)) is None


@pytest.mark.parametrize("temperature", [0.0, 0.8])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_martingale_rejects_tempered_and_greedy_sampling(byte_target, temperature, seed):
    assert checks.sampled_transcripts(byte_target, _round(byte_target, temperature, seed))


class _TwoTokenTarget:
    def next_dist(self, prefix, temperature=1.0):
        return np.array([0.5, 0.5, 0.0])


def test_martingale_rejects_a_zero_mass_token():
    assert checks.martingale_z(_TwoTokenTarget(), [((0,), [1, 0, 1])]) == 0.0
    assert checks.martingale_z(_TwoTokenTarget(), [((0,), [1, 2])]) == -np.inf


def _corpus(target, n_seq=20, length=200):
    return prepare.ChainSampler(target).sample(n_seq, length, np.random.default_rng(5))


def test_trie_matches_its_corpus(chat):
    corpus = _corpus(chat)
    trie = build_trie(corpus.tolist(), 3, chat.vocab_size)
    assert checks.trie_matches_corpus(trie, corpus, np.random.default_rng(0)) is None


def test_trie_with_one_count_off_by_one_is_rejected(chat):
    corpus = _corpus(chat)
    repeated = corpus[0, :3].tolist()  # an existing window, counted once more
    trie = build_trie(corpus.tolist() + [repeated], 3, chat.vocab_size)
    verdict = checks.trie_matches_corpus(trie, corpus, np.random.default_rng(0),
                                         n_contexts=10**6)
    assert verdict and "children_scores" in verdict


def test_trie_with_an_extra_node_is_rejected(chat):
    corpus = _corpus(chat)
    trie = build_trie(corpus.tolist() + [[63, 63, 63]], 3, chat.vocab_size)
    assert "nodes" in checks.trie_matches_corpus(trie, corpus, np.random.default_rng(0))


@pytest.fixture(scope="module")
def model_and_batch(chat):
    corpus = [list(p) for p in _prompts(chat, 9, [12] * 4)]
    batch = build_training_batch(chat, corpus, 4, 0.6)
    return ToyDraft(chat.vocab_size, chat.embeddings, seed=3), batch


def test_gradient_check_passes_analytic_and_rejects_perturbed(model_and_batch):
    model, batch = model_and_batch
    _, grads, _ = batch_loss(model, batch)

    def loss():
        return batch_loss(model, batch, want_grads=False)[0]

    assert checks.gradient_matches(loss, model.params, grads,
                                   np.random.default_rng(0)) is None
    perturbed = {name: g * (1 + 1e-3) for name, g in grads.items()}
    assert checks.gradient_matches(loss, model.params, perturbed, np.random.default_rng(0))


def test_loss_must_fall_by_the_margin():
    assert checks.training_loss_fell([4.4, 4.0, 3.1]) is None
    assert checks.training_loss_fell([4.4, 4.3, 4.1])


def test_decode_invariants():
    ok = checks.decode_invariants([1, 2, 3], [1, 0], [2, 1], 8, 4, 3)
    assert ok is None
    assert checks.decode_invariants([1, 9, 3], [1, 0], [2, 1], 8, 4, 3)
    assert checks.decode_invariants([1, 2, 3], [5, 0], [2, 1], 8, 4, 3)
    assert checks.decode_invariants([1, 2, 3], [1, 0], [2, 2], 8, 4, 3)
    assert checks.decode_invariants([1, 2], [1], [2], 8, 4, 3)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".prepared", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chat-greedy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_prepared_files_follow_the_code(tmp_path):
    (tmp_path / prepare.MANIFEST).write_text(json.dumps({"code": prepare.code_hash()}))
    assert prepare.is_prepared(tmp_path)
    (tmp_path / prepare.MANIFEST).write_text(json.dumps({"code": "0" * 64}))
    assert not prepare.is_prepared(tmp_path)


def _chain_z(target, seqs) -> float:
    """Martingale Z of each sequence's third token under its own context."""
    terms, variances = [], []
    for a, b, t in seqs[:, :3].tolist():
        p = target.next_dist([a, b], 1.0)
        logp = np.log(np.where(p > 0, p, 1.0))
        entropy = -(p * logp).sum()
        terms.append(logp[t] + entropy)
        variances.append((p * logp**2).sum() - entropy**2)
    return sum(terms) / np.sqrt(sum(variances))


def test_chain_sampler_follows_the_target(chat):
    seqs = prepare.ChainSampler(chat).sample(4000, 3, np.random.default_rng(2))
    assert abs(_chain_z(chat, seqs)) < checks.Z_LIMIT
    shifted = seqs.copy()
    shifted[:, 2] = (shifted[:, 2] + 1) % chat.vocab_size
    assert abs(_chain_z(chat, shifted)) > checks.Z_LIMIT
