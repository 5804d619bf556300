#!/usr/bin/env python3
"""Seven SHA-256 digests over decodes, evaluate_alpha, training, the CLI, cold target rows and tries.

A refactor that must not change any output prints the same digests before
and after it. The decodes cover a V=64 target with short prompts, a V=256
target with short prompts and the V=64 target with prompts of about
--long-prompt tokens. Each runs at T=0 and T=1, with a seeded ToyDraft
(trained a few steps) and with NoisyOracleDrafter, over an order-3 trie at
the reference operating point (k=25, w=20, theta=59, d=8). The first digest
covers every draft tree's parent, token, level and score arrays, every
transcript, every non-timing CycleRecord field, the drafters' trained
parameters, the training batch's features and evaluate_alpha against the
data and against the greedy chain. The second digest covers the same
decodes with the reference drafters: OracleDrafter, AdversarialDrafter and
UniformDrafter. The third covers baseline_decode's transcripts of the same
prompts at T=0 and T=1, with the same seeds. The fourth covers training at
the benchmark's train shape (16 sequences of 24 tokens, V=64, d=8, 25
steps), shifted and unshifted: every logged loss, the final parameters and
one batch_loss's loss and grads on each trained model. The fifth covers the
command line's training path, run in a temporary directory on a config that
sets no draft length, so d is the default 8: the training log of `train-toy
--eval-every 10` (V=64, 8 corpus and 4 held-out sequences of 16 tokens, 20
steps), the saved model's arrays and the output of `eval --drafter toy
--jsonl --tau-prompts 2` without a trie. The sixth covers raw cold rows:
the transition and feature rows of a V=64 and a V=256 target whose seed is
2**32 + --seed, so that it is two seed words, met in a fixed order of calls
that draws some contexts together and some one at a time, each in the order
it was drawn. The seventh covers the node tables of order-3 tries built from
seeded corpora of an order-1 V=64 and V=256 target at concentration 0.05:
every node's key, count and score bits. Their near-deterministic rows give
many count ratios just below 1, where np.log misses most often, and the
line counts the nodes whose count ratio r has a vectorized np.log(r + 1e-9)
that differs from math.log's: the scores a table must correct. Targets,
tries and drafters are built in process, so nothing needs preparing.

    PYTHONPATH=src python scripts/transcript_digest.py --seed 1
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from specdraft import cli, engine
from specdraft.engine import DecodeConfig, baseline_decode
from specdraft.models import (
    AdversarialDrafter,
    MarkovTarget,
    NoisyOracleDrafter,
    OracleDrafter,
    UniformDrafter,
)
from specdraft.ngram import build_trie
from specdraft.training import (
    batch_loss,
    build_training_batch,
    evaluate_alpha,
    train_toy_draft,
)
from specdraft.tree import ROOT_ID, DraftTree, PruneConfig

D = 8
PRUNE = PruneConfig(k=25, w=20, theta=59)
MAX_TOKENS = 48
TRAIN_SEQUENCES, TRAIN_LENGTH, TRAIN_STEPS = 16, 24, 25


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.trees = 0

    def ints(self, values):
        self.sha.update(np.asarray(values, dtype=np.int64).tobytes())

    def floats(self, values):
        self.sha.update(np.asarray(values, dtype=np.float64).tobytes())


def decode_all(digest, target, trie, drafters, prompts, seed):
    """Decode every prompt with every drafter at T=0 and T=1, hashing the
    trees verify walks, the transcripts and the cycle records."""
    verify = engine.verify

    def hashed(tree, *args, **kwargs):
        digest.ints([len(tree)])
        for arr in (tree.parent, tree.token, tree.level):
            digest.ints(arr)
        digest.floats(tree.score)
        digest.trees += 1
        return verify(tree, *args, **kwargs)

    engine.verify = hashed
    try:
        for temperature in (0.0, 1.0):
            for name, make in drafters:
                for i, prompt in enumerate(prompts):
                    cfg = DecodeConfig(d=D, temperature=temperature, max_tokens=MAX_TOKENS,
                                       seed=seed + i, prune=PRUNE)
                    out, metrics = engine.decode(prompt, target, make(seed + i), trie, cfg,
                                                 measure_base=False)
                    digest.sha.update(name.encode())
                    digest.ints(out)
                    for r in metrics.records:
                        digest.ints([r.cycle, r.accepted, r.emitted, *r.nodes_per_level])
                    digest.floats([metrics.tau, *metrics.accept_rates])
    finally:
        engine.verify = verify


def baseline_all(digest, target, prompts, seed):
    """Plain decoding of every prompt at T=0 and T=1, hashing the transcripts."""
    for temperature in (0.0, 1.0):
        for i, prompt in enumerate(prompts):
            digest.ints(baseline_decode(prompt, target, MAX_TOKENS,
                                        temperature=temperature, seed=seed + i))


def training_all(digest, target, seed):
    """Train on a fresh corpus at the benchmark's train shape, shifted and
    unshifted, hashing the log, the final parameters and one batch_loss."""
    rng = np.random.default_rng([seed, target.vocab_size, 2])
    corpus = [target.sample_sequence(rng, TRAIN_LENGTH) for _ in range(TRAIN_SEQUENCES)]
    for shifted in (True, False):
        log = []
        model = train_toy_draft(target, corpus, 0.6, D, steps=TRAIN_STEPS, lr=0.1, seed=seed,
                                shifted=shifted, log=log)
        digest.floats([r.loss for r in log])
        batch = build_training_batch(target, corpus, D, 0.6, shifted=shifted)
        loss, grads, floored = batch_loss(model, batch)
        digest.floats([loss])
        digest.ints([floored])
        for name in sorted(model.params):
            digest.floats(model.params[name])
            digest.floats(grads[name])


def run_cli(*argv) -> str:
    """cli.main's standard output for argv; a failed command ends the script."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise SystemExit(f"{argv[0]} exited {code}: {err.getvalue()}")
    return out.getvalue()


def cli_all(digest, seed):
    """train-toy then eval through cli.main, hashing the training log, the
    saved model's arrays and eval's output."""
    with tempfile.TemporaryDirectory() as tmp:
        model_path, log_path, config = (Path(tmp) / name
                                        for name in ("toy.npz", "log.jsonl", "cfg.json"))
        config.write_text(json.dumps({
            "seed": seed,
            "target": {"seed": seed, "vocab_size": 64, "order": 2, "concentration": 0.3},
            "training": {"steps": 20, "sequence_length": 16, "corpus_sequences": 8,
                         "heldout_sequences": 4},
            "paths": {"model": str(model_path)},
        }))
        run_cli("train-toy", "--config", str(config), "--log", str(log_path),
                "--eval-every", "10")
        digest.sha.update(log_path.read_bytes())
        with np.load(model_path) as arrays:
            for name in sorted(arrays.files):
                digest.sha.update(name.encode())
                digest.sha.update(arrays[name].tobytes())
        digest.sha.update(run_cli("eval", "--config", str(config), "--drafter", "toy",
                                  "--jsonl", "--tau-prompts", "2").encode())


def chain(tokens):
    """The draft tree whose nodes are `tokens`, each the child of the one before."""
    n = len(tokens)
    return DraftTree(np.arange(-1, n - 1), tokens, np.arange(n), np.zeros(n))


def cold_rows(digest, seed):
    """Draw cold rows of two targets by calls that meet many new contexts
    (drawn together), few (drawn one at a time) and some seen already,
    then hash every transition row and feature row in the order drawn."""
    for vocab_size in (64, 256):
        target = MarkovTarget(2 ** 32 + seed, vocab_size, 2, concentration=0.3)
        rng = np.random.default_rng([seed, vocab_size, 3])
        prompt = [int(t) for t in rng.integers(0, vocab_size, size=40)]
        target.next_dist(prompt[:3])
        target.tree_dists(prompt[:1], chain(prompt[1:24]))  # the rows of prompt[:1] .. [:24]
        target.rollout(prompt, 6, np.argmax)
        target.tree_dists(prompt[:1], chain(prompt[1:28]))
        parent, level = [int(rng.integers(ROOT_ID, i)) if i else ROOT_ID for i in range(30)], []
        for p in parent:
            level.append(0 if p == ROOT_ID else level[p] + 1)
        tree = DraftTree(parent, rng.integers(0, vocab_size, size=30), level, np.zeros(30))
        target.tree_dists(prompt, tree)
        target.features(prompt[:5])
        target.features(prompt)
        target.features(prompt + target.rollout(prompt, 3, np.argmax), len(prompt))
        for row in target._rows.values():
            digest.floats(row)
        digest.floats(target._table[:len(target._slot)])


def node_tables(digest, seed):
    """Build order-3 tries from seeded corpora of two targets and hash every
    node's key, count and score bits; returns how many nodes hold a count
    ratio whose vectorized np.log differs from math.log."""
    misses = 0
    for vocab_size, sequences in ((64, 8), (256, 16)):
        target = MarkovTarget(seed, vocab_size, 1, concentration=0.05)
        rng = np.random.default_rng([seed, vocab_size, 4])
        trie = build_trie([target.sample_sequence(rng, 1000) for _ in range(sequences)], 3,
                          vocab_size)
        digest.ints(trie.keys)
        digest.ints(trie.node_counts)
        digest.floats(trie.node_scores)
        ratios = []
        for ctx in {ctx[:n] for ctx in trie.contexts() for n in range(trie.order)}:
            counts = list(trie.counts(ctx).values())
            total = sum(counts)
            ratios += [c / total + 1e-9 for c in counts]
        misses += int((np.log(ratios) != [math.log(r) for r in ratios]).sum())
    return misses


def system(digest, seed, vocab_size):
    """(target, trie, trained toy drafter, held-out sequences) of one vocabulary."""
    target = MarkovTarget(seed, vocab_size, 2, concentration=0.3)
    rng = np.random.default_rng([seed, vocab_size])
    trie = build_trie([target.sample_sequence(rng, 300) for _ in range(10)], 3, vocab_size)
    corpus = [target.sample_sequence(rng, 24) for _ in range(8)]
    digest.floats(build_training_batch(target, corpus, D, 0.6).feats)
    model = train_toy_draft(target, corpus, 0.6, D, steps=10, lr=0.1, seed=seed)
    for name in sorted(model.params):
        digest.floats(model.params[name])
    heldout = [target.sample_sequence(rng, 20) for _ in range(3)]
    return target, trie, model, heldout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--requests", type=int, default=2, help="prompts per shape")
    ap.add_argument("--long-prompt", type=int, default=1024,
                    help="length of the long-context prompts")
    args = ap.parse_args(argv)

    digest, reference, baseline, training, command_line, cold, tables = (Digest()
                                                                         for _ in range(7))
    for vocab_size in (64, 256):
        target, trie, model, heldout = system(digest, args.seed, vocab_size)
        drafters = [("toy", lambda s: model),
                    ("noisy-oracle", lambda s: NoisyOracleDrafter(target, seed=s))]
        rng = np.random.default_rng([args.seed, vocab_size, 1])
        lengths = [int(rng.integers(4, 17)) for _ in range(args.requests)]
        if vocab_size == 64:
            lengths += [args.long_prompt + 8 * i for i in range(args.requests)]
        prompts = [target.sample_sequence(rng, n) for n in lengths]
        decode_all(digest, target, trie, drafters, prompts, args.seed)
        references = [("oracle", lambda s: OracleDrafter(target)),
                      ("adversarial", lambda s: AdversarialDrafter(target)),
                      ("uniform", lambda s: UniformDrafter(vocab_size, seed=s))]
        decode_all(reference, target, trie, references, prompts, args.seed)
        baseline_all(baseline, target, prompts, args.seed)
        if vocab_size == 64:
            training_all(training, target, args.seed)
        for vs_greedy in (False, True):
            digest.floats(evaluate_alpha(model, target, heldout, D, vs_greedy=vs_greedy))
    print(f"{digest.sha.hexdigest()}  ({digest.trees} trees)")
    print(f"{reference.sha.hexdigest()}  ({reference.trees} trees, reference drafters)")
    print(f"{baseline.sha.hexdigest()}  (baseline_decode)")
    print(f"{training.sha.hexdigest()}  (training)")
    cli_all(command_line, args.seed)
    print(f"{command_line.sha.hexdigest()}  (train-toy and eval)")
    cold_rows(cold, args.seed)
    print(f"{cold.sha.hexdigest()}  (cold target rows)")
    misses = node_tables(tables, args.seed)
    print(f"{tables.sha.hexdigest()}  (trie node tables, {misses} nodes where np.log misses math.log)")


if __name__ == "__main__":
    main()
