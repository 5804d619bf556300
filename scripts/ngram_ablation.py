#!/usr/bin/env python3
"""Acceptance-length ablation: decode with the corpus trie vs the epsilon
floor, over seeded runs of a noisy drafter.

Continuity scoring both reranks noisy candidates and lets deep chains survive
the size cap, so the trie column should dominate the floor column.
"""

import argparse

import numpy as np

from specdraft.engine import DecodeConfig, decode
from specdraft.models import MarkovTarget, NoisyOracleDrafter
from specdraft.ngram import build_trie
from specdraft.tree import PruneConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--vocab-size", type=int, default=32)
    ap.add_argument("--max-tokens", type=int, default=60)
    ap.add_argument("--noise", type=float, default=1.0)
    args = ap.parse_args()

    target = MarkovTarget(17, args.vocab_size, 2, concentration=0.1)
    rng = np.random.default_rng(99)
    corpus = [target.sample_sequence(rng, 300) for _ in range(30)]
    trie = build_trie(corpus, 3, args.vocab_size)
    pc = PruneConfig(k=6, w=6, theta=12)

    print(f"{'seed':>5} {'tau w/ trie':>12} {'tau w/o':>8}")
    taus_t, taus_f = [], []
    for seed in range(args.runs):
        cfg = DecodeConfig(d=4, temperature=0.0, max_tokens=args.max_tokens,
                           seed=seed, prune=pc)
        _, m1 = decode([1, 2], target, NoisyOracleDrafter(target, noise=args.noise,
                                                          seed=seed),
                       trie, cfg, measure_base=False)
        _, m2 = decode([1, 2], target, NoisyOracleDrafter(target, noise=args.noise,
                                                          seed=seed),
                       None, cfg, measure_base=False)
        taus_t.append(m1.tau)
        taus_f.append(m2.tau)
        print(f"{seed:>5} {m1.tau:>12.3f} {m2.tau:>8.3f}")
    print(f"median w/ trie {np.median(taus_t):.3f} | w/o {np.median(taus_f):.3f}")


if __name__ == "__main__":
    main()
