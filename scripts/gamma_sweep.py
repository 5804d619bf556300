#!/usr/bin/env python3
"""Annealing-coefficient sweep: train one drafter per gamma and tabulate
per-position accuracy plus the decode acceptance length.

Smaller gamma concentrates the KL weights on early positions; the sweep shows
the early-vs-late accuracy trade-off and where tau lands.
"""

import argparse

import numpy as np

from specdraft.engine import DecodeConfig, decode
from specdraft.models import MarkovTarget
from specdraft.ngram import build_trie
from specdraft.training import evaluate_alpha, train_toy_draft
from specdraft.tree import PruneConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gammas", default="0.5,0.6,0.7,0.8,0.9,1.0")
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--vocab-size", type=int, default=8)
    ap.add_argument("--order", type=int, default=2)
    ap.add_argument("--d", type=int, default=6)
    ap.add_argument("--steps", type=int, default=350)
    ap.add_argument("--lr", type=float, default=0.1)
    args = ap.parse_args()

    gammas = [float(g) for g in args.gammas.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    target = MarkovTarget(5, args.vocab_size, args.order, concentration=0.3)
    rng = np.random.default_rng(0)
    corpus = [target.sample_sequence(rng, 16) for _ in range(16)]
    heldout = [target.sample_sequence(rng, 16) for _ in range(150)]
    trie = build_trie(corpus, 3, args.vocab_size)
    pc = PruneConfig(k=min(6, args.vocab_size), w=6, theta=12)

    print(f"{'gamma':>6} " + " ".join(f"{'a-' + str(t + 1):>7}"
                                      for t in range(args.d)) + f" {'tau':>6}")
    for gamma in gammas:
        alphas = []
        taus = []
        for seed in seeds:
            model = train_toy_draft(target, corpus, gamma, args.d, args.steps,
                                    args.lr, seed)
            alphas.append(evaluate_alpha(model, target, heldout, args.d))
            cfg = DecodeConfig(d=args.d, temperature=0.0, max_tokens=48,
                               seed=seed, prune=pc)
            _, metrics = decode(heldout[seed][:3], target, model, trie, cfg,
                                measure_base=False)
            taus.append(metrics.tau)
        mean_alpha = np.mean(alphas, axis=0)
        print(f"{gamma:>6.2f} " + " ".join(f"{100 * a:>6.1f}%" for a in mean_alpha)
              + f" {np.mean(taus):>6.2f}")


if __name__ == "__main__":
    main()
