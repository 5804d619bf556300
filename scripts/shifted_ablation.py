#!/usr/bin/env python3
"""Shifted vs unshifted logit reading, trained head to head on the same data.

Shifted reads the prediction for future position t from input position
n+t-1, so the first future token is predicted from the content-rich last
prefix position; unshifted reads every prediction from mask positions.
"""

import argparse

import numpy as np

from specdraft.models import MarkovTarget
from specdraft.training import evaluate_alpha, train_toy_draft


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--steps", type=int, default=250)
    args = ap.parse_args()

    target = MarkovTarget(5, 8, 2, concentration=0.3)
    rng = np.random.default_rng(0)
    corpus = [target.sample_sequence(rng, 16) for _ in range(16)]
    heldout = [target.sample_sequence(rng, 16) for _ in range(150)]

    header = " ".join(f"{'a-' + str(t + 1):>7}" for t in range(args.d))
    print(f"{'mode':>10} {'seed':>4} " + header)
    for seed in [int(s) for s in args.seeds.split(",")]:
        for shifted in (True, False):
            model = train_toy_draft(target, corpus, 0.6, args.d, args.steps,
                                    0.1, seed, shifted=shifted)
            alpha = evaluate_alpha(model, target, heldout, args.d)
            name = "shifted" if shifted else "unshifted"
            print(f"{name:>10} {seed:>4} "
                  + " ".join(f"{100 * a:>6.1f}%" for a in alpha))


if __name__ == "__main__":
    main()
