#!/usr/bin/env python3
"""DART's three ablations on toy Markov targets, printed as one JSON object.

- "gamma_sweep": one drafter per annealing coefficient gamma and seed, with
  held-out accuracy per future position (alpha) and greedy tau. Smaller gamma
  concentrates the KL weights on early positions.
- "shifted": shifted against unshifted logit reading, trained head to head.
  Shifted reads future position t from input position n+t-1, so the first
  future token comes from the content-rich last prefix position.
- "ngram": greedy tau of a noisy drafter with the corpus trie against the
  epsilon floor. Continuity scoring reranks noisy candidates and lets deep
  chains survive the size cap.

Each section holds its fixed setup and its deterministic results; every
wall time sits under "timing", so two runs agree once it is dropped.

    PYTHONPATH=src python scripts/reproduce.py [--quick]
"""

import argparse
import json
import time
from dataclasses import asdict

import numpy as np

from specdraft.engine import DecodeConfig, decode
from specdraft.models import MarkovTarget, NoisyOracleDrafter
from specdraft.ngram import build_trie
from specdraft.training import evaluate_alpha, train_toy_draft
from specdraft.tree import PruneConfig

# The target and data that the gamma sweep and the shifted ablation share.
SHARED = {"target": {"seed": 5, "vocab_size": 8, "order": 2, "concentration": 0.3},
          "data_seed": 0, "corpus": [16, 16], "heldout": [150, 16]}
NGRAM = {"target": {"seed": 17, "vocab_size": 32, "order": 2, "concentration": 0.1},
         "data_seed": 99, "corpus": [30, 300], "trie_order": 3, "prompt": [1, 2],
         "d": 4, "noise": 1.0}
SWEEP = {"trie_order": 3, "prompt_tokens": 3, "max_tokens": 48}
PRUNE = PruneConfig(k=6, w=6, theta=12)
LR = 0.1
SHIFTED_GAMMA = 0.6
FULL = {"gammas": [0.5, 0.6, 0.7, 0.8, 0.9, 1.0], "seeds": [1, 2, 3], "sweep_d": 6,
        "sweep_steps": 350, "shifted_d": 4, "shifted_steps": 250, "runs": 20,
        "max_tokens": 60}
QUICK = {"gammas": [0.6], "seeds": [1], "sweep_d": 3, "sweep_steps": 5, "shifted_d": 3,
         "shifted_steps": 5, "runs": 2, "max_tokens": 10}


def toy_data(setup, *sets):
    """The setup's target and one list of sampled sequences per (count, length)."""
    target = MarkovTarget(**setup["target"])
    rng = np.random.default_rng(setup["data_seed"])
    return target, [[target.sample_sequence(rng, length) for _ in range(count)]
                    for count, length in sets]


def gamma_sweep(target, corpus, heldout, gammas, seeds, d, steps):
    trie = build_trie(corpus, SWEEP["trie_order"], target.vocab_size)
    results = []
    for gamma in gammas:
        alphas, taus = [], []
        for seed in seeds:
            model = train_toy_draft(target, corpus, gamma, d, steps, LR, seed)
            alphas.append(evaluate_alpha(model, target, heldout, d))
            cfg = DecodeConfig(d=d, temperature=0.0, max_tokens=SWEEP["max_tokens"], seed=seed,
                               prune=PRUNE)
            prompt = heldout[seed][:SWEEP["prompt_tokens"]]
            _, metrics = decode(prompt, target, model, trie, cfg, measure_base=False)
            taus.append(metrics.tau)
        results.append({"gamma": gamma, "alpha": np.mean(alphas, axis=0).tolist(),
                         "tau": float(np.mean(taus))})
    setup = {**SHARED, **SWEEP, "gammas": gammas, "seeds": seeds, "d": d, "steps": steps,
             "lr": LR, "prune": asdict(PRUNE)}
    return {"setup": setup, "results": results}


def shifted_ablation(target, corpus, heldout, seeds, d, steps):
    results = []
    for seed in seeds:
        for shifted in (True, False):
            model = train_toy_draft(target, corpus, SHIFTED_GAMMA, d, steps, LR, seed,
                                    shifted=shifted)
            results.append({"seed": seed, "shifted": shifted,
                            "alpha": evaluate_alpha(model, target, heldout, d)})
    setup = {**SHARED, "seeds": seeds, "gamma": SHIFTED_GAMMA, "d": d, "steps": steps, "lr": LR}
    return {"setup": setup, "results": results}


def ngram_ablation(runs, max_tokens):
    target, (corpus,) = toy_data(NGRAM, NGRAM["corpus"])
    tries = {"trie": build_trie(corpus, NGRAM["trie_order"], target.vocab_size), "floor": None}
    taus = {name: [] for name in tries}
    for seed in range(runs):
        cfg = DecodeConfig(d=NGRAM["d"], temperature=0.0, max_tokens=max_tokens, seed=seed,
                           prune=PRUNE)
        for name, trie in tries.items():
            drafter = NoisyOracleDrafter(target, noise=NGRAM["noise"], seed=seed)
            _, metrics = decode(NGRAM["prompt"], target, drafter, trie, cfg, measure_base=False)
            taus[name].append(metrics.tau)
    results = {**{f"tau_{name}": tau for name, tau in taus.items()},
               **{f"median_tau_{name}": float(np.median(tau)) for name, tau in taus.items()}}
    setup = {**NGRAM, "seeds": list(range(runs)), "max_tokens": max_tokens,
             "prune": asdict(PRUNE)}
    return {"setup": setup, "results": results}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true", help="small sizes, for a smoke test")
    sizes = QUICK if ap.parse_args().quick else FULL
    timing, report = {}, {}

    def run(name, section, *args):
        start = time.perf_counter()
        report[name] = section(*args)
        timing[f"{name}_s"] = time.perf_counter() - start

    start = time.perf_counter()
    target, (corpus, heldout) = toy_data(SHARED, SHARED["corpus"], SHARED["heldout"])
    timing["shared_setup_s"] = time.perf_counter() - start
    run("gamma_sweep", gamma_sweep, target, corpus, heldout, sizes["gammas"], sizes["seeds"],
        sizes["sweep_d"], sizes["sweep_steps"])
    run("shifted", shifted_ablation, target, corpus, heldout, sizes["seeds"],
        sizes["shifted_d"], sizes["shifted_steps"])
    run("ngram", ngram_ablation, sizes["runs"], sizes["max_tokens"])
    print(json.dumps({**report, "timing": timing}, indent=2))


if __name__ == "__main__":
    main()
