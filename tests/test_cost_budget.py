"""Deterministic cost budgets: work counts of a fixed decode, pinned as ceilings.

Wall-clock runs on a shared machine cannot resolve a few percent, but the
work a seeded decode does repeats exactly. A chat-shaped decode (V=64
order-2 `MarkovTarget`, `NoisyOracleDrafter`, an order-3 trie over its own
seeded 30 x 500 corpus, the reference k=25, w=20, theta=59 and d=8, T=0)
is run twice, counting per prune the levels it expands and the expansions
`combine` scores. Both must repeat exactly and stay at or below ceilings
recorded when the trie's unigram back-off went in; a change that lowers them
lowers the ceilings, and one that raises them says why.
"""

import numpy as np

from specdraft import engine
from specdraft import tree as tree_module
from specdraft.engine import DecodeConfig, decode
from specdraft.models import MarkovTarget, NoisyOracleDrafter
from specdraft.ngram import build_trie
from specdraft.tree import PruneConfig

# Measured at the ceilings' commit: 65 levels and 13,900 expansions over 21
# prunes. With the ε floor in place of the back-off the same decode read 158
# levels and 41,500 expansions over 24 prunes (6.58 and 1,729 per prune).
LEVELS_PER_PRUNE = 3.1
EXPANSIONS_PER_PRUNE = 662


def _prune_counts(monkeypatch, target, trie, prompt):
    """Per prune of one decode: (levels expanded, expansions scored), taken
    from the combine calls on arrays; the bound's calls on scalars are not
    expansions."""
    counts = []
    combine, prune = tree_module.combine, engine.prune

    def counted(s_logit, s_ng, level):
        if np.ndim(s_logit):
            levels, expansions = counts[-1]
            counts[-1] = (levels + 1, expansions + np.broadcast(s_logit, s_ng).size)
        return combine(s_logit, s_ng, level)

    def pruned(*args):
        counts.append((0, 0))
        return prune(*args)

    monkeypatch.setattr(tree_module, "combine", counted)
    monkeypatch.setattr(engine, "prune", pruned)
    cfg = DecodeConfig(d=8, temperature=0.0, max_tokens=45, seed=3,
                       prune=PruneConfig(k=25, w=20, theta=59))
    _, metrics = decode(prompt, target, NoisyOracleDrafter(target, seed=3), trie, cfg,
                        measure_base=False)
    monkeypatch.undo()
    assert len(counts) == metrics.cycles
    return counts


def test_chat_shaped_prune_stays_within_its_work_ceilings(monkeypatch):
    target = MarkovTarget(7, 64, 2, concentration=0.2)
    rng = np.random.default_rng(101)
    trie = build_trie([target.sample_sequence(rng, 500) for _ in range(30)], 3, 64)
    prompt = target.sample_sequence(np.random.default_rng(1), 16)
    counts = _prune_counts(monkeypatch, target, trie, prompt)
    assert counts == _prune_counts(monkeypatch, target, trie, prompt)
    assert len(counts) >= 15
    levels, expansions = np.sum(counts, axis=0) / len(counts)
    assert levels <= LEVELS_PER_PRUNE, levels
    assert expansions <= EXPANSIONS_PER_PRUNE, expansions
