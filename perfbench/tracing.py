"""Spans around the program's public calls, recorded from outside the package.

Tracer.install() replaces each traced function, wherever a specdraft module
holds a reference to it, and each traced method on its class, with a wrapper
that records (name, start, end, parent, size); uninstall() puts the
originals back. Calls too frequent for a span, such as scoring one tree
expansion, are only counted. Spans live in flat integer arrays, which the
garbage collector does not traverse, so tracing adds as little as it can to
the GC pauses it also records through gc.callbacks.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array

import numpy as np

from specdraft import MarkovTarget, NgramTrie

# Module-level functions, by defining module.
FUNCTIONS = {
    "decode": "specdraft.engine",
    "verify": "specdraft.engine",
    "prune": "specdraft.tree",
    "linearize": "specdraft.tree",
    "batch_loss": "specdraft.training",
    "build_training_batch": "specdraft.training",
    "train_toy_draft": "specdraft.training",
}
# Functions that are only counted, by defining module: tree.combine scores
# one expansion of a beam candidate by one top-k token.
COUNTED = {
    "combine": "specdraft.tree",
}
# Methods, by class. The drafter's class is added per run as "predict".
METHODS = {
    "features": (MarkovTarget, "features"),
    "next_dist": (MarkovTarget, "next_dist"),
    "children_scores": (NgramTrie, "children_scores"),
}
# Calls whose result size is kept: tree nodes, and continuations found.
SIZED = {"prune", "children_scores"}
NAMES = [*FUNCTIONS, *METHODS, "predict"]


class Tracer:
    def __init__(self):
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.size = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.calls = dict.fromkeys(COUNTED, 0)
        self._gc_start = 0
        self.gc_ns = 0
        self.gc_collections = [0, 0, 0]

    def _wrap(self, name: str, fn):
        code = NAMES.index(name)
        sized = name in SIZED
        names, starts, ends, parents, sizes = (
            self.name, self.start, self.end, self.parent, self.size)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0)
            sizes.append(-1)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if sized:
                sizes[i] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections[info["generation"]] += 1

    def install(self, drafter_class=None) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "specdraft" or name.startswith("specdraft."))]
        wrappers = [(name, home, self._wrap) for name, home in FUNCTIONS.items()]
        wrappers += [(name, home, self._count) for name, home in COUNTED.items()]
        for name, home, wrap in wrappers:
            original = getattr(sys.modules[home], name, None)
            if original is None:
                continue
            traced = wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, traced)
        methods = dict(METHODS)
        if drafter_class is not None:
            methods["predict"] = (drafter_class, "predict")
        for name, (cls, attr) in methods.items():
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, loop_steps: int) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    loop_steps counts the decode cycles or optimizer steps of that pass.
    A layer the workload never calls reads 0.
    """
    name = np.frombuffer(tracer.name, dtype=np.int64)
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    size = np.frombuffer(tracer.size, dtype=np.int64)
    ms = (end - start) / 1e6
    nested = parent >= 0
    child_ms = np.bincount(parent[nested], weights=ms[nested], minlength=len(ms))
    self_ms = ms - child_ms[: len(ms)]

    def of(label):
        return np.flatnonzero(name == NAMES.index(label))

    # A decode cycle runs from one features call to the next (or decode's
    # end); what its stage calls do not cover is the loop's own time.
    loop_ms = []
    for d in of("decode"):
        kids = np.flatnonzero(parent == d)
        firsts = kids[name[kids] == NAMES.index("features")]
        bounds = [*start[firsts[1:]], end[d]]
        for first, stop in zip(firsts, bounds):
            inside = kids[(start[kids] >= start[first]) & (end[kids] <= stop)]
            loop_ms.append((stop - start[first]) / 1e6 - ms[inside].sum())

    # Between one optimizer step's loss call and the next lies the update.
    update_ms = []
    for t in of("train_toy_draft"):
        kids = np.flatnonzero(parent == t)
        steps = kids[name[kids] == NAMES.index("batch_loss")]
        update_ms += list((start[steps[1:]] - end[steps[:-1]]) / 1e6)

    per_step = 1.0 / max(loop_steps, 1)
    prune, lookups = of("prune"), of("children_scores")
    return {
        "tree.prune_ms.p50": _pct(ms[prune], 50),
        "tree.prune_ms.p90": _pct(ms[prune], 90),
        "tree.prune_self_ms.p50": _pct(self_ms[prune], 50),
        "tree.linearize_ms.p50": _pct(ms[of("linearize")], 50),
        "tree.nodes_per_tree": float(size[prune].mean()) if len(prune) else 0.0,
        "tree.expansions_per_cycle": tracer.calls["combine"] * per_step,
        "ngram.children_scores_us.p50": _pct(ms[lookups], 50) * 1e3,
        "ngram.children_scores_us.p90": _pct(ms[lookups], 90) * 1e3,
        "ngram.calls_per_cycle": len(lookups) * per_step,
        "ngram.hit_rate": float((size[lookups] > 0).mean()) if len(lookups) else 0.0,
        "models.features_ms.p50": _pct(ms[of("features")], 50),
        "models.features_ms.p90": _pct(ms[of("features")], 90),
        "models.predict_ms.p50": _pct(ms[of("predict")], 50),
        "models.predict_ms.p90": _pct(ms[of("predict")], 90),
        "models.next_dist_calls_per_cycle": len(of("next_dist")) * per_step,
        "models.next_dist_us.p50": _pct(ms[of("next_dist")], 50) * 1e3,
        "engine.verify_ms.p50": _pct(ms[of("verify")], 50),
        "engine.verify_ms.p90": _pct(ms[of("verify")], 90),
        "engine.loop_ms.p50": _pct(loop_ms, 50),
        "runtime.gc_ms_per_cycle": tracer.gc_ns / 1e6 * per_step,
        "runtime.gc_gen2_collections": tracer.gc_collections[2],
        "training.batch_loss_ms.p50": _pct(ms[of("batch_loss")], 50),
        "training.batch_loss_ms.p90": _pct(ms[of("batch_loss")], 90),
        "training.build_batch_s": _pct(ms[of("build_training_batch")], 50) / 1e3,
        "training.update_ms.p50": _pct(update_ms, 50),
    }
