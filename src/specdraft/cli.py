"""Command-line surface: trie building, decoding, benchmarking, toy training.

One JSON configuration file drives every command; defaults equal the
reference constants (k=25, w=20, theta=59, gamma=0.6, d=8) and any
dotted key can be overridden on the command line with --override. Exit codes:
0 success, 2 configuration errors, 3 I/O and file-format errors, 4 training
divergence. A command opens only the files it uses, the config's `paths`
included, and a missing one is an I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .engine import DecodeConfig, baseline_decode, decode, estimate_speedup
from .errors import (
    ConfigError,
    ModelFormatError,
    TrainingDivergedError,
    TrieFormatError,
    check_bool,
    check_int,
    check_number,
)
from .models import (
    AdversarialDrafter,
    MarkovTarget,
    NoisyOracleDrafter,
    OracleDrafter,
    ToyDraft,
    UniformDrafter,
)
from .ngram import (
    NgramTrie,
    build_trie,
    load_trie,
    read_lines,
    read_text_corpus,
    read_token_corpus,
    save_trie,
    tokenize_bytes,
)
from .tree import PruneConfig
from .training import TrainingLogRecord, evaluate_alpha, train_toy_draft

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


@dataclass
class RunConfig:
    """Mirror of the JSON configuration file."""

    seed: int = 0
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    target: MarkovTarget | None = None
    training: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)


_TRAINING_DEFAULTS = {
    "gamma": 0.6,
    "steps": 500,
    "lr": 0.1,
    "shifted": True,
    "corpus_sequences": 16,
    "sequence_length": 24,
    "heldout_sequences": 50,
}
_TARGET_DEFAULTS = {"seed": 7, "vocab_size": 64, "order": 2, "concentration": 0.2}
_SECTION_KEYS = {
    "prune": {f.name for f in fields(PruneConfig)},
    "decode": {f.name for f in fields(DecodeConfig)} - {"seed", "prune"},
    "target": set(_TARGET_DEFAULTS),
    "training": set(_TRAINING_DEFAULTS),
    "paths": {"trie", "model"},
}


def _reject_unknown(section: str, given: dict, allowed: set[str]) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown config key(s) in {section}: {sorted(unknown)}")


def _check_kinds(section: str, values: dict, defaults: dict) -> None:
    """Each value must be of its default's kind: bool, integer or finite number."""
    for key, default in defaults.items():
        name, value = f"{section}.{key}", values[key]
        if isinstance(default, bool):
            check_bool(name, value)
        elif isinstance(default, int):
            check_int(name, value)
        else:
            check_number(name, value)


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Parse the config file, apply dotted-key overrides, validate strictly.

    The `paths` files are not opened here: each command opens those it reads.
    """
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads("".join(read_lines(path)))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, value = item.split("=", 1)
        keys = dotted.split(".")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        cursor = raw
        for key in keys[:-1]:
            cursor = cursor.setdefault(key, {})
            if not isinstance(cursor, dict):
                raise ConfigError(f"override path {dotted!r} crosses a non-object")
        cursor[keys[-1]] = parsed

    _reject_unknown("config", raw, {"seed", *_SECTION_KEYS})
    sections = {name: raw.get(name, {}) for name in _SECTION_KEYS}
    for name, given in sections.items():
        if not isinstance(given, dict):
            raise ConfigError(f"{name} must be a JSON object, got {given!r}")
        _reject_unknown(name, given, _SECTION_KEYS[name])
    target_raw = {**_TARGET_DEFAULTS, **sections["target"]}
    training = {**_TRAINING_DEFAULTS, **sections["training"]}
    paths = sections["paths"]

    seed = raw.get("seed", 0)
    check_int("seed", seed, minimum=0)
    _check_kinds("training", training, _TRAINING_DEFAULTS)
    decode_cfg = DecodeConfig(seed=seed, prune=PruneConfig(**sections["prune"]),
                              **sections["decode"])
    target = MarkovTarget(**target_raw)
    for key, p in paths.items():
        if p is not None and not isinstance(p, str):
            raise ConfigError(f"paths.{key} must be a string or null, got {p!r}")
    return RunConfig(seed=seed, decode=decode_cfg, target=target, training=training, paths=paths)


def _emit(args, records: list[dict], text: str) -> None:
    if args.jsonl:
        for rec in records:
            print(json.dumps(rec))
    else:
        print(text)


# -- commands -------------------------------------------------------------------


def cmd_build_trie(args) -> int:
    if args.vocab_size is not None:
        check_int("--vocab-size", args.vocab_size, minimum=1)
    reader = read_text_corpus if args.format == "text" else read_token_corpus
    corpus = reader(args.corpus)
    if not any(len(s) >= args.order for s in corpus):
        print("warning: corpus has no windows of the requested order; "
              "trie will contain only the root", file=sys.stderr)
    vocab = 256 if args.format == "text" and args.vocab_size is None else args.vocab_size
    trie = build_trie(corpus, args.order, vocab)
    n_bytes = save_trie(trie, args.out)
    stats = trie.stats()
    _emit(args, [{"node_count": stats.node_count,
                  "distinct_contexts": stats.distinct_contexts,
                  "bytes_on_disk": n_bytes}],
          f"node_count         {stats.node_count}\n"
          f"distinct_contexts  {stats.distinct_contexts}\n"
          f"bytes_on_disk      {n_bytes}")
    return EXIT_OK


def _load_toy(cfg: RunConfig) -> ToyDraft:
    model_path = cfg.paths.get("model")
    if model_path is None:
        raise ConfigError("drafter 'toy' needs paths.model in the config")
    model = ToyDraft.load(model_path)
    if model.vocab_size != cfg.target.vocab_size:
        raise ConfigError(
            f"model at {model_path} has vocab {model.vocab_size}, "
            f"target has {cfg.target.vocab_size}"
        )
    return model


# The --drafter choices of decode and eval, each built from the run's config.
DRAFTERS = {
    "oracle": lambda cfg: OracleDrafter(cfg.target),
    "uniform": lambda cfg: UniformDrafter(cfg.target.vocab_size, seed=cfg.seed),
    "adversarial": lambda cfg: AdversarialDrafter(cfg.target),
    "noisy-oracle": lambda cfg: NoisyOracleDrafter(cfg.target, seed=cfg.seed),
    "toy": _load_toy,
}


def _parse_prompt(args, cfg: RunConfig) -> list[int]:
    if args.prompt_tokens is not None:
        try:
            return [int(t) for t in args.prompt_tokens.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(
                f"prompt tokens must be integers, got {args.prompt_tokens!r}") from None
    if args.prompt is not None:
        if cfg.target.vocab_size != 256:
            raise ConfigError("text prompts need target.vocab_size = 256 (byte tokens)")
        return tokenize_bytes(args.prompt)
    return [0]


def _load_trie(cfg: RunConfig) -> NgramTrie | None:
    path = cfg.paths.get("trie")
    if path is None:
        print("warning: no trie configured; continuity scores fall back to the "
              "epsilon floor (no-n-gram mode)", file=sys.stderr)
        return None
    trie = load_trie(path)
    if trie.vocab_size != cfg.target.vocab_size:
        raise ConfigError(
            f"trie at {path} has vocab {trie.vocab_size}, target has "
            f"{cfg.target.vocab_size}; rebuild it with --vocab-size {cfg.target.vocab_size}"
        )
    return trie


def cmd_decode(args) -> int:
    cfg = load_config(args.config, args.override)
    prompt = _parse_prompt(args, cfg)
    if args.baseline:
        tokens = baseline_decode(prompt, cfg.target, cfg.decode.max_tokens,
                                 cfg.decode.temperature, seed=cfg.seed,
                                 eos_token=cfg.decode.eos_token)
        _write_transcript(args, cfg, tokens)
        return EXIT_OK
    trie = None if args.no_ngram else _load_trie(cfg)
    drafter = DRAFTERS[args.drafter](cfg)
    tokens, metrics = decode(prompt, cfg.target, drafter, trie, cfg.decode)
    _write_transcript(args, cfg, tokens)
    summary = {"tau": metrics.tau, "cycles": metrics.cycles,
               "tokens_out": metrics.tokens_out, "accept_rates": metrics.accept_rates,
               "modeled_speedup": metrics.modeled_speedup,
               "draft_ratio": metrics.draft_ratio}
    _emit(args, [*metrics.to_records(), summary], metrics.report())
    return EXIT_OK


def _write_transcript(args, cfg: RunConfig, tokens: list[int]) -> None:
    line = " ".join(str(t) for t in tokens)
    if cfg.target.vocab_size == 256:
        rendered = bytes(tokens).decode("utf-8", errors="replace")
        line += f"\n# text: {rendered!r}"
    if args.transcript:
        Path(args.transcript).write_text(line + "\n", encoding="utf-8")
    else:
        print(line)


def cmd_bench_trie(args) -> int:
    check_int("--queries", args.queries, minimum=0)
    if args.queries > 10 ** 6:  # each query keeps a context tuple and a latency
        raise ConfigError(f"--queries must be <= 1000000, got {args.queries}")
    check_int("--seed", args.seed, minimum=0)
    trie = load_trie(args.trie)
    if args.queries == 0:
        _emit(args, [], "no queries requested; empty histogram")
        return EXIT_OK
    rng = np.random.default_rng(args.seed)

    # Sample query contexts from the observed context set, plus some misses.
    contexts = trie.contexts() or [(0,) * (trie.order - 1)]
    picks = rng.integers(0, len(contexts), size=args.queries)
    miss = rng.random(args.queries) < 0.1
    V = max(trie.vocab_size, 1)
    miss_ctx = rng.integers(0, V, size=(args.queries, trie.order - 1))
    queries = [tuple(miss_ctx[i].tolist()) if miss[i] else contexts[picks[i]]
               for i in range(args.queries)]
    # prune's query: one key_scores call for the node keys of w beam contexts
    # by a row's top-k tokens, most of which those contexts continue with. A
    # batch's tokens are its contexts' continuations, topped up to k with
    # distinct tokens drawn at random from the others: k plus the seen ones
    # are drawn, so no array of the whole vocabulary is made.
    shape = PruneConfig()
    width = min(shape.k, V)
    batches = []
    for lo in range(0, len(queries), shape.w):
        ctxs = queries[lo:lo + shape.w]
        seen = np.array(sorted({t for ctx in ctxs for t in trie.counts(ctx)}), dtype=np.int64)
        drawn = rng.choice(V, size=min(V, width + len(seen)), replace=False)
        others = drawn[~np.isin(drawn, seen, kind="sort")]
        tokens = np.concatenate([rng.permutation(seen), others])[:width]
        context_keys = np.array([trie.context_key(ctx) for ctx in ctxs])
        batches.append(context_keys[:, None] * trie.base + trie.digits(tokens))

    for ctx in queries[:2000]:  # warm-up
        trie.children_scores(ctx)
    lat = np.empty(len(queries))
    for i, ctx in enumerate(queries):
        t0 = time.perf_counter_ns()
        trie.children_scores(ctx)
        lat[i] = (time.perf_counter_ns() - t0) / 1e3
    batch_lat = np.empty(len(batches))
    for i, keys in enumerate(batches):
        t0 = time.perf_counter_ns()
        trie.key_scores(keys)
        batch_lat[i] = (time.perf_counter_ns() - t0) / 1e3
    summary = {"median_us": float(np.median(lat)), "p90_us": float(np.percentile(lat, 90)),
               "mean_us": float(lat.mean()), "queries": int(lat.size),
               "batch_median_us": float(np.median(batch_lat)),
               "batch_p90_us": float(np.percentile(batch_lat, 90))}
    _emit(args, [summary],
          f"median {summary['median_us']:.2f} us | p90 {summary['p90_us']:.2f} us "
          f"| mean {summary['mean_us']:.2f} us over {summary['queries']} queries; "
          f"key_scores of {shape.w} contexts x {width} tokens (their continuations "
          f"first): median "
          f"{summary['batch_median_us']:.2f} us | p90 {summary['batch_p90_us']:.2f} us")
    return EXIT_OK


def _training_corpora(cfg: RunConfig):
    tr = cfg.training
    for key, minimum in (("corpus_sequences", 1), ("sequence_length", 1),
                         ("heldout_sequences", 0)):
        check_int(f"training.{key}", tr[key], minimum=minimum)
    rng = np.random.default_rng(cfg.seed)
    corpus = [cfg.target.sample_sequence(rng, tr["sequence_length"])
              for _ in range(tr["corpus_sequences"])]
    heldout = [cfg.target.sample_sequence(rng, tr["sequence_length"])
               for _ in range(tr["heldout_sequences"])]
    return corpus, heldout


def cmd_train_toy(args) -> int:
    check_int("--eval-every", args.eval_every, minimum=0)
    cfg = load_config(args.config, args.override)
    tr = cfg.training
    model_path = cfg.paths.get("model") or "toy_draft.npz"
    log_path = args.log or f"{model_path}.log.jsonl"
    d = cfg.decode.d
    corpus, heldout = _training_corpora(cfg)
    log: list[TrainingLogRecord] = []

    def record_alpha(step, model, batch):
        log[-1].alpha = evaluate_alpha(model, cfg.target, heldout, d)

    model = train_toy_draft(
        cfg.target, corpus, tr["gamma"], d, tr["steps"],
        tr["lr"], cfg.seed, shifted=tr["shifted"], eval_every=args.eval_every, log=log,
        checkpoint_hook=record_alpha if heldout else None,
    )
    model.save(model_path)
    with open(log_path, "w", encoding="utf-8") as f:
        for rec in log:
            f.write(json.dumps(rec.to_dict()) + "\n")
    print(f"model written to {model_path}; {len(log)} log records in {log_path}")
    if log:
        print(f"final loss {log[-1].loss:.6f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    check_int("--tau-prompts", args.tau_prompts, minimum=0)
    cfg = load_config(args.config, args.override)
    d = cfg.decode.d
    _, heldout = _training_corpora(cfg)
    drafter = DRAFTERS[args.drafter](cfg)
    trie = _load_trie(cfg)
    alpha = evaluate_alpha(drafter, cfg.target, heldout, d,
                           vs_greedy=args.alpha_vs == "greedy")

    taus = []
    for i, seq in enumerate(heldout[: args.tau_prompts]):
        run = replace(cfg.decode, max_tokens=48, seed=cfg.seed + i)
        _, metrics = decode(seq[:4], cfg.target, drafter, trie, run, measure_base=False)
        taus.append(metrics.tau)
    tau = float(np.mean(taus)) if taus else None

    header = " ".join(f"{'a-' + str(t+1):>7}" for t in range(d)) + f" {'tau':>6}"
    row = " ".join(f"{100 * a:>6.1f}%" for a in alpha) + (
        f" {'-':>6}" if tau is None else f" {tau:>6.2f}")
    _emit(args, [{"alpha": alpha, "tau": tau, "drafter": args.drafter}],
          header + "\n" + row)
    return EXIT_OK


def _read_log(path) -> list[dict]:
    """A training log's records; ConfigError names the file and line of a malformed one."""
    records = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict) or not isinstance(rec.get("alpha") or [], list):
            raise ConfigError(f"{where}: not a training log record: {rec!r}")
        check_int(f"{where}: step", rec.get("step"))
        check_number(f"{where}: loss", rec.get("loss"))
        for a in rec.get("alpha") or []:
            check_number(f"{where}: alpha", a)
        records.append(rec)
    return records


def cmd_report(args) -> int:
    check_int("--every", args.every, minimum=0)
    records = _read_log(args.log)
    if not records:
        print("empty training log")
        return EXIT_OK
    print(f"{'step':>6} {'loss':>12}  alpha")
    for rec in records:
        if args.every and rec["step"] % args.every:
            continue
        alpha = rec.get("alpha")
        alpha_s = " ".join(f"{100 * a:.1f}%" for a in alpha) if alpha else "-"
        print(f"{rec['step']:>6} {rec['loss']:>12.6f}  {alpha_s}")
    return EXIT_OK


def cmd_estimate_speedup(args) -> int:
    speedup, ratio = estimate_speedup(args.tau, args.t_verify, args.t_draft,
                                      args.t_prune, args.t_base)
    _emit(args, [{"speedup": speedup, "draft_ratio": ratio}],
          f"speedup      {speedup:.4f}\ndraft_ratio  {ratio:.4f}")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdraft",
        description="Speculative decoding with parallel drafting and "
                    "n-gram-guided draft-tree pruning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")

    p = sub.add_parser("build-trie", help="count n-gram windows into a trie file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["tokens", "text"], default="tokens",
                   help="tokens: integer ids per line; text: byte-level")
    p.add_argument("--vocab-size", type=int, default=None)
    p.add_argument("--jsonl", action="store_true")
    p.set_defaults(func=cmd_build_trie)

    p = sub.add_parser("decode", help="run the draft-prune-verify loop")
    add_common(p)
    p.add_argument("--jsonl", action="store_true",
                   help="machine-readable line-delimited JSON output")
    p.add_argument("--drafter", default="oracle", choices=DRAFTERS)
    p.add_argument("--prompt", default=None, help="text prompt (byte tokenizer, V=256)")
    p.add_argument("--prompt-tokens", default=None, help="integer token ids")
    p.add_argument("--no-ngram", action="store_true",
                   help="epsilon-floor continuity scores (ablation mode)")
    p.add_argument("--baseline", action="store_true",
                   help="pure autoregressive decoding instead")
    p.add_argument("--transcript", default=None, help="write tokens to this file")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench-trie", help="trie query latency benchmark")
    p.add_argument("--trie", required=True)
    p.add_argument("--queries", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jsonl", action="store_true")
    p.set_defaults(func=cmd_bench_trie)

    p = sub.add_parser("train-toy", help="train the toy drafter")
    add_common(p)
    p.add_argument("--log", default=None, help="training log path (JSONL)")
    p.add_argument("--eval-every", type=int, default=100)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="held-out per-position accuracy and tau")
    add_common(p)
    p.add_argument("--jsonl", action="store_true")
    p.add_argument("--drafter", default="toy", choices=DRAFTERS)
    p.add_argument("--alpha-vs", choices=["data", "greedy"], default="data",
                   help="score argmax hits against held-out tokens or the "
                        "target's greedy continuation")
    p.add_argument("--tau-prompts", type=int, default=8)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="pretty-print a training log")
    p.add_argument("--log", required=True)
    p.add_argument("--every", type=int, default=0, help="print every Nth step only")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("estimate-speedup", help="analytical cycle-latency model")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--t-verify", type=float, required=True)
    p.add_argument("--t-draft", type=float, required=True)
    p.add_argument("--t-prune", type=float, required=True)
    p.add_argument("--t-base", type=float, required=True)
    p.add_argument("--jsonl", action="store_true")
    p.set_defaults(func=cmd_estimate_speedup)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, TrieFormatError, ModelFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
