"""Generated inputs at the CLI boundary: bad input exits 2 or 3, never with a
traceback.

`train-toy` runs in-process with warnings as errors over `--override` of
every `training.*` key and the top-level `seed`, each set to an edge value
or a small valid one. `decode --no-ngram` does the same over every
`decode.*`, `prune.*` and `target.*` key and `seed`, with every `--drafter`
and with prompts that hold no token, a negative one, one past the
vocabulary, one that is no integer or one of 2**64. `decode` and `eval`
read copies of a valid trie file and a valid model file, each cut short or
with one byte flipped. `build-trie` counts generated token and text corpora
with `--order`, `--vocab-size` and `--format` at edge values, and
`bench-trie` reads each trie it writes with `--queries` and `--seed` at edge
values; `build-trie` also counts copies of a valid token corpus and a valid
text corpus, each cut short or with one byte flipped. `report` reads copies
of a small `train-toy` run's log, cut short or with one byte flipped, with
`--every` at edge values, and `estimate-speedup` takes each of its five
times at an edge value, with and without `--jsonl`.
Valid sizes are capped here, not by a timeout: a valid but large run is no
defect.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from specdraft.cli import (_SECTION_KEYS, _TARGET_DEFAULTS, _TRAINING_DEFAULTS, DRAFTERS,
                           EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main)
from specdraft.models import MarkovTarget, ToyDraft
from specdraft.ngram import build_trie, save_trie

# JSON texts of the edge values: 0, -1, NaN, +-inf, 1e308, 2**63, 10**22,
# true, a string, a list and null.
EDGES = ["0", "-1", "NaN", "Infinity", "-Infinity", "1e308", str(2 ** 63), str(10 ** 22),
         "true", '"x"', "[1]", "null"]
# A valid integer this large would run for ever or allocate without bound.
UNBOUNDED = {str(2 ** 63), str(10 ** 22)}
SIZE_CAPS = {"steps": 3, "corpus_sequences": 4, "heldout_sequences": 4, "sequence_length": 12,
             "max_tokens": 8, "d": 8, "vocab_size": 256, "order": 3, "theta": 64}
# Small valid sizes set first, so that no default size (500 steps, 50
# held-out sequences) runs; a case's own overrides come after and win.
BASE = ["training.steps=2", "training.corpus_sequences=2", "training.heldout_sequences=2",
        "training.sequence_length=10"]


def _values(key):
    edges = [v for v in EDGES if key not in SIZE_CAPS or v not in UNBOUNDED]
    return st.sampled_from(edges) | st.integers(0, SIZE_CAPS.get(key, 3)).map(str)


# Up to three (key, value) overrides of the training keys and seed, applied in turn.
KEYS = [f"training.{key}" for key in _TRAINING_DEFAULTS] + ["seed"]
OVERRIDES = st.lists(st.sampled_from(KEYS).flatmap(
    lambda key: _values(key.removeprefix("training.")).map(lambda value: f"{key}={value}")),
    max_size=3)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(overrides=OVERRIDES)
def test_train_toy_exits_with_a_code_for_any_override(overrides):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        model = Path(tmp, "model.npz")
        argv = ["train-toy", "--eval-every", "1", "--log", str(Path(tmp, "log.jsonl")),
                "--override", f"paths.model={json.dumps(str(model))}"]
        for item in BASE + overrides:
            argv += ["--override", item]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DIVERGED), (argv, err.getvalue())
        assert (rc == EXIT_OK) == model.exists(), (argv, err.getvalue())


# Up to four overrides of the decode, prune and target keys and seed.
DECODE_KEYS = [f"{section}.{key}" for section in ("decode", "prune", "target")
               for key in sorted(_SECTION_KEYS[section])] + ["seed"]
DECODE_OVERRIDES = st.lists(st.sampled_from(DECODE_KEYS).flatmap(
    lambda key: _values(key.rpartition(".")[2]).map(lambda value: f"{key}={value}")),
    max_size=4)
# Prompt tokens, joined by commas or spaces: mostly in the default vocabulary
# of 64, at times -1 or past it; or one of 2**64, or one that is no integer.
PROMPTS = (st.lists(st.integers(-1, 66), max_size=4).flatmap(
    lambda ts: st.sampled_from([",", " "]).map(lambda sep: sep.join(map(str, ts))))
    | st.sampled_from([str(2 ** 64), f"3,{2 ** 64}", "1.5", "x", "3,,4", "1e3"]))


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(overrides=DECODE_OVERRIDES, prompt=PROMPTS, drafter=st.sampled_from(sorted(DRAFTERS)))
def test_decode_exits_with_a_code_for_any_override_and_prompt(overrides, prompt, drafter):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        model = Path(tmp, "model.npz")  # the toy drafter of the default target
        target = MarkovTarget(**_TARGET_DEFAULTS)
        ToyDraft(target.vocab_size, target.embeddings).save(model)
        argv = ["decode", "--no-ngram", "--drafter", drafter, f"--prompt-tokens={prompt}",
                "--override", "decode.max_tokens=4", "--override", "decode.d=3",
                "--override", f"paths.model={json.dumps(str(model))}"]
        for item in overrides:
            argv += ["--override", item]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO), (argv, err.getvalue())


# decode and eval read a trie file and a toy drafter's model file: each run
# reads copies of valid ones, each cut short at a drawn offset or with one
# drawn byte flipped.
DAMAGE = st.tuples(st.sampled_from(["truncate", "flip"]), st.floats(0, 1, exclude_max=True),
                   st.integers(1, 255))


def _damaged(data: bytes, damage) -> bytes:
    kind, where, mask = damage
    offset = int(where * len(data))
    if kind == "truncate":
        return data[:offset]
    return data[:offset] + bytes([data[offset] ^ mask]) + data[offset + 1:]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of a trie file and a model file that decode and eval accept."""
    tmp = tmp_path_factory.mktemp("valid")
    target = MarkovTarget(**_TARGET_DEFAULTS)
    rng = np.random.default_rng(0)
    save_trie(build_trie([target.sample_sequence(rng, 40) for _ in range(4)], 3,
                         target.vocab_size), tmp / "trie.bin")
    ToyDraft(target.vocab_size, target.embeddings).save(tmp / "model.npz")
    return (tmp / "trie.bin").read_bytes(), (tmp / "model.npz").read_bytes()


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(command=st.sampled_from(["decode", "eval"]), trie_damage=DAMAGE, model_damage=DAMAGE)
def test_decode_and_eval_exit_with_a_code_for_a_damaged_trie_or_model(
        valid_files, command, trie_damage, model_damage):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        trie, model = Path(tmp, "trie.bin"), Path(tmp, "model.npz")
        trie.write_bytes(_damaged(valid_files[0], trie_damage))
        model.write_bytes(_damaged(valid_files[1], model_damage))
        argv = [command, "--drafter", "toy", "--override", "decode.max_tokens=4",
                "--override", "decode.d=3", "--override", f"paths.trie={json.dumps(str(trie))}",
                "--override", f"paths.model={json.dumps(str(model))}"]
        argv += (["--prompt-tokens=3,5"] if command == "decode" else
                 ["--tau-prompts", "1"] + [a for item in BASE for a in ("--override", item)])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DIVERGED), (argv, err.getvalue())


# build-trie and bench-trie: integer flags at edge values or small valid
# ones. A vocabulary of 2**31 - 3 or more is valid at order 2 only, and
# 10**6 + 1 is the first --queries past the cap; the valid 10**6 itself would
# only run long.
FLAG_EDGES = ["0", "-1", "1", "x", "1.5", "", str(2 ** 63), str(10 ** 22)]
ORDERS = st.sampled_from(FLAG_EDGES + ["31", "62", "63"]) | st.integers(2, 6).map(str)
VOCAB_SIZES = (st.sampled_from(FLAG_EDGES + [str(2 ** 31 - 3), str(2 ** 31), str(2 ** 32)])
               | st.sampled_from([64, 70, 256, 300]).map(str))
QUERIES = st.sampled_from(FLAG_EDGES + [str(10 ** 6 + 1)]) | st.integers(0, 60).map(str)
SEEDS = st.sampled_from(FLAG_EDGES + [str(2 ** 64)]) | st.integers(0, 5).map(str)
# Token corpora: lines of tokens below 70, at times with one more token
# that is -1, past int64, no integer or just large; text corpora: text, or
# any bytes, so at times no UTF-8.
BAD_TOKENS = st.none() | st.sampled_from(["-1", "x", "1.5", str(2 ** 31), str(2 ** 63),
                                          str(2 ** 64), str(-2 ** 63 - 1)])


def _token_corpus(lines, bad):
    if bad is not None:
        lines = [lines[0] + [bad], *lines[1:]]
    return "\n".join(" ".join(line) for line in lines).encode()


TOKEN_CORPORA = st.builds(
    _token_corpus,
    st.lists(st.lists(st.integers(0, 69).map(str), max_size=60), min_size=1, max_size=4),
    BAD_TOKENS)
TEXT_CORPORA = st.text(max_size=200).map(str.encode) | st.binary(max_size=50)


def _run(argv):
    """main(argv)'s exit code, argparse's rejections included, and its stderr."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(corpus=st.sampled_from(["tokens", "text"]).flatmap(
           lambda fmt: (TOKEN_CORPORA if fmt == "tokens" else TEXT_CORPORA).map(
               lambda data: (fmt, data))),
       order=ORDERS, vocab_size=st.none() | VOCAB_SIZES, queries=QUERIES, bench_seed=SEEDS)
def test_build_trie_and_bench_trie_exit_with_a_code_for_any_flags(
        corpus, order, vocab_size, queries, bench_seed):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        fmt, data = corpus
        source, out = Path(tmp, "corpus.txt"), Path(tmp, "trie.bin")
        source.write_bytes(data)
        argv = ["build-trie", "--corpus", str(source), "--out", str(out), "--format", fmt,
                f"--order={order}"]
        if vocab_size is not None:
            argv.append(f"--vocab-size={vocab_size}")
        rc, err = _run(argv)
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO), (argv, err)
        assert (rc == EXIT_OK) == out.exists(), (argv, err)
        if rc == EXIT_OK:
            argv = ["bench-trie", "--trie", str(out), f"--queries={queries}",
                    f"--seed={bench_seed}"]
            rc, err = _run(argv)
            assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO), (argv, err)


# build-trie counts copies of a valid token corpus and a valid text corpus
# (multi-byte UTF-8 and a CRLF line among ASCII), each whole, cut short at a
# drawn offset or with one drawn byte flipped, with or without a vocabulary.
VALID_CORPORA = {
    "tokens": "\n".join(" ".join(str((7 * i + j * j) % 64) for j in range(30))
                        for i in range(4)).encode(),
    "text": "plain ASCII, then ünïcödé ✓ — …\r\nand one more line\n".encode() * 3,
}


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None)
@given(fmt=st.sampled_from(sorted(VALID_CORPORA)), damage=st.none() | DAMAGE,
       vocab_size=st.sampled_from([None, 64, 256]))
def test_build_trie_exits_with_a_code_for_a_damaged_corpus(fmt, damage, vocab_size):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        source, out = Path(tmp, "corpus.txt"), Path(tmp, "trie.bin")
        corpus = VALID_CORPORA[fmt]
        source.write_bytes(corpus if damage is None else _damaged(corpus, damage))
        argv = ["build-trie", "--corpus", str(source), "--out", str(out), "--format", fmt,
                "--order=3"]
        if vocab_size is not None:
            argv.append(f"--vocab-size={vocab_size}")
        rc, err = _run(argv)
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DIVERGED), (argv, err)
        assert (rc == EXIT_OK) == out.exists(), (argv, err)
        if damage is None and (fmt, vocab_size) != ("text", 64):  # its bytes pass 64
            assert rc == EXIT_OK, (argv, err)


# report reads the log of a small train-toy run, each copy cut short at a
# drawn offset or with one drawn byte flipped, with --every at edge values
# or small valid ones.
EVERY = st.sampled_from(FLAG_EDGES) | st.integers(0, 5).map(str)


@pytest.fixture(scope="module")
def training_log(tmp_path_factory):
    """The bytes of the log that `train-toy` writes for BASE's small run."""
    tmp = tmp_path_factory.mktemp("log")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = _run(["train-toy", "--eval-every", "1", "--log", str(tmp / "log.jsonl"),
                        "--override", f"paths.model={json.dumps(str(tmp / 'model.npz'))}",
                        *(a for item in BASE for a in ("--override", item))])
    assert rc == EXIT_OK, err
    return (tmp / "log.jsonl").read_bytes()


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(damage=st.none() | DAMAGE, every=EVERY)
def test_report_exits_with_a_code_for_a_damaged_log(training_log, damage, every):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        log = Path(tmp, "log.jsonl")
        log.write_bytes(training_log if damage is None else _damaged(training_log, damage))
        argv = ["report", "--log", str(log), f"--every={every}"]
        rc, err = _run(argv)
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO), (argv, err)


# estimate-speedup with each of its five times at an edge value or a small
# valid one. A run that exits 0 prints finite numbers, and with --jsonl
# strict JSON: no NaN or Infinity.
SPEEDUP_FLAGS = ["--tau", "--t-verify", "--t-draft", "--t-prune", "--t-base"]
TIMES = st.sampled_from(EDGES) | st.floats(0, 100).map(repr)


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(times=st.tuples(*[TIMES] * len(SPEEDUP_FLAGS)), jsonl=st.booleans())
def test_estimate_speedup_exits_with_a_code_for_any_times(times, jsonl):
    argv = ["estimate-speedup", *(f"{flag}={t}" for flag, t in zip(SPEEDUP_FLAGS, times))]
    argv += ["--jsonl"] if jsonl else []
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's rejections
            rc = exc.code
    assert rc in (EXIT_OK, EXIT_CONFIG), (argv, err.getvalue())
    if rc == EXIT_OK:
        lines = out.getvalue().splitlines()
        values = ([v for line in lines for v in json.loads(line, parse_constant=_strict_constant)
                   .values()] if jsonl else [float(line.split()[1]) for line in lines])
        assert len(values) == 2 and all(np.isfinite(values)), (argv, lines)


@seed(20261021)
@settings(max_examples=150, deadline=None, database=None)
@given(overrides=DECODE_OVERRIDES, prompt=PROMPTS)
def test_decode_baseline_exits_with_a_code_for_any_override_and_prompt(overrides, prompt):
    argv = ["decode", "--baseline", f"--prompt-tokens={prompt}",
            "--override", "decode.max_tokens=4"]
    for item in overrides:
        argv += ["--override", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = _run(argv)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO), (argv, err)


# eval with up to four overrides over every section's keys and seed, each at
# an edge value or a small valid one, after BASE's small sizes.
ALL_KEYS = [f"{section}.{key}" for section in sorted(_SECTION_KEYS)
            for key in sorted(_SECTION_KEYS[section])] + ["seed"]
ALL_OVERRIDES = st.lists(st.sampled_from(ALL_KEYS).flatmap(
    lambda key: _values(key.rpartition(".")[2]).map(lambda value: f"{key}={value}")),
    max_size=4)


@seed(20261021)
@settings(max_examples=120, deadline=None, database=None)
@given(overrides=ALL_OVERRIDES, drafter=st.sampled_from(sorted(DRAFTERS)),
       tau_prompts=st.integers(0, 1))
def test_eval_exits_with_a_code_for_any_override(valid_files, overrides, drafter, tau_prompts):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        trie, model = Path(tmp, "trie.bin"), Path(tmp, "model.npz")
        trie.write_bytes(valid_files[0])
        model.write_bytes(valid_files[1])
        argv = ["eval", "--drafter", drafter, f"--tau-prompts={tau_prompts}",
                "--override", f"paths.trie={json.dumps(str(trie))}",
                "--override", f"paths.model={json.dumps(str(model))}"]
        for item in BASE + ["decode.d=3"] + overrides:
            argv += ["--override", item]
        rc, err = _run(argv)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DIVERGED), (argv, err)


# One small valid config file for every command that reads one; each run
# reads a copy cut short at a drawn offset or with one drawn byte flipped.
CONFIG = json.dumps({"seed": 1, "decode": {"max_tokens": 4, "d": 3},
                     "prune": {"k": 4, "w": 4, "theta": 8}, "target": {"vocab_size": 16},
                     "training": {"steps": 2, "corpus_sequences": 2, "heldout_sequences": 2,
                                  "sequence_length": 10}}, separators=(",", ":")).encode()
CONFIG_COMMANDS = [["decode", "--prompt-tokens=3,5", "--drafter", "noisy-oracle"],
                   ["decode", "--prompt-tokens=3,5", "--baseline"],
                   ["eval", "--drafter", "oracle", "--tau-prompts=1"],
                   ["train-toy", "--eval-every", "1"]]


@seed(20261021)
@settings(max_examples=150, deadline=None, database=None)
@given(command=st.sampled_from(CONFIG_COMMANDS), damage=st.none() | DAMAGE)
def test_commands_exit_with_a_code_for_a_damaged_config(command, damage):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        config = Path(tmp, "config.json")
        config.write_bytes(CONFIG if damage is None else _damaged(CONFIG, damage))
        argv = [*command, "--config", str(config),
                "--override", f"paths.model={json.dumps(str(Path(tmp, 'model.npz')))}"]
        if command[0] == "train-toy":
            argv += ["--log", str(Path(tmp, "log.jsonl"))]
        rc, err = _run(argv)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DIVERGED), (argv, err)
