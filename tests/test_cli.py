import json
import tracemalloc

import numpy as np
import pytest

from specdraft.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    _training_corpora,
    load_config,
    main,
)
from specdraft.engine import baseline_decode
from specdraft.errors import ConfigError
from specdraft.models import MarkovTarget, ToyDraft
from specdraft.ngram import build_trie, load_trie, save_trie


@pytest.fixture
def demo_corpus(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("1 2 3 1 2\n", encoding="utf-8")
    return p


@pytest.fixture
def config_file(tmp_path):
    def make(**sections):
        cfg = {
            "seed": 3,
            "target": {"seed": 7, "vocab_size": 16, "order": 2, "concentration": 0.1},
            "decode": {"d": 3, "max_tokens": 16, "temperature": 0.0},
            "prune": {"k": 4, "w": 4, "theta": 8},
        }
        cfg.update(sections)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        return str(p)

    return make


def test_build_trie_hand_count(tmp_path, demo_corpus, capsys):
    out = tmp_path / "t.bin"
    rc = main(["build-trie", "--corpus", str(demo_corpus), "--order", "3",
               "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    # windows (1,2,3), (2,3,1), (3,1,2): root + 3 + 3 + 3 nodes
    assert "node_count         10" in text


def test_build_trie_empty_corpus_warns(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("")
    rc = main(["build-trie", "--corpus", str(src), "--order", "3",
               "--out", str(tmp_path / "t.bin")])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "node_count         1" in captured.out


def test_build_trie_order_one_rejected(tmp_path, demo_corpus):
    rc = main(["build-trie", "--corpus", str(demo_corpus), "--order", "1",
               "--out", str(tmp_path / "t.bin")])
    assert rc == EXIT_CONFIG


def test_order_above_the_key_bound_exits_2_to_build_and_3_to_load(tmp_path, capsys):
    # Byte-level text has V = 256, whose node keys fit in int64 up to order 7.
    src = tmp_path / "corpus.txt"
    src.write_text("an order-8 window needs more than 63 bits\n", encoding="utf-8")
    out = tmp_path / "t.bin"
    argv = ["build-trie", "--corpus", str(src), "--format", "text", "--out", str(out)]
    assert main(argv + ["--order", "7"]) == EXIT_OK
    assert main(["bench-trie", "--trie", str(out), "--queries", "10"]) == EXIT_OK
    capsys.readouterr()
    assert main(argv + ["--order", "8"]) == EXIT_CONFIG
    assert "[2, 7]" in capsys.readouterr().err
    data = bytearray(out.read_bytes())
    data[8:16] = (8).to_bytes(8, "little")  # the header's order field
    out.write_bytes(bytes(data))
    assert main(["bench-trie", "--trie", str(out), "--queries", "10"]) == EXIT_IO
    err = capsys.readouterr().err
    assert "[2, 7]" in err and "Traceback" not in err


def test_build_trie_missing_corpus(tmp_path):
    rc = main(["build-trie", "--corpus", str(tmp_path / "nope.txt"),
               "--order", "3", "--out", str(tmp_path / "t.bin")])
    assert rc == EXIT_IO


def test_decode_matches_baseline_at_t0(config_file, capsys):
    cfg = config_file()
    rc = main(["decode", "--config", cfg, "--drafter", "oracle",
               "--prompt-tokens", "1 2"])
    assert rc == EXIT_OK
    spec_out = capsys.readouterr().out.splitlines()[0]
    rc = main(["decode", "--config", cfg, "--baseline", "--prompt-tokens", "1 2"])
    assert rc == EXIT_OK
    base_out = capsys.readouterr().out.splitlines()[0]
    assert spec_out == base_out


@pytest.mark.parametrize("tokens", ["99", "-3", "1 16"])
@pytest.mark.parametrize("baseline", [False, True])
def test_decode_out_of_vocab_prompt_exits_2(config_file, capsys, tokens, baseline):
    argv = ["decode", "--config", config_file(), "--prompt-tokens", tokens]
    rc = main(argv + (["--baseline"] if baseline else []))
    assert rc == EXIT_CONFIG
    assert "prompt tokens" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "decode.temperature=NaN", "decode.temperature=-1", "prune.k=0", "decode.eos_token=64",
    "target.concentration=NaN", "target.concentration=0", "target.order=2.0",
])
def test_decode_non_finite_or_out_of_range_config_exits_2(config_file, capsys, override):
    rc = main(["decode", "--config", config_file(), "--prompt-tokens", "1 2",
               "--override", override])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_markov_order_whose_context_ids_overflow_int64_exits_2(config_file, capsys):
    target = {"seed": 7, "vocab_size": 64, "order": 2, "concentration": 0.1}
    rc = main(["decode", "--config", config_file(target=target), "--prompt-tokens", "1 2",
               "--override", "target.order=11"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "[1, 10]" in err and "int64" in err
    assert "Traceback" not in err


def test_vocab_size_past_2_to_the_32_exits_2(config_file, capsys):
    # A token past 2**32 is no 32-bit seed word; the 2**20 cap rejects it.
    rc = main(["decode", "--config", config_file(), "--prompt-tokens", "1 2",
               "--override", "target.vocab_size=4294967297"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "2**20" in err
    assert "Traceback" not in err


def test_vocab_size_past_2_to_the_20_exits_2_before_any_allocation(config_file, capsys):
    # A 2**31-token target would allocate its 16 GiB Dirichlet parameter
    # first; the check comes before any array.
    tracemalloc.start()
    try:
        rc = main(["decode", "--config", config_file(), "--prompt-tokens", "1 2", "--baseline",
                   "--override", "target.vocab_size=2147483648"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_CONFIG and peak < 2 ** 20
    err = capsys.readouterr().err
    assert "config error" in err and "2**20" in err and "Traceback" not in err


@pytest.mark.parametrize("command, override, blamed", [
    (["decode", "--baseline"], "target.concentration=9999999999999999999999", "2**53"),
    (["decode", "--baseline"], "target.concentration=1" + "0" * 400, "2**53"),
    (["decode", "--no-ngram"], "decode.d=9999999999999999999999", "<= 4096"),
    (["decode", "--no-ngram"], "decode.d=4097", "<= 4096"),
    (["eval", "--drafter", "oracle"], "decode.d=9999999999999999999999", "<= 4096"),
], ids=["concentration-past-int64", "concentration-past-float64", "decode-d-past-int64",
        "decode-d-past-cap", "eval-d-past-int64"])
def test_numbers_past_their_limits_exit_2(config_file, capsys, command, override, blamed):
    # An integer concentration beyond int64 made an object array, and one
    # beyond float64 overflowed the finiteness test; a d beyond int64 made
    # the drafter's draw fail. Each is a configuration error.
    argv = [command[0], "--config", config_file(), *command[1:], "--override", override]
    if command[0] == "decode":
        argv += ["--prompt-tokens", "1 2"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and blamed in err and "Traceback" not in err


@pytest.mark.parametrize("override", [
    "prune.epsilon=0", "prune.epsilon=-1", "prune.w_ng=NaN", "prune.level_exponent=NaN",
    "prune.logit_decay=0.9", "decode.prune=3", "decode.seed=1", "paths.corpus=x",
    "paths.train_log=x", "training.d=3",
])
def test_unsettable_key_is_unknown(config_file, capsys, override):
    # The pruning score's weights and floor are constants, and decode's seed
    # and prune come from the config's top-level seed and prune section. No
    # command reads a corpus path, and train-toy --log names the training log.
    rc = main(["decode", "--config", config_file(), "--prompt-tokens", "1 2",
               "--override", override])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown config key" in err and override.split("=")[0].split(".")[1] in err


@pytest.mark.parametrize("override", [
    "decode.max_tokens=1e400", "prune.k=abc", "decode.d=2.5", "target.vocab_size=abc",
    "seed=abc", "prune.k=true", 'decode.temperature="x"', "training.steps=abc",
    "seed=-1", "target.seed=-1", "training.shifted=1", "decode.eos_token=true",
])
def test_decode_config_value_of_wrong_type_exits_2(config_file, capsys, override):
    rc = main(["decode", "--config", config_file(), "--prompt-tokens", "1 2",
               "--override", override])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_build_trie_out_of_vocabulary_token_exits_2(tmp_path, capsys):
    for line, vocab in (("1 2 9", "4"), ("1 -2 3", "4"), ("1 -2 3", None)):
        src = tmp_path / "corpus.txt"
        src.write_text(line + "\n", encoding="utf-8")
        argv = ["build-trie", "--corpus", str(src), "--order", "2",
                "--out", str(tmp_path / "t.bin")]
        rc = main(argv + (["--vocab-size", vocab] if vocab else []))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "sequence 0" in err


def test_build_trie_text_takes_the_vocab_size_given(tmp_path, capsys):
    src, out = tmp_path / "corpus.txt", tmp_path / "t.bin"
    src.write_text("hello\n", encoding="utf-8")
    argv = ["build-trie", "--corpus", str(src), "--order", "2", "--out", str(out),
            "--format", "text"]
    assert main(argv + ["--vocab-size", "64"]) == EXIT_CONFIG  # b"h" is 104
    assert "token 104 outside [0, 64)" in capsys.readouterr().err and not out.exists()
    assert main(argv + ["--vocab-size", "300"]) == EXIT_OK
    assert load_trie(out).vocab_size == 300
    assert main(argv) == EXIT_OK
    assert load_trie(out).vocab_size == 256


def test_build_trie_non_utf8_text_exits_2(tmp_path, capsys):
    src = tmp_path / "latin1.txt"
    src.write_bytes("caf\xe9\n".encode("latin-1"))
    for fmt in ("text", "tokens"):
        rc = main(["build-trie", "--corpus", str(src), "--order", "2",
                   "--out", str(tmp_path / "t.bin"), "--format", fmt])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(src) in err


def test_decode_no_ngram_flag_and_warning(config_file, capsys):
    cfg = config_file()
    rc = main(["decode", "--config", cfg, "--drafter", "oracle",
               "--prompt-tokens", "1 2"])
    assert rc == EXIT_OK
    assert "no trie configured" in capsys.readouterr().err
    rc = main(["decode", "--config", cfg, "--drafter", "oracle",
               "--prompt-tokens", "1 2", "--no-ngram"])
    assert rc == EXIT_OK
    assert "no trie configured" not in capsys.readouterr().err


def test_decode_with_trie_and_jsonl(tmp_path, config_file, capsys):
    trie = build_trie([[1, 2, 3, 1, 2, 4]], 3, 16)
    trie_path = tmp_path / "t.bin"
    save_trie(trie, trie_path)
    cfg = config_file(paths={"trie": str(trie_path)})
    rc = main(["decode", "--config", cfg, "--drafter", "oracle",
               "--prompt-tokens", "1 2", "--jsonl"])
    assert rc == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    records = [json.loads(l) for l in lines]
    assert "tau" in records[-1]
    assert all("draft_ms" in r for r in records[:-1])
    d, theta = 3, 8  # the config's decode.d and prune.theta
    assert all(len(r["nodes_per_level"]) == d and 1 <= sum(r["nodes_per_level"]) <= theta
               for r in records[:-1])
    rates = records[-1]["accept_rates"]
    assert len(rates) == d and all(0.0 <= a <= 1.0 for a in rates)


def test_trie_vocab_mismatch_exits_2(tmp_path, config_file, capsys):
    trie_path = tmp_path / "t.bin"
    save_trie(build_trie([[1, 2, 3, 1, 2, 200]], 3, 256), trie_path)
    cfg = config_file(paths={"trie": str(trie_path)})
    for argv in (["decode", "--config", cfg, "--prompt-tokens", "1 2"],
                 ["eval", "--config", cfg, "--drafter", "oracle", "--tau-prompts", "1"]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "vocab 256" in err and "target has 16" in err


def test_decode_max_tokens_one(config_file, capsys):
    cfg = config_file(decode={"d": 3, "max_tokens": 1, "temperature": 0.0})
    rc = main(["decode", "--config", cfg, "--drafter", "oracle",
               "--prompt-tokens", "1 2", "--jsonl"])
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["cycles"] == 1 and summary["tokens_out"] == 1


def test_decode_transcript_file(tmp_path, config_file):
    cfg = config_file()
    out = tmp_path / "transcript.txt"
    rc = main(["decode", "--config", cfg, "--drafter", "oracle",
               "--prompt-tokens", "1 2", "--transcript", str(out)])
    assert rc == EXIT_OK
    assert len(out.read_text().split()) == 16


def test_unknown_config_key_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"seed": 1, "bogus": {}}))
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text(json.dumps({"prune": {"beam": 2}}))
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_override_parsing():
    cfg = load_config(None, ["prune.k=3", "decode.temperature=0.5", "seed=9"])
    assert cfg.decode.prune.k == 3
    assert cfg.decode.temperature == 0.5
    assert cfg.seed == 9
    with pytest.raises(ConfigError):
        load_config(None, ["malformed"])


def test_default_config_uses_reference_constants():
    cfg = load_config(None)
    prune = cfg.decode.prune
    assert (prune.k, prune.w, prune.theta) == (25, 20, 59)
    assert cfg.decode.d == 8
    assert cfg.training["gamma"] == 0.6


def test_bench_trie_zero_queries(tmp_path, capsys):
    trie = build_trie([[0, 1, 2, 3, 4]], 3, 8)
    path = tmp_path / "t.bin"
    save_trie(trie, path)
    rc = main(["bench-trie", "--trie", str(path), "--queries", "0"])
    assert rc == EXIT_OK
    assert "empty histogram" in capsys.readouterr().out


def test_bench_trie_runs_and_reports(tmp_path, capsys):
    rng = np.random.default_rng(0)
    trie = build_trie([list(rng.integers(0, 16, 400))], 3, 16)
    path = tmp_path / "t.bin"
    save_trie(trie, path)
    rc = main(["bench-trie", "--trie", str(path), "--queries", "5000", "--jsonl"])
    assert rc == EXIT_OK
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert records[-1]["queries"] == 5000
    assert records[-1]["median_us"] > 0
    assert 0 < records[-1]["batch_median_us"] <= records[-1]["batch_p90_us"]


def test_bench_trie_checks_the_queries_cap_before_reading_the_trie(tmp_path, capsys):
    # A missing trie file would exit 3: the cap is checked first, so a value
    # past it allocates nothing; 10**6 itself passes the check.
    missing = str(tmp_path / "missing.bin")
    assert main(["bench-trie", "--trie", missing, "--queries", "1000001"]) == EXIT_CONFIG
    assert "--queries must be <= 1000000" in capsys.readouterr().err
    assert main(["bench-trie", "--trie", missing, "--queries", "1000000"]) == EXIT_IO


def test_bench_trie_allocates_nothing_the_size_of_the_vocabulary(tmp_path, capsys):
    # A batch's top-up tokens are drawn from the vocabulary, not taken from
    # an array of all of it: at V = 2**20 such arrays peak above 50 MiB.
    path = tmp_path / "t.bin"
    save_trie(build_trie([[1, 2, 3, 2 ** 20 - 1, 5, 6]], 2, 2 ** 20), path)
    tracemalloc.start()
    try:
        assert main(["bench-trie", "--trie", str(path), "--queries", "100"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert "key_scores of 20 contexts x 25 tokens" in capsys.readouterr().out


def test_v1_trie_file_exits_3_with_rebuild_message(tmp_path, config_file, capsys):
    path = tmp_path / "v1.trie"
    path.write_bytes(b"NGTR" + (1).to_bytes(2, "little") + bytes([3, 16, 0, 0]))
    cfg = config_file(paths={"trie": str(path)})
    for argv in (["decode", "--config", cfg, "--prompt-tokens", "1 2"],
                 ["bench-trie", "--trie", str(path), "--queries", "10"]):
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert "build-trie" in err and "Traceback" not in err


@pytest.fixture
def train_config(tmp_path):
    cfg = {
        "seed": 5,
        "target": {"seed": 5, "vocab_size": 8, "order": 1, "concentration": 0.05},
        "decode": {"d": 3},
        "prune": {"k": 6, "w": 6, "theta": 12},
        "training": {"gamma": 0.6, "steps": 60, "lr": 0.1,
                     "sequence_length": 12, "corpus_sequences": 8,
                     "heldout_sequences": 10},
        "paths": {"model": str(tmp_path / "toy.npz")},
    }
    p = tmp_path / "train.json"
    p.write_text(json.dumps(cfg))
    return str(p), tmp_path


def test_train_eval_report_cycle(train_config, capsys):
    cfg, tmp_path = train_config
    rc = main(["train-toy", "--config", cfg])
    assert rc == EXIT_OK
    assert (tmp_path / "toy.npz").exists()
    log_path = tmp_path / "toy.npz.log.jsonl"
    assert log_path.exists()
    capsys.readouterr()

    rc = main(["eval", "--config", cfg, "--drafter", "toy", "--tau-prompts", "2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "a-1" in out and "tau" in out

    rc = main(["report", "--log", str(log_path), "--every", "20"])
    assert rc == EXIT_OK
    assert "loss" in capsys.readouterr().out


def test_train_toy_null_model_path_takes_the_default(train_config, monkeypatch):
    cfg, tmp_path = train_config
    monkeypatch.chdir(tmp_path)
    rc = main(["train-toy", "--config", cfg, "--override", "paths.model=null",
               "--override", "training.steps=2"])
    assert rc == EXIT_OK
    assert (tmp_path / "toy_draft.npz").exists()


def test_train_log_byte_identical_across_runs(train_config, capsys):
    cfg, tmp_path = train_config
    main(["train-toy", "--config", cfg])
    first = (tmp_path / "toy.npz.log.jsonl").read_bytes()
    main(["train-toy", "--config", cfg])
    second = (tmp_path / "toy.npz.log.jsonl").read_bytes()
    assert first == second


def test_train_toy_has_no_jsonl_flag(train_config, capsys):
    # train-toy writes its records to the --log file and prints no JSON.
    cfg, _ = train_config
    with pytest.raises(SystemExit) as exc:
        main(["train-toy", "--config", cfg, "--jsonl"])
    assert exc.value.code == 2
    assert "--jsonl" in capsys.readouterr().err


def test_train_divergence_exit_code(train_config, capsys):
    cfg, _ = train_config
    rc = main(["train-toy", "--config", cfg, "--override", "training.lr=50",
               "--override", "target.concentration=5.0"])
    assert rc == EXIT_DIVERGED


def test_train_nan_loss_exits_4_and_writes_no_model(train_config, capsys):
    cfg, tmp_path = train_config
    rc = main(["train-toy", "--config", cfg, "--override", "training.lr=1e308",
               "--override", "training.steps=3"])
    assert rc == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "loss nan" in err and "Warning" not in err
    assert not (tmp_path / "toy.npz").exists()


@pytest.mark.parametrize("extra", [["--override", "training.steps=1"],
                                   ["--override", "training.steps=3", "--eval-every", "1"]],
                         ids=["last-update", "evaluated-update"])
def test_train_diverged_update_exits_4_and_writes_nothing(train_config, capsys, extra):
    # A diverging last update, or one that an evaluation reads next, is
    # caught before the weights are evaluated or written.
    cfg, tmp_path = train_config
    rc = main(["train-toy", "--config", cfg, "--override", "training.lr=1e308", *extra])
    assert rc == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "loss nan" in err and "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "toy.npz").exists()
    assert not (tmp_path / "toy.npz.log.jsonl").exists()


def test_train_zero_steps_checks_the_batch_and_writes_nothing(train_config, capsys):
    # With no step to run, the batch is still built, so a gamma outside
    # (0, 1] is rejected rather than written as an untrained model.
    cfg, tmp_path = train_config
    rc = main(["train-toy", "--config", cfg, "--override", "training.steps=0",
               "--override", "training.gamma=5"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "gamma" in err and "Traceback" not in err
    assert not (tmp_path / "toy.npz").exists()
    assert not (tmp_path / "toy.npz.log.jsonl").exists()


@pytest.mark.parametrize("argv, missing", [
    (["decode", "--prompt-tokens", "1 2"], "trie"),
    (["eval", "--drafter", "oracle", "--tau-prompts", "1"], "trie"),
    (["decode", "--drafter", "toy", "--prompt-tokens", "1 2"], "model"),
    (["eval", "--drafter", "toy", "--tau-prompts", "1"], "model"),
    (["train-toy", "--override", "training.steps=2"], None),
    (["decode", "--baseline", "--drafter", "toy", "--prompt-tokens", "1 2"], None),
    (["decode", "--no-ngram", "--prompt-tokens", "1 2"], None),
], ids=["decode-trie", "eval-trie", "decode-toy-model", "eval-toy-model",
        "train-toy", "decode-baseline", "decode-no-ngram"])
def test_command_opens_only_the_files_it_reads(train_config, capsys, argv, missing):
    # A missing file that the command reads is an I/O error naming it; one
    # that it does not read is no error at all.
    cfg, tmp_path = train_config
    nope = {"trie": tmp_path / "nope.trie", "model": tmp_path / "nope.npz"}
    overrides = ["--override", f"paths.model={nope['model']}"]
    if missing != "model":  # else decode would fail on the trie before the model
        overrides += ["--override", f"paths.trie={nope['trie']}"]
    rc = main([argv[0], "--config", cfg, *overrides, *argv[1:]])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if missing is None:
        assert rc == EXIT_OK
    else:
        assert rc == EXIT_IO and f"i/o error: [Errno 2] No such file or directory: " \
            f"'{nope[missing]}'" in err


def test_eval_oracle_greedy_alpha_is_one(train_config, capsys):
    cfg, _ = train_config
    rc = main(["eval", "--config", cfg, "--drafter", "oracle",
               "--alpha-vs", "greedy", "--tau-prompts", "1", "--jsonl"])
    assert rc == EXIT_OK
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert all(a == 1.0 for a in rec["alpha"])


@pytest.mark.parametrize("argv", [
    ["eval", "--drafter", "oracle", "--tau-prompts", "0"],
    ["eval", "--drafter", "oracle", "--tau-prompts", "2"],
    ["decode", "--drafter", "oracle", "--prompt-tokens", "1 2"],
], ids=["eval-no-tau-prompts", "eval", "decode"])
def test_jsonl_output_is_strict_json(train_config, capsys, argv):
    cfg, _ = train_config
    assert main([*argv, "--config", cfg, "--jsonl"]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    records = [json.loads(l, parse_constant=reject) for l in lines]
    assert records
    if argv[-1] == "0":
        assert records[0]["tau"] is None


def test_eval_without_tau_prompts_prints_a_dash(train_config, capsys):
    cfg, _ = train_config
    rc = main(["eval", "--config", cfg, "--drafter", "oracle", "--tau-prompts", "0"])
    assert rc == EXIT_OK
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "tau" and row.split()[-1] == "-"


def test_eval_tau_runs_stop_at_eos_token(train_config, capsys):
    # At T=0 the first tau run emits the target's greedy continuation of its
    # prompt; with that continuation's first token as eos it stops after it.
    cfg, _ = train_config
    run = load_config(cfg)
    _, heldout = _training_corpora(run)
    eos = baseline_decode(heldout[0][:4], run.target, 1)[0]
    argv = ["eval", "--config", cfg, "--drafter", "oracle", "--tau-prompts", "1", "--jsonl"]
    taus = []
    for extra in ([], ["--override", f"decode.eos_token={eos}"]):
        assert main(argv + extra) == EXIT_OK
        taus.append(json.loads(capsys.readouterr().out.splitlines()[0])["tau"])
    assert taus[0] > 1.0 and taus[1] == 1.0


def test_toy_drafter_vocab_mismatch_rejected(train_config, capsys):
    cfg, _ = train_config
    main(["train-toy", "--config", cfg])
    capsys.readouterr()
    rc = main(["decode", "--config", cfg, "--drafter", "toy",
               "--prompt-tokens", "1", "--override", "target.vocab_size=16"])
    assert rc == EXIT_CONFIG
    assert "vocab" in capsys.readouterr().err


def test_toy_drafter_misshapen_model_file_exits_3(tmp_path, config_file, capsys):
    path = tmp_path / "toy.npz"
    ToyDraft(16, MarkovTarget(7, 16, 2).embeddings).save(path)
    data = dict(np.load(path))
    data["W_head"] = np.zeros((3, 3))
    np.savez(path, **data)
    cfg = config_file(paths={"model": str(path)})
    rc = main(["decode", "--config", cfg, "--drafter", "toy", "--prompt-tokens", "1 2"])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert "W_head" in err and "Traceback" not in err


def test_toy_drafter_model_file_with_nan_weight_exits_3(tmp_path, config_file, capsys):
    path = tmp_path / "toy.npz"
    ToyDraft(16, MarkovTarget(7, 16, 2).embeddings).save(path)
    data = dict(np.load(path))
    data["Wq"][3, 5] = np.nan
    np.savez(path, **data)
    cfg = config_file(paths={"model": str(path)})
    rc = main(["decode", "--config", cfg, "--drafter", "toy", "--prompt-tokens", "1 2"])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert "'Wq'" in err and "NaN" in err and "Traceback" not in err


def test_estimate_speedup_command(capsys):
    rc = main(["estimate-speedup", "--tau", "4", "--t-verify", "10",
               "--t-draft", "0", "--t-prune", "0", "--t-base", "10"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "4.0000" in out
    rc = main(["estimate-speedup", "--tau", "0.5", "--t-verify", "10",
               "--t-draft", "0", "--t-prune", "0", "--t-base", "10"])
    assert rc == EXIT_CONFIG


_SPEEDUP_ARGS = ["--t-draft", "0", "--t-prune", "0", "--t-base", "10"]


@pytest.mark.parametrize("argv, blamed", [
    (["decode", "--config", "{cfg}", "--prompt-tokens", "abc"], "prompt tokens"),
    (["decode", "--config", "{cfg}", "--prompt-tokens", ""], "prompt must be nonempty"),
    (["decode", "--config", "{cfg}", "--baseline", "--prompt-tokens", ""],
     "prompt must be nonempty"),
    (["bench-trie", "--trie", "{trie}", "--queries", "-5"], "--queries"),
    (["bench-trie", "--trie", "{trie}", "--seed", "-1"], "--seed"),
    (["eval", "--config", "{cfg}", "--drafter", "oracle", "--tau-prompts", "-1"],
     "--tau-prompts"),
    (["train-toy", "--config", "{cfg}", "--eval-every", "-1"], "--eval-every"),
    (["report", "--log", "{log}", "--every", "-2"], "--every"),
    (["build-trie", "--corpus", "{corpus}", "--out", "{out}", "--vocab-size", "-3"],
     "--vocab-size"),
    (["estimate-speedup", "--tau", "nan", "--t-verify", "10", *_SPEEDUP_ARGS], "tau"),
    (["estimate-speedup", "--tau", "4", "--t-verify", "inf", *_SPEEDUP_ARGS], "t_verify"),
], ids=["prompt-tokens-abc", "prompt-tokens-empty", "baseline-prompt-tokens-empty",
        "queries-negative", "seed-negative",
        "tau-prompts-negative", "eval-every-negative", "every-negative",
        "vocab-size-negative", "tau-nan", "t-verify-inf"])
def test_bad_flag_or_prompt_exits_2(train_config, capsys, argv, blamed):
    cfg, tmp_path = train_config
    trie = tmp_path / "t.bin"
    save_trie(build_trie([[0, 1, 2, 3, 4]], 3, 8), trie)
    log = tmp_path / "log.jsonl"
    log.write_text('{"step": 0, "loss": 1.0}\n', encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("1 2 3 1 2\n", encoding="utf-8")
    files = {"cfg": cfg, "trie": trie, "log": log, "corpus": corpus,
             "out": tmp_path / "new.bin"}
    rc = main([a.format(**files) for a in argv])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and blamed in err and "Traceback" not in err


@pytest.mark.parametrize("argv, blamed", [
    (["decode", "--config", "{cfg}", "--override", "prune=3"], "prune must be a JSON object"),
    (["decode", "--config", "{cfg}", "--override", "paths=3"], "paths must be a JSON object"),
    (["decode", "--config", "{cfg}", "--override", "target=3"], "target must be a JSON object"),
    (["decode", "--config", "{cfg}", "--override", "paths.trie=5"], "paths.trie"),
    (["decode", "--config", "{cfg}", "--drafter", "toy", "--override", "paths.model=[1]"],
     "paths.model"),
    (["decode", "--config", "{latin1}"], "{latin1}"),
    (["eval", "--config", "{cfg}", "--drafter", "oracle", "--override", "decode.d=-1"],
     "d must be >= 1"),
    (["train-toy", "--config", "{cfg}", "--override", "training.d=3"],
     "unknown config key(s) in training: ['d']"),
    (["train-toy", "--config", "{cfg}", "--override", "training.lr=-1"], "lr must be > 0"),
    (["train-toy", "--config", "{cfg}", "--override", "training.lr=0"], "lr must be > 0"),
    (["train-toy", "--config", "{cfg}", "--override", "training.steps=2.5"], "training.steps"),
    (["train-toy", "--config", "{cfg}", "--override", "training.sequence_length=-3"],
     "training.sequence_length must be >= 1"),
    (["train-toy", "--config", "{cfg}", "--override", "training.corpus_sequences=0"],
     "training.corpus_sequences must be >= 1"),
    (["train-toy", "--config", "{cfg}", "--override", "training.heldout_sequences=-5"],
     "training.heldout_sequences must be >= 0"),
    (["eval", "--config", "{cfg}", "--drafter", "oracle", "--override",
      "training.heldout_sequences=-5"], "training.heldout_sequences must be >= 0"),
    (["report", "--log", "{not_json}"], "{not_json}:2"),
    (["report", "--log", "{not_object}"], "{not_object}:2"),
    (["report", "--log", "{no_loss}"], "{no_loss}:2"),
    (["report", "--log", "{latin1}"], "{latin1}"),
], ids=["prune-not-object", "paths-not-object", "target-not-object", "trie-path-not-string",
        "model-path-not-string", "config-not-utf8", "eval-d-negative", "train-d-unknown",
        "lr-negative", "lr-zero", "steps-not-integer", "sequence-length-negative",
        "corpus-sequences-zero", "heldout-sequences-negative", "eval-heldout-negative",
        "log-line-not-json",
        "log-record-not-object", "log-record-without-loss", "log-not-utf8"])
def test_bad_config_or_log_exits_2(train_config, capsys, argv, blamed):
    cfg, tmp_path = train_config
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"paths": {"train_log": "caf\xe9.jsonl"}}\n'.encode("latin-1"))
    files = {"cfg": cfg, "latin1": latin1}
    for name, line in (("not_json", "{step: 1"), ("not_object", "[1, 2]"),
                       ("no_loss", '{"step": 1}')):
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text('{"step": 0, "loss": 1.0}\n' + line + "\n", encoding="utf-8")
    rc = main([a.format(**files) for a in argv])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and blamed.format(**files) in err and "Traceback" not in err


def test_text_prompt_requires_byte_vocab(config_file):
    rc = main(["decode", "--config", config_file(), "--prompt", "hello"])
    assert rc == EXIT_CONFIG


def test_text_prompt_byte_pipeline(tmp_path, capsys):
    src = tmp_path / "corpus.txt"
    src.write_text("the cat sat\nthe dog sat\n", encoding="utf-8")
    trie_path = tmp_path / "bytes.trie"
    rc = main(["build-trie", "--corpus", str(src), "--order", "3",
               "--out", str(trie_path), "--format", "text"])
    assert rc == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "target": {"seed": 2, "vocab_size": 256, "order": 1, "concentration": 0.05},
        "decode": {"d": 3, "max_tokens": 12, "temperature": 0.0},
        "prune": {"k": 8, "w": 8, "theta": 12},
        "paths": {"trie": str(trie_path)},
    }))
    capsys.readouterr()
    rc = main(["decode", "--config", str(cfg), "--drafter", "oracle",
               "--prompt", "the "])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "# text:" in out
