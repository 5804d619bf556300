import json

import numpy as np
import pytest

from specdraft.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, load_config, main
from specdraft.errors import ConfigError
from specdraft.models import MarkovTarget, ToyDraft
from specdraft.ngram import build_trie, save_trie


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
    "decode.temperature=NaN", "decode.temperature=-1", "prune.k=0",
])
def test_decode_non_finite_or_out_of_range_config_exits_2(config_file, capsys, override):
    rc = main(["decode", "--config", config_file(), "--prompt-tokens", "1 2",
               "--override", override])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "prune.epsilon=0", "prune.epsilon=-1", "prune.w_ng=NaN", "prune.level_exponent=NaN",
    "prune.logit_decay=0.9", "decode.prune=3", "decode.seed=1",
])
def test_unsettable_key_is_unknown(config_file, capsys, override):
    # The pruning score's weights and floor are constants, and decode's seed
    # and prune come from the config's top-level seed and prune section.
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


def test_missing_referenced_file_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"paths": {"trie": str(tmp_path / "nope.bin")}}))
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
        "prune": {"k": 6, "w": 6, "theta": 12},
        "training": {"gamma": 0.6, "d": 3, "steps": 60, "lr": 0.1,
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


def test_train_divergence_exit_code(train_config, capsys):
    cfg, _ = train_config
    rc = main(["train-toy", "--config", cfg, "--override", "training.lr=50",
               "--override", "target.concentration=5.0"])
    assert rc == EXIT_DIVERGED


def test_eval_oracle_greedy_alpha_is_one(train_config, capsys):
    cfg, _ = train_config
    rc = main(["eval", "--config", cfg, "--drafter", "oracle",
               "--alpha-vs", "greedy", "--tau-prompts", "1", "--jsonl"])
    assert rc == EXIT_OK
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert all(a == 1.0 for a in rec["alpha"])


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
], ids=["prompt-tokens-abc", "prompt-tokens-empty", "queries-negative", "seed-negative",
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
    (["eval", "--config", "{cfg}", "--drafter", "oracle", "--override", "training.d=-1"],
     "d must be >= 1"),
    (["report", "--log", "{not_json}"], "{not_json}:2"),
    (["report", "--log", "{not_object}"], "{not_object}:2"),
    (["report", "--log", "{no_loss}"], "{no_loss}:2"),
    (["report", "--log", "{latin1}"], "{latin1}"),
], ids=["prune-not-object", "paths-not-object", "target-not-object", "trie-path-not-string",
        "model-path-not-string", "config-not-utf8", "eval-d-negative", "log-line-not-json",
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
