import math
import struct
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdraft.errors import (
    BadMagicError,
    ConfigError,
    OutOfVocabularyError,
    TrieFormatError,
    TruncatedFileError,
    VersionMismatchError,
)
from specdraft.ngram import (
    EPSILON,
    MAGIC,
    build_trie,
    load_trie,
    read_text_corpus,
    read_token_corpus,
    save_trie,
    tokenize_bytes,
)

from oracles import WindowCounter

A, B, C, D = 0, 1, 2, 3


def test_build_repeated_window():
    trie = build_trie([[A, B, A, B, A]], order=3)
    assert trie.counts((A, B)) == {A: 2}
    assert trie.counts((B, A)) == {B: 1}
    assert trie.contexts() == [(A, B), (B, A)]


def test_build_two_children():
    trie = build_trie([[A, B, C, A, B, D]], order=3)
    assert trie.counts((A, B)) == {C: 1, D: 1}


def test_empty_sequence_corpus():
    trie = build_trie([[]], order=3)
    assert trie.stats().node_count == 1
    assert trie.children_scores(()) == {}


def test_order_below_two_rejected():
    with pytest.raises(ConfigError):
        build_trie([[1, 2, 3]], order=1)


def test_out_of_vocabulary_names_sequence():
    with pytest.raises(OutOfVocabularyError) as exc:
        build_trie([[0, 1], [0, 9, 1]], order=2, vocab_size=4)
    assert exc.value.sequence_index == 1
    assert "sequence 1" in str(exc.value)


def test_score_examples():
    trie = build_trie([[A, B, A, B, A]], order=3)
    assert trie.score((A, B), A) == pytest.approx(math.log(1.0 + EPSILON))
    assert abs(trie.score((A, B), A)) < 1e-8

    trie2 = build_trie([[A, B, C, A, B, D]], order=3)
    assert trie2.score((A, B), C) == pytest.approx(math.log(0.5 + EPSILON))

    assert trie2.score((7, 7), 0) == pytest.approx(math.log(1e-9))
    assert trie2.score((7, 7), 0) == pytest.approx(-20.72, abs=0.01)


def test_children_scores_examples():
    trie = build_trie([[A, B, C, A, B, D]], order=3)
    scores = trie.children_scores((A, B))
    assert scores == {
        C: pytest.approx(math.log(0.5 + EPSILON)),
        D: pytest.approx(math.log(0.5 + EPSILON)),
    }
    assert trie.children_scores((9, 9)) == {}
    trie2 = build_trie([[A, B, A, B, A]], order=3)
    assert trie2.children_scores((B, A)) == {B: pytest.approx(math.log(1.0 + EPSILON))}


def test_short_context_descends_available_suffix():
    trie = build_trie([[A, B, C], [A, D, C]], order=3)
    # Depth-1 context (A,): children are the second window tokens.
    scores = trie.children_scores((A,))
    assert set(scores) == {B, D}
    assert scores[B] == pytest.approx(math.log(0.5 + EPSILON))


def test_long_context_uses_trailing_tokens():
    trie = build_trie([[A, B, C, A, B, D]], order=3)
    assert trie.score((C, C, C, A, B), C) == trie.score((A, B), C)


corpora = st.lists(
    st.lists(st.integers(0, 15), max_size=60),
    min_size=1, max_size=8,
)


@given(corpora, st.integers(2, 4))
def test_oracle_equivalence_random(corpus, order):
    trie = build_trie(corpus, order, vocab_size=16)
    counter = WindowCounter(corpus, order)
    contexts = {tuple(seq[i:i + order - 1]) for seq in corpus
                for i in range(max(0, len(seq) - order + 2))}
    contexts.add((5, 5))
    for ctx in contexts:
        assert trie.children_scores(ctx) == counter.children_scores(ctx)
        for tok in list(counter.children(ctx)) + [0, 15]:
            assert trie.score(ctx, tok) == counter.score(ctx, tok)


def _all_contexts(trie):
    """Every context with a continuation: the full ones and all their prefixes."""
    return {ctx[:n] for ctx in trie.contexts() for n in range(trie.order)}


@given(corpora, st.integers(2, 4))
def test_children_probabilities_sum_to_one(corpus, order):
    trie = build_trie(corpus, order, vocab_size=16)
    for ctx in _all_contexts(trie):
        counts = trie.counts(ctx)
        total = sum(counts.values())
        assert abs(sum(c / total for c in counts.values()) - 1.0) < 1e-12
        if len(ctx) < order - 1:
            # A continuation's count is the total of the context it extends to.
            for tok, count in counts.items():
                assert count == sum(trie.counts(ctx + (tok,)).values())


def _trie_equal(a, b):
    assert a.order == b.order and a.vocab_size == b.vocab_size
    assert a.contexts() == b.contexts()
    for ctx in _all_contexts(a):
        assert a.counts(ctx) == b.counts(ctx)
    assert a.stats().node_count == b.stats().node_count


def test_round_trip(tmp_path, rng):
    corpus = [list(rng.integers(0, 12, size=rng.integers(0, 80))) for _ in range(6)]
    trie = build_trie(corpus, 3, vocab_size=12)
    path = tmp_path / "t.bin"
    n = save_trie(trie, path)
    assert n == path.stat().st_size
    loaded = load_trie(path)
    _trie_equal(trie, loaded)
    for seq in corpus:
        for i in range(max(0, len(seq) - 2)):
            ctx = tuple(seq[i:i + 2])
            assert trie.children_scores(ctx) == loaded.children_scores(ctx)


def test_round_trip_large_tokens_and_counts(tmp_path):
    corpus = [[500, 501, 502]] * 20000 + [[0, 1, 2, 500]]
    trie = build_trie(corpus, 3, vocab_size=600)
    path = tmp_path / "big.bin"
    save_trie(trie, path)
    loaded = load_trie(path)
    _trie_equal(trie, loaded)
    assert loaded.counts((500, 501)) == {502: 20000}
    assert loaded.counts(()) == {0: 1, 1: 1, 500: 20000}


def test_round_trip_deep_order(tmp_path, rng):
    corpus = [list(rng.integers(0, 6, size=60)) for _ in range(3)]
    trie = build_trie(corpus, 5, vocab_size=6)
    path = tmp_path / "deep.bin"
    save_trie(trie, path)
    _trie_equal(trie, load_trie(path))


def test_load_zero_byte_file(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    with pytest.raises(TruncatedFileError):
        load_trie(p)


def test_load_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        load_trie(p)


def test_load_version_mismatch(tmp_path):
    p = tmp_path / "v9.bin"
    p.write_bytes(MAGIC + (9).to_bytes(2, "little") + b"\x03\x04\x00\x00")
    with pytest.raises(VersionMismatchError):
        load_trie(p)


def test_load_truncated_stream(tmp_path):
    trie = build_trie([[0, 1, 2, 3]], 3)
    p = tmp_path / "t.bin"
    save_trie(trie, p)
    data = p.read_bytes()
    p.write_bytes(data[:-3])
    with pytest.raises(TruncatedFileError):
        load_trie(p)


def test_load_trailing_garbage(tmp_path):
    trie = build_trie([[0, 1, 2]], 3)
    p = tmp_path / "t.bin"
    save_trie(trie, p)
    p.write_bytes(p.read_bytes() + b"\x01\x02")
    with pytest.raises(TruncatedFileError):
        load_trie(p)


def _v2_bytes(order, vocab_size, windows, counts, rows=None, padding=0):
    """A trie file spelled out from the documented layout, independent of save_trie."""
    windows = np.asarray(windows, dtype="<i8")
    counts = np.asarray(counts, dtype="<i8")
    rows = len(counts) if rows is None else rows
    header = struct.pack("<4sHHqqq", MAGIC, 2, padding, order, vocab_size, rows)
    return header + windows.tobytes() + counts.tobytes()


def test_v2_layout_loads_and_writes_back(tmp_path):
    data = _v2_bytes(3, 4, [[0, 1, 2], [0, 1, 3], [1, 2, 0]], [2, 1, 1])
    p = tmp_path / "t.bin"
    p.write_bytes(data)
    trie = load_trie(p)
    assert (trie.order, trie.vocab_size) == (3, 4)
    assert trie.counts((0, 1)) == {2: 2, 3: 1}
    assert trie.counts((0,)) == {1: 3}
    assert trie.counts(()) == {0: 3, 1: 1}
    assert trie.stats().node_count == 1 + 2 + 2 + 3
    assert trie.children_scores((0, 1)) == {2: math.log(2 / 3 + EPSILON),
                                            3: math.log(1 / 3 + EPSILON)}
    out = tmp_path / "out.bin"
    assert save_trie(trie, out) == len(data)
    assert out.read_bytes() == data
    assert save_trie(build_trie([[0, 1, 2], [0, 1, 2], [0, 1, 3], [1, 2, 0]], 3, 4),
                     out) == len(data)
    assert out.read_bytes() == data


@pytest.mark.parametrize("fields, message", [
    (dict(rows=2), "trailing bytes"),
    (dict(rows=4), "rows"),
    (dict(rows=2 ** 60), "rows"),
    (dict(rows=-1), "negative"),
    (dict(order=1, windows=[0, 1, 2, 3, 1, 2]), "order"),
    (dict(order=-3, windows=[]), "order"),
    (dict(vocab_size=-1), "negative"),
    (dict(vocab_size=3), "outside"),
    (dict(windows=[[-1, 1, 2], [0, 1, 3], [1, 2, 0]]), "outside"),
    (dict(counts=[2, 0, 1]), "below 1"),
    (dict(counts=[2, 1, -7]), "below 1"),
    (dict(windows=[[0, 1, 3], [0, 1, 2], [1, 2, 0]]), "increasing"),
    (dict(windows=[[0, 1, 2], [0, 1, 2], [1, 2, 0]]), "duplicate"),
    (dict(padding=1), "padding"),
])
def test_load_rejects_malformed_table(tmp_path, fields, message):
    args = dict(order=3, vocab_size=4, windows=[[0, 1, 2], [0, 1, 3], [1, 2, 0]],
                counts=[2, 1, 1])
    args.update(fields)
    p = tmp_path / "bad.bin"
    p.write_bytes(_v2_bytes(**args))
    with pytest.raises(TrieFormatError, match=message):
        load_trie(p)


def test_load_v1_file_asks_for_rebuild(tmp_path):
    # A version-1 file: magic, u16 version 1, varint order 3 and vocab 4, empty root.
    p = tmp_path / "v1.trie"
    p.write_bytes(MAGIC + (1).to_bytes(2, "little") + bytes([3, 4, 0, 0]))
    with pytest.raises(VersionMismatchError, match="build-trie"):
        load_trie(p)


_VALID = _v2_bytes(3, 300, [[0, 1, 2], [0, 1, 299], [1, 2, 0], [2, 0, 1], [299, 0, 1]],
                   [3, 1, 2, 70000, 1])
_mutations = st.one_of(
    st.lists(st.tuples(st.integers(0, len(_VALID) - 1), st.integers(1, 255)),
             min_size=1, max_size=4).map(lambda flips: ("flip", flips)),
    st.integers(0, len(_VALID) - 1).map(lambda n: ("truncate", n)),
    st.binary(min_size=1, max_size=40).map(lambda tail: ("append", tail)),
)


def _parse_v2(data):
    """(order, vocab_size, rows as tuples, counts) read with struct alone."""
    _, _, _, order, vocab_size, rows = struct.unpack_from("<4sHHqqq", data)
    values = struct.unpack_from(f"<{rows * (order + 1)}q", data, 32)
    windows = [values[i * order:(i + 1) * order] for i in range(rows)]
    return order, vocab_size, windows, values[rows * order:]


@settings(max_examples=400)
@given(_mutations)
def test_mutated_file_rejected_or_round_trips(mutation):
    kind, arg = mutation
    data = bytearray(_VALID)
    if kind == "flip":
        for pos, mask in arg:
            data[pos] ^= mask
    elif kind == "truncate":
        del data[arg:]
    else:
        data += arg
    with tempfile.TemporaryDirectory() as tmp:
        p, out = Path(tmp) / "m.bin", Path(tmp) / "out.bin"
        p.write_bytes(bytes(data))
        try:
            trie = load_trie(p)
        except TrieFormatError:
            return
        save_trie(trie, out)
        assert out.read_bytes() == bytes(data)
    # What loaded must hold the documented invariants and score from its rows.
    order, vocab_size, windows, counts = _parse_v2(bytes(data))
    assert (trie.order, trie.vocab_size) == (order, vocab_size)
    assert all(0 <= tok < vocab_size for window in windows for tok in window)
    assert all(count >= 1 for count in counts)
    assert all(a < b for a, b in zip(windows, windows[1:]))
    children = {}
    for window, count in zip(windows, counts):
        children.setdefault(window[:-1], {})[window[-1]] = count
    assert trie.contexts() == sorted(children)
    for ctx, kids in children.items():
        total = sum(kids.values())
        assert trie.children_scores(ctx) == {t: math.log(c / total + EPSILON)
                                             for t, c in kids.items()}


def test_concurrent_queries_leave_stats_unchanged(rng):
    # 8 threads x 62500 iterations x 2 queries = 1e6 interleaved reads.
    corpus = [list(rng.integers(0, 32, size=2000)) for _ in range(10)]
    trie = build_trie(corpus, 3, vocab_size=32)
    before = trie.stats()
    contexts = [tuple(rng.integers(0, 32, size=2)) for _ in range(256)]

    def hammer():
        for i in range(62500):
            ctx = contexts[i % len(contexts)]
            trie.children_scores(ctx)
            trie.score(ctx, i % 32)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    after = trie.stats()
    assert (before.node_count, before.distinct_contexts) == \
        (after.node_count, after.distinct_contexts)


def test_token_corpus_reader(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("1 2 3\n\n4 5\n")
    assert read_token_corpus(p) == [[1, 2, 3], [], [4, 5]]
    p.write_text("1 x 3\n")
    with pytest.raises(ConfigError):
        read_token_corpus(p)


def test_text_corpus_reader(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("ab\ncd\n", encoding="utf-8")
    assert read_text_corpus(p) == [[97, 98], [99, 100]]
    assert tokenize_bytes("hi") == [104, 105]
    assert max(tokenize_bytes("héllo")) < 256
