import math
import struct
import tempfile
import threading
import tracemalloc
from collections import Counter
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
    LOG_FLOOR,
    MAGIC,
    NgramTrie,
    build_trie,
    load_trie,
    read_text_corpus,
    read_token_corpus,
    save_trie,
    tokenize_bytes,
)

from oracles import WindowCounter, searchsorted_node_table

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


@pytest.mark.parametrize("vocab_size, highest", [(64, 10), (256, 7), (32000, 4)])
def test_order_is_bounded_by_int64_node_keys(tmp_path, vocab_size, highest):
    # A node key has `order` digits in base vocab_size + 2, and must stay
    # below 2^63: 66^10, 258^7 and 32002^4 do, one more digit does not.
    corpus = [list(range(20))]
    trie = build_trie(corpus, highest, vocab_size=vocab_size)
    assert trie.counts(range(1, highest)) == {highest: 1}
    p = tmp_path / "t.bin"
    save_trie(trie, p)
    assert load_trie(p).counts(range(highest - 1)) == {highest - 1: 1}
    with pytest.raises(ConfigError, match=rf"\[2, {highest}\]"):
        build_trie(corpus, highest + 1, vocab_size=vocab_size)
    p.write_bytes(_v2_bytes(highest + 1, vocab_size, [list(range(highest + 1))], [1]))
    with pytest.raises(TrieFormatError, match=rf"\[2, {highest}\]"):
        load_trie(p)


def test_out_of_vocabulary_names_sequence():
    with pytest.raises(OutOfVocabularyError) as exc:
        build_trie([[0, 1], [0, 9, 1]], order=2, vocab_size=4)
    assert exc.value.sequence_index == 1
    assert "sequence 1" in str(exc.value)


def _score(trie, context, token):
    """One (context, token) score: the token's entry among the context's
    continuations, or the floor for a token never seen after it."""
    return trie.children_scores(context).get(token, LOG_FLOOR)


def test_score_examples():
    trie = build_trie([[A, B, A, B, A]], order=3)
    assert _score(trie, (A, B), A) == pytest.approx(math.log(1.0 + EPSILON))
    assert abs(_score(trie, (A, B), A)) < 1e-8

    trie2 = build_trie([[A, B, C, A, B, D]], order=3)
    assert _score(trie2, (A, B), C) == pytest.approx(math.log(0.5 + EPSILON))

    assert _score(trie2, (7, 7), 0) == pytest.approx(math.log(1e-9))
    assert _score(trie2, (7, 7), 0) == pytest.approx(-20.72, abs=0.01)


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
    assert _score(trie, (C, C, C, A, B), C) == _score(trie, (A, B), C)


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
            assert _score(trie, ctx, tok) == counter.score(ctx, tok)


def _window_table(corpus, order, vocab_size):
    """The distinct full windows' keys, increasing, and their counts, each key
    the window's tokens in base vocab_size + 2."""
    windows = Counter()
    for seq in corpus:
        for s in range(len(seq) - order + 1):
            windows[_key(seq[s:s + order], vocab_size + 2)] += 1
    keys = sorted(windows)
    return (np.array(keys, dtype=np.int64),
            np.array([windows[k] for k in keys], dtype=np.int64))


def _key(window, base):
    key = 0
    for tok in window:
        key = key * base + int(tok)
    return key


def _assert_reference_table(trie, corpus):
    """The trie's keys and counts equal the searchsorted reference's int64
    values exactly, each in the width the policy gives (int32 for keys while
    B^order < 2^31, for counts while the root's count is below 2^31), and its
    scores equal the reference's bit for bit."""
    keys, counts, scores = searchsorted_node_table(
        trie.order, trie.base, *_window_table(corpus, trie.order, trie.vocab_size))
    assert trie.keys.dtype == (np.int32 if trie.base ** trie.order < 2 ** 31 else np.int64)
    assert trie.node_counts.dtype == (np.int32 if counts[-1] < 2 ** 31 else np.int64)
    assert np.array_equal(trie.keys, keys) and np.array_equal(trie.node_counts, counts)
    assert trie.node_scores.dtype == scores.dtype
    assert trie.node_scores.tobytes() == scores.tobytes()


vocab_corpora = st.integers(2, 300).flatmap(lambda V: st.tuples(
    st.just(V), st.lists(st.lists(st.integers(0, V - 1), max_size=60), min_size=1, max_size=8)))


@given(vocab_corpora, st.integers(2, 4))
def test_node_table_equals_the_searchsorted_reference(vocab_corpus, order):
    vocab_size, corpus = vocab_corpus
    _assert_reference_table(build_trie(corpus, order, vocab_size), corpus)


@pytest.mark.parametrize("corpus", [[[]], [[1, 2]], [[1, 2], [3], [0, 1]]])
def test_node_table_without_a_full_window(corpus):
    trie = build_trie(corpus, 3, vocab_size=8)
    assert len(trie.keys) == 1 and trie.node_scores.tolist() == [LOG_FLOOR]
    _assert_reference_table(trie, corpus)


def _ratio_where_np_log_misses():
    """The first c / p, 1 <= c < p, whose vectorized np.log(c / p + EPSILON)
    differs from math.log's, scanning small p."""
    for p in range(2, 400):
        for c in range(1, p):
            r = c / p + EPSILON
            if np.log(np.array([r]))[0] != math.log(r):
                return c, p
    pytest.skip("np.log equals math.log on every small ratio on this numpy build")


@pytest.mark.parametrize("order", [2, 3])
def test_node_scores_keep_math_log_where_np_log_misses(tmp_path, order):
    # Node (..., 0, 1) counts c of its parent's p windows; np.log misses that
    # ratio's math.log, so only the per-ratio correction gives its bits.
    c, p = _ratio_where_np_log_misses()
    lead = [3] * (order - 2)
    corpus = [lead + [0, 1]] * c + [lead + [0, 2]] * (p - c) + [[2, 3, 1, 2, 2, 1]]
    trie = build_trie(corpus, order, vocab_size=4)
    assert trie.children_scores(lead + [0])[1] == math.log(c / p + EPSILON)
    _assert_reference_table(trie, corpus)
    save_trie(trie, tmp_path / "t.bin")
    _assert_reference_table(load_trie(tmp_path / "t.bin"), corpus)


def _key_score_matrix(trie, contexts, tokens):
    """key_scores of every (context, token) pair, keyed as prune keys them:
    the context's key times the base plus the token's digit."""
    context_keys = np.array([trie.context_key(c) for c in contexts], dtype=np.int64)
    return trie.key_scores(context_keys[:, None] * trie.base + trie.digits(tokens))


def _gathered(trie, counter, contexts, tokens):
    """The key score matrix's contract: one children_scores call per context
    for the continuations it lists, and the flat counter's back-off for the rest."""
    rows = [[trie.children_scores(ctx).get(tok, counter.backoff_score(ctx, tok))
             for tok in tokens] for ctx in contexts]
    return np.array(rows, dtype=np.float64).reshape(len(contexts), len(tokens))


@pytest.mark.parametrize("order", [2, 3, 4, 9])  # 12^9 > 2^31: order 9 has int64 keys
@pytest.mark.parametrize("seed", range(4))
def test_key_scores_equal_gathered_children_scores(order, seed):
    rng = np.random.default_rng(seed)
    V = 10
    corpus = [list(rng.integers(0, V, size=int(rng.integers(1, 120)))) for _ in range(4)]
    trie = build_trie(corpus, order, vocab_size=V)
    assert trie.keys.dtype == (np.int64 if order == 9 else np.int32)
    seen = [tuple(seq[i:i + order - 1]) for seq in corpus for i in range(len(seq))]
    contexts = [seen[i] for i in rng.integers(0, len(seen), 12)]  # hits, some shorter
    contexts += [tuple(rng.integers(0, V, size=n)) for n in range(order + 3)]  # any length
    contexts += [(V + 3,) * (order - 1), (), contexts[0], contexts[0]]  # misses, duplicates
    for tokens in (rng.permutation(V + 4)[:7], np.arange(V), np.array([], np.int64),
                   np.array([2, 2, V + 5, 2, 0])):
        got = _key_score_matrix(trie, contexts, tokens)
        assert got.dtype == np.float64 and got.shape == (len(contexts), len(tokens))
        assert (got == _gathered(trie, WindowCounter(corpus, order), contexts, tokens)).all()


def test_key_scores_without_windows_or_contexts():
    empty = build_trie([[1, 2]], 3, vocab_size=8)
    assert (_key_score_matrix(empty, [(1, 2), (), (1,)], [1, 2, 9]) == LOG_FLOOR).all()
    trie = build_trie([[0, 1, 2, 0, 1, 3]], 3, vocab_size=4)
    assert _key_score_matrix(trie, [], [1, 2]).shape == (0, 2)
    assert (_key_score_matrix(trie, [(0, 1)], [3, 2]) == [[math.log(1 / 2 + EPSILON)] * 2]).all()


@given(corpora, st.integers(2, 4), st.lists(st.integers(0, 20), max_size=30))
def test_key_scores_match_the_flat_counter(corpus, order, tokens):
    trie = build_trie(corpus, order, vocab_size=16)
    counter = WindowCounter(corpus, order)
    contexts = [tuple(seq[i:i + order - 1]) for seq in corpus for i in range(len(seq))]
    want = np.reshape([[counter.backoff_score(ctx, tok) for tok in tokens] for ctx in contexts],
                      (len(contexts), len(tokens)))
    assert (_key_score_matrix(trie, contexts, tokens) == want).all()


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


# -- node table widths ----------------------------------------------------------


@pytest.mark.parametrize("vocab_size, order, width", [
    (64, 5, np.int32), (64, 6, np.int64), (256, 3, np.int32), (256, 4, np.int64),
    (0, 30, np.int32), (0, 31, np.int64),  # B = 2: B^order = 2^30 and exactly 2^31
])
def test_keys_are_int32_exactly_while_b_to_the_order_is_below_2_to_the_31(
        vocab_size, order, width):
    assert ((vocab_size + 2) ** order < 2 ** 31) == (width == np.int32)
    corpus = [[t % max(vocab_size, 1) for t in range(order + 40)]] if vocab_size else [[]]
    trie = build_trie(corpus, order, vocab_size)
    assert trie.keys.dtype == width and trie.node_counts.dtype == np.int32
    _assert_reference_table(trie, corpus)


@pytest.mark.parametrize("counts, width", [
    ([2 ** 31 - 1], np.int32), ([2 ** 31], np.int64), ([2 ** 31 - 1, 1], np.int64)])
def test_counts_are_int64_from_2_to_the_31_windows(tmp_path, counts, width):
    windows = [[0, 1, 2], [3, 3, 3]][:len(counts)]
    keys = np.array([_key(w, 6) for w in windows], dtype=np.int64)
    trie = NgramTrie(3, 4, keys, np.array(counts, dtype=np.int64))
    assert trie.keys.dtype == np.int32 and trie.node_counts.dtype == width
    assert int(trie.node_counts[-1]) == sum(counts)
    assert trie.counts((0, 1)) == {2: counts[0]}
    assert trie.counts(()) == dict(zip((0, 3), counts))
    assert trie.children_scores(()) == {t: math.log(c / sum(counts) + EPSILON)
                                        for t, c in zip((0, 3), counts)}
    path = tmp_path / "t.bin"
    save_trie(trie, path)
    assert path.read_bytes() == _v2_bytes(3, 4, windows, counts)
    loaded = load_trie(path)
    assert loaded.node_counts.dtype == width
    assert np.array_equal(loaded.node_counts, trie.node_counts)


@pytest.mark.parametrize("vocab_size, order", [(10, 3), (64, 6)])  # int32 and int64 keys
def test_save_writes_the_v2_bytes_of_the_int64_reference_and_load_round_trips(
        tmp_path, vocab_size, order):
    rng = np.random.default_rng(order)
    corpus = [list(rng.integers(0, vocab_size, size=300)) for _ in range(3)] + [[1] * 50]
    trie = build_trie(corpus, order, vocab_size)
    keys, counts = _window_table(corpus, order, vocab_size)
    base = vocab_size + 2
    windows = [[key // base ** (order - 1 - i) % base for i in range(order)]
               for key in keys.tolist()]
    path = tmp_path / "t.bin"
    data = _v2_bytes(order, vocab_size, windows, counts)
    assert save_trie(trie, path) == len(data)
    assert path.read_bytes() == data
    loaded = load_trie(path)
    _assert_reference_table(loaded, corpus)
    _trie_equal(trie, loaded)


@pytest.mark.parametrize("vocab_size, order", [(256, 3), (64, 6)])  # int32 and int64 keys
def test_a_key_past_the_table_never_scores_as_the_node_it_wraps_onto(vocab_size, order):
    # A key that the int32 cast wraps, and a negative key, name no window and
    # score the floor. At (64, 6) the keys past 2^32 are below B^order: they
    # name absent windows and back off by their own last digit.
    corpus = [list(range(1, 3 * order))]
    trie = build_trie(corpus, order, vocab_size)
    counter = WindowCounter(corpus, order)
    node = int(trie.keys[0])  # a full window: it scores log(1 + eps), not the floor
    assert trie.key_scores(np.array([node])).tolist() == [math.log(1 + EPSILON)]
    top = (vocab_size + 2) ** order
    for key in (top, top + node, 2 ** 32 + node, 2 ** 33 + node, node - 2 ** 32, -1):
        try:
            got = trie.key_scores(np.array([[key]], dtype=np.int64))
        except IndexError:  # a key of B^order or more may raise, as it always has
            assert key >= top
            continue
        unigram = counter.prob((), key % (vocab_size + 2)) if 0 <= key < top else None
        want = LOG_FLOOR if unigram is None else math.log(unigram + 1e-9) + math.log(0.4)
        assert got.tolist() == [[want]] and want != math.log(1 + EPSILON), key


@pytest.mark.parametrize("vocab_size, order", [(10, 3), (64, 6)])  # int32 and int64 keys
def test_an_absent_window_backs_off_to_its_tokens_unigram(vocab_size, order):
    # Windows start with 1, 2 and 3 but never with 4, the last token, nor
    # with 7, which the corpus never holds. An absent window scores the
    # trie's unigram of its last token times 0.4, or the floor where no
    # window starts with that token; a full or a padded sequence-start
    # context follows the same rule, and the out-of-vocabulary digit and the
    # pad digit always score the floor.
    seq = [1, 2, 3] * 4 + [4]
    trie = build_trie([seq], order, vocab_size)
    assert trie.keys.dtype == (np.int32 if order == 3 else np.int64)
    starts = seq[:len(seq) - order + 1]

    def backoff(token):
        return math.log(starts.count(token) / len(starts) + 1e-9) + math.log(0.4)

    def score(context, digit):
        return trie.key_scores(np.array([trie.context_key(context) * trie.base + digit]))[0]

    full, padded = tuple(seq[:order - 1]), (2,)  # full continues by 3 only; padded by 3
    assert score(full, seq[order - 1]) == math.log(1 + EPSILON)
    for context in (full, padded, (3,) * (order - 1), (vocab_size,) * (order - 1)):
        assert score(context, 1) == backoff(1)
        assert score(context, 2) == backoff(2)
        for digit in (4, 7, vocab_size, vocab_size + 1):
            assert score(context, digit) == LOG_FLOOR
    assert score(padded, 3) == math.log(1 + EPSILON)
    assert LOG_FLOOR < backoff(3) < math.log(0.4)


def _large_trie(vocab_size, order, tokens):
    rng = np.random.default_rng(0)
    return build_trie([list(rng.integers(0, vocab_size, size=tokens))], order, vocab_size)


@pytest.fixture(scope="module", params=[(256, 3, 120_000), (64, 6, 40_000)],
                ids=["int32-keys", "int64-keys"])
def large_trie(request):
    trie = _large_trie(*request.param)
    assert len(trie.keys) >= 100_000
    assert trie.keys.dtype == (np.int32 if request.param[0] == 256 else np.int64)
    return trie


def test_no_trie_query_copies_the_node_table(large_trie):
    # One searchsorted over the table with needles of another width casts the
    # whole table; every query must allocate far less than the keys hold.
    trie = large_trie
    rng = np.random.default_rng(1)
    seen = trie.contexts()
    contexts = [seen[i] for i in rng.integers(0, len(seen), 20)]
    context_keys = np.array([trie.context_key(c) for c in contexts], dtype=np.int64)
    batch = context_keys[:, None] * trie.base + trie.digits(rng.permutation(trie.vocab_size)[:25])
    assert batch.shape == (20, 25)
    queries = {
        "key_scores": lambda: trie.key_scores(batch),
        "children_scores": lambda: trie.children_scores(contexts[0]),
        "children_scores(eps=1e-6)": lambda: trie.children_scores(contexts[0], eps=1e-6),
        "counts": lambda: trie.counts(contexts[1]),
        "stats": trie.stats,
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, query in queries.items():
            query()  # first calls may cache; the measured call is a later one
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            query()
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    limit = trie.keys.nbytes / 8
    assert all(peak < limit for peak in peaks.values()), (peaks, limit)


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
    (dict(counts=[2 ** 52, 2 ** 52 - 1, 1]), "sum to 2 \\*\\* 53"),
    (dict(order=2 ** 40, windows=[]), "order"),
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
            _score(trie, ctx, i % 32)

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
