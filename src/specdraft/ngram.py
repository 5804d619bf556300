"""Count-based n-gram table used as the continuity scorer during draft-tree pruning.

Its nodes are the root and the distinct prefixes (length 1 … order) of the
corpus's length-`order` windows, each counting the windows it starts. A
context, the trailing ``order - 1`` tokens or fewer at a sequence start,
continues with its children's last tokens; a continuation scores
``log(child count / context count + eps)``. One vectorized np.log scores
every node; where it differs from math.log by an ulp, as it does on a few
ratios, the nodes of that distinct ratio take math.log's value, so every
score is math.log's.

A continuation the trie never saw is scored two ways. `key_scores`, the
scorer prune uses, backs off to the token's unigram (stupid back-off, Brants
et al., EMNLP 2007): the score of the trie's length-1 node for the token
plus log(BACKOFF), BACKOFF = 0.4 being Brants et al.'s constant, untuned
here. It keeps the floor log(eps) only where no length-1 node holds the
token, or the key names no window. `children_scores` lists the seen
continuations only, so every other one sits at the floor.

Every query reads one sorted array of node keys, beside each node's count
and float64 score, computed once. A key is the node's tokens in base
B = vocab_size + 2, left-padded to `order` digits with vocab_size + 1, so the
table sorts by level, full windows first and the root last; a token outside
the vocabulary is the digit vocab_size, which no node holds. A context's
children are one key span. Keys are int32 when B^order < 2^31 (V = 256 up to
order 3, V = 64 up to order 5) and int64 otherwise; they must fit in int64,
so B^order < 2^63 bounds the order: at most 10 at V = 64, 7 at V = 256 and 4
at V = 32k. Counts are int32 while all the windows number below 2^31, int64
otherwise. Every search of the keys is made with needles of their width: a
needle of another width would make numpy cast the whole table on every call.

File format, version 2, little-endian: a 32-byte header holding the magic
``NGTR``, a u16 version, two zero bytes, then order, vocab_size and the row
count as int64; then the window tokens as a (rows, order) int64 array; then
the counts as a (rows,) int64 array, summing below 2^53 so that every count
and total is exact in float64. Version 1 files (a varint node stream) are not
read; rebuild them from their corpus with ``specdraft build-trie``.

After construction the trie is immutable and may be queried from any number of
threads without synchronization.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BadMagicError,
    ConfigError,
    OutOfVocabularyError,
    TrieFormatError,
    TruncatedFileError,
    VersionMismatchError,
)

EPSILON = 1e-9
LOG_FLOOR = math.log(EPSILON)  # the score of a continuation no back-off reaches
BACKOFF = 0.4  # an unseen continuation scores BACKOFF times its token's unigram
LOG_CEILING = math.log(1 + EPSILON)  # the best score: a continuation that always follows

MAGIC = b"NGTR"
FORMAT_VERSION = 2
HEADER = struct.Struct("<4sHHqqq")  # magic, version, padding, order, vocab_size, rows


@dataclass
class TrieStats:
    node_count: int
    distinct_contexts: int


class NgramTrie:
    """Immutable node table of one `order`: sorted `keys`, with `node_counts`
    and `node_scores`, keys and counts each in the narrower of int32 and int64
    that holds them. build_trie and load_trie check the order and pass the
    distinct full windows' keys, increasing, and their counts."""

    def __init__(self, order: int, vocab_size: int, window_keys: np.ndarray,
                 window_counts: np.ndarray):
        self.order = order
        self.vocab_size = vocab_size
        self.base = vocab_size + 2
        self.context_limit = self.base ** (order - 1)  # every context key is below it
        self.key_limit = self.base ** order  # every node key is below it
        self.keys, self.node_counts, self.node_scores = _node_table(
            order, self.base, np.asarray(window_keys, _width(self.key_limit)),
            np.asarray(window_counts, _width(int(np.sum(window_counts)))))
        # The table's tail, its length-1 nodes and the root: each unigram's
        # back-off score, and the floor at the root, which a key whose last
        # digit is the pad would back off to.
        first = self._level_span(1).start
        self._tail_keys = self.keys[first:]
        self._tail_scores = np.append(self.node_scores[first:-1] + math.log(BACKOFF), LOG_FLOOR)

    # -- queries ------------------------------------------------------------

    def digits(self, tokens) -> np.ndarray:
        """Each token's key digit: the token, or vocab_size for one outside the vocabulary."""
        tokens = np.asarray(tokens, dtype=np.int64)
        return np.where((tokens >= 0) & (tokens < self.vocab_size), tokens, self.vocab_size)

    def context_key(self, context: Sequence[int]) -> int:
        """The key of the trailing order-1 tokens of `context`. Folding m
        digits into -1 gives their value - B^m, so adding B^(order-1) supplies
        the order-1-m leading pad digits."""
        key, base, V = -1, self.base, self.vocab_size
        for tok in context[-(self.order - 1):]:
            key = key * base + (tok if 0 <= tok < V else V)
        return int(key) + self.context_limit

    def key_scores(self, keys: np.ndarray) -> np.ndarray:
        """Each key's node score. A key that no node has backs off to the
        length-1 node of its last digit, scoring that node's score plus
        log(BACKOFF), or LOG_FLOOR where no such node exists: for a token no
        window starts with, the out-of-vocabulary digit, or a key outside
        [0, B^order), which names no window. Query keys, context_key * base +
        digit, sort below the root's. Both searches are made in the table's
        width, the back-off's in the table's short tail; a found node is
        matched against the key as given, so a key that its cast wraps is never
        taken for another node's, nor backs off by the digit it wraps onto."""
        keys = np.asarray(keys)
        needles = keys.astype(self.keys.dtype, copy=False)
        at = self.keys.searchsorted(needles)
        unigrams = needles % self.base + (self.key_limit - self.base)
        tail = self._tail_keys.searchsorted(unigrams)
        named = (self._tail_keys[tail] == unigrams) & (keys >= 0) & (keys < self.key_limit)
        backoff = np.where(named, self._tail_scores[tail], LOG_FLOOR)
        return np.where(self.keys[at] == keys, self.node_scores[at], backoff)

    def children_scores(self, context: Sequence[int], eps: float = EPSILON) -> dict[int, float]:
        """Scores for every observed continuation of `context`, one span. Only
        its trailing order-1 tokens count, or all of a shorter one (sequence
        start); tokens absent from the returned map are implicitly at log(eps)."""
        tokens, span = self._children(context)
        if eps == EPSILON:
            return dict(zip(tokens, self.node_scores[span].tolist()))
        counts = self.node_counts[span]
        return dict(zip(tokens, [math.log(r + eps) for r in (counts / counts.sum()).tolist()]))

    def counts(self, context: Sequence[int]) -> dict[int, int]:
        """{token: count} for the continuations of `context` (trailing order-1 tokens)."""
        tokens, span = self._children(context)
        return dict(zip(tokens, self.node_counts[span].tolist()))

    def contexts(self) -> list[tuple[int, ...]]:
        """Every full-length (order-1) context with a continuation, in sorted order."""
        return list(map(tuple, self._level(self.order - 1)[0].tolist()))

    def _level(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """The nodes of `length` tokens, in sorted order: their tokens as a
        (nodes, length) int64 array, and their counts."""
        span = self._level_span(length)  # the pad digits sit above the last `length`
        return (self.keys[span, None] // _place_values(self.base, length) % self.base,
                self.node_counts[span])

    def stats(self) -> TrieStats:
        """Node counts of the prefix trie: the root plus one node per distinct
        window prefix. Two binary searches, no scan."""
        span = self._level_span(self.order - 1)
        return TrieStats(len(self.keys), span.stop - span.start)

    def _level_span(self, length: int) -> slice:
        top = self.key_limit
        return self._span(top - self.base ** length, top - self.base ** (length - 1))

    def _children(self, context: Sequence[int]) -> tuple[list[int], slice]:
        """The children of `context`: their tokens, and their span of the table."""
        first = self.context_key(context) * self.base
        span = self._span(first, first + self.vocab_size)
        return [key - first for key in self.keys[span].tolist()], span

    def _span(self, lo: int, hi: int) -> slice:
        """The table's span of keys in [lo, hi), both below B^order: one
        searchsorted, its needles in the table's width."""
        return slice(*self.keys.searchsorted(np.array((lo, hi), self.keys.dtype)).tolist())


def _node_table(order: int, base: int, window_keys: np.ndarray,
                window_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, counts, scores) of every node, in key order. A prefix one token
    shorter has its node's key value over the base, and is a run of the sorted
    level below, so no level needs a sort. A node scores log(count / parent
    count + EPSILON); the root's ratio is 0, so it scores LOG_FLOOR. np.log
    scores the nodes in place, over their ratios, and the distinct ratios in
    a second call of the same elementwise loop. It misses math.log by an ulp
    on a few inputs, so the nodes of each distinct ratio whose np.log and
    math.log differ, found by one equality pass each before the ratios are
    overwritten, take math.log's value, and every score is math.log's. Keys
    and counts stay in the width of `window_keys` and `window_counts`."""
    top = base ** order
    keys, counts, ratios, values = [window_keys], [window_counts], [], window_keys
    for length in range(order - 1, 0, -1):
        values = values // base
        starts = np.flatnonzero(_run_starts(values))
        level_counts = np.add.reduceat(counts[-1], starts, dtype=window_counts.dtype)
        ratios.append(counts[-1] / np.repeat(level_counts, np.diff(starts, append=len(values))))
        values = values[starts]
        keys.append(values + (top - base ** length))
        counts.append(level_counts)
    total = counts[-1].sum()
    ratios += [counts[-1] / total, [0.0]]
    keys.append(np.array([top - 1], window_keys.dtype))
    counts.append(np.array([total], window_counts.dtype))
    scores = np.concatenate(ratios)  # each node's ratio, until its score replaces it
    distinct = np.sort(scores)  # not np.unique: its first call imports numpy.ma, ~10 ms
    distinct = distinct[_run_starts(distinct)]
    exact = [math.log(r + EPSILON) for r in distinct.tolist()]
    misses = np.flatnonzero(np.log(distinct + EPSILON) != exact).tolist()
    fixes = [(np.flatnonzero(scores == distinct[i]), exact[i]) for i in misses]
    scores += EPSILON
    np.log(scores, out=scores)
    for nodes, score in fixes:
        scores[nodes] = score
    return np.concatenate(keys), np.concatenate(counts), scores


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of `values` starts: one adjacent compare."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _place_values(base: int, length: int) -> np.ndarray:
    """base^(length-1), …, base, 1: a window row times these is its key."""
    return base ** np.arange(length - 1, -1, -1, dtype=np.int64)


def _width(bound: int) -> np.dtype:
    """int32 when every value up to `bound` fits in it (bound < 2^31), else int64."""
    return np.dtype(np.int32 if bound < 2 ** 31 else np.int64)


def _window_keys(windows: np.ndarray, base: int) -> np.ndarray:
    """Each (rows, order) window row's key, in the table's width. A block of
    16k rows at a time is multiplied out in int64 (128 KiB, which stays in
    cache) and stored, so no int64 copy of all the keys is made."""
    place, block = _place_values(base, windows.shape[1]), 1 << 14
    keys = np.empty(len(windows), _width(base ** windows.shape[1]))
    for lo in range(0, len(windows), block):
        keys[lo:lo + block] = windows[lo:lo + block] @ place
    return keys


def _check_order(order: int, vocab_size: int, error: type[Exception], where: str = "") -> None:
    """Raise `error` unless 2 <= order and the node keys of `order` fit in int64."""
    highest = next(n for n in range(1, 64) if (max(vocab_size, 0) + 2) ** (n + 1) >= 2 ** 63)
    if not 2 <= order <= highest:
        raise error(f"{where}n-gram order must be in [2, {highest}] at vocab_size {vocab_size}, "
                    f"where node keys fit in int64; got {order}")


def build_trie(
    corpus: Iterable[Sequence[int]],
    order: int,
    vocab_size: int | None = None,
) -> NgramTrie:
    """Count every length-`order` window of every sequence into a table.

    vocab_size=None infers V as max token + 1; a negative token, one past
    int64, or when vocab_size is given any token >= V, raises
    OutOfVocabularyError naming the offending sequence. An order whose node
    keys overflow int64 raises ConfigError.
    """
    _check_order(order, vocab_size or 0, ConfigError)
    parts = []
    max_token = -1
    for seq_index, seq in enumerate(corpus):
        try:
            arr = np.asarray(seq, dtype=np.int64)
        except OverflowError:  # a token past int64 lies outside any vocabulary
            token = next(t for t in seq if not -2 ** 63 <= t < 2 ** 63)
            raise OutOfVocabularyError(token, vocab_size, seq_index) from None
        if arr.size == 0:
            continue
        bad = arr < 0 if vocab_size is None else (arr < 0) | (arr >= vocab_size)
        if bad.any():
            raise OutOfVocabularyError(int(arr[bad][0]), vocab_size, seq_index)
        max_token = max(max_token, int(arr.max()))
        if arr.size >= order:
            parts.append(sliding_window_view(arr, order))
    if vocab_size is None:
        vocab_size = max_token + 1
    _check_order(order, vocab_size, ConfigError)
    windows = np.concatenate(parts) if parts else np.empty((0, order), np.int64)
    keys, counts = np.unique(_window_keys(windows, vocab_size + 2), return_counts=True)
    return NgramTrie(order, vocab_size, keys, counts)


# -- serialization ------------------------------------------------------------


def save_trie(trie: NgramTrie, path: str | os.PathLike) -> int:
    """Write the v2 file to `path`; returns bytes written."""
    windows, counts = trie._level(trie.order)
    with open(path, "wb") as f:
        f.write(HEADER.pack(MAGIC, FORMAT_VERSION, 0, trie.order, trie.vocab_size, len(counts)))
        f.write(np.ascontiguousarray(windows, dtype="<i8"))
        f.write(np.ascontiguousarray(counts, dtype="<i8"))
        return f.tell()


def load_trie(path: str | os.PathLike) -> NgramTrie:
    """Read and validate a v2 file; any malformed content raises TrieFormatError."""
    with open(path, "rb") as f:
        head = f.read(HEADER.size)
        if len(head) < len(MAGIC) + 2:
            raise TruncatedFileError(f"{path}: file too short for header")
        if head[: len(MAGIC)] != MAGIC:
            raise BadMagicError(f"{path}: not a trie file (bad magic)")
        version = int.from_bytes(head[len(MAGIC):len(MAGIC) + 2], "little")
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"{path}: format version {version}, expected {FORMAT_VERSION}; "
                f"rebuild it from its corpus with `specdraft build-trie`"
            )
        if len(head) < HEADER.size:
            raise TruncatedFileError(f"{path}: file too short for header")
        _, _, padding, order, vocab_size, rows = HEADER.unpack(head)
        if padding:
            raise TrieFormatError(f"{path}: nonzero header padding")
        if vocab_size < 0 or rows < 0:
            raise TrieFormatError(f"{path}: negative vocab_size or row count")
        _check_order(order, vocab_size, TrieFormatError, f"{path}: ")
        expected = HEADER.size + 8 * rows * (order + 1)
        size = os.fstat(f.fileno()).st_size
        if size < expected:
            raise TruncatedFileError(
                f"{path}: header gives {rows} rows ({expected} bytes), file has {size}")
        if size > expected:
            raise TruncatedFileError(f"{path}: {size - expected} trailing bytes")
        windows = np.empty((rows, order), dtype="<i8")
        counts = np.empty(rows, dtype="<i8")
        if f.readinto(windows) + f.readinto(counts) != expected - HEADER.size:
            raise TruncatedFileError(f"{path}: file changed size while being read")
    if rows:
        if windows.min() < 0 or windows.max() >= vocab_size:
            raise TrieFormatError(f"{path}: a token outside [0, {vocab_size})")
        if counts.min() < 1:
            raise TrieFormatError(f"{path}: a window count below 1")
        if int(counts.max()) * rows >= 2 ** 53 and sum(counts.tolist()) >= 2 ** 53:
            raise TrieFormatError(f"{path}: the window counts sum to 2 ** 53 or more")
    # With every token below the base, the keys order the rows as their tokens do.
    keys = _window_keys(windows, vocab_size + 2)
    del windows  # the largest array read: free it before the node table is built
    if (keys[1:] <= keys[:-1]).any():  # one pass; the fault is named only on failure
        raise TrieFormatError(f"{path}: rows are not in increasing order"
                              if (keys[1:] < keys[:-1]).any() else f"{path}: duplicate rows")
    return NgramTrie(order, vocab_size, keys, counts)


# -- corpus ingestion ----------------------------------------------------------


def read_lines(path: str | os.PathLike) -> list[str]:
    """The lines of a UTF-8 text file; ConfigError names a file that is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc


def read_token_corpus(path: str | os.PathLike) -> list[list[int]]:
    """Newline-delimited records of whitespace-separated integer token IDs."""
    corpus = []
    for lineno, line in enumerate(read_lines(path), start=1):
        try:
            corpus.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-integer token: {exc}") from exc
    return corpus


def tokenize_bytes(text: str) -> list[int]:
    """Byte-level demo tokenizer: UTF-8 bytes as token IDs (V = 256)."""
    return list(text.encode("utf-8"))


def read_text_corpus(path: str | os.PathLike) -> list[list[int]]:
    """Plain-text mode: one record per line, byte-level tokens."""
    return [tokenize_bytes(line.rstrip("\n")) for line in read_lines(path)]
