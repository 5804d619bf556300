"""Count-based n-gram table used as the continuity scorer during draft-tree pruning.

The trie stores exact window counts as one table: the distinct length-`order`
windows of the corpus, sorted lexicographically, each with its count. A
context (the trailing ``order - 1`` tokens of a sequence, or fewer at a
sequence start) is any prefix of those windows; its continuations are the
tokens that follow it in some window. The conditional probability of a
continuation is its count divided by the context's total. Scores are
``log(p + eps)`` so that unseen continuations degrade to a finite floor
instead of -inf. Queries go through one dict built from the table, mapping
each context tuple to ``(total, tokens, counts)``. `children_scores` answers
one context as a dict and `scores_at` a batch of contexts as a matrix; both
score through one helper, so they agree bit for bit.

File format, version 2, little-endian: a 32-byte header holding the magic
``NGTR``, a u16 version, two zero bytes, then order, vocab_size and the row
count as int64; then the window tokens as a (rows, order) int64 array; then
the counts as a (rows,) int64 array. Version 1 files (a varint node stream)
are not read; rebuild them from their corpus with ``specdraft build-trie``.

After construction the trie is immutable and may be queried from any number of
threads without synchronization.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from itertools import repeat
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
LOG_FLOOR = math.log(EPSILON)  # the score of an unseen continuation

MAGIC = b"NGTR"
FORMAT_VERSION = 2
HEADER = struct.Struct("<4sHHqqq")  # magic, version, padding, order, vocab_size, rows
# An (rows, order) int64 array must stay addressable even with zero rows.
MAX_ORDER = 2 ** 16


@dataclass
class TrieStats:
    node_count: int
    distinct_contexts: int


class NgramTrie:
    """Immutable window-count table of one `order`, with its context query dict.

    `windows` is a (rows, order) int64 array of distinct windows in strictly
    increasing lexicographic order; `window_counts` holds each row's count.
    Made by build_trie or load_trie, which check the order and the table.
    """

    def __init__(self, order: int, vocab_size: int, windows: np.ndarray,
                 window_counts: np.ndarray):
        self.order = order
        self.vocab_size = vocab_size
        self.windows = windows
        self.window_counts = window_counts
        self._query = _context_table(windows, window_counts)

    # -- queries ------------------------------------------------------------

    def children_scores(self, context: Sequence[int], eps: float = EPSILON) -> dict[int, float]:
        """Scores for every observed continuation of `context`, one lookup.

        Only the trailing order-1 tokens count; shorter contexts (sequence
        start) are looked up as they are. Tokens absent from the returned map
        are implicitly at log(eps).
        """
        entry = self._query.get(tuple(context[-(self.order - 1):]))
        if entry is None:
            return {}
        total, tokens, counts = entry
        return dict(zip(tokens, _log_scores(counts, repeat(total), eps)))

    def scores_at(self, contexts: Sequence[Sequence[int]], tokens) -> np.ndarray:
        """(len(contexts), len(tokens)) float64 matrix whose entry (i, j) is
        children_scores(contexts[i]).get(tokens[j], LOG_FLOOR), bit for bit.

        Each context is looked up once, and only the continuations whose token
        is among `tokens` are scored; every other entry, including a token
        outside the trie's vocabulary, stays at LOG_FLOOR.
        """
        token_list = np.asarray(tokens, dtype=np.int64).tolist()
        # A repeated token is scored in its last column and copied to the others.
        column = {tok: j for j, tok in enumerate(token_list)}
        keep = self.order - 1
        hits = []
        for i, context in enumerate(contexts):
            entry = self._query.get(tuple(context[-keep:]))
            if entry is not None:
                total, toks, counts = entry
                hits += [(i, column[t], c, total) for t, c in zip(toks, counts) if t in column]
        out = np.full((len(contexts), len(token_list)), LOG_FLOOR)
        if hits:
            rows, cols, counts, totals = zip(*hits)
            out[rows, cols] = _log_scores(counts, totals, EPSILON)
        if len(column) < len(token_list):
            out = out[:, [column[t] for t in token_list]]
        return out

    def counts(self, context: Sequence[int]) -> dict[int, int]:
        """{token: count} for the continuations of `context` (trailing order-1 tokens)."""
        entry = self._query.get(tuple(context[-(self.order - 1):]))
        return {} if entry is None else dict(zip(entry[1], entry[2]))

    def contexts(self) -> list[tuple[int, ...]]:
        """Every full-length (order-1) context with a continuation, in sorted order."""
        return [ctx for ctx in self._query if len(ctx) == self.order - 1]

    def stats(self) -> TrieStats:
        """Node counts of the equivalent prefix trie: the root plus one node per
        distinct window prefix."""
        node_count = 1 + sum(len(tokens) for _, tokens, _ in self._query.values())
        return TrieStats(node_count, len(self.contexts()))


def _log_scores(counts: Iterable[int], totals: Iterable[int], eps: float) -> list[float]:
    """log(count / total + eps) for each pair: the one score formula. It uses
    math.log, since np.log differs from it by an ulp on some inputs."""
    log = math.log
    return [log(count / total + eps) for count, total in zip(counts, totals)]


def _group_starts(rows: np.ndarray) -> np.ndarray:
    """Indices of the rows of a sorted (n, k) array that differ from the row before."""
    return np.flatnonzero(np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1))))


def _context_table(windows: np.ndarray, counts: np.ndarray) -> dict:
    """{context: (total, tokens, counts)} for every context length 0 … order-1.

    The full-length contexts come from groups of table rows; each shorter
    context's continuations are the next longer contexts, counted by their
    totals. Values are tuples of ints, never dicts, so that the garbage
    collector untracks them: a tuple holding a dict stays tracked, and every
    full collection would walk all of them.
    """
    if len(windows) == 0:
        return {}
    ctx = windows[:, :-1]
    starts = _group_starts(ctx)
    bounds = starts.tolist() + [len(windows)]
    tokens = windows[:, -1].tolist()
    cnts = counts.tolist()
    level = {}
    for key, lo, hi in zip(ctx[starts].tolist(), bounds, bounds[1:]):
        c = tuple(cnts[lo:hi])
        level[tuple(key)] = (sum(c), tuple(tokens[lo:hi]), c)
    query = dict(level)
    for _ in range(windows.shape[1] - 1):
        parents: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for key, (total, _, _) in level.items():
            parents.setdefault(key[:-1], []).append((key[-1], total))
        level = {}
        for key, children in parents.items():
            toks, totals = zip(*children)
            level[key] = (sum(totals), toks, totals)
        query.update(level)
    return query


def build_trie(
    corpus: Iterable[Sequence[int]],
    order: int,
    vocab_size: int | None = None,
) -> NgramTrie:
    """Count every length-`order` window of every sequence into a table.

    vocab_size=None infers V as max token + 1; a negative token, or when
    vocab_size is given any token >= V, raises OutOfVocabularyError naming
    the offending sequence.
    """
    if not 2 <= order <= MAX_ORDER:
        raise ConfigError(f"n-gram order must be in [2, {MAX_ORDER}], got {order}")
    parts = []
    max_token = -1
    for seq_index, seq in enumerate(corpus):
        arr = np.asarray(seq, dtype=np.int64)
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
    if not parts:
        return NgramTrie(order, vocab_size, np.empty((0, order), np.int64),
                         np.empty(0, np.int64))
    windows = np.concatenate(parts)
    windows = windows[np.lexsort(windows.T[::-1])]
    starts = _group_starts(windows)
    counts = np.diff(np.append(starts, len(windows)))
    return NgramTrie(order, vocab_size, windows[starts], counts)


# -- serialization ------------------------------------------------------------


def save_trie(trie: NgramTrie, path: str | os.PathLike) -> int:
    """Write the v2 file to `path`; returns bytes written."""
    with open(path, "wb") as f:
        f.write(HEADER.pack(MAGIC, FORMAT_VERSION, 0, trie.order, trie.vocab_size,
                            len(trie.window_counts)))
        f.write(np.ascontiguousarray(trie.windows, dtype="<i8"))
        f.write(np.ascontiguousarray(trie.window_counts, dtype="<i8"))
        return f.tell()


def load_trie(path: str | os.PathLike) -> NgramTrie:
    """Read and validate a v2 file; any malformed content raises TrieFormatError.

    The arrays are views of the one buffer read from the file.
    """
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
        if not 2 <= order <= MAX_ORDER:
            raise TrieFormatError(f"{path}: order must be in [2, {MAX_ORDER}], got {order}")
        if vocab_size < 0 or rows < 0:
            raise TrieFormatError(f"{path}: negative vocab_size or row count")
        expected = HEADER.size + 8 * rows * (order + 1)
        size = os.fstat(f.fileno()).st_size
        if size < expected:
            raise TruncatedFileError(
                f"{path}: header gives {rows} rows ({expected} bytes), file has {size}")
        if size > expected:
            raise TruncatedFileError(f"{path}: {size - expected} trailing bytes")
        data = f.read()
    if len(data) != expected - HEADER.size:
        raise TruncatedFileError(f"{path}: file changed size while being read")
    windows = np.frombuffer(data, "<i8", count=rows * order).reshape(rows, order)
    counts = np.frombuffer(data, "<i8", offset=8 * rows * order)
    if rows:
        if windows.min() < 0 or windows.max() >= vocab_size:
            raise TrieFormatError(f"{path}: a token outside [0, {vocab_size})")
        if counts.min() < 1:
            raise TrieFormatError(f"{path}: a window count below 1")
    # Row i+1 > row i lexicographically: at the first column where they differ.
    undecided = np.ones(max(rows - 1, 0), dtype=bool)
    for j in range(order):
        if not undecided.any():
            break
        prev, nxt = windows[:-1, j], windows[1:, j]
        if (undecided & (nxt < prev)).any():
            raise TrieFormatError(f"{path}: rows are not in increasing order")
        undecided &= nxt == prev
    if undecided.any():
        raise TrieFormatError(f"{path}: duplicate rows")
    return NgramTrie(order, vocab_size, windows, counts)


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
