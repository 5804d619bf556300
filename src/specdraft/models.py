"""Desk-scale target and draft models.

MarkovTarget is an order-k Markov chain standing in for the target LM: exact
conditional distributions, deterministic per-context feature rows standing in
for low/middle/high hidden states side by side, and a frozen token embedding
table. Both kinds of row are found by one int64 context id, so a prompt's
feature rows are one gather from one table. The contexts one call meets for
the first time are seeded together, by one vectorized pass of numpy's
SeedSequence hash, with every row's bits kept. Like any target it provides
engine.TargetModel; `start(prompt)` opens its engine.TargetSession, Session.

ToyDraft realizes the parallel drafting architecture at toy scale: the fused
feature rows are projected, the projection is joined with
shifted token embeddings, a learned mask vector fills the future positions,
and one causal attention layer plus an output head produces logits for all d
future positions in a single forward pass (row 1 read from the last prefix
position, the rest from mask positions). Drafting queries only those d
read-out positions, and a DraftCache in the session keeps the request's keys
and values between cycles, so a later cycle builds only the positions it
adds: it asks the session for their feature rows alone, and its cost is
O(e + d) rows for e emitted tokens plus O(n * d) attention over the n cached
keys, with no O(n) step left.
"""

from __future__ import annotations

import functools
import zipfile
from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError, ModelFormatError, check_bool, check_int, check_number
from .tree import DraftTree, ParallelLogits

FEAT_WIDTH = 8       # width of each of the three feature vectors
PROJ_WIDTH = 16      # feature projection output
EMB_WIDTH = 8        # token embedding width
MODEL_WIDTH = PROJ_WIDTH + EMB_WIDTH

MODEL_FILE_VERSION = 1


def temperature_adjust(dist: np.ndarray, temperature: float) -> np.ndarray:
    """p^(1/T) renormalized over the last axis; T = 0 collapses each row to its
    argmax (lowest ID on ties). An (n, V) matrix gives the same bits per row
    as n calls on its rows."""
    check_number("temperature", temperature)
    if temperature < 0:
        raise ConfigError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        out = np.zeros_like(dist)
        np.put_along_axis(out, np.argmax(dist, axis=-1)[..., None], 1.0, axis=-1)
        return out
    if temperature == 1.0:
        return dist / dist.sum(axis=-1, keepdims=True)
    # Scaling by the max first keeps small temperatures from underflowing to 0/0.
    powed = (dist / dist.max(axis=-1, keepdims=True)) ** (1.0 / temperature)
    return powed / powed.sum(axis=-1, keepdims=True)


def sample_from(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of one token from unnormalized mass `dist`."""
    cum = np.cumsum(dist)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


# From this many contexts met for the first time in one call, the target seeds
# them with one vectorized pass of SeedSequence's hash instead of one
# SeedSequence each: the pass has a fixed cost of some dozens of numpy calls.
BATCH_SEEDING_MIN = 8

# numpy's SeedSequence: its pool size, hash constants and mixing multipliers.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_OTHER_WORDS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The values SeedSequence's running hash constant takes over n hashes,
    (n, 1) uint32 each: the one each value is xored with and, one step on,
    the one it is then multiplied by."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h[:-1], np.uint32)[:, None], np.array(h[1:], np.uint32)[:, None]


@functools.cache
def _mix_constants(length: int) -> tuple[np.ndarray, np.ndarray]:
    """`_hash_constants` of mix_entropy on `length` entropy words: one hash
    per pool word, one per ordered pair of pool words, and one per pool word
    for each word past the pool."""
    return _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(0, length - _POOL))


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mul
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x *= _MIX_L
    x -= _MIX_R * y
    x ^= x >> _XSHIFT
    return x


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """(N, 4) uint64 from (N, L) uint32 entropy words: row i is
    np.random.SeedSequence(entropy[i]).generate_state(4, np.uint64), bit for
    bit, by one pass of numpy's algorithm over every row at once. Words are
    kept one row per pool word, (4, N), so each step reads whole rows."""
    n, length = entropy.shape
    xor, mul = _mix_constants(length)
    words = np.zeros((max(length, _POOL), n), np.uint32)  # a short entropy hashes zeros
    words[:length] = entropy.T
    pool = _hashmix(words[:_POOL], xor[:_POOL], mul[:_POOL])
    for src, dst in enumerate(_OTHER_WORDS):  # every pool word into every other
        step = slice(_POOL + (_POOL - 1) * src, _POOL + (_POOL - 1) * (src + 1))
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[step], mul[step]))
    if length > _POOL:  # each word past the pool into every pool word
        k = _POOL * _POOL
        extra = _hashmix(words[_POOL:, None], xor[k:].reshape(-1, _POOL, 1),
                         mul[k:].reshape(-1, _POOL, 1))
        for hashed in extra:
            pool = _mix(pool, hashed)
    state = _hashmix(np.concatenate([pool, pool]), *_STATE_CONSTANTS)  # 8 words, pool cycled
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A seed whose state is already computed, one row of `_seed_states`:
    PCG64 asks its seed for generate_state(4, np.uint64) and gets the row."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _int_words(n: int) -> list[int]:
    """n >= 0 as SeedSequence splits an int: 32-bit words, least significant first."""
    return [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


class MarkovTarget:
    """Order-k Markov chain with exact conditionals and deterministic features.

    Transition rows and feature rows are drawn from (seed, context) when a
    context is first met, so two targets with the same construction arguments
    agree on every row, whatever order they meet contexts in: a row is the
    draw of np.random.SeedSequence([seed, tag, *context]) through PCG64, tag
    1 for transitions and 2 for features. A call draws the contexts it meets
    for the first time together: from BATCH_SEEDING_MIN of them, one
    vectorized pass of SeedSequence's hash seeds them all, and the rows keep
    their bits. Transition rows and feature rows alike are found by the
    context's int64 id, its window read as a base-V number: transition rows
    in a dict, feature rows appended to one table. Contexts shorter than k
    are left-padded with token 0. seed >= 0, vocab_size >= 2 and
    order >= 1 must be integers, with vocab_size at most 2 ** 20 so that a row
    takes at most 8 MiB (and a token is one 32-bit seed word), vocab_size **
    order below 2 ** 63 so that ids fit in int64, and concentration, the
    Dirichlet parameter of every row, a finite number > 0; anything else
    raises ConfigError, before any array is built. A token outside
    [0, vocab_size) that a call reads raises ConfigError before any row is drawn.
    """

    def __init__(self, seed: int, vocab_size: int, order: int, concentration: float = 0.3):
        check_int("target seed", seed, minimum=0)
        check_int("vocab_size", vocab_size, minimum=2)
        if vocab_size > 2 ** 20:
            raise ConfigError(f"vocab_size must be <= 2**20 (a row is <= 8 MiB); got {vocab_size}")
        check_int("markov order", order, minimum=1)
        highest = next(n for n in range(1, 64) if vocab_size ** (n + 1) >= 2 ** 63)
        if order > highest:
            raise ConfigError(f"markov order must be in [1, {highest}] at vocab_size {vocab_size}, "
                              f"where context ids fit in int64; got {order}")
        check_number("concentration", concentration)
        if concentration <= 0:
            raise ConfigError(f"concentration must be > 0, got {concentration}")
        self.seed = seed
        self.vocab_size = vocab_size
        self.order = order
        self.concentration = concentration
        self._alpha = np.full(vocab_size, concentration)  # every row's Dirichlet parameter
        self._seed_words = _int_words(seed)
        self._rows: dict[int, np.ndarray] = {}
        self._place = vocab_size ** np.arange(order - 1, -1, -1, dtype=np.int64)
        self._lead = vocab_size ** (order - 1)  # the place of a context's oldest token
        self._slot: dict[int, int] = {}
        self._table = np.empty((64, 3 * FEAT_WIDTH))
        emb_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
        self.embeddings = emb_rng.standard_normal((vocab_size, EMB_WIDTH))

    def _id(self, prefix) -> int:
        """The id of prefix's context: its trailing `order` tokens read as a
        base-V number, which left-padding with token 0 leaves unchanged. A
        token outside [0, vocab_size) among them raises ConfigError."""
        ctx = [int(t) for t in prefix[-self.order:]]
        if ctx and not (min(ctx) >= 0 and max(ctx) < self.vocab_size):
            raise self._token_error(prefix, len(prefix) - len(ctx))
        ident = 0
        for token in ctx:
            ident = ident * self.vocab_size + token
        return ident

    def _ids(self, prefix, start: int) -> np.ndarray:
        """(n - start,) int64: the context id of each position start .. n-1
        of a prefix of n tokens, from the `order` tokens ending there, as
        _id reads them. A token outside [0, vocab_size) that they read
        raises ConfigError."""
        n = len(prefix)
        lo = max(0, start + 1 - self.order)
        try:
            tokens = np.asarray(prefix[lo:n], dtype=np.int64)
        except OverflowError:  # a token past int64
            raise self._token_error(prefix, lo) from None
        if tokens.size and not 0 <= tokens.min() <= tokens.max() < self.vocab_size:
            raise self._token_error(prefix, lo)
        padded = np.concatenate([np.zeros(self.order - 1 - (start - lo), np.int64), tokens])
        return padded[np.arange(n - start)[:, None] + np.arange(self.order)].dot(self._place)

    def _token_error(self, prefix, lo: int) -> ConfigError:
        """The error naming the first token of prefix[lo:] outside [0, vocab_size)."""
        V = self.vocab_size
        i, bad = next((i, t) for i, t in enumerate(prefix[lo:], lo) if not 0 <= t < V)
        return ConfigError(f"token {bad} at position {i} is outside [0, {V})")

    def _generators(self, tag: int, ids) -> Iterator[np.random.Generator]:
        """A generator per context id, seeded as np.random.SeedSequence([seed,
        tag, *context]) seeds it, with the context's `order` tokens read back
        from its id: one SeedSequence each below BATCH_SEEDING_MIN ids, else
        one `_seed_states` pass over all of them. Each is made as it is read,
        so a long prompt's thousands of new contexts hold one at a time."""
        words = len(self._seed_words)
        entropy = np.empty((len(ids), words + 1 + self.order), np.uint32)
        entropy[:, :words] = self._seed_words
        entropy[:, words] = tag
        entropy[:, words + 1:] = np.asarray(ids, np.int64)[:, None] // self._place % self.vocab_size
        if len(entropy) < BATCH_SEEDING_MIN:
            seeds = map(np.random.SeedSequence, entropy)
        else:
            seeds = map(_SeedState, _seed_states(entropy))
        return map(np.random.Generator, map(np.random.PCG64, seeds))

    def _row(self, ident: int) -> np.ndarray:
        """The stored untempered row of a context id, drawn when first met."""
        row = self._rows.get(ident)
        if row is None:
            row = self._rows[ident] = next(self._generators(1, [ident])).dirichlet(self._alpha)
        return row

    def _dists(self, ids: list[int]) -> np.ndarray:
        """(len(ids), V): the untempered row of each context id, those met
        for the first time drawn together."""
        rows = self._rows
        new = list(dict.fromkeys(i for i in ids if i not in rows))
        if new:
            for ident, rng in zip(new, self._generators(1, new)):
                rows[ident] = rng.dirichlet(self._alpha)
        return np.array([rows[i] for i in ids]).reshape(-1, self.vocab_size)

    def start(self, prompt) -> Session:
        """A session on this target holding a copy of `prompt`."""
        return Session(self, list(prompt))

    def next_dist(self, prefix, temperature: float = 1.0) -> np.ndarray:
        return temperature_adjust(self._row(self._id(prefix)), temperature)

    def tree_dists(self, prefix, tree: DraftTree, temperature: float = 1.0) -> np.ndarray:
        """(1 + len(tree), V): row 0 is next_dist(prefix), row i + 1 is
        next_dist of the prefix followed by node i's path, bit for bit.

        A node's context id is its parent's shifted by its own token, so the
        prefix is never copied. A token outside [0, vocab_size) in the tree
        or in the prefix's trailing `order` raises ConfigError.
        """
        tokens, V, lead = tree.token.tolist(), self.vocab_size, self._lead
        if tokens and not (min(tokens) >= 0 and max(tokens) < V):
            i = next(i for i, t in enumerate(tokens) if not 0 <= t < V)
            raise ConfigError(f"tree node {i}'s token {tokens[i]} is outside [0, {V})")
        ids = [self._id(prefix)]
        for parent, token in zip(tree.parent.tolist(), tokens):
            ids.append(ids[parent + 1] % lead * V + token)
        return temperature_adjust(self._dists(ids), temperature)

    def features(self, prefix, start: int = 0) -> np.ndarray:
        """(n - start, 3 * FEAT_WIDTH) feature rows of positions start .. n-1
        of a prefix of n tokens, each from the trailing `order` tokens up to
        and including its own position. Row i holds position i's low, mid and
        high feature vectors side by side, FEAT_WIDTH columns each: the fused
        EAGLE-3-style input the drafter reads. The rows of
        features(prefix[:start]) followed by these are features(prefix). A
        token outside [0, vocab_size) that these rows read raises ConfigError."""
        n = len(prefix)
        if not 0 <= start <= n:
            raise ConfigError(f"features start must be in [0, {n}], got {start}")
        ids = self._ids(prefix, start).tolist()  # checked: (3, 20) is (4, 4)'s id at V=16
        slot = self._slot
        try:
            slots = np.fromiter(map(slot.__getitem__, ids), np.intp, len(ids))
        except KeyError:  # draw the contexts met for the first time together, once
            new = list(dict.fromkeys(i for i in ids if i not in slot))
            k, size = len(slot), len(slot) + len(new)
            if size > len(self._table):
                table = np.empty((max(size, 2 * len(self._table)), 3 * FEAT_WIDTH))
                table[:k] = self._table[:k]
                self._table = table
            for j, rng in enumerate(self._generators(2, new), k):
                self._table[j] = rng.standard_normal(3 * FEAT_WIDTH)
            slot.update(zip(new, range(k, size)))
            slots = np.fromiter(map(slot.__getitem__, ids), np.intp, len(ids))
        return self._table.take(slots, axis=0)

    def rollout(self, prefix, length: int, pick) -> list[int]:
        """`length` tokens past `prefix`, each `pick(row)` of the untempered
        conditional given everything before it. A token outside
        [0, vocab_size) in the trailing `order` of `prefix`, or picked,
        raises ConfigError."""
        ident, V, lead = self._id(prefix), self.vocab_size, self._lead
        tokens = []
        for step in range(length):
            token = int(pick(self._row(ident)))
            if not 0 <= token < V:
                raise ConfigError(f"picked token {token} at step {step} is outside [0, {V})")
            tokens.append(token)
            ident = ident % lead * V + token
        return tokens

    def sample_sequence(self, rng: np.random.Generator, length: int) -> list[int]:
        return self.rollout((), length, lambda row: sample_from(row, rng))


class Session:
    """MarkovTarget's engine.TargetSession: each query forwards the current
    prefix to the target, which keeps no state per request."""

    def __init__(self, target, tokens: list[int]):
        self.target = target
        self.tokens = tokens
        self.draft = None

    def extend(self, tokens) -> None:
        self.tokens.extend(tokens)

    def features(self, start: int = 0) -> np.ndarray:
        return self.target.features(self.tokens, start)

    def next_dist(self, temperature: float = 1.0) -> np.ndarray:
        return self.target.next_dist(self.tokens, temperature)

    def tree_dists(self, tree: DraftTree, temperature: float = 1.0) -> np.ndarray:
        return self.target.tree_dists(self.tokens, tree, temperature)

    def rollout(self, length: int, pick) -> list[int]:
        return self.target.rollout(self.tokens, length, pick)


def positional_encoding(position_ids) -> np.ndarray:
    """Fixed sinusoidal encoding of the given (possibly repeated) position ids."""
    ids = np.asarray(position_ids, dtype=np.float64)[:, None]
    half = MODEL_WIDTH // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)[None, :]
    enc = np.empty((ids.shape[0], MODEL_WIDTH))
    enc[:, 0::2] = np.sin(ids * freqs)
    enc[:, 1::2] = np.cos(ids * freqs)
    return enc


def group_keys(n_positions: int, groups: int, n_keys: int) -> np.ndarray:
    """The packed positions that each group of training query rows attends,
    (G, K) for a layout of M = n_positions: the first G positions, which
    every group shares, then its own block, the g-th of the G blocks of
    K - G positions that end the layout."""
    m = n_keys - groups
    shared = np.broadcast_to(np.arange(groups), (groups, groups))
    blocks = np.arange(n_positions - groups * m, n_positions).reshape(groups, m)
    return np.concatenate([shared, blocks], axis=1)


def _key_parts(x: np.ndarray, groups: int, n_keys: int, transposed: bool = False):
    """Views of a (B, M, W) projection as `group_keys`' keys, (B, G, W) shared
    and (B, G, K - G, W) blocks; transposed, views of one contiguous copy,
    which a product reads about twice as fast as a transposed view."""
    B, M, W = x.shape
    tail = M - groups * (n_keys - groups)
    if not transposed:
        return x[:, :groups], x[:, tail:].reshape(B, groups, -1, W)
    xt = np.ascontiguousarray(np.swapaxes(x, 1, 2))
    return xt[..., :groups], np.swapaxes(xt[..., tail:].reshape(B, W, groups, -1), 1, 2)


def _key_major_max(s: np.ndarray) -> np.ndarray:
    """s.max(axis=-1, keepdims=True) from a key-major copy, several times
    faster over a short last axis. A max is exact: only a zero's sign may
    differ, which leaves exp(s - max) unchanged."""
    return np.ascontiguousarray(np.moveaxis(s, -1, 0)).max(axis=0)[..., None]


def _score_parts(s: np.ndarray):
    """(B, G, R, K) scores' views: the shared keys' (B, G * R, G), the blocks'."""
    B, G, R, K = s.shape
    return s.reshape(B, G * R, K)[..., :G], s[..., G:]


class DraftCache:
    """A ToyDraft's drafting keys and values in `session.draft`, so that a
    later cycle projects only the positions it adds.

    The first `final` rows are final: positions 0 .. n-2 (shifted drafter,
    whose last prefix position embeds a freshly drawn token) or 0 .. n-1
    (unshifted) of the n-token prefix last written. They hold because the
    session only appends and the drafter's parameters stay fixed. The rows
    past them are rewritten by every call. A buffer that fills is replaced
    by one twice the size it needs.
    """

    def __init__(self, drafter):
        self.drafter = drafter
        self.final = 0
        self.keys = np.empty((0, MODEL_WIDTH))
        self.values = np.empty((0, MODEL_WIDTH))

    def write(self, start: int, final: int, z: np.ndarray):
        """Project the (L, MODEL_WIDTH) inputs z of positions start ..
        start + L - 1 straight into their key and value rows, of which the
        first `final` of all rows are now final; returns the keys and values
        of every position, 0 .. start + L - 1."""
        end = start + len(z)
        if end > len(self.keys):
            size = 2 * end
            keys, values = np.empty((size, MODEL_WIDTH)), np.empty((size, MODEL_WIDTH))
            keys[:start], values[:start] = self.keys[:start], self.values[:start]
            self.keys, self.values = keys, values
        np.matmul(z, self.drafter.params["Wk"], out=self.keys[start:end])
        np.matmul(z, self.drafter.params["Wv"], out=self.values[start:end])
        self.final = final
        return self.keys[:end], self.values[:end]


class ToyDraft:
    """Single-layer parallel drafter.

    predict() makes exactly one attention forward per call. The input sequence
    is the projected features joined with shifted token embeddings over the
    prefix, followed by learned mask vectors for the remaining future
    positions; logits for future position t are read from input position
    n + t - 1 (shifted) or n + t (unshifted). Those d read-out positions are
    the last d of the sequence, and drafting computes queries, attention and
    head rows for them alone: each attends to keys 0 .. its own position.
    The keys and values of earlier positions come from the DraftCache in the
    request's session, so a cycle that follows e emitted tokens builds and
    projects the e + d positions past the final ones (and never fewer than
    two prefix positions), and its cost grows with n only through the
    O(n * d) attention.
    """

    def __init__(self, vocab_size: int, embeddings: np.ndarray, seed: int = 0,
                 shifted: bool = True):
        check_int("drafter seed", seed, minimum=0)
        check_bool("shifted", shifted)
        if embeddings.shape != (vocab_size, EMB_WIDTH):
            raise ConfigError(
                f"embeddings must be ({vocab_size}, {EMB_WIDTH}), got {embeddings.shape}"
            )
        self.vocab_size = vocab_size
        self.embeddings = embeddings  # frozen, shared with the target
        self.shifted = shifted
        self._pe_table = positional_encoding(np.arange(0))  # grown on demand
        d = MODEL_WIDTH
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 3])))
        scale = 1.0 / np.sqrt(d)
        self.params: dict[str, np.ndarray] = {
            "W_in": rng.standard_normal((3 * FEAT_WIDTH, PROJ_WIDTH)) / np.sqrt(3 * FEAT_WIDTH),
            "mask_vec": rng.standard_normal(d) * 0.5,
            "Wq": rng.standard_normal((d, d)) * scale,
            "Wk": rng.standard_normal((d, d)) * scale,
            "Wv": rng.standard_normal((d, d)) * scale,
            "W_head": rng.standard_normal((d, vocab_size)) * scale,
            "b_head": np.zeros(vocab_size),
        }

    # -- core forward/backward (batched) ------------------------------------

    def build_inputs(self, feats: np.ndarray, emb_tokens: np.ndarray,
                     n_mask: int, position_ids) -> np.ndarray:
        """Assemble z = [proj(feats) || E[emb_tokens], mask_vec...] + PE.

        feats: (B, n, 3*FEAT_WIDTH); emb_tokens: (B, n) token ids whose
        embeddings occupy each prefix position.
        """
        B, n, _ = feats.shape
        z = np.empty((B, n + n_mask, MODEL_WIDTH))
        np.matmul(feats, self.params["W_in"], out=z[:, :n, :PROJ_WIDTH])
        z[:, :n, PROJ_WIDTH:] = self.embeddings[emb_tokens]
        z[:, n:] = self.params["mask_vec"]
        ids = np.asarray(position_ids, dtype=np.int64)
        if ids.size and ids.max() >= len(self._pe_table):
            # Rebuilt whole, never appended, so every row is computed alike.
            size = max(int(ids.max()) + 1, 2 * len(self._pe_table))
            self._pe_table = positional_encoding(np.arange(size))
        z += self._pe_table[ids]
        return z

    def forward_core(self, z: np.ndarray, attn_mask: np.ndarray, rows,
                     kv: tuple[np.ndarray, np.ndarray] | None = None):
        """One masked attention layer with residual, then the head, for query
        rows of z in groups that each attend their own keys.

        Drafting is one group: `rows` is a slice of z, its R query rows
        attend every key of `kv` = (k, v), projected already as a DraftCache
        holds them, and backward_core does not apply. Training is G groups:
        `rows` is a (G, R) array of distinct positions of the packed layout
        z, and group g attends the K positions that `group_keys` gives it,
        none copied: the G shared keys are scored in one product for all
        G * R rows of a sequence, each block in one for its group. attn_mask
        is (R, K') for one group or (G, R, K') for G, over the last K' keys:
        every query row sees the keys before them. So the scores are
        (B, G, R, K): G * R * K per sequence, not one per query row and
        position. Returns (logits (B, R, V) or (B, G, R, V), cache for
        backward_core).
        """
        p = self.params
        scale = 1.0 / np.sqrt(MODEL_WIDTH)
        zq = z[:, rows]
        q = zq @ p["Wq"]
        if kv is None:
            G, R, K = attn_mask.shape
            k, v = z @ p["Wk"], z @ p["Wv"]
            kt_shared, kt_block = _key_parts(k, G, K, transposed=True)
            s = np.empty((len(z), G, R, K))
            s_shared, s_block = _score_parts(s)
            np.matmul(q.reshape(len(z), -1, MODEL_WIDTH), kt_shared, out=s_shared)
            np.matmul(q, kt_block, out=s_block)
        else:
            k, v = kv
            s = q @ np.swapaxes(k, -1, -2)
        s *= scale
        # Hidden scores are -1e30 for the row max, then 0 through the exp and
        # back to 0 after it: exp(-1e30) is 0 as well, but takes a slow path.
        masked, keep = s[..., s.shape[-1] - attn_mask.shape[-1]:], attn_mask.astype(s.dtype)
        np.copyto(masked, -1e30, where=~attn_mask)
        s -= _key_major_max(s) if kv is None else s.max(axis=-1, keepdims=True)
        masked *= keep
        attn = np.exp(s, out=s)
        masked *= keep
        attn /= (attn @ np.ones(K))[..., None] if kv is None else attn.sum(axis=-1, keepdims=True)
        if kv is None:
            a_shared, a_block = _score_parts(attn)
            v_shared, v_block = _key_parts(v, G, K)
            y = a_block @ v_block
            y += (a_shared @ v_shared).reshape(y.shape)
        else:
            y = attn @ v
        y += zq
        logits = y @ p["W_head"]
        logits += p["b_head"]
        cache = {"z": z, "zq": zq, "rows": rows, "q": q, "k": k, "v": v, "attn": attn,
                 "y": y, "scale": scale}
        return logits, cache

    def backward_core(self, cache: dict, feats: np.ndarray,
                      n_prefix: int) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(logits) (B, G, R, V),
        put in `cache` as "dlogits", for the groups of query rows that the
        training forward_core call behind `cache` queried.

        The shared keys' and values' gradients are one product over all
        G * R rows of a sequence, the sum over the groups; each block's are
        written straight to its packed positions. Positions that are not
        queried are keys and values only; the queried ones also take
        gradient through q and the residual. It consumes `cache`: it takes
        the gradient and the forward's arrays out and drops each after its
        last use, so a spent forward is freed before the next one runs and
        a second call on one cache raises KeyError.
        """
        p = self.params
        z, zq, rows, q, k, attn, y, scale, dlogits = map(cache.pop, (
            "z", "zq", "rows", "q", "k", "attn", "y", "scale", "dlogits"))
        B, G, R, K = attn.shape
        k_shared, k_block = _key_parts(k, G, K)
        vt_shared, vt_block = _key_parts(cache.pop("v"), G, K, transposed=True)
        a_shared, a_block = _score_parts(attn)
        n_rows, W = B * G * R, MODEL_WIDTH
        grads = {"W_head": y.reshape(n_rows, W).T @ dlogits.reshape(n_rows, -1),
                 "b_head": np.ones(n_rows) @ dlogits.reshape(n_rows, -1)}
        dy = dlogits @ p["W_head"].T
        del dlogits, y
        dy_rows, q_rows = (x.reshape(B, G * R, -1) for x in (dy, q))
        dk, dv = np.empty_like(z), np.empty_like(z)
        dk[:, G:n_prefix] = dv[:, G:n_prefix] = 0  # no group's keys
        (dk_shared, dk_block), (dv_shared, dv_block) = _key_parts(dk, G, K), _key_parts(dv, G, K)
        np.matmul(np.swapaxes(a_shared, -1, -2), dy_rows, out=dv_shared)
        np.matmul(np.swapaxes(a_block, -1, -2), dy, out=dv_block)
        # ds = attn * (dattn - rowsum(dattn * attn)) * scale, built in dattn.
        dattn = np.empty_like(attn)
        ds_shared, ds_block = _score_parts(dattn)
        np.matmul(dy_rows, vt_shared, out=ds_shared)
        np.matmul(dy, vt_block, out=ds_block)
        del vt_shared, vt_block
        dattn -= np.einsum("...k,...k->...", dattn, attn)[..., None]
        dattn *= attn
        del attn, a_shared, a_block
        dattn *= scale
        dq = ds_block @ k_block
        dq += (ds_shared @ k_shared).reshape(dq.shape)
        del k, k_shared, k_block
        np.matmul(np.swapaxes(ds_shared, -1, -2), q_rows, out=dk_shared)
        np.matmul(np.swapaxes(ds_block, -1, -2), q, out=dk_block)
        del q, q_rows, dattn, ds_shared, ds_block
        grads["Wq"] = zq.reshape(n_rows, W).T @ dq.reshape(n_rows, W)
        grads["Wk"], grads["Wv"] = (z.reshape(-1, W).T @ dx.reshape(-1, W) for dx in (dk, dv))
        dz = dk @ p["Wk"].T
        dz += dv @ p["Wv"].T
        dy += dq @ p["Wq"].T
        dz[:, rows] += dy  # rows are distinct
        grads["mask_vec"] = dz[:, n_prefix:].sum(axis=(0, 1))
        grads["W_in"] = np.tensordot(feats, dz[:, :n_prefix, :PROJ_WIDTH], axes=([0, 1], [0, 1]))
        return grads

    # -- inference ------------------------------------------------------------

    def predict(self, session: Session, d: int, *,
                rng: np.random.Generator, temperature: float = 0.0) -> ParallelLogits:
        """One drafting forward: d rows of future-position logits.

        Only the positions past the final rows of this drafter's DraftCache
        in `session.draft` are built and projected, and only their feature
        rows are asked of the session; a fresh cache builds them all. The
        shifted variant embeds at the last prefix position a token drawn
        from session.next_dist(temperature); at temperature 0 that
        conditional is one-hot, so the draw is its argmax.
        """
        prefix = session.tokens
        n = len(prefix)
        if n < 1:
            raise ConfigError("prefix must be nonempty")
        cache = session.draft
        if not isinstance(cache, DraftCache) or cache.drafter is not self:
            cache = session.draft = DraftCache(self)
        n_mask = d - 1 if self.shifted else d
        length = n + n_mask
        # BLAS rounds a one-row product (its matrix-vector kernel) unlike a
        # row of a taller one, so two prefix rows are rebuilt whenever there
        # are two: a row's bits never depend on how many rows share its
        # product, and a cached forward gives the fresh one's logits.
        start = min(cache.final, max(n - 2, 0))
        if self.shifted:
            nxt = sample_from(session.next_dist(temperature), rng)
            emb = [*prefix[start + 1:n], nxt]
        else:
            emb = prefix[start:n]
        z = self.build_inputs(session.features(start)[None],
                              np.asarray(emb, dtype=np.int64)[None], n_mask,
                              np.arange(start, length))
        keys, values = cache.write(start, n - 1 if self.shifted else n, z[0])
        # Read-out row j sits at position length - d + j: of the last d - 1
        # keys it sees the first j, and it sees every key before them.
        mask = np.tri(d, d - 1, -1, dtype=bool)
        logits, _ = self.forward_core(z, mask, slice(-d, None), kv=(keys[None], values[None]))
        return ParallelLogits(logits[0])

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        np.savez(
            path,
            version=np.int64(MODEL_FILE_VERSION),
            vocab_size=np.int64(self.vocab_size),
            shifted=np.int64(1 if self.shifted else 0),
            embeddings=self.embeddings,
            **self.params,
        )

    @classmethod
    def load(cls, path) -> "ToyDraft":
        """Read a file written by save(). A file that is not an array archive,
        lacks an array, or holds one whose shape differs from a freshly built
        model's or that holds a NaN or an infinity, or whose version,
        vocab_size or shifted is not an integer, or that carries another
        version or a shifted other than 0 or 1, raises ModelFormatError."""
        unreadable = (ValueError, EOFError, zipfile.BadZipFile)
        with open(path, "rb") as handle:
            try:
                data = np.load(handle)
            except unreadable as exc:
                raise ModelFormatError(f"{path}: not a model file ({exc})") from exc
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ModelFormatError(f"{path}: a single array, not a model file")
            with data:
                def read(name: str, shape: tuple, integer: bool = False) -> np.ndarray:
                    if name not in data.files:
                        raise ModelFormatError(f"{path}: missing array {name!r}")
                    try:
                        arr = data[name]
                    except unreadable as exc:  # e.g. a pickled object array
                        raise ModelFormatError(
                            f"{path}: array {name!r} unreadable ({exc})") from exc
                    kinds, what = ("iu", "an integer") if integer else ("iuf", "a number")
                    if arr.shape != shape or arr.dtype.kind not in kinds:
                        raise ModelFormatError(
                            f"{path}: array {name!r} is {arr.dtype} of shape {arr.shape}, "
                            f"expected {what} array of shape {shape}"
                        )
                    if not np.isfinite(arr).all():
                        raise ModelFormatError(f"{path}: array {name!r} holds a NaN or an infinity")
                    return arr

                version = int(read("version", (), integer=True))
                if version != MODEL_FILE_VERSION:
                    raise ModelFormatError(
                        f"{path}: model file version {version}, expected {MODEL_FILE_VERSION}"
                    )
                vocab_size = int(read("vocab_size", (), integer=True))
                shifted = int(read("shifted", (), integer=True))
                if shifted not in (0, 1):
                    raise ModelFormatError(f"{path}: array 'shifted' is {shifted}, expected 0 or 1")
                model = cls(vocab_size, read("embeddings", (vocab_size, EMB_WIDTH)),
                            shifted=bool(shifted))
                for name, fresh in model.params.items():
                    model.params[name] = read(name, fresh.shape)
        return model


# -- reference drafters --------------------------------------------------------

CHAIN_LOGIT = 12.0


class UniformDrafter:
    """Uniform random logits; a fresh row set per cycle from a seeded stream."""

    def __init__(self, vocab_size: int, seed: int = 0):
        check_int("drafter seed", seed, minimum=0)
        self.vocab_size = vocab_size
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def predict(self, session, d, *, temperature=0.0, rng=None) -> ParallelLogits:
        return ParallelLogits(self.rng.random((d, self.vocab_size)))


class NoisyOracleDrafter:
    """Row i adds `base` at the i-th token of the target's argmax rollout, on
    top of seeded Gaussian noise of scale `noise`. By default the dominant
    logit is damped and noisy, so the true continuation usually survives in
    the top-k but is often not the top-ranked candidate (the n-gram ablation's
    drafter)."""

    pick = staticmethod(np.argmax)

    def __init__(self, target: MarkovTarget, noise: float = 1.0, base: float = 1.2, seed: int = 0):
        check_int("drafter seed", seed, minimum=0)
        self.target = target
        self.noise = noise
        self.base = base
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def predict(self, session, d, *, temperature=0.0, rng=None) -> ParallelLogits:
        rows = self.rng.standard_normal((d, self.target.vocab_size)) * self.noise
        for i, tok in enumerate(session.rollout(d, self.pick)):
            rows[i, tok] += self.base
        return ParallelLogits(rows)


class OracleDrafter(NoisyOracleDrafter):
    """Row-i argmax equals the target's greedy token i steps ahead."""

    def __init__(self, target: MarkovTarget):
        super().__init__(target, noise=0.0, base=CHAIN_LOGIT)


class AdversarialDrafter(OracleDrafter):
    """Dominant logits on the target's least likely continuation chain."""

    pick = staticmethod(np.argmin)
