"""Desk-scale target and draft models.

MarkovTarget is an order-k Markov chain standing in for the target LM: exact
conditional distributions, deterministic per-context feature rows standing in
for low/middle/high hidden states side by side, and a frozen token embedding
table.

ToyDraft realizes the parallel drafting architecture at toy scale: the fused
feature rows are projected, the projection is joined with
shifted token embeddings, a learned mask vector fills the future positions,
and one causal attention layer plus an output head produces logits for all d
future positions in a single forward pass (row 1 read from the last prefix
position, the rest from mask positions). Drafting queries only those d
read-out positions, so a forward costs O(n * d) attention in prefix length n.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelFormatError
from .tree import ParallelLogits

FEAT_WIDTH = 8       # width of each of the three feature vectors
PROJ_WIDTH = 16      # feature projection output
EMB_WIDTH = 8        # token embedding width
MODEL_WIDTH = PROJ_WIDTH + EMB_WIDTH

MODEL_FILE_VERSION = 1


def temperature_adjust(dist: np.ndarray, temperature: float) -> np.ndarray:
    """p^(1/T) renormalized; T = 0 collapses to argmax (lowest ID on ties)."""
    if temperature < 0:
        raise ConfigError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        out = np.zeros_like(dist)
        out[int(np.argmax(dist))] = 1.0
        return out
    if temperature == 1.0:
        return dist / dist.sum()
    # Scaling by the max first keeps small temperatures from underflowing to 0/0.
    powed = (dist / dist.max()) ** (1.0 / temperature)
    return powed / powed.sum()


def sample_from(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of one token from unnormalized mass `dist`."""
    cum = np.cumsum(dist)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


@dataclass
class TargetFeatures:
    """Per-position target features plus the target's conditional at the
    prefix end (used to form the shifted embedding of the next position).

    Row i holds position i's low, mid and high feature vectors side by side,
    FEAT_WIDTH columns each: the fused EAGLE-3-style input the drafter reads.
    """

    rows: np.ndarray       # (n, 3 * FEAT_WIDTH)
    next_dist: np.ndarray  # (V,), untempered

    def extended(self, more: "TargetFeatures") -> "TargetFeatures":
        """These rows followed by `more`'s, with `more`'s next_dist: the
        features of the longer prefix whose tail rows `more` holds."""
        return TargetFeatures(np.concatenate([self.rows, more.rows]), more.next_dist)


class MarkovTarget:
    """Order-k Markov chain with exact conditionals and deterministic features.

    Transition rows and feature vectors are generated lazily per context from
    (seed, context), so two targets with the same construction arguments agree
    on every row. Contexts shorter than k are left-padded with token 0.
    """

    def __init__(self, seed: int, vocab_size: int, order: int, concentration: float = 0.3):
        if seed < 0:
            raise ConfigError(f"target seed must be >= 0, got {seed}")
        if vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
        if order < 1:
            raise ConfigError(f"markov order must be >= 1, got {order}")
        if concentration <= 0:
            raise ConfigError(f"concentration must be > 0, got {concentration}")
        self.seed = seed
        self.vocab_size = vocab_size
        self.order = order
        self.concentration = concentration
        self._rows: dict[tuple[int, ...], np.ndarray] = {}
        self._feats: dict[tuple[int, ...], np.ndarray] = {}
        emb_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
        self.embeddings = emb_rng.standard_normal((vocab_size, EMB_WIDTH))

    def _context(self, prefix) -> tuple[int, ...]:
        ctx = tuple(int(t) for t in prefix[-self.order:])
        if len(ctx) < self.order:
            ctx = (0,) * (self.order - len(ctx)) + ctx
        return ctx

    def _row(self, ctx: tuple[int, ...]) -> np.ndarray:
        row = self._rows.get(ctx)
        if row is None:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, 1, *ctx])))
            row = rng.dirichlet(np.full(self.vocab_size, self.concentration))
            self._rows[ctx] = row
        return row

    def _feat(self, ctx: tuple[int, ...]) -> np.ndarray:
        feat = self._feats.get(ctx)
        if feat is None:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, 2, *ctx])))
            feat = rng.standard_normal(3 * FEAT_WIDTH)  # low | mid | high
            self._feats[ctx] = feat
        return feat

    def next_dist(self, prefix, temperature: float = 1.0) -> np.ndarray:
        return temperature_adjust(self._row(self._context(prefix)), temperature)

    def features(self, prefix, start: int = 0) -> TargetFeatures:
        """Feature rows for positions start .. n-1, each from the trailing
        `order` tokens up to and including its own position, plus the
        conditional at the prefix end. Extending features(prefix[:start]) by
        features(prefix, start) gives features(prefix)."""
        n = len(prefix)
        if not 0 <= start <= n:
            raise ConfigError(f"features start must be in [0, {n}], got {start}")
        # Row i's context is the `order` tokens ending at i, in the prefix
        # left-padded with token 0 as _context pads it.
        lo = max(0, start + 1 - self.order)
        padded = np.concatenate([np.zeros(self.order - 1 - (start - lo), np.int64),
                                 np.asarray(prefix[lo:n], dtype=np.int64)])
        windows = padded[np.arange(n - start)[:, None] + np.arange(self.order)].tolist()
        rows = np.array([self._feat(tuple(w)) for w in windows]).reshape(-1, 3 * FEAT_WIDTH)
        return TargetFeatures(rows, self._row(self._context(prefix)))

    def rollout(self, prefix, length: int, pick) -> list[int]:
        """`length` tokens past `prefix`, each `pick(row)` of the untempered
        conditional given everything before it."""
        seq = list(prefix)
        for _ in range(length):
            seq.append(int(pick(self._row(self._context(seq)))))
        return seq[len(prefix):]

    def greedy_chain(self, prefix, length: int) -> list[int]:
        """Argmax rollout of `length` tokens past `prefix`."""
        return self.rollout(prefix, length, np.argmax)

    def sample_sequence(self, rng: np.random.Generator, length: int, prompt=()) -> list[int]:
        return self.rollout(prompt, length, lambda row: sample_from(row, rng))


def positional_encoding(position_ids) -> np.ndarray:
    """Fixed sinusoidal encoding of the given (possibly repeated) position ids."""
    ids = np.asarray(position_ids, dtype=np.float64)[:, None]
    half = MODEL_WIDTH // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)[None, :]
    enc = np.empty((ids.shape[0], MODEL_WIDTH))
    enc[:, 0::2] = np.sin(ids * freqs)
    enc[:, 1::2] = np.cos(ids * freqs)
    return enc


class ToyDraft:
    """Single-layer parallel drafter.

    predict() makes exactly one attention forward per call. The input sequence
    is the projected features joined with shifted token embeddings over the
    prefix, followed by learned mask vectors for the remaining future
    positions; logits for future position t are read from input position
    n + t - 1 (shifted) or n + t (unshifted). Those d read-out positions are
    the last d of the sequence, and drafting computes queries, attention and
    head rows for them alone: each attends to keys 0 .. its own position, so
    a drafting forward costs O(n * d) rather than O(n^2) in prefix length n.
    """

    def __init__(self, vocab_size: int, embeddings: np.ndarray, seed: int = 0,
                 shifted: bool = True):
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
        g = feats @ self.params["W_in"]
        e = self.embeddings[emb_tokens]
        z_prefix = np.concatenate([g, e], axis=-1)
        z_mask = np.broadcast_to(self.params["mask_vec"], (B, n_mask, MODEL_WIDTH))
        z = np.concatenate([z_prefix, z_mask], axis=1)
        ids = np.asarray(position_ids, dtype=np.int64)
        if ids.size and ids.max() >= len(self._pe_table):
            # Rebuilt whole, never appended, so every row is computed alike.
            size = max(int(ids.max()) + 1, 2 * len(self._pe_table))
            self._pe_table = positional_encoding(np.arange(size))
        return z + self._pe_table[ids][None, :, :]

    def forward_core(self, z: np.ndarray, attn_mask: np.ndarray, rows=slice(None)):
        """One masked attention layer with residual, then the head, for the
        query rows `rows` of z over keys at every position of z.

        `rows` is a slice or an array of distinct positions; attn_mask has one
        row per query row and one column per key. Returns (logits (B, R, V)
        for the R query rows, cache for backward_core).
        """
        p = self.params
        scale = 1.0 / np.sqrt(MODEL_WIDTH)
        zq = z[:, rows]
        q = zq @ p["Wq"]
        k = z @ p["Wk"]
        v = z @ p["Wv"]
        s = (q @ k.transpose(0, 2, 1)) * scale
        s = np.where(attn_mask[None, :, :], s, -1e30)
        s -= s.max(axis=-1, keepdims=True)
        e = np.exp(s)
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = attn @ v
        y = zq + ctx
        logits = y @ p["W_head"] + p["b_head"]
        cache = {"z": z, "rows": rows, "q": q, "k": k, "v": v, "attn": attn, "y": y,
                 "scale": scale}
        return logits, cache

    def backward_core(self, cache: dict, dlogits: np.ndarray,
                      feats: np.ndarray, n_prefix: int) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(logits) for the rows
        that the forward_core call behind `cache` queried.

        Rows not queried are keys and values only: they take gradient through
        k and v, while the queried rows also take it through q and the
        residual.
        """
        p = self.params
        z, rows, q, k, v = cache["z"], cache["rows"], cache["q"], cache["k"], cache["v"]
        attn, y, scale = cache["attn"], cache["y"], cache["scale"]

        grads = {}
        grads["W_head"] = np.tensordot(y, dlogits, axes=([0, 1], [0, 1]))
        grads["b_head"] = dlogits.sum(axis=(0, 1))
        dy = dlogits @ p["W_head"].T
        dctx = dy
        dattn = dctx @ v.transpose(0, 2, 1)
        dv = attn.transpose(0, 2, 1) @ dctx
        ds = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        ds = ds * scale
        dq = ds @ k
        dk = ds.transpose(0, 2, 1) @ q
        grads["Wq"] = np.tensordot(z[:, rows], dq, axes=([0, 1], [0, 1]))
        grads["Wk"] = np.tensordot(z, dk, axes=([0, 1], [0, 1]))
        grads["Wv"] = np.tensordot(z, dv, axes=([0, 1], [0, 1]))
        dz = dk @ p["Wk"].T + dv @ p["Wv"].T
        dz[:, rows] += dy + dq @ p["Wq"].T  # rows are distinct

        dz_prefix = dz[:, :n_prefix, :]
        grads["mask_vec"] = dz[:, n_prefix:, :].sum(axis=(0, 1))
        dg = dz_prefix[..., :PROJ_WIDTH]
        grads["W_in"] = np.tensordot(feats, dg, axes=([0, 1], [0, 1]))
        return grads

    # -- inference ------------------------------------------------------------

    def forward(self, feats: np.ndarray, emb_tokens, d: int) -> np.ndarray:
        """Single-sequence drafting forward; returns (d, V) logits.

        The read-out positions are the last d of the n + n_mask inputs; only
        they are queried, each attending causally to keys 0 .. its position.
        """
        n = feats.shape[0]
        if n < 1:
            raise ConfigError("prefix must be nonempty")
        n_mask = d - 1 if self.shifted else d
        length = n + n_mask
        z = self.build_inputs(feats[None, :, :], np.asarray(emb_tokens)[None, :], n_mask,
                              np.arange(length))
        read = np.arange(length - d, length)
        mask = np.arange(length)[None, :] <= read[:, None]
        logits, _ = self.forward_core(z, mask, slice(length - d, length))
        return logits[0]

    def predict(self, prefix, feats: TargetFeatures, d: int, *,
                rng: np.random.Generator, temperature: float = 0.0) -> ParallelLogits:
        """One drafting forward: d rows of future-position logits.

        The shifted variant embeds at the last prefix position a token drawn
        from the tempered target conditional; at temperature 0 that
        conditional is one-hot, so the draw is its argmax.
        """
        tokens = np.asarray(prefix, dtype=np.int64)
        if self.shifted:
            nxt = sample_from(temperature_adjust(feats.next_dist, temperature), rng)
            tokens = np.append(tokens[1:], nxt)
        return ParallelLogits(self.forward(feats.rows, tokens, d))

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
        model's, or carries another version, raises ModelFormatError."""
        unreadable = (ValueError, EOFError, zipfile.BadZipFile)
        try:
            data = np.load(path)
        except unreadable as exc:
            raise ModelFormatError(f"{path}: not a model file ({exc})") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ModelFormatError(f"{path}: a single array, not a model file")
        with data:
            def read(name: str, shape: tuple) -> np.ndarray:
                if name not in data.files:
                    raise ModelFormatError(f"{path}: missing array {name!r}")
                try:
                    arr = data[name]
                except unreadable as exc:  # e.g. a pickled object array
                    raise ModelFormatError(f"{path}: array {name!r} unreadable ({exc})") from exc
                if arr.shape != shape or arr.dtype.kind not in "iuf":
                    raise ModelFormatError(
                        f"{path}: array {name!r} is {arr.dtype} of shape {arr.shape}, "
                        f"expected a number array of shape {shape}"
                    )
                return arr

            version = int(read("version", ()))
            if version != MODEL_FILE_VERSION:
                raise ModelFormatError(
                    f"{path}: model file version {version}, expected {MODEL_FILE_VERSION}"
                )
            vocab_size = int(read("vocab_size", ()))
            model = cls(
                vocab_size,
                read("embeddings", (vocab_size, EMB_WIDTH)),
                shifted=bool(int(read("shifted", ()))),
            )
            for name, fresh in model.params.items():
                model.params[name] = read(name, fresh.shape)
        return model


# -- reference drafters --------------------------------------------------------

CHAIN_LOGIT = 12.0


class OracleDrafter:
    """Row-i argmax equals the target's greedy token i steps ahead."""

    def __init__(self, target: MarkovTarget):
        self.target = target

    def predict(self, prefix, feats, d, *, temperature=0.0, rng=None) -> ParallelLogits:
        rows = np.zeros((d, self.target.vocab_size))
        for i, tok in enumerate(self.target.greedy_chain(prefix, d)):
            rows[i, tok] = CHAIN_LOGIT
        return ParallelLogits(rows)


class AdversarialDrafter:
    """Dominant logits on the target's least likely continuation chain."""

    def __init__(self, target: MarkovTarget):
        self.target = target

    def predict(self, prefix, feats, d, *, temperature=0.0, rng=None) -> ParallelLogits:
        rows = np.zeros((d, self.target.vocab_size))
        for i, tok in enumerate(self.target.rollout(prefix, d, np.argmin)):
            rows[i, tok] = CHAIN_LOGIT
        return ParallelLogits(rows)


class UniformDrafter:
    """Uniform random logits; a fresh row set per cycle from a seeded stream."""

    def __init__(self, vocab_size: int, seed: int = 0):
        self.vocab_size = vocab_size
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def predict(self, prefix, feats, d, *, temperature=0.0, rng=None) -> ParallelLogits:
        return ParallelLogits(self.rng.random((d, self.vocab_size)))


class NoisyOracleDrafter:
    """Greedy-chain drafter with the dominant logit damped and Gaussian noise
    added, so the true continuation usually survives in the top-k but is often
    not the top-ranked candidate. Used by the n-gram ablation."""

    def __init__(self, target: MarkovTarget, noise: float = 1.0, base: float = 1.2, seed: int = 0):
        self.target = target
        self.noise = noise
        self.base = base
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def predict(self, prefix, feats, d, *, temperature=0.0, rng=None) -> ParallelLogits:
        rows = self.rng.standard_normal((d, self.target.vocab_size)) * self.noise
        for i, tok in enumerate(self.target.greedy_chain(prefix, d)):
            rows[i, tok] += self.base
        return ParallelLogits(rows)
