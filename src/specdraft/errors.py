"""Exception types shared across the package, and the type checks of
configuration values that raise them."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration value (bad order, k > vocab, nonpositive time, ...)."""


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise ConfigError unless `value` is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def check_bool(name: str, value) -> None:
    """Raise ConfigError unless `value` is a bool."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def check_number(name: str, value) -> None:
    """Raise ConfigError unless `value` is a finite real number (no bool; ints within +-2**53)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (abs(value) <= 2 ** 53 if isinstance(value, numbers.Integral)
                    else math.isfinite(value))):
        raise ConfigError(f"{name} must be a finite number (an integer within +-2**53): {value!r}")


def check_tokens(name: str, tokens, vocab_size: int) -> list[int]:
    """`tokens` as a list of ints; raise ConfigError unless each is an
    integer (not a bool) in [0, vocab_size)."""
    for t in tokens:
        if type(t) is not int:  # plain ints skip check_int's slower test
            check_int(name, t)
    out = [int(t) for t in tokens]
    bad = [t for t in out if not 0 <= t < vocab_size]
    if bad:
        raise ConfigError(f"{name} must lie in [0, {vocab_size}), got {bad[:5]}")
    return out


class OutOfVocabularyError(ConfigError):
    """A corpus token lies outside [0, vocab_size)."""

    def __init__(self, token: int, vocab_size: int | None, sequence_index: int):
        self.token = token
        self.vocab_size = vocab_size
        self.sequence_index = sequence_index
        if vocab_size is not None:
            where = f"outside [0, {vocab_size})"
        else:
            where = "is negative" if token < 0 else "is past int64"
        super().__init__(f"token {token} {where} in corpus sequence {sequence_index}")


class TrieFormatError(Exception):
    """Base class for trie file deserialization failures."""


class BadMagicError(TrieFormatError):
    """File does not start with the trie magic bytes."""


class TruncatedFileError(TrieFormatError):
    """File ended before the node stream was complete."""


class VersionMismatchError(TrieFormatError):
    """File carries an unsupported format version."""


class InvalidTreeError(ValueError):
    """Draft tree is cyclic, unordered, or not ancestor-closed."""


class TrainingDivergedError(RuntimeError):
    """Training loss exceeded the divergence threshold."""

    def __init__(self, step: int, loss: float, initial_loss: float):
        self.step = step
        self.loss = loss
        self.initial_loss = initial_loss
        super().__init__(
            f"training diverged at step {step}: loss {loss:.6g} "
            f"exceeds 10x initial loss {initial_loss:.6g}"
        )


class ModelFormatError(Exception):
    """Model file is not an array archive, lacks an array, or holds one of the wrong shape."""
