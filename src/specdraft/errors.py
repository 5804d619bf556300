"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value (bad order, k > vocab, nonpositive time, ...)."""


class OutOfVocabularyError(ValueError):
    """A corpus token is >= the declared vocabulary size."""

    def __init__(self, token: int, vocab_size: int, sequence_index: int):
        self.token = token
        self.vocab_size = vocab_size
        self.sequence_index = sequence_index
        super().__init__(
            f"token {token} >= vocab_size {vocab_size} in corpus sequence {sequence_index}"
        )


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
