"""Exception types shared across the pipeline."""


class AlignRagError(Exception):
    """Base class for all library errors."""


class EmptyInput(AlignRagError):
    """Text tokenized to an empty sequence where tokens were required."""


class DegenerateNorm(AlignRagError):
    """A vector with near-zero norm cannot be normalized."""


class DimMismatch(AlignRagError):
    """Operands have incompatible dimensions."""


class DuplicateId(AlignRagError):
    """Corpus contains a repeated chunk id."""


class EmptyCorpus(AlignRagError):
    """An operation required a nonempty corpus."""


class EmptyScores(AlignRagError):
    """Weight normalization needs at least one score."""


class NonFiniteBeta(AlignRagError):
    """The alignment-weight temperature must be finite and nonnegative."""


class UnknownChunkId(AlignRagError):
    """A weight entry referenced a chunk id absent from the index."""


class InvalidTokenId(AlignRagError):
    """Token id outside the vocabulary range."""


class LengthMismatch(AlignRagError):
    """Paired sequences have different lengths."""


class NonFiniteLoss(AlignRagError):
    """Training produced a non-finite loss value."""


class ParseError(AlignRagError):
    """Input file is not valid JSON; carries a byte offset when known."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class SchemaError(AlignRagError):
    """A record is missing a required field or has the wrong shape."""


class InvalidGrid(AlignRagError, ValueError):
    """A sweep grid is not a strictly increasing list of numbers in its parameter's range."""


class DanglingSupportingFact(AlignRagError):
    """A supporting fact names a title absent from the sample context."""


class InvalidSpec(AlignRagError):
    """Synthetic dataset specification violates its invariants."""


class CheckpointError(AlignRagError):
    """Checkpoint or index file is malformed or has the wrong version."""
