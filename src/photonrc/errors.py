"""Exception hierarchy shared across the pipeline, and its one failure rule.

:func:`exit_code` maps each of :data:`FAILURES`, which a stage wraps and a
grid trial logs, to its exit code: 2 for a ``DataError`` (parse, schema,
missing frame, label, dimension, not a pipeline dir) or ``OSError``, 3 for a
``NumericalError`` (rank, singular, degenerate target, non-finite phase or
readout output) or ``OverflowError``, 1 for any other ``ValueError``
(usage); a stage error takes its cause's.
"""


class PhotonRcError(Exception):
    """Base class for all package-specific errors."""


class DataError(PhotonRcError):
    """Input data is malformed, missing, or inconsistent."""


class ParseError(DataError):
    """A file could not be parsed at all."""


class SchemaError(DataError):
    """A parsed file violates its documented schema."""


class MissingFrameError(DataError):
    """A manifest references a frame file that does not exist."""


class LabelError(DataError):
    """An action label is not one of the six known classes."""


class DimensionError(DataError):
    """Array dimensions do not match what an operation requires."""


class NumericalError(PhotonRcError):
    """A numerical computation degenerated."""


class RankError(NumericalError):
    """A decomposition has lower rank than the request requires."""


class SingularError(NumericalError):
    """A linear system is singular (or numerically indistinguishable from it)."""


class DegenerateTargetError(NumericalError):
    """A target signal has zero variance, so a normalized error is undefined."""


class NotAPipelineDirError(DataError):
    """A directory was not produced by a pipeline or grid-search run."""


class PipelineStageError(PhotonRcError):
    """A pipeline stage failed; carries the stage name and the root cause."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


FAILURES = (PhotonRcError, OSError, OverflowError, ValueError)


def exit_code(exc):
    """The exit code of a failure in :data:`FAILURES`: 2 data, 3 numerical, 1 usage."""
    exc = exc.cause if isinstance(exc, PipelineStageError) else exc
    if isinstance(exc, (DataError, OSError)):
        return 2
    return 3 if isinstance(exc, (NumericalError, OverflowError)) else 1
