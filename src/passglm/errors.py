"""Exception types raised across the package."""


class PassGlmError(Exception):
    """Base class for all package-specific errors.  ``record_index``, when
    set, is the 0-based number of the record the error names."""

    def __init__(self, *args, record_index=None):
        super().__init__(*args)
        self.record_index = record_index


class InvalidInputError(PassGlmError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(PassGlmError):
    """The requested statistic set exceeds the configured size cap."""


class ConfigMismatchError(PassGlmError):
    """Two statistic accumulators were built with different configurations."""


class StatsFormatError(PassGlmError):
    """A statistics file is corrupt or has an unknown magic/version."""


class PathologicalApproximationError(PassGlmError):
    """The fitted polynomial makes the surrogate log-likelihood unbounded."""


class NonConcaveError(PassGlmError):
    """The surrogate log-posterior is not concave where it must be."""


class NotPositiveDefiniteError(PassGlmError):
    """A matrix required to be positive definite failed its Cholesky factorization."""


class ConvergenceError(PassGlmError):
    """An iterative optimizer failed to reach its tolerance."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DivergenceError(PassGlmError):
    """An iterate escaped to an unreasonable magnitude."""


class NumericError(PassGlmError):
    """A non-finite value appeared during accumulation or in statistics to be written."""


class MetricError(PassGlmError, ValueError):
    """A metric is undefined for the given input (e.g. single-class AUC)."""
