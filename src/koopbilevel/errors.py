"""Exception taxonomy shared across the package.

An error means no result exists: a bad config, non-finite numbers, a
singular system or a failed assembly. A solver that runs out of budget or
misses its tolerance is not an error. It returns what it found and says so,
as the baseline NLP's ``converged=False`` does.
"""


class KoopbilevelError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KoopbilevelError):
    """Invalid configuration (bad schema, unknown keys, degenerate bounds)."""


class ArtifactError(KoopbilevelError):
    """A written artifact cannot be parsed (invalid JSON, a CSV without rows)."""


class DomainEvaluationError(KoopbilevelError):
    """A system map returned non-finite values for an in-domain state."""


class IntegrationError(KoopbilevelError):
    """An integrator stage produced non-finite values."""


class DataError(KoopbilevelError):
    """Training data assembly failed (non-finite lift or Lie derivative)."""


class NumericError(KoopbilevelError):
    """A dense kernel received non-finite input."""


class DegenerateQpError(KoopbilevelError):
    """The KKT system is singular or its solution misses the residual test.

    Carries the smallest pivot magnitude seen during factorization.
    """

    def __init__(self, message, min_pivot=None):
        super().__init__(message)
        self.min_pivot = min_pivot


class CorrelationError(KoopbilevelError):
    """Pearson correlation is undefined (zero variance input)."""


class BuildError(KoopbilevelError):
    """Problem assembly failed (dimension mismatch)."""


class LowerLevelError(KoopbilevelError):
    """A constraint's reduction rejected the upper-level point p: a period
    T <= 0, or step geometry that no gait of that speed meets."""


class NoSolutionError(KoopbilevelError):
    """The upper-level search found no point with a finite cost."""

