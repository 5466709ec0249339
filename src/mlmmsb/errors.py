"""Exception and warning types shared across the package."""


class MlmmsbError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MlmmsbError, ValueError):
    """Shapes of two objects are incompatible."""


class ConfigError(MlmmsbError, ValueError):
    """An invalid parameter or configuration value."""


class RankDeficiencyError(MlmmsbError, ValueError):
    """Residual collapsed before enough simplex vertices were found."""


class IllConditionedCornerError(MlmmsbError, ValueError):
    """Corner matrix too ill-conditioned to invert reliably."""


class EmptyNetworkError(MlmmsbError, ValueError):
    """Network has no edges where at least one is required."""


class ModelSelectionError(MlmmsbError, RuntimeError):
    """Every candidate community count failed during selection."""


class UnusableDataError(MlmmsbError, ValueError):
    """Data cannot support the requested fit (e.g. nonpositive means on a log scale)."""


class ParseError(MlmmsbError, ValueError):
    """Malformed line in an input file."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class IoError(MlmmsbError, OSError):
    """Failure writing or reading an artifact file."""


class DegeneracyWarning(UserWarning):
    """Eigenvalue structure is numerically degenerate; results may be unstable."""


class ZeroRowFallbackWarning(UserWarning):
    """A membership row collapsed to zero after clamping and was reset to uniform."""


class EmptyLayerWarning(UserWarning):
    """A layer with no edges was skipped when averaging per-layer modularity."""
