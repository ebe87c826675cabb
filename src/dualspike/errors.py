"""Exception types raised across the package."""


class DualSpikeError(Exception):
    """Base class for all package-specific errors."""


class NoConvergenceError(DualSpikeError):
    """An iterative refinement failed."""


class LevelSetEmptyError(DualSpikeError):
    """The requested level lies below the model minimum."""


class InfeasibleError(DualSpikeError):
    """A constraint set was detected to be empty."""


class RankDeficientError(DualSpikeError):
    """A matrix is (numerically) rank deficient."""


class EmptySupportError(DualSpikeError):
    """No certificate maximizer qualifies as a source location."""


class InsufficientSamplesError(DualSpikeError):
    """Fewer samples than the 2k needed for the reduced Jacobian."""


class CurvatureSignError(DualSpikeError):
    """A certificate curvature that must be negative is not."""


class RadiusTooLargeError(DualSpikeError):
    """A perturbation radius exceeds the bound's validity region."""


class ConfigError(DualSpikeError):
    """An experiment configuration file is invalid; the message names the key."""
