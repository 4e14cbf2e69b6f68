"""Exception types raised across the package."""


class NetselectError(Exception):
    """Base class for all package errors."""


class InvalidInputError(NetselectError):
    """Non-finite, malformed, or out-of-contract input."""


class SingularMatrixError(NetselectError):
    """Matrix not invertible even after the jitter policy."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class ConnectivityError(NetselectError):
    """Constructed graph is not connected."""

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = components


class DegenerateScaleError(NetselectError):
    """Coincident coordinates make a local kNN scale zero."""


class ZeroDegreeError(NetselectError):
    """Isolated node where a positive degree is required."""


class LagError(NetselectError):
    """Requested lag not available from the data."""


class PartitionError(NetselectError):
    """Turned-off set and complement do not partition the sensors."""


class ZeroScaleError(NetselectError):
    """Sensor with zero residual variance cannot be standardized."""


class IntervalError(NetselectError):
    """Empty common observation interval across stations."""


class TrainingDivergedError(NetselectError):
    """Network training produced a non-finite loss."""


class UndefinedScoreError(NetselectError):
    """R^2 undefined because a sensor has zero validation variance."""
