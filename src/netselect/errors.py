"""Exception types raised across the package.

The class decides the exit code: an InvalidInputError (bad data, files or
settings, among them a constant sensor under standardization, coincident
or disconnected coordinates, a lag beyond the training rows, or feeds
with no common interval) exits 2; any other NetselectError, a
computation that failed on valid input, exits 3. The λ grid and the
random baseline skip a point or draw whose fit failed to compute, and
exit 3 when every one of them did.
"""


class NetselectError(Exception):
    """Base class for all package errors."""


class InvalidInputError(NetselectError):
    """Non-finite, malformed, or out-of-contract input."""


class SingularMatrixError(NetselectError):
    """Matrix not invertible even after the jitter policy."""


class TrainingDivergedError(NetselectError):
    """Network training produced a non-finite loss."""
