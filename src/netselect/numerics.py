"""Dense symmetric linear algebra shared by every selection method.

All routines work on plain float64 numpy arrays. Covariance and Gram
matrices estimated from data can be numerically singular, so every
inversion goes through solve_spd and its jitter policy: if the smallest
eigenvalue of A falls below 1e-12 * trace(A)/n, add 1e-10 * trace(A)/n
to the diagonal before solving; step_inverse inverts only where that
policy would add no jitter.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, SingularMatrixError

# jitter policy thresholds, relative to the mean diagonal trace(A)/n
JITTER_TRIGGER = 1e-12
JITTER_SIZE = 1e-10


class EigenPair(NamedTuple):
    values: np.ndarray   # ascending
    vectors: np.ndarray  # orthonormal columns, values[k] <-> vectors[:, k]


class PowerResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


def check_symmetric(M, name="matrix"):
    """Validate a square symmetric finite matrix and return it as float64."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] < 1:
        raise InvalidInputError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    if not np.array_equal(M, M.T):
        # tolerate roundoff-level asymmetry from accumulated products
        if np.abs(M - M.T).max() > 1e-10 * max(1.0, np.abs(M).max()):
            raise InvalidInputError(f"{name} is not symmetric")
        M = (M + M.T) / 2.0
    return M


def sym_eig(M) -> EigenPair:
    """Eigendecomposition of a symmetric matrix.

    Returns ascending eigenvalues and orthonormal eigenvectors with a
    deterministic sign convention: the largest-magnitude component of
    each eigenvector is nonnegative.
    """
    M = check_symmetric(M)
    values, vectors = np.linalg.eigh(M)
    for k in range(vectors.shape[1]):
        j = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[j, k] < 0:
            vectors[:, k] = -vectors[:, k]
    return EigenPair(values, vectors)


def _has_cholesky(A, tau):
    """Whether A - tau Id, or every item of a stack A, has a Cholesky factor."""
    try:
        np.linalg.cholesky(A - tau * np.eye(A.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def solve_spd(A, B):
    """Solve A X = B for symmetric positive definite A.

    The jitter policy is decided by one Cholesky factorization: with
    tau = JITTER_TRIGGER * trace(A)/n, A - tau Id has no Cholesky factor
    when lambda_min(A) falls below tau, and then JITTER_SIZE * trace(A)/n
    is added to the diagonal. If the jittered A has no Cholesky factor
    either, a SingularMatrixError is raised naming the smallest
    eigenvalue of A.
    """
    A = check_symmetric(A)
    n = A.shape[0]
    scale = np.trace(A) / n
    if not _has_cholesky(A, JITTER_TRIGGER * scale):
        jittered = A + (JITTER_SIZE * scale) * np.eye(n)
        if not _has_cholesky(jittered, 0.0):
            raise SingularMatrixError("matrix is singular beyond jitter "
                                      f"(min eigenvalue {np.linalg.eigvalsh(A)[0]:.3e})")
        A = jittered
    return np.linalg.solve(A, np.asarray(B, dtype=float))


def solve_spd_many(A, B):
    """np.stack([solve_spd(a, b) for a, b in zip(A, B)]) for A (q, m, m)
    and B (q, m, k): by one stacked solve when one stacked Cholesky shows
    that no item takes the jitter, else item by item."""
    A = np.asarray(A, dtype=float)
    if np.isfinite(A).all() and np.array_equal(A, A.transpose(0, 2, 1)):
        tau = JITTER_TRIGGER * (np.trace(A, axis1=1, axis2=2) / A.shape[1])
        if _has_cholesky(A, tau[:, None, None]):
            return np.linalg.solve(A, B)
    return np.stack([solve_spd(a, b) for a, b in zip(A, B)])


def step_inverse(A, positions):
    """Inverse of the Gram matrix A of a greedy step, whose candidate k
    owns the rows and columns positions[k], or None when a candidate's
    own solve could take the jitter.

    Each alpha_S, A without one candidate's positions, is a principal
    submatrix, so lambda_min(alpha_S) >= lambda_min(A). If A - tau* Id
    has a Cholesky factor, where tau* is the largest jitter trigger
    JITTER_TRIGGER * trace(alpha_S)/dim of any candidate, solve_spd adds
    no jitter to any alpha_S, and the values read from A^{-1} equal the
    per-candidate ones in exact arithmetic. The inverse is symmetrized.
    """
    A = check_symmetric(A)
    d = np.diag(A)
    own = d[positions].sum(axis=1)
    tau = JITTER_TRIGGER * (d.sum() - own.min()) / (A.shape[0] - positions.shape[1])
    if not _has_cholesky(A, tau):
        return None
    P = np.linalg.inv(A)
    return (P + P.T) / 2.0


def power_method(A, tol=1e-10, max_iter=1000, seed=0) -> PowerResult:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Returns the estimate with a convergence flag. The flag is False, and
    the value the eigensolve's, when max_iter is exhausted before two
    consecutive Rayleigh quotients agree to relative tol.
    """
    A = check_symmetric(A)
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    lam = float(v @ A @ v)
    for it in range(1, max_iter + 1):
        w = A @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # A annihilates v; for PSD A this means lambda_max on this
            # start vector is 0, retry once with a fresh direction
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            continue
        v = w / norm
        lam_new = float(v @ A @ v)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return PowerResult(lam_new, True, it)
        lam = lam_new
    return PowerResult(float(np.linalg.eigvalsh(A)[-1]), False, max_iter)
