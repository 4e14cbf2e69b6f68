"""Kernel ridge reconstruction criteria and greedy selection.

The reconstructor Theta_lambda = K_II^c (K_I^c + lambda Id)^{-1} replaces
the least-squares map; the criterion keeps the data Gram matrices:
tr(Sigma_I - 2 beta Theta^T + Theta alpha Theta^T). With the
autocovariance kernel the Gram blocks equal the data blocks, so at
lambda = 0 everything reduces to the linear method.
"""

from typing import List

import numpy as np

from . import graph as graphmod
from .errors import InvalidInputError
from .numerics import solve_spd, sym_inverse, well_conditioned
from .select_linear import LinearReconstructor, SelectionResult, greedy
from .timeseries import _check_subset, assemble_blocks, estimate_blocks, lag_positions

KERNEL_TAGS = ("spatial-temporal", "autocovariance", "linear", "rbf")
# the kernels whose Gram blocks are built on the sensor graph
GRAPH_KERNELS = ("spatial-temporal", "rbf")


def build_kernel_blocks(kernel, H=0, gamma=0.0, graph=None, X_train=None
                        ) -> List[np.ndarray]:
    """Gram blocks [K(0), ..., K(H)] for the named kernel.

    autocovariance and linear need training data, GRAPH_KERNELS the
    sensor graph. Kernels without intrinsic lag structure are extended
    in time by the RBF factor exp(-gamma l^2); each of their blocks is
    exactly symmetric, so K(-l) = K(l)^T = K(l). The blocks follow the
    lag convention of timeseries.assemble_blocks.
    """
    if kernel not in KERNEL_TAGS:
        raise InvalidInputError(f"unknown kernel {kernel!r}; supported: {KERNEL_TAGS}")
    if gamma < 0 or H < 0:
        raise InvalidInputError("need gamma >= 0, H >= 0")
    if kernel == "autocovariance":
        if X_train is None:
            raise InvalidInputError("autocovariance kernel needs training data")
        return estimate_blocks(X_train, H)

    if kernel == "linear":
        if X_train is None:
            raise InvalidInputError("linear kernel needs training data")
        K_g = estimate_blocks(X_train, 0)[0]
    elif kernel == "spatial-temporal":
        if graph is None:
            raise InvalidInputError("spatial-temporal kernel needs the sensor graph")
        spec = graphmod.graph_spectrum(graphmod.combinatorial_laplacian(graph))
        K_g = graphmod.laplacian_kernel(spec)
    else:  # rbf on sensor coordinates, median-heuristic length scale
        if graph is None:
            raise InvalidInputError("rbf kernel needs the sensor graph")
        coords = graph.coords
        diff = coords[:, None, :] - coords[None, :, :]
        d2 = (diff ** 2).sum(axis=2)
        off = d2[~np.eye(coords.shape[0], dtype=bool)]
        scale = np.median(off) if off.size and np.median(off) > 0 else 1.0
        K_g = np.exp(-d2 / scale)

    return [K_g * np.exp(-gamma * l ** 2) for l in range(H + 1)]


def kernel_reconstructor(K_cross, K_S, lam):
    """Theta_lambda = K_cross (K_S + lambda Id)^{-1}.

    The jitter policy applies, so an exactly singular PSD Gram at
    lambda = 0 is regularized at the 1e-10 level; matrices indefinite
    beyond jitter raise SingularMatrixError.
    """
    A = _ridged(np.asarray(K_S, dtype=float), lam)
    return solve_spd(A, np.asarray(K_cross, dtype=float).T).T


def _ridged(K, lam):
    """K + lambda Id, for a finite nonnegative lambda."""
    if not 0.0 <= lam < np.inf:
        raise InvalidInputError(f"lambda must be nonnegative and finite, got {lam}")
    return K + lam * np.eye(K.shape[0])


def greedy_select_kernel(gammas, kb, p, lam=0.0, H=0) -> SelectionResult:
    """Greedy selection under the kernel ridge criterion.

    The loop of the linear method on the data blocks gammas; the value
    of a candidate i given the turned-off set T swaps the least-squares
    map for Theta_lambda(i) computed from the kernel Gram blocks kb.
    Both hold lags 0..H or more, as assemble_blocks checks. With Q the
    inverse of K_R + lambda Id, K_R the alpha of T, and J = lag_positions
    of i, Theta_lambda(i) is the lag-0 row of -Q_JJ^{-1} Q_J,: with its
    J entries set to 0. One stacked np.linalg.solve of the q Q_JJ and
    one product with the data Gram M_R give every candidate's value.
    """
    n = gammas[0].shape[0]
    if kb[0].shape[0] != n:
        raise InvalidInputError(f"data blocks cover {n} sensors, "
                                f"kernel blocks {kb[0].shape[0]}")

    def score(T, Q):
        q = n - len(T)
        J = lag_positions(q, H)
        theta = -np.linalg.solve(Q[J[:, :, None], J[:, None, :]], Q[J])[:, 0]
        theta[np.arange(q)[:, None], J] = 0.0
        M_R = assemble_blocks(gammas, T, H)[0]
        vals = (np.diag(M_R)[:q] - 2.0 * np.sum(M_R[:q] * theta, axis=1)
                + np.sum((theta @ M_R) * theta, axis=1))
        return [float(v) for v in vals]

    def value(i, T):
        alpha, beta = assemble_blocks(gammas, [*T, i], H)
        K_S, K_cross = assemble_blocks(kb, [*T, i], H)
        th = kernel_reconstructor(K_cross[-1:], K_S, lam).ravel()
        return float(gammas[0][i, i] - 2.0 * (beta[-1] @ th) + th @ alpha @ th)

    return greedy(n, p, lambda T: _ridged(assemble_blocks(kb, T, H)[0], lam), score, value)


def fit_predict_kernel(kb, I, lam, H=0) -> LinearReconstructor:
    """Kernel ridge reconstructor for the set I, as a lag-stacked linear map."""
    I, Ic = _check_subset(kb[0].shape[0], I)
    K_S, K_cross = assemble_blocks(kb, I, H)
    theta = kernel_reconstructor(K_cross, K_S, lam)
    return LinearReconstructor(theta=theta, turned_off=I, kept=Ic, H=H)


def kernel_fitter(kb, lam, H):
    """fit(I) = fit_predict_kernel(kb, I, lam, H) from one inverse Q of
    all sensors' lag-stacked Gram + lambda Id: Theta_lambda is the lag-0
    rows of -Q_JJ^{-1} Q_JK, J and K the lag_positions of I and I^c,
    equal in exact arithmetic; the roundoff grows with cond(Q). The
    fitter asks numerics.well_conditioned once, so each Q_JJ is solved
    by plain np.linalg.solve; if it refuses, fit is fit_predict_kernel."""
    n = kb[0].shape[0]
    pos = lag_positions(n, H)
    A = _ridged(assemble_blocks(kb, [], H)[0], lam)
    if not well_conditioned(A):
        return lambda I: fit_predict_kernel(kb, I, lam, H)
    Q = sym_inverse(A)

    def fit(I):
        I, Ic = _check_subset(n, I)
        J, K = pos[I].T.ravel(), pos[Ic].T.ravel()
        theta = -np.linalg.solve(Q[np.ix_(J, J)], Q[np.ix_(J, K)])[:len(I)]
        return LinearReconstructor(theta=theta, turned_off=I, kept=Ic, H=H)

    return fit
