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
from .numerics import solve_spd, solve_spd_many, step_inverse
from .select_linear import LinearReconstructor, SelectionResult, greedy
from .timeseries import _check_subset, estimate_blocks, lag_positions, lag_stack

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
    K_S = np.asarray(K_S, dtype=float)
    if lam < 0:
        raise InvalidInputError("lambda must be nonnegative")
    A = K_S + lam * np.eye(K_S.shape[0])
    return solve_spd(A, np.asarray(K_cross, dtype=float).T).T


def greedy_select_kernel(gammas, kb, p, lam=0.0, H=0) -> SelectionResult:
    """Greedy selection under the kernel ridge criterion.

    The loop of the linear method on the data blocks gammas; the value
    of a candidate i given the remaining sensors S swaps the
    least-squares map for Theta_lambda(i) computed from the kernel Gram
    blocks kb. Both hold lags 0..H or more, as lag_stack checks. With Q
    the inverse of K_R + lambda Id over R = S + {i} and J = lag_positions
    of i, Theta_lambda(i) is the lag-0 row of -Q_JJ^{-1} Q_J,: with its
    J entries set to 0. One stacked solve of the q (H+1)-sized systems
    (solve_spd_many) and one product with the data Gram M_R give every
    candidate's value. Steps that numerics.step_inverse declines solve
    each K_S instead.
    """
    if lam < 0:
        raise InvalidInputError("lambda must be nonnegative")

    def score(R):
        q = len(R)
        J = lag_positions(q, H)
        Q = step_inverse(lag_stack(kb, [], R, H)[0] + lam * np.eye(J.size), J)
        if Q is None:
            return None
        theta = -solve_spd_many(Q[J[:, :, None], J[:, None, :]], Q[J])[:, 0]
        theta[np.arange(q)[:, None], J] = 0.0
        M_R = lag_stack(gammas, [], R, H)[0]
        vals = (np.diag(M_R)[:q] - 2.0 * np.sum(M_R[:q] * theta, axis=1)
                + np.sum((theta @ M_R) * theta, axis=1))
        return [float(v) for v in vals]

    def value(i, S):
        alpha, beta = lag_stack(gammas, [i], S, H)
        K_S, K_cross = lag_stack(kb, [i], S, H)
        th = kernel_reconstructor(K_cross, K_S, lam).ravel()
        return float(gammas[0][i, i] - 2.0 * (beta[0] @ th) + th @ alpha @ th)

    return SelectionResult(*greedy(gammas[0].shape[0], p, score, value))


def fit_predict_kernel(kb, I, lam, H=0) -> LinearReconstructor:
    """Kernel ridge reconstructor for the set I, as a lag-stacked linear map."""
    I, Ic = _check_subset(kb[0].shape[0], I)
    K_S, K_cross = lag_stack(kb, I, Ic, H)
    theta = kernel_reconstructor(K_cross, K_S, lam)
    return LinearReconstructor(theta=theta, turned_off=I, kept=Ic, H=H)
