"""Kernel ridge reconstruction criteria and greedy selection.

The reconstructor Theta_lambda = K_II^c (K_I^c + lambda Id)^{-1} replaces
the least-squares map; the criterion keeps the data Gram matrices:
tr(Sigma_I - 2 beta Theta^T + Theta alpha Theta^T). With the
autocovariance kernel the Gram blocks equal the data blocks, so at
lambda = 0 everything reduces to the linear method.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from . import graph as graphmod
from .errors import InvalidInputError
from .numerics import solve_spd
from .select_linear import LinearReconstructor, SelectionResult, greedy
from .timeseries import CovarianceBlocks, _check_partition, estimate_blocks, lag_stack

KERNEL_TAGS = ("laplacian", "spatial-temporal", "autocovariance", "linear", "rbf")


@dataclass(frozen=True)
class KernelConfig:
    kernel: str = "autocovariance"
    gamma: float = 0.0   # RBF decay in the time lag
    H: int = 0

    def __post_init__(self):
        if self.kernel not in KERNEL_TAGS:
            raise InvalidInputError(
                f"unknown kernel {self.kernel!r}; supported: {KERNEL_TAGS}"
            )
        if self.gamma < 0 or self.H < 0:
            raise InvalidInputError("need gamma >= 0, H >= 0")


def build_kernel_blocks(config: KernelConfig, graph=None, X_train=None) -> List[np.ndarray]:
    """Gram blocks K(0..H) for the configured kernel.

    autocovariance needs training data; laplacian / spatial-temporal / rbf
    need the sensor graph. Kernels without intrinsic lag structure are
    extended in time by the RBF factor exp(-gamma l^2); each of their
    blocks is exactly symmetric, so K(-l) = K(l)^T = K(l). The blocks
    follow the lag convention of timeseries.assemble_blocks.
    """
    H = config.H
    if config.kernel == "autocovariance":
        if X_train is None:
            raise InvalidInputError("autocovariance kernel needs training data")
        return estimate_blocks(np.asarray(X_train, dtype=float), H).gammas

    if config.kernel == "linear":
        if X_train is None:
            raise InvalidInputError("linear kernel needs training data")
        K_g = estimate_blocks(np.asarray(X_train, dtype=float), 0).sigma
    elif config.kernel in ("laplacian", "spatial-temporal"):
        if graph is None:
            raise InvalidInputError(f"{config.kernel} kernel needs the sensor graph")
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

    return [K_g * np.exp(-config.gamma * l ** 2) for l in range(H + 1)]


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


def greedy_select_kernel(cov_blocks: CovarianceBlocks, kb, p,
                         lam=0.0, H=0) -> SelectionResult:
    """Greedy selection under the kernel ridge criterion.

    The loop of the linear method; the value of a candidate i given the
    remaining sensors S swaps the least-squares map for Theta_lambda(i)
    computed from the kernel Gram blocks kb.
    """
    n = cov_blocks.n
    if not (1 <= p < n):
        raise InvalidInputError(f"need 1 <= p < {n}, got p={p}")
    gammas = cov_blocks.gammas
    if H > len(gammas) - 1:
        raise InvalidInputError(f"covariance blocks hold lags 0..{len(gammas) - 1}")

    def value(i, S):
        alpha, beta = lag_stack(gammas, [i], S, H)
        K_S, K_cross = lag_stack(kb, [i], S, H)
        th = kernel_reconstructor(K_cross, K_S, lam).ravel()
        return float(gammas[0][i, i] - 2.0 * (beta[0] @ th) + th @ alpha @ th)

    order, step_values = greedy(n, p, value)
    method = "kernel-h0" if H == 0 else "kernel-h"
    return SelectionResult(method, {"H": H, "lambda": lam}, order, step_values)


def fit_predict_kernel(cov_blocks: CovarianceBlocks, kb, I, lam, H=0
                       ) -> LinearReconstructor:
    """Kernel ridge reconstructor for the set I, as a lag-stacked linear map."""
    n = cov_blocks.n
    I, Ic = _check_partition(n, I)
    if not I or not Ic:
        raise InvalidInputError("I must be a nonempty proper subset")
    K_S, K_cross = lag_stack(kb, I, Ic, H)
    theta = kernel_reconstructor(K_cross, K_S, lam)
    return LinearReconstructor(theta=theta, turned_off=I, kept=Ic, H=H)

