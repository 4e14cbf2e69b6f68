"""The selection result, the greedy loop, and the linear reconstructor.

The linear reconstruction of turned-off sensors I from the rest is
x_hat_{I,t} = Theta x^H_{I^c,t} with Theta = beta alpha^{-1} on the
lag-stacked Gram matrices. The selection criterion
tr(Sigma_I - beta alpha^{-1} beta^T) equals the training mean squared
error of that reconstructor, which is what the greedy algorithms
minimize one sensor at a time.
"""

from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from .numerics import solve_spd, sym_inverse, well_conditioned
from .timeseries import _check_size, _check_subset, assemble_blocks, lag_positions, lag_windows


class SelectionResult(NamedTuple):
    order: List[int]          # turned-off sensors, first picked first
    step_values: List[float]  # the value that picked each of them


def greedy(n, p, gram, score, value) -> SelectionResult:
    """Backward greedy over sensors 0..n-1.

    gram(T) is the run's lag-stacked Gram over the sensors outside the
    turned-off set T. The run asks numerics.well_conditioned once, on
    gram([]). If it admits, each step's values are score(T, P), P the
    sym_inverse of gram(T); if it refuses, each remaining sensor i is
    scored on its own by value(i, T). Both list the remaining sensors in
    increasing order; the smallest value moves its sensor to T, and ties
    go to the lowest index.
    """
    _check_size(n, p)
    full = gram([])
    admitted = well_conditioned(full)
    remaining = list(range(n))
    order: List[int] = []
    step_values: List[float] = []
    for _ in range(p):
        if admitted:
            vals = score(order, sym_inverse(gram(order) if order else full))
        else:
            vals = [value(i, order) for i in remaining]
        k = min(range(len(vals)), key=vals.__getitem__)
        order.append(remaining.pop(k))
        step_values.append(vals[k])
    return SelectionResult(order, step_values)


def greedy_select_linear(gammas, p, H=0) -> SelectionResult:
    """Greedy selection for the linear reconstruction criterion.

    gammas holds Gamma(0..H) or more lags, as assemble_blocks checks.
    Given the turned-off set T, the value of a candidate i is its
    one-sensor criterion Gamma_ii(0) - beta alpha^{-1} beta^T, alpha and
    beta's last row from assemble_blocks of T + [i]. With P the inverse
    of alpha of T and J = lag_positions of i, P_JJ^{-1} is the Schur
    complement of that alpha in it, so the value is its lag-0 entry:
    one (H+1)-sized solve_spd per candidate, which cannot jitter under
    the guard: the benchmark's traced check counts those solves.
    """
    n = gammas[0].shape[0]

    def score(T, P):
        positions = lag_positions(n - len(T), H)
        e0 = np.eye(H + 1)[0]
        P_JJ = P[positions[:, :, None], positions[:, None, :]]
        return [float(solve_spd(B, e0)[0]) for B in P_JJ]

    def value(i, T):
        alpha, beta = assemble_blocks(gammas, [*T, i], H)
        b = beta[-1]
        return float(gammas[0][i, i] - b @ solve_spd(alpha, b))

    return greedy(n, p, lambda T: assemble_blocks(gammas, T, H)[0], score, value)


@dataclass
class LinearReconstructor:
    """Fitted linear map from lag-stacked kept sensors to turned-off ones."""

    theta: np.ndarray          # (|I|, (H+1)|I^c|)
    turned_off: List[int]
    kept: List[int]
    H: int

    def predict_panel(self, X, t_start, t_end):
        """Predictions for columns t_start..t_end-1 of a full panel matrix.

        Lags reach back into columns before t_start; positions before
        column 0 are treated as zero.
        """
        ts = np.arange(t_start, t_end)
        # (H+1, n, B) -> the (H+1)|I^c| x B design, row l|I^c| + k
        W = lag_windows(np.asarray(X, dtype=float), ts, self.H).transpose(2, 1, 0)
        return self.theta @ W[:, self.kept].reshape(self.theta.shape[1], ts.size)


def fit_predict_linear(gammas, I, H=0) -> LinearReconstructor:
    """Least-squares reconstructor Theta = beta alpha^{-1} for the set I."""
    I, Ic = _check_subset(gammas[0].shape[0], I)
    alpha, beta = assemble_blocks(gammas, I, H)
    theta = solve_spd(alpha, beta.T).T
    return LinearReconstructor(theta=theta, turned_off=I, kept=Ic, H=H)
