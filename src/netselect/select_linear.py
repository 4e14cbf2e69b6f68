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

from .numerics import solve_spd, step_inverse
from .timeseries import _check_size, _check_subset, lag_positions, lag_stack, lag_windows


class SelectionResult(NamedTuple):
    order: List[int]          # turned-off sensors, first picked first
    step_values: List[float]  # the value that picked each of them


def greedy(n, p, score, value):
    """Backward greedy over sensors 0..n-1.

    At each of p steps, score(R) returns the values of all remaining
    sensors R at once, or None when step_inverse declines the step;
    then value(i, S) scores each i in R against the others S on its
    own. The smallest value moves its sensor to the turned-off set; ties
    go to the lowest index. Returns (order, step_values).
    """
    _check_size(n, p)
    remaining = list(range(n))
    order: List[int] = []
    step_values: List[float] = []
    for _ in range(p):
        vals = score(remaining)
        if vals is None:
            vals = [value(i, [j for j in remaining if j != i]) for i in remaining]
        k = min(range(len(vals)), key=vals.__getitem__)
        order.append(remaining.pop(k))
        step_values.append(vals[k])
    return order, step_values


def greedy_select_linear(gammas, p, H=0) -> SelectionResult:
    """Greedy selection for the linear reconstruction criterion.

    gammas holds Gamma(0..H) or more lags, as lag_stack checks. The
    value of a candidate i is its one-sensor criterion given the
    remaining sensors S, Gamma_ii(0) - beta alpha^{-1} beta^T, with
    alpha and beta from lag_stack of [i] on S. With P the inverse of the
    lag-stacked Gram over R = S + {i} and J = lag_positions of i,
    P_JJ^{-1} is the Schur complement of alpha in it, so the value is
    its lag-0 entry: one (H+1)-sized solve per candidate. Steps that
    numerics.step_inverse declines solve each alpha instead.
    """
    def score(R):
        positions = lag_positions(len(R), H)
        P = step_inverse(lag_stack(gammas, [], R, H)[0], positions)
        if P is None:
            return None
        e0 = np.eye(H + 1)[0]
        return [float(solve_spd(P[np.ix_(J, J)], e0)[0]) for J in positions]

    def value(i, S):
        alpha, beta = lag_stack(gammas, [i], S, H)
        b = beta[0]
        return float(gammas[0][i, i] - b @ solve_spd(alpha, b))

    return SelectionResult(*greedy(gammas[0].shape[0], p, score, value))


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
    alpha, beta = lag_stack(gammas, I, Ic, H)
    theta = solve_spd(alpha, beta.T).T
    return LinearReconstructor(theta=theta, turned_off=I, kept=Ic, H=H)
