"""Selection results, the greedy loop, and the linear reconstructor.

The linear reconstruction of turned-off sensors I from the rest is
x_hat_{I,t} = Theta x^H_{I^c,t} with Theta = beta alpha^{-1} on the
lag-stacked Gram matrices. The selection criterion
tr(Sigma_I - beta alpha^{-1} beta^T) equals the training mean squared
error of that reconstructor, which is what the greedy algorithms
minimize one sensor at a time.
"""

import json
import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .errors import InvalidInputError
from .numerics import JITTER_TRIGGER, check_symmetric, solve_spd
from .timeseries import _check_partition, lag_stack, lag_windows

METHOD_TAGS = (
    "linear-h0",
    "linear-h",
    "kernel-h0",
    "kernel-h",
    "gcn-dropout",
    "gcn-mask",
)


def _json_list(data, key, kind, wanted):
    """data[key], which must be a JSON list of kind values (not booleans)."""
    value = data[key]
    if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, kind) for v in value):
        raise InvalidInputError(
            f"selection {key!r} must be a list of {wanted}, got {value!r}")
    return value


@dataclass
class SelectionResult:
    method: str
    hyperparams: Dict
    order: List[int]          # turned-off sensors, first picked first
    step_values: List[float]  # criterion minimum at each greedy step

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise InvalidInputError(f"unknown method tag {self.method!r}")
        if not isinstance(self.hyperparams, dict):
            raise InvalidInputError("hyperparams must be a JSON object")
        if any(i < 0 for i in self.order):
            raise InvalidInputError(
                f"selection order has a negative index: {self.order}"
            )
        if len(set(self.order)) != len(self.order):
            raise InvalidInputError(f"selection order has duplicates: {self.order}")
        if len(self.step_values) != len(self.order):
            raise InvalidInputError("step_values and order lengths differ")
        if not all(math.isfinite(v) for v in self.step_values):
            raise InvalidInputError("step_values contain non-finite entries")

    def to_json(self):
        return json.dumps(
            {
                "method": self.method,
                "hyperparams": self.hyperparams,
                "order": [int(i) for i in self.order],
                "step_values": [float(v) for v in self.step_values],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
            return cls(
                method=data["method"],
                hyperparams=data["hyperparams"],
                order=_json_list(data, "order", int, "integers"),
                step_values=[float(v) for v in _json_list(
                    data, "step_values", (int, float), "numbers")],
            )
        except KeyError as err:
            raise InvalidInputError(f"selection has no {err.args[0]!r} key") from None
        except (TypeError, ValueError) as err:
            raise InvalidInputError(f"malformed selection: {err}") from None


def greedy(n, p, score, value):
    """Backward greedy over sensors 0..n-1.

    At each of p steps, score(R) returns the values of all remaining
    sensors R at once, or None when step_inverse declines the step;
    then value(i, S) scores each i in R against the others S on its
    own. The smallest value moves its sensor to the turned-off set; ties
    go to the lowest index. Returns (order, step_values).
    """
    if not (1 <= p < n):
        raise InvalidInputError(f"need 1 <= p < {n}, got p={p}")
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


def step_inverse(A, H):
    """Inverse of the lag-stacked Gram matrix A over the q remaining
    sensors, or None when a candidate's own solve could take the jitter.

    Candidate k owns the H+1 positions k, q+k, ..., and alpha_S is A
    without them: a principal submatrix, so lambda_min(alpha_S) >=
    lambda_min(A). If A - tau* Id has a Cholesky factor, where tau* is
    the largest jitter trigger JITTER_TRIGGER * trace(alpha_S)/dim of
    any candidate, solve_spd would add no jitter to any alpha_S, and the
    values read from A^{-1} equal the per-candidate ones in exact
    arithmetic. The inverse is symmetrized.
    """
    A = check_symmetric(A)
    m = A.shape[0]
    d = np.diag(A)
    own = d.reshape(H + 1, -1).sum(axis=0)
    tau = JITTER_TRIGGER * (d.sum() - own.min()) / (m - H - 1)
    try:
        np.linalg.cholesky(A - tau * np.eye(m))
    except np.linalg.LinAlgError:
        return None
    P = np.linalg.inv(A)
    return (P + P.T) / 2.0


def lag_positions(q, H):
    """Index arrays J of each of q sensors' H+1 positions in the
    lag-stacked layout, lag 0 first."""
    lags = q * np.arange(H + 1)
    return [k + lags for k in range(q)]


def greedy_select_linear(gammas, p, H=0) -> SelectionResult:
    """Greedy selection for the linear reconstruction criterion.

    gammas holds Gamma(0..H) or more lags. The value of a candidate i is
    its one-sensor criterion given the remaining sensors S,
    Gamma_ii(0) - beta alpha^{-1} beta^T, with alpha and beta from
    lag_stack of [i] on S. With P the inverse of the lag-stacked Gram
    over R = S + {i} and J the positions of i, P_JJ^{-1} is the Schur
    complement of alpha in it, so the value is its lag-0 entry: one
    (H+1)-sized solve per candidate. Steps that step_inverse declines
    solve each alpha instead.
    """
    if H > len(gammas) - 1:
        raise InvalidInputError(f"blocks hold lags 0..{len(gammas) - 1}, need H={H}")
    e0 = np.eye(H + 1)[0]

    def score(R):
        P = step_inverse(lag_stack(gammas, [], R, H)[0], H)
        if P is None:
            return None
        return [float(solve_spd(P[np.ix_(J, J)], e0)[0])
                for J in lag_positions(len(R), H)]

    def value(i, S):
        alpha, beta = lag_stack(gammas, [i], S, H)
        b = beta[0]
        return float(gammas[0][i, i] - b @ solve_spd(alpha, b))

    order, step_values = greedy(gammas[0].shape[0], p, score, value)
    method = "linear-h0" if H == 0 else "linear-h"
    return SelectionResult(method, {}, order, step_values)


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
    I, Ic = _check_partition(gammas[0].shape[0], I)
    if not I or not Ic:
        raise InvalidInputError("I must be a nonempty proper subset")
    alpha, beta = lag_stack(gammas, I, Ic, H)
    theta = solve_spd(alpha, beta.T).T
    return LinearReconstructor(theta=theta, turned_off=I, kept=Ic, H=H)
