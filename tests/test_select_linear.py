"""Linear criteria, greedy and exhaustive selection, linear reconstructor."""

from itertools import combinations

import numpy as np
import pytest

from netselect import select_linear
from netselect.errors import InvalidInputError
from netselect.numerics import solve_spd
from netselect.select_linear import (
    LinearReconstructor,
    SelectionResult,
    fit_predict_linear,
    greedy_select_linear,
    step_inverse,
)
from netselect.timeseries import estimate_blocks
from oracles import criterion_linear, lagged_design, training_mse


def _toy_cov():
    A = np.array(
        [
            [0, 1, 1, 1],
            [1, 0, 1, 0],
            [1, 1, 0, 0],
            [1, 0, 0, 0],
        ],
        dtype=float,
    )
    return A + np.diag(A.sum(axis=1))


def _partial_variance(sigma, i):
    """sigma^2_{i|S} = Sigma_ii - Sigma_iS Sigma_S^{-1} Sigma_Si, S the rest."""
    S = [j for j in range(sigma.shape[0]) if j != i]
    v = sigma[i, S]
    return sigma[i, i] - v @ np.linalg.solve(sigma[np.ix_(S, S)], v)


def test_partial_variance_exact_fractions():
    cov = _toy_cov()
    assert criterion_linear([cov], [0], 0) == pytest.approx(4 / 3, abs=1e-12)
    assert criterion_linear([cov], [3], 0) == pytest.approx(4 / 7, abs=1e-12)
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    assert criterion_linear([corr], [0], 0) == pytest.approx(4 / 9, abs=1e-12)
    assert criterion_linear([corr], [3], 0) == pytest.approx(4 / 7, abs=1e-12)


def test_criterion_h0_equals_partial_variance_for_singletons():
    cov = _toy_cov()
    for i in range(4):
        assert criterion_linear([cov], [i], 0) == pytest.approx(
            _partial_variance(cov, i), abs=1e-12
        )


def test_greedy_tie_breaks_to_lowest_index():
    result = greedy_select_linear([np.eye(5)], p=3, H=0)
    assert result.order == [0, 1, 2]
    assert result.step_values == [1.0, 1.0, 1.0]
    assert result.method == "linear-h0"


def test_greedy_validates_p_and_lags():
    blocks = [np.eye(4)]
    with pytest.raises(InvalidInputError, match="p="):
        greedy_select_linear(blocks, p=4)
    with pytest.raises(InvalidInputError, match="lags"):
        greedy_select_linear(blocks, p=1, H=1)


def test_greedy_method_tag_with_history():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 400))
    result = greedy_select_linear(estimate_blocks(X, 2), p=2, H=2)
    assert result.method == "linear-h"
    assert len(result.order) == 2


@pytest.mark.parametrize("H", [0, 1])
def test_greedy_makes_one_solve_per_candidate(H, monkeypatch):
    # step k scores the n - k remaining sensors with one (H+1)-sized
    # solve_spd each
    calls = []

    def counted(A, B):
        calls.append(A.shape[0])
        return solve_spd(A, B)

    monkeypatch.setattr(select_linear, "solve_spd", counted)
    X = np.random.default_rng(6).normal(size=(12, 400))
    greedy_select_linear(estimate_blocks(X, H), p=4, H=H)
    assert calls == [H + 1] * sum(12 - k for k in range(4))


def test_step_inverse_declines_when_any_candidate_would_jitter():
    # without sensor 1 the Gram is diag(1e6, 1e-8, 1): its jitter trigger
    # 1e-12 * (1e6 + 1) / 3 exceeds its smallest eigenvalue 1e-8
    assert step_inverse(np.diag([1e6, 1.0, 1e-8, 1.0]), 0) is None
    A = np.diag([1e6, 1.0, 1e-5, 1.0])
    assert np.allclose(step_inverse(A, 0) @ A, np.eye(4))
    # at H=1 sensor k owns positions k and 4 + k
    A = np.kron(np.eye(2), np.diag([1e6, 1.0, 1e-8, 1.0]))
    assert step_inverse(A, 1) is None


def test_entropy_equivalence_on_one_instance():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(6, 6))
    sigma = M @ M.T + 0.5 * np.eye(6)
    pv = [criterion_linear([sigma], [i], 0) for i in range(6)]
    ent = [np.linalg.slogdet(np.delete(np.delete(sigma, i, 0), i, 1))[1]
           for i in range(6)]
    assert int(np.argmin(pv)) == int(np.argmax(ent))


def test_criterion_equals_training_mse_one_instance():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 1000))
    H = 2
    blocks = estimate_blocks(X, H)
    I = [1, 4]
    crit = criterion_linear(blocks, I, H)
    mse = training_mse(fit_predict_linear(blocks, I, H), X)
    assert crit == pytest.approx(mse, rel=1e-10)


def test_selection_result_json_round_trip():
    result = SelectionResult("linear-h", {"H": 2, "seed": 0}, [3, 1], [0.5, 0.4])
    back = SelectionResult.from_json(result.to_json())
    assert back.method == result.method
    assert back.order == result.order
    assert back.step_values == result.step_values
    assert back.hyperparams == result.hyperparams


def test_selection_result_validation():
    with pytest.raises(InvalidInputError, match="unknown method"):
        SelectionResult("ridge", {}, [0], [1.0])
    with pytest.raises(InvalidInputError, match="duplicates"):
        SelectionResult("linear-h0", {}, [0, 0], [1.0, 1.0])
    with pytest.raises(InvalidInputError, match="lengths"):
        SelectionResult("linear-h0", {}, [0, 1], [1.0])
    with pytest.raises(InvalidInputError, match="non-finite"):
        SelectionResult("linear-h0", {}, [0], [np.inf])


def test_exhaustive_finds_global_minimum():
    sigma = np.diag([4.0, 1.0, 3.0, 2.0])

    def crit(I):
        return criterion_linear([sigma], I, 0)

    # min keeps the first minimum in combinations order: the
    # lexicographic tie-break
    best = min(combinations(range(4), 2), key=crit)
    assert best == (1, 3)
    assert crit(best) == pytest.approx(3.0)


def test_predict_panel_zero_padding():
    theta = np.array([[1.0, 2.0]])  # lag-0 weight 1, lag-1 weight 2
    rec = LinearReconstructor(theta, turned_off=[0], kept=[1], H=1)
    X = np.array([[0.0, 0.0, 0.0], [3.0, 5.0, 7.0]])
    pred = rec.predict_panel(X, 0, 3)
    # column 0 has no lag-1 history, so it is zero-padded
    assert np.allclose(pred, [[3.0, 11.0, 17.0]])
    tail = rec.predict_panel(X, 2, 3)
    assert np.allclose(tail, [[17.0]])


@pytest.mark.parametrize("H", [0, 2])
def test_predict_panel_matches_lagged_design(H):
    # the design read from lag_windows equals the zero-padded reference
    # column for column, so the product is bit-equal
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 40))
    kept = [0, 2, 3, 5]
    theta = rng.normal(size=(2, (H + 1) * len(kept)))
    rec = LinearReconstructor(theta, turned_off=[1, 4], kept=kept, H=H)
    D = lagged_design(X, kept, H)
    for lo, hi in ((0, 40), (1, 7), (25, 40), (3, 3)):
        ref = theta @ np.ascontiguousarray(D[:, lo:hi])
        assert np.array_equal(rec.predict_panel(X, lo, hi), ref)


def test_noiseless_reconstruction_is_exact():
    rng = np.random.default_rng(4)
    Z = rng.normal(size=(2, 600))
    X = np.vstack([2.0 * Z[0] - Z[1], Z[0], Z[1]])
    blocks = estimate_blocks(X, 0)
    rec = fit_predict_linear(blocks, [0], 0)
    pred = rec.predict_panel(X, 0, 600)
    assert np.max(np.abs(pred - X[0])) <= 1e-10
    assert criterion_linear(blocks, [0], 0) <= 1e-10
