"""Summary tables, baselines, hyperparameter grids, grid search, synthetic
panels."""

import numpy as np
import pytest

from netselect.errors import InvalidInputError, NetselectError, SingularMatrixError
from netselect.evaluation import (
    BURN_IN,
    default_p,
    gamma_grid,
    grid_search,
    lambda_grid,
    random_baseline,
    summary_table_csv,
    synth_generate,
)
from netselect.evaluation import test_mse as held_out_mse
from netselect.graph import build_knn_graph, combinatorial_laplacian, graph_spectrum
from netselect.numerics import power_method, sym_eig
from netselect.select_linear import (
    LinearReconstructor,
    SelectionResult,
    fit_predict_linear,
)
from netselect.timeseries import Split, estimate_blocks, make_split


def _graph(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return build_knn_graph(rng.normal(size=(n, 2)), k0=3, k1=2)


def _report(**overrides):
    """A report.json dict as evaluate writes it."""
    base = dict(method="linear", selected=[1, 2], test_mse=0.5,
                baseline_mean=0.8, baseline_draws=100, baseline_skipped=0,
                hyperparams={"H": 0}, seed=0)
    base.update(overrides)
    return base


def test_default_p():
    assert default_p(10) == 1
    assert default_p(11) == 2
    assert default_p(95) == 10
    with pytest.raises(InvalidInputError):
        default_p(1)


def test_test_mse_perfect_reconstruction_is_zero():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(2, 500))
    X = np.vstack([Z[0] - Z[1], Z[0], Z[1]])
    blocks = estimate_blocks(X[:, :350], 0)
    rec = fit_predict_linear(blocks, [0], 0)
    split = Split(350, 400, 500)
    assert held_out_mse(rec, X, [0], split) <= 1e-12


def test_test_mse_of_zero_predictor_matches_noise_level():
    # predicting zero for p unit-variance sensors gives test MSE close to p
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 1000))
    rec = LinearReconstructor(np.zeros((2, 4)), turned_off=[1, 4],
                              kept=[0, 2, 3, 5], H=0)
    split = Split(300, 400, 1000)
    mse = held_out_mse(rec, X, [4, 1], split)
    assert abs(mse - 2.0) <= 0.2


def test_test_mse_rejects_wrong_set():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 300))
    rec = fit_predict_linear(estimate_blocks(X, 0), [0], 0)
    with pytest.raises(InvalidInputError, match="fitted for"):
        held_out_mse(rec, X, [1], Split(200, 250, 300))


def test_random_baseline_determinism_and_skips():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 400))
    blocks = estimate_blocks(X[:, :300], 0)
    split = Split(300, 350, 400)

    fit = lambda I: fit_predict_linear(blocks, I, 0)
    a = random_baseline(fit, X, 2, split, draws=20, seed=9)
    b = random_baseline(fit, X, 2, split, draws=20, seed=9)
    assert a == b
    assert a.draws == 20 and a.skipped == 0
    with pytest.raises(InvalidInputError, match="^need 1 <= p < 5, got p=5$"):
        random_baseline(fit, X, 5, split)
    with pytest.raises(InvalidInputError, match="draws"):
        random_baseline(fit, X, 2, split, draws=0)

    def flaky(I):
        if 0 in I:
            raise NetselectError("refusing sensor 0")
        return fit_predict_linear(blocks, I, 0)

    with pytest.warns(UserWarning, match="skipped"):
        partial = random_baseline(flaky, X, 2, split, draws=20, seed=9)
    assert partial.skipped > 0
    assert partial.draws == 20

    def always_fails(I):
        raise NetselectError("no fit")

    with pytest.warns(UserWarning):
        with pytest.raises(NetselectError, match="every baseline draw") as exc:
            random_baseline(always_fails, X, 2, split, draws=3, seed=0)
    assert not isinstance(exc.value, InvalidInputError)


def test_random_baseline_raises_an_input_error_at_once(recwarn):
    # every draw would repeat an input error; skipping it drew all of
    # them, warned each time and ended with a message of its own
    X = np.random.default_rng(4).normal(size=(5, 400))
    calls = []

    def fit(I):
        calls.append(I)
        raise InvalidInputError("lag 3 reaches past the training rows")

    with pytest.raises(InvalidInputError, match="^lag 3 reaches past the training"):
        random_baseline(fit, X, 2, Split(300, 350, 400), draws=5, seed=0)
    assert len(calls) == 1
    assert not recwarn.list


def test_gamma_grid_values_and_validation():
    assert f"{gamma_grid(1, 0.5):.3f}" == "0.693"
    assert f"{gamma_grid(10, 0.3):.3f}" == "0.012"
    with pytest.raises(InvalidInputError, match="H = 0"):
        gamma_grid(0)
    with pytest.raises(InvalidInputError, match="r_s"):
        gamma_grid(1, 1.0)


def test_lambda_grid_scaling():
    assert lambda_grid(1000.0) == pytest.approx([1.0, 3.25, 5.5, 7.75, 10.0])
    with pytest.warns(UserWarning, match="collapses"):
        grid = lambda_grid(0.0)
    assert grid == [0.0] * 5
    with pytest.raises(InvalidInputError):
        lambda_grid(-1.0)


def test_power_method_agrees_with_eigh_on_gram():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(10, 10))
    A = M @ M.T
    top = sym_eig(A).values[-1]
    assert power_method(A).value == pytest.approx(top, rel=1e-6)


def test_grid_search_picks_best_and_keeps_first_on_ties():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(4, 400))
    split = Split(300, 350, 400)
    blocks = estimate_blocks(X[:, :300], 0)

    def select_fn(I):
        result = SelectionResult(list(I), [0.0] * len(I))
        return result, fit_predict_linear(blocks, list(I), 0)

    grid = [(0,), (1,), (2,)]
    gs = grid_search(select_fn, grid, X, split)
    assert gs.config in grid
    assert gs.result.order == list(gs.config)
    errs = {I: grid_search(select_fn, [I], X, split).val_error for I in grid}
    assert gs.val_error == min(errs.values())
    assert gs.config == min(grid, key=lambda I: errs[I])

    # identical configs tie; the earliest entry wins
    tie = grid_search(select_fn, [(1,), (1,)], X, split)
    assert tie.config == (1,)

    def sometimes(config):
        if config == "bad":
            raise NetselectError("broken config")
        return select_fn((0,))

    with pytest.warns(UserWarning, match="'bad' skipped: broken config"):
        with pytest.raises(NetselectError, match="every grid config") as exc:
            grid_search(sometimes, ["bad"], X, split)
    assert not isinstance(exc.value, InvalidInputError)
    with pytest.raises(InvalidInputError, match="nonempty"):
        grid_search(sometimes, [], X, split)


def test_grid_search_warns_once_per_failed_config_and_scores_the_rest():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(4, 400))
    split = Split(300, 350, 400)
    blocks = estimate_blocks(X[:, :300], 0)

    def select_fn(I):
        if I == (1,):
            raise NetselectError("singular")
        result = SelectionResult(list(I), [0.0] * len(I))
        return result, fit_predict_linear(blocks, list(I), 0)

    grid = [(0,), (1,), (2,), (3,)]
    with pytest.warns(UserWarning) as caught:
        gs = grid_search(select_fn, grid, X, split)
    assert [str(w.message) for w in caught] == [
        "grid config (1,) skipped: singular"]
    scored = [I for I in grid if I != (1,)]
    errs = {I: grid_search(select_fn, [I], X, split).val_error for I in scored}
    assert gs.config == min(scored, key=lambda I: errs[I])
    assert gs.val_error == errs[gs.config]


def test_grid_search_raises_an_input_error_at_once(recwarn):
    # every config would repeat an input error, so the first one ends the
    # search, unwarned and unjoined
    X = np.random.default_rng(6).normal(size=(4, 400))
    calls = []

    def select_fn(config):
        calls.append(config)
        raise InvalidInputError("need 1 <= p < 4, got p=4")

    with pytest.raises(InvalidInputError, match="^need 1 <= p < 4, got p=4$"):
        grid_search(select_fn, [0.1, 0.2, 0.3], X, Split(300, 350, 400))
    assert calls == [0.1]
    assert not recwarn.list


def test_grid_search_of_failed_computations_is_no_input_error():
    # a ridge grid singular at every point is a computation that failed
    # on valid input (exit 3), not bad input (exit 2)
    X = np.random.default_rng(6).normal(size=(4, 400))

    def select_fn(config):
        raise SingularMatrixError(f"singular at {config}")

    with pytest.warns(UserWarning) as caught:
        with pytest.raises(NetselectError) as exc:
            grid_search(select_fn, [0.1, 0.2, 0.3], X, Split(300, 350, 400))
    assert not isinstance(exc.value, InvalidInputError)
    assert str(exc.value) == ("every grid config failed (3); "
                              "the first was 0.1: singular at 0.1")
    assert len(caught) == 3


def test_synth_graph_smooth_lives_in_low_modes():
    g = _graph(seed=3)
    panel = synth_generate(g, 300, "graph-smooth", seed=0, noise_std=0.0)
    modes = graph_spectrum(combinatorial_laplacian(g)).vectors[:, :3]
    X = panel.values
    resid = X - modes @ (modes.T @ X)
    assert np.max(np.abs(resid)) <= 1e-10


def test_synth_graph_smooth_designed_redundancy():
    g = _graph(seed=8)
    panel = synth_generate(g, 2000, "graph-smooth", seed=0,
                           redundant_pairs=[(0, 1)], noise_sensors=[7])
    X = panel.values
    corr = np.corrcoef(X[0], X[1])[0, 1]
    assert corr > 0.9
    noise_corr = np.abs(np.corrcoef(X[7], X[0])[0, 1])
    assert noise_corr < 0.1
    with pytest.raises(InvalidInputError, match="redundant pair"):
        synth_generate(g, 10, "graph-smooth", redundant_pairs=[(0, 0)])
    with pytest.raises(InvalidInputError, match="out of range"):
        synth_generate(g, 10, "graph-smooth", noise_sensors=[99])


def test_synth_var1_validation():
    g = _graph()
    # the var1 model was removed: asking for it is an unknown model
    with pytest.raises(InvalidInputError, match="model"):
        synth_generate(g, 10, "var1")
    with pytest.raises(TypeError, match="rho"):
        synth_generate(g, 10, "graph-smooth", rho=0.5)
    with pytest.raises(InvalidInputError, match="model"):
        synth_generate(g, 10, "sinusoid")
    with pytest.raises(InvalidInputError, match="T"):
        synth_generate(g, 0, "graph-smooth")
    pair = build_knn_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), k0=1, k1=1)
    with pytest.raises(InvalidInputError, match="at least 3 sensors, got 2"):
        synth_generate(pair, 10, "graph-smooth")


def test_summary_table_layout(tmp_path):
    path = tmp_path / "summary.csv"
    summary_table_csv(_report(), path)
    assert path.read_text() == "method,H=0\nlinear,0.5 (0.8)\n"
    summary_table_csv(_report(method="kernel", hyperparams={"H": 1},
                              test_mse=0.7, baseline_mean=0.9), path)
    assert path.read_text() == "method,H=1\nkernel,0.7 (0.9)\n"


def test_make_split_covers_burn_in_notion():
    # synthetic panels discard the burn-in; splits then address only the
    # returned columns
    g = _graph(seed=9)
    panel = synth_generate(g, 400, "graph-smooth", seed=0)
    assert panel.t_total == 400
    split = make_split(panel.t_total)
    assert split.t1 == 400
    assert BURN_IN == 500
