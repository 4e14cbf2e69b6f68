"""Evaluation protocol: test error, random baselines, grids, synthetic data.

Test error is always computed in preprocessed units and summed over the
turned-off set per time step, then averaged over test rows, which is the
scale the summary tables use.
"""

import math
import warnings
from typing import Callable, List, NamedTuple

import numpy as np

from .errors import InvalidInputError, NetselectError
from .graph import SensorGraph, combinatorial_laplacian, graph_spectrum
from .select_linear import SelectionResult
from .timeseries import HOUR, PanelSeries, Split, _check_size, write_csv

LAMBDA_COEFFICIENTS = (0.001, 0.00325, 0.0055, 0.00775, 0.01)
BURN_IN = 500
N_MODES = 3              # synth_generate: graph Fourier modes,
AR_COEF = 0.9            # their AR(1) coefficient,
REDUNDANT_NOISE = 0.005  # and the noise std of a redundant sensor's copy
MEASURES = ("r2", "mse")  # how the gcn-dropout rule scores a hidden sensor


def default_p(n: int) -> int:
    """Default number of sensors to turn off: 10% of the network."""
    if n < 2:
        raise InvalidInputError("need at least 2 sensors")
    return max(1, math.ceil(0.10 * n))


def _interval_mse(reconstructor, X, lo: int, hi: int) -> float:
    if hi > X.shape[1]:
        raise InvalidInputError(f"scoring interval [{lo}, {hi}) needs {hi} hours, "
                                f"the panel has {X.shape[1]}")
    rows = [int(i) for i in reconstructor.turned_off]
    pred = reconstructor.predict_panel(X, lo, hi)
    actual = X[np.ix_(rows, np.arange(lo, hi))]
    return float(np.sum((actual - pred) ** 2) / (hi - lo))


def test_mse(reconstructor, X, split: Split) -> float:
    """Mean over test rows of the squared error summed over the
    reconstructor's turned-off set."""
    return _interval_mse(reconstructor, np.asarray(X, dtype=float), split.t0, split.t1)


def _each(fn, items, what: str):
    """fn(item) for every item that computes, in order, and the number skipped.

    An InvalidInputError is raised at once, since every item would repeat
    it. Any other NetselectError, a computation that failed on valid
    input, skips its item with a warning. When every item fails, one
    NetselectError names how many did and the first failure.
    """
    done, failures = [], []
    for item in items:
        try:
            done.append(fn(item))
        except InvalidInputError:
            raise
        except NetselectError as exc:
            warnings.warn(f"{what} {item!r} skipped: {exc}")
            failures.append(f"{item!r}: {exc}")
    if not done:
        raise NetselectError(
            f"every {what} failed ({len(failures)}); the first was {failures[0]}")
    return done, len(failures)


class BaselineResult(NamedTuple):
    mean_mse: float
    draws: int
    skipped: int


def random_baseline(fit_fn: Callable, X, p: int, split: Split, draws: int = 100,
                    seed: int = 0) -> BaselineResult:
    """Average test MSE over uniformly drawn size-p subsets.

    fit_fn(I) must return a reconstructor for the sorted subset I. Each
    draw gets its own RNG stream spawned from the seed, so a parallel run
    would agree with this one. Failed fits follow _each.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    _check_size(n, p)
    if draws < 1:
        raise InvalidInputError("draws must be positive")
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(draws)]
    subsets = [sorted(int(i) for i in rng.choice(n, p, replace=False)) for rng in rngs]
    mses, skipped = _each(lambda I: test_mse(fit_fn(I), X, split),
                          subsets, "baseline draw")
    return BaselineResult(sum(mses) / len(mses), draws, skipped)


def gamma_grid(H: int, r_s: float = 0.5) -> float:
    """Temporal kernel decay gamma = -ln(r_s) / H^2.

    r_s is the target ratio exp(-gamma H^2) at the largest lag used.
    """
    if H < 1:
        raise InvalidInputError("gamma is undefined at H = 0; no temporal kernel needed")
    if not (0.0 < r_s < 1.0):
        raise InvalidInputError("r_s must lie in (0, 1)")
    return -math.log(r_s) / H ** 2


def lambda_grid(lambda_max: float) -> List[float]:
    """Ridge grid lambda_i = a_i * lambda_max."""
    if lambda_max < 0:
        raise InvalidInputError("lambda_max must be nonnegative")
    if lambda_max == 0:
        warnings.warn("lambda_max is 0; the ridge grid collapses to all zeros")
    return [float(a) * float(lambda_max) for a in LAMBDA_COEFFICIENTS]


class GridSearchResult(NamedTuple):
    config: object
    result: SelectionResult
    val_error: float


def grid_search(select_fn: Callable, grid, X, split: Split) -> GridSearchResult:
    """Pick the grid config whose selection reconstructs validation rows best.

    select_fn(config) runs selection and fitting on training rows only
    and returns (SelectionResult, reconstructor). Scoring uses the
    validation interval; ties keep the earliest grid entry. Failed
    configs follow _each.
    """
    grid = list(grid)
    if not grid:
        raise InvalidInputError("grid must be nonempty")
    X = np.asarray(X, dtype=float)

    def score(config):
        result, rec = select_fn(config)
        return GridSearchResult(config, result,
                                _interval_mse(rec, X, split.t_tv, split.t0))

    scored, _ = _each(score, grid, "grid config")
    return min(scored, key=lambda gs: gs.val_error)


def _hourly_panel(values: np.ndarray) -> PanelSeries:
    n, T = values.shape
    sensor_ids = [f"s{i:03d}" for i in range(n)]
    timestamps = np.arange(T, dtype=float) * HOUR
    return PanelSeries(sensor_ids, timestamps, values)


def synth_generate(graph: SensorGraph, T: int, model: str = "graph-smooth",
                   seed: int = 0, *, noise_std=0.3, redundant_pairs=(),
                   noise_sensors=()) -> PanelSeries:
    """Synthetic hourly panel on a sensor graph.

    graph-smooth, the only model: the N_MODES lowest graph Fourier modes
    with AR(1) coefficients AR_COEF plus per-sensor noise of std
    noise_std. Each (src, dup) in redundant_pairs makes dup a copy of
    src's signal with noise of std REDUNDANT_NOISE; each index in
    noise_sensors is replaced by pure noise of std 1.

    A 500-step burn-in makes the returned T columns come from the
    stationary regime.
    """
    if model != "graph-smooth":
        raise InvalidInputError(f"unknown model {model!r}; only 'graph-smooth'")
    if T < 1:
        raise InvalidInputError("T must be positive")
    n = graph.n
    if n < N_MODES:
        raise InvalidInputError(f"need at least {N_MODES} sensors, got {n}")
    rng = np.random.default_rng(seed)
    spec = graph_spectrum(combinatorial_laplacian(graph))
    modes = spec.vectors[:, :N_MODES]
    coef = np.zeros((N_MODES, BURN_IN + T))
    c = np.zeros(N_MODES)
    for t in range(BURN_IN + T):
        c = AR_COEF * c + rng.normal(size=N_MODES)
        coef[:, t] = c
    signal = modes @ coef[:, BURN_IN:]
    X = signal + rng.normal(scale=noise_std, size=(n, T))
    for src, dup in redundant_pairs:
        src, dup = int(src), int(dup)
        if not (0 <= src < n and 0 <= dup < n) or src == dup:
            raise InvalidInputError(f"bad redundant pair ({src}, {dup})")
        X[dup] = signal[src] + rng.normal(scale=REDUNDANT_NOISE, size=T)
    for i in sorted(int(i) for i in noise_sensors):
        if not 0 <= i < n:
            raise InvalidInputError(f"noise sensor {i} out of range")
        X[i] = rng.normal(size=T)
    return _hourly_panel(X)


def summary_table_csv(report: dict, path):
    """The report.json dict as a one-row table: its method, and the cell
    "test (baseline)" under its horizon H."""
    cell = f"{report['test_mse']:.4g} ({report['baseline_mean']:.4g})"
    write_csv(path, ["method", f"H={report['hyperparams']['H']}"],
              [[report["method"], cell]])
