"""The greedy runs, which score every candidate of every step from one
inverse, against the per-candidate reference in oracles.py.

The kernel steps, which solve every candidate's system in one stacked
solve, must also equal the step that solves them one at a time, bit for
bit.

Each run asks numerics.well_conditioned once, on the Gram over all
sensors. The panels make that Gram singular (fewer samples than sensors,
an exact duplicate, the graph-Laplacian kernel at zero ridge), or give it
near-twins whose cond lies above COND_LIMIT though no solve would take
the jitter; there the run is refused and solves every candidate on its
own at every step. Planted near-duplicates that keep its cond below
COND_LIMIT are admitted. The orders must agree exactly; the step values of a refused run exactly,
those of an admitted run to rel 1e-12.
"""

import numpy as np
import pytest

from netselect import numerics, select_linear
from netselect.evaluation import gamma_grid, synth_generate
from netselect.graph import build_knn_graph
from netselect.numerics import COND_LIMIT
from netselect.select_kernel import build_kernel_blocks, greedy_select_kernel
from netselect.select_linear import greedy, greedy_select_linear
from netselect.timeseries import assemble_blocks, estimate_blocks
from oracles import greedy_per_candidate, kernel_step_score, kernel_value, linear_value

P = 4


def _graph():
    rng = np.random.default_rng(11)
    return build_knn_graph(rng.uniform(size=(12, 2)), k0=5, k1=3)


def _panel(case, seed):
    g = _graph()
    if case == "short":  # T = 8 < n = 12: every Gram over 9+ sensors is singular
        return synth_generate(g, 8, "graph-smooth", seed=seed).values
    if case == "duplicate":
        X = synth_generate(g, 600, "graph-smooth", seed=seed,
                           noise_sensors=[4]).values
        X[9] = X[2]
        return X
    if case == "twin":  # 7 and 10 copy 0 and 3 up to noise 1e-3: cond 1.8e7-6e7
        X = synth_generate(g, 600, "graph-smooth", seed=seed,
                           noise_sensors=[4]).values
        X[[7, 10]] = X[[0, 3]] + np.random.default_rng(seed).normal(scale=1e-3,
                                                                    size=(2, 600))
        return X
    # near-duplicates: sensor 7 copies 0 and 10 copies 3 up to noise 0.005
    return synth_generate(g, 600, "graph-smooth", seed=seed,
                          redundant_pairs=[(0, 7), (3, 10)],
                          noise_sensors=[4]).values


def _kernel_blocks(kernel, X, H):
    if kernel == "autocovariance":
        return build_kernel_blocks(kernel, H=H, X_train=X)
    # with equal blocks K(0) = K(1) every H=1 Gram would be singular; the
    # temporal factor leaves only the singularity of K(0) itself
    gamma = gamma_grid(H, 0.5) if H else 0.0
    return build_kernel_blocks(kernel, H=H, gamma=gamma, graph=_graph())


def _record_runs(monkeypatch):
    """List that gets, for each greedy run, whether numerics.well_conditioned
    admitted it: True for a run that reads every step from one inverse,
    False for one that solves every candidate on its own."""
    runs = []

    def recorded(A):
        runs.append(numerics.well_conditioned(A))
        return runs[-1]

    monkeypatch.setattr(select_linear, "well_conditioned", recorded)
    return runs


# (data case, whether the run is admitted)
LINEAR_CASES = [
    ("short", False),
    ("duplicate", False),
    ("twin", False),
    ("near", True),
]

# (data case, kernel, ridge, whether the run is admitted)
KERNEL_CASES = [
    ("short", "autocovariance", 0.0, False),
    ("duplicate", "autocovariance", 0.0, False),
    ("twin", "autocovariance", 0.0, False),
    ("near", "autocovariance", 0.05, True),
    ("near", "spatial-temporal", 0.0, False),
    ("near", "spatial-temporal", 0.05, True),
]


def _assert_same(fast, ref, admitted):
    # a refused run computes what the reference computes, in its order
    order, values = ref
    assert fast.order == order
    if admitted:
        assert fast.step_values == pytest.approx(values, rel=1e-12, abs=0.0)
    else:
        assert fast.step_values == values


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("H", [0, 1])
def test_twin_gram_is_refused_though_no_solve_would_jitter(seed, H):
    # the twin panel lies in the band the guard refuses on cond alone:
    # its Gram is positive definite, needs no jitter, and has cond above
    # COND_LIMIT, so the twin cases do not repeat the singular ones
    A = assemble_blocks(estimate_blocks(_panel("twin", seed), H), [], H)[0]
    lo, hi = np.linalg.eigvalsh(A)[[0, -1]]
    assert COND_LIMIT * lo < hi < lo / numerics.JITTER_TRIGGER
    assert numerics._has_cholesky(A, numerics.JITTER_TRIGGER * np.trace(A) / A.shape[0])
    assert not numerics.well_conditioned(A)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("H", [0, 1])
@pytest.mark.parametrize("case,admitted", LINEAR_CASES)
def test_linear_greedy_matches_per_candidate_reference(case, admitted, H, seed,
                                                       monkeypatch):
    X = _panel(case, seed)
    gammas = estimate_blocks(X, H)
    ref = greedy_per_candidate(X.shape[0], P, linear_value(gammas, H))
    runs = _record_runs(monkeypatch)
    _assert_same(greedy_select_linear(gammas, P, H=H), ref, admitted)
    assert runs == [admitted]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("H", [0, 1])
@pytest.mark.parametrize("case,kernel,ridge,admitted", KERNEL_CASES)
def test_kernel_greedy_matches_per_candidate_reference(case, kernel, ridge, admitted,
                                                       H, seed, monkeypatch):
    X = _panel(case, seed)
    gammas = estimate_blocks(X, H)
    kb = _kernel_blocks(kernel, X, H)
    # the ridge is relative to the mean diagonal of the kernel's K(0)
    lam = ridge * np.trace(kb[0]) / kb[0].shape[0]
    ref = greedy_per_candidate(X.shape[0], P, kernel_value(gammas, kb, lam, H))
    runs = _record_runs(monkeypatch)
    _assert_same(greedy_select_kernel(gammas, kb, P, lam=lam, H=H), ref, admitted)
    assert runs == [admitted]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("H", [0, 1, 2])
@pytest.mark.parametrize("case,kernel,ridge,admitted", KERNEL_CASES)
def test_kernel_stacked_step_equals_per_candidate_step(case, kernel, ridge, admitted,
                                                       H, seed, monkeypatch):
    # the run takes the stacked step where its guard admits it, at H=2 as
    # well, and the per-candidate values otherwise
    X = _panel(case, seed)
    gammas = estimate_blocks(X, H)
    kb = _kernel_blocks(kernel, X, H)
    lam = ridge * np.trace(kb[0]) / kb[0].shape[0]
    n = X.shape[0]

    def gram(T):
        K = assemble_blocks(kb, T, H)[0]
        return K + lam * np.eye(K.shape[0])

    value = kernel_value(gammas, kb, lam, H)
    runs = _record_runs(monkeypatch)
    # the candidate i is scored on the sensors outside T + [i]
    ref = greedy(n, P, gram, kernel_step_score(gammas, H),
                 lambda i, T: value(i, [j for j in range(n) if j != i and j not in T]))
    assert greedy_select_kernel(gammas, kb, P, lam=lam, H=H) == ref
    assert runs == [admitted, admitted]
