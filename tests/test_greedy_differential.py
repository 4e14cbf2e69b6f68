"""The greedy steps, which score every candidate from one inverse, against
the per-candidate reference in oracles.py.

The kernel steps, which solve every candidate's system in one stacked
solve, must also equal the step that solves them one at a time, bit for
bit.

The panels make the step inverse singular (fewer samples than sensors,
an exact duplicate, the graph-Laplacian kernel at zero ridge), where the
step falls back to one solve per candidate, or nearly singular (planted
near-duplicates), where it does not. The orders must agree exactly and
the step values to rel 1e-12.
"""

import numpy as np
import pytest

from netselect import numerics, select_kernel, select_linear
from netselect.evaluation import gamma_grid, synth_generate
from netselect.graph import build_knn_graph
from netselect.select_kernel import build_kernel_blocks, greedy_select_kernel
from netselect.select_linear import greedy, greedy_select_linear
from netselect.timeseries import estimate_blocks
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


def _record_steps(monkeypatch):
    """List that gets True for each step whose inverse was taken, False
    for each step that fell back to per-candidate solves."""
    taken = []
    original = numerics.step_inverse

    def recorded(A, positions):
        inv = original(A, positions)
        taken.append(inv is not None)
        return inv

    for module in (select_linear, select_kernel):
        monkeypatch.setattr(module, "step_inverse", recorded)
    return taken


# (data case, steps whose inverse is taken)
LINEAR_CASES = [
    ("short", [False] * P),
    ("duplicate", [False] + [True] * (P - 1)),
    ("near", [True] * P),
]

# (data case, kernel, ridge, steps whose inverse is taken)
KERNEL_CASES = [
    ("short", "autocovariance", 0.0, [False] * P),
    ("duplicate", "autocovariance", 0.0, [False] + [True] * (P - 1)),
    ("near", "autocovariance", 0.05, [True] * P),
    ("near", "spatial-temporal", 0.0, [False] + [True] * (P - 1)),
    ("near", "spatial-temporal", 0.05, [True] * P),
]


def _assert_same(fast, ref):
    order, values = ref
    assert fast.order == order
    assert fast.step_values == pytest.approx(values, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("H", [0, 1])
@pytest.mark.parametrize("case,taken", LINEAR_CASES)
def test_linear_greedy_matches_per_candidate_reference(case, taken, H, seed,
                                                       monkeypatch):
    X = _panel(case, seed)
    gammas = estimate_blocks(X, H)
    ref = greedy_per_candidate(X.shape[0], P, linear_value(gammas, H))
    steps = _record_steps(monkeypatch)
    _assert_same(greedy_select_linear(gammas, P, H=H), ref)
    assert steps == taken


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("H", [0, 1])
@pytest.mark.parametrize("case,kernel,ridge,taken", KERNEL_CASES)
def test_kernel_greedy_matches_per_candidate_reference(case, kernel, ridge, taken,
                                                       H, seed, monkeypatch):
    X = _panel(case, seed)
    gammas = estimate_blocks(X, H)
    kb = _kernel_blocks(kernel, X, H)
    # the ridge is relative to the mean diagonal of the kernel's K(0)
    lam = ridge * np.trace(kb[0]) / kb[0].shape[0]
    ref = greedy_per_candidate(X.shape[0], P, kernel_value(gammas, kb, lam, H))
    steps = _record_steps(monkeypatch)
    _assert_same(greedy_select_kernel(gammas, kb, P, lam=lam, H=H), ref)
    assert steps == taken


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("H", [0, 1, 2])
@pytest.mark.parametrize("case,kernel,ridge,taken", KERNEL_CASES)
def test_kernel_stacked_step_equals_per_candidate_step(case, kernel, ridge, taken,
                                                       H, seed):
    X = _panel(case, seed)
    gammas = estimate_blocks(X, H)
    kb = _kernel_blocks(kernel, X, H)
    lam = ridge * np.trace(kb[0]) / kb[0].shape[0]
    order, values = greedy(X.shape[0], P, kernel_step_score(gammas, kb, lam, H),
                           kernel_value(gammas, kb, lam, H))
    fast = greedy_select_kernel(gammas, kb, P, lam=lam, H=H)
    assert fast.order == order
    assert fast.step_values == values
