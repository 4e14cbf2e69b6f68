"""Dense linear algebra: symmetry checks, SPD solves and their stacked
form, the greedy step's guarded inverse, CG, power iteration."""

import numpy as np
import pytest

from netselect import numerics
from netselect.errors import InvalidInputError, SingularMatrixError
from netselect.numerics import (
    JITTER_SIZE,
    JITTER_TRIGGER,
    check_symmetric,
    power_method,
    solve_spd,
    solve_spd_many,
    step_inverse,
    sym_eig,
)
from netselect.gcn.layers import scale_laplacian
from netselect.graph import build_knn_graph, normalized_laplacian
from netselect.timeseries import lag_positions
from oracles import conjugate_gradient


def _random_spd(rng, n, floor=0.5):
    M = rng.normal(size=(n, n))
    return M @ M.T + floor * np.eye(n)


def test_check_symmetric_tolerates_roundoff():
    A = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    out = check_symmetric(A)
    assert np.array_equal(out, out.T)


def test_check_symmetric_rejects_real_asymmetry():
    A = np.array([[1.0, 2.0], [2.5, 3.0]])
    with pytest.raises(InvalidInputError, match="not symmetric"):
        check_symmetric(A, "gram")


def test_check_symmetric_rejects_nonsquare_and_nonfinite():
    with pytest.raises(InvalidInputError, match="square"):
        check_symmetric(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError, match="dimension >= 1"):
        check_symmetric(np.zeros((0, 0)))
    with pytest.raises(InvalidInputError, match="non-finite"):
        check_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sym_eig_reconstructs_and_orders():
    rng = np.random.default_rng(0)
    M = _random_spd(rng, 6)
    pair = sym_eig(M)
    assert np.all(np.diff(pair.values) >= 0)
    recon = pair.vectors @ np.diag(pair.values) @ pair.vectors.T
    assert np.allclose(recon, M, atol=1e-10)
    # sign convention: dominant component of each eigenvector nonnegative
    for k in range(6):
        j = int(np.argmax(np.abs(pair.vectors[:, k])))
        assert pair.vectors[j, k] >= 0


def test_solve_spd_matches_direct_solve():
    rng = np.random.default_rng(1)
    A = _random_spd(rng, 8)
    B = rng.normal(size=(8, 3))
    X = solve_spd(A, B)
    assert np.allclose(X, np.linalg.solve(A, B), atol=1e-10)


def test_solve_spd_rejects_indefinite():
    A = np.diag([1.0, -2.0, 3.0])
    with pytest.raises(SingularMatrixError, match=r"min eigenvalue -2\.000e\+00"):
        solve_spd(A, np.ones(3))


def test_solve_spd_handles_singular_psd_with_consistent_rhs():
    # rank-1 PSD system with b in the column space; jitter makes it solvable
    A = np.ones((3, 3))
    b = np.ones(3)
    x = solve_spd(A, b)
    assert np.allclose(A @ x, b, atol=1e-6)


def _reference_solve_spd(A, B):
    """The jitter policy decided by a full eigensolve, then a dense solve.

    Returns (X, jittered).
    """
    A = check_symmetric(A)
    n = A.shape[0]
    scale = np.trace(A) / n
    jittered = bool(np.linalg.eigvalsh(A)[0] < JITTER_TRIGGER * scale)
    if jittered:
        A = A + (JITTER_SIZE * scale) * np.eye(n)
    return np.linalg.solve(A, np.asarray(B, dtype=float)), jittered


def _with_min_eigenvalue(rng, n, factor):
    """SPD matrix whose smallest eigenvalue is factor * tau, where
    tau = JITTER_TRIGGER * trace/n."""
    values = rng.uniform(1.0, 2.0, size=n)
    values[0] = factor * JITTER_TRIGGER * values[1:].sum() / n
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = Q @ np.diag(values) @ Q.T
    return (A + A.T) / 2.0


def _jitter_cases(rng, n):
    """(name, matrix, whether the jitter policy must fire)."""
    Y = rng.normal(size=(n, max(1, n // 2)))
    rank_deficient = Y @ Y.T / Y.shape[1]
    Z = rng.normal(size=(n, 2 * n))
    full = Z @ Z.T / Z.shape[1]
    twin = list(range(n - 1)) + [0]
    cases = [("zero eigenvalue", np.diag(np.arange(float(n))), True),
             ("rank-deficient", rank_deficient, True),
             ("duplicated row and column", full[np.ix_(twin, twin)], True),
             ("full rank", full, False),
             ("min eigenvalue 0.1 tau", _with_min_eigenvalue(rng, n, 0.1), True),
             ("min eigenvalue 10 tau", _with_min_eigenvalue(rng, n, 10.0), False)]
    for c in (1e-8, 1e8):
        cases += [(f"rank-deficient x {c:g}", c * rank_deficient, True),
                  (f"full rank x {c:g}", c * full, False)]
    return cases


def test_solve_spd_matches_eigvalsh_jitter_reference():
    # one Cholesky of A - tau Id decides the jitter exactly where the
    # smallest eigenvalue did, and the final solve is the same
    rng = np.random.default_rng(0)
    for n in (3, 50, 200):
        for name, A, jitter in _jitter_cases(rng, n):
            B = rng.normal(size=(n, 2))
            ref, jittered = _reference_solve_spd(A, B)
            assert jittered == jitter, (n, name)
            assert np.array_equal(solve_spd(A, B), ref), (n, name)


def _spd_stack(rng, q, m):
    """q SPD matrices of size m, with scales spread over 1e-6..1e6."""
    M = rng.normal(size=(q, m, m))
    A = M @ M.transpose(0, 2, 1) + 0.1 * np.eye(m)
    A *= 10.0 ** rng.uniform(-6, 6, size=(q, 1, 1))
    return (A + A.transpose(0, 2, 1)) / 2.0


def _count_item_solves(monkeypatch):
    """List that grows by one for each solve_spd call of solve_spd_many."""
    calls = []
    original = numerics.solve_spd

    def counted(A, B):
        calls.append(1)
        return original(A, B)

    monkeypatch.setattr(numerics, "solve_spd", counted)
    return calls


def _loop(A, B):
    return np.stack([solve_spd(a, b) for a, b in zip(A, B)])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_solve_spd_many_equals_the_loop_bit_for_bit(m, monkeypatch):
    rng = np.random.default_rng(m)
    for q in (1, 7, 60):
        A = _spd_stack(rng, q, m)
        B = rng.normal(size=(q, m, 4))
        calls = _count_item_solves(monkeypatch)
        X = solve_spd_many(A, B)
        assert calls == []  # one stacked solve, no item on its own
        assert np.array_equal(X, _loop(A, B))


# a 1 x 1 item never takes the jitter: its one eigenvalue is its scale
@pytest.mark.parametrize("m", [2, 3])
def test_solve_spd_many_falls_back_on_a_jittered_or_asymmetric_item(m, monkeypatch):
    rng = np.random.default_rng(10 + m)
    A = _spd_stack(rng, 9, m)
    A[4] = _with_min_eigenvalue(rng, m, 0.1)
    B = rng.normal(size=(9, m, 3))
    calls = _count_item_solves(monkeypatch)
    X = solve_spd_many(A, B)
    assert len(calls) == 9
    assert np.array_equal(X, _loop(A, B))
    ref, jittered = _reference_solve_spd(A[4], B[4])
    assert jittered
    assert np.array_equal(X[4], ref)
    # so does an item that is symmetric only up to roundoff, which
    # solve_spd symmetrizes first
    A = _spd_stack(rng, 9, m)
    A[4, 0, 1] = np.nextafter(A[4, 0, 1], np.inf)
    calls.clear()
    assert np.array_equal(solve_spd_many(A, B), _loop(A, B))
    assert len(calls) == 9


def test_solve_spd_many_raises_what_solve_spd_raises():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(6, 2, 3))
    # an infinite last pivot leaves the Cholesky factor defined
    for k, l, bad in ((0, 1, np.nan), (1, 1, np.inf)):
        A = _spd_stack(rng, 6, 2)
        A[3, k, l] = A[3, l, k] = bad
        with pytest.raises(InvalidInputError) as many:
            solve_spd_many(A, B)
        with pytest.raises(InvalidInputError) as one:
            solve_spd(A[3], B[3])
        assert str(many.value) == str(one.value)
    A[3] = np.diag([1.0, -2.0])
    with pytest.raises(SingularMatrixError, match=r"min eigenvalue -2\.000e\+00"):
        solve_spd_many(A, B)


def test_conjugate_gradient_matches_direct():
    rng = np.random.default_rng(2)
    A = _random_spd(rng, 10)
    b = rng.normal(size=10)
    x = conjugate_gradient(A, b, tol=1e-12)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)


def test_conjugate_gradient_zero_rhs():
    A = np.eye(4)
    assert np.array_equal(conjugate_gradient(A, np.zeros(4)), np.zeros(4))


def test_power_method_matches_eigh():
    rng = np.random.default_rng(4)
    A = _random_spd(rng, 12)
    result = power_method(A, tol=1e-12)
    top = sym_eig(A).values[-1]
    assert result.converged
    assert result.iterations >= 1
    assert abs(result.value - top) <= 1e-6 * top


def test_power_method_flags_exhaustion():
    rng = np.random.default_rng(5)
    # two nearly equal top eigenvalues slow the iteration to a crawl
    vals = np.array([1.0, 1.0 - 1e-12, 0.5])
    Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    A = Q @ np.diag(vals) @ Q.T
    result = power_method(A, tol=1e-15, max_iter=3)
    assert not result.converged
    assert result.iterations == 3
    # an unconverged estimate falls short of lambda_max; the eigensolve's
    # value is returned instead
    assert result.value == np.linalg.eigvalsh(A)[-1]


def test_power_method_keeps_the_rescaled_laplacian_inside_the_chebyshev_range():
    # a kNN graph of 40 stations whose normalized Laplacian runs power
    # iteration to its 1000-step cap; the estimate it stopped at put the
    # rescaled spectrum at 1 + 3.7e-4, where an order-50 Chebyshev
    # polynomial reaches 2.07 instead of staying within [-1, 1]
    layout = np.random.default_rng([2020, 40, 4])
    coords = np.column_stack([48.80 + 0.10 * layout.random(40),
                              2.25 + 0.17 * layout.random(40)])
    L = normalized_laplacian(build_knn_graph(coords, 20, 7))
    result = power_method(L)
    assert not result.converged
    assert np.linalg.eigvalsh(scale_laplacian(L, result.value))[-1] <= 1.0 + 1e-12


def test_step_inverse_declines_when_any_candidate_would_jitter():
    # without sensor 1 the Gram is diag(1e6, 1e-8, 1): its jitter trigger
    # 1e-12 * (1e6 + 1) / 3 exceeds its smallest eigenvalue 1e-8
    single = lag_positions(4, 0)
    assert step_inverse(np.diag([1e6, 1.0, 1e-8, 1.0]), single) is None
    A = np.diag([1e6, 1.0, 1e-5, 1.0])
    assert np.allclose(step_inverse(A, single) @ A, np.eye(4))
    # at H=1 sensor k owns positions k and 4 + k
    A = np.kron(np.eye(2), np.diag([1e6, 1.0, 1e-8, 1.0]))
    assert step_inverse(A, lag_positions(4, 1)) is None


def test_step_inverse_reads_the_positions_it_is_given():
    # two sensors of two lags each, stored sensor-major: sensor k owns
    # positions 2k and 2k + 1. Each owns a 1e6 entry, so the largest
    # trigger is 1e-12 * (1e6 + 1) / 2, below the smallest eigenvalue
    # 7e-7, and the guard takes the inverse; read lag-major, sensor 1
    # would own only 7e-7 + 1, and the trigger 1e-6 would decline it
    A = np.diag([1e6, 7e-7, 1e6, 1.0])
    sensor_major = np.arange(4).reshape(2, 2)
    assert np.allclose(step_inverse(A, sensor_major) @ A, np.eye(4))
    assert step_inverse(A, lag_positions(2, 1)) is None
    # the same sensor-major matrix permuted to the lag-major layout
    order = sensor_major.T.ravel()
    P = step_inverse(A[np.ix_(order, order)], lag_positions(2, 1))
    assert np.allclose(P, step_inverse(A, sensor_major)[np.ix_(order, order)])
