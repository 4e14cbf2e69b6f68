"""Dense linear algebra: symmetry checks, SPD solves, the run guard of
a one-inverse run, CG, power iteration."""

import numpy as np
import pytest

from netselect import numerics
from netselect.errors import InvalidInputError, SingularMatrixError
from netselect.numerics import (
    COND_LIMIT,
    JITTER_SIZE,
    JITTER_TRIGGER,
    check_symmetric,
    power_method,
    solve_spd,
    sym_eig,
    sym_inverse,
    well_conditioned,
)
from netselect.gcn.layers import scale_laplacian
from netselect.graph import build_knn_graph, normalized_laplacian
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


def _jitters(A):
    """Whether solve_spd would add its jitter to A."""
    return not numerics._has_cholesky(A, JITTER_TRIGGER * np.trace(A) / A.shape[0])


def test_well_conditioned_refuses_a_matrix_that_needs_no_jitter_above_the_bound():
    # no principal submatrix of A takes the jitter: the largest trigger,
    # 1e-12 * 1e6 on the submatrix of sensor 0, is below 1e-5. But
    # cond(A) is 1e11, so a run reading A^{-1} would lose about 1e-5
    A = np.diag([1e6] + [1.0] * 8 + [1e-5])
    assert numerics._has_cholesky(A, JITTER_TRIGGER * np.diag(A).max())
    assert not well_conditioned(A)
    # cond exactly COND_LIMIT is admitted, a hair above it is not
    A[9, 9] = 1e6 / COND_LIMIT
    assert well_conditioned(A)
    assert np.allclose(sym_inverse(A) @ A, np.eye(10))
    A[9, 9] = np.nextafter(A[9, 9], 0.0)
    assert not well_conditioned(A)
    assert not well_conditioned(-np.eye(3))
    assert not well_conditioned(np.zeros((2, 2)))


def test_well_conditioned_admits_exactly_up_to_the_cond_limit():
    # random Grams with cond 1e2..1e13 are admitted exactly where cond <=
    # COND_LIMIT; no principal submatrix of an admitted Gram, and no
    # principal block of its inverse, takes solve_spd's jitter
    rng = np.random.default_rng(5)
    verdicts, refused_jitter_free = [], 0
    for _ in range(40):
        U = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        cond = 10.0 ** rng.uniform(2, 13)
        A = (U * np.logspace(0, -np.log10(cond), 6)) @ U.T
        A = (A + A.T) / 2.0
        verdicts.append(well_conditioned(A))
        assert verdicts[-1] == (cond <= COND_LIMIT)
        if not verdicts[-1]:
            refused_jitter_free += numerics._has_cholesky(
                A, JITTER_TRIGGER * np.diag(A).max())
            continue
        Q = sym_inverse(A)
        for mask in range(1, 2 ** 6):
            S = [k for k in range(6) if mask >> k & 1]
            assert not _jitters(A[np.ix_(S, S)])
            assert not _jitters(Q[np.ix_(S, S)])
    # the refused ones include Grams where no principal submatrix jitters
    assert any(verdicts) and not all(verdicts) and refused_jitter_free
