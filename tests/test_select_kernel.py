"""Kernel Gram blocks, ridge reconstructor, and kernel greedy selection."""

import numpy as np
import pytest

from netselect.errors import InvalidInputError
from netselect.evaluation import gamma_grid, synth_generate
from netselect.graph import (
    build_knn_graph,
    combinatorial_laplacian,
    graph_spectrum,
    laplacian_kernel,
)
from netselect.select_kernel import (
    GRAPH_KERNELS,
    KERNEL_TAGS,
    build_kernel_blocks,
    fit_predict_kernel,
    greedy_select_kernel,
    kernel_reconstructor,
)
from netselect.select_linear import greedy_select_linear
from netselect.timeseries import assemble_blocks, estimate_blocks
from oracles import criterion_kernel, criterion_linear


def _graph(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return build_knn_graph(rng.normal(size=(n, 2)), k0=3, k1=2)


def _data(n=5, T=800, seed=1):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.6 / np.max(np.abs(np.linalg.eigvals(A)))
    X = np.empty((n, T + 100))
    x = np.zeros(n)
    for t in range(T + 100):
        x = A @ x + rng.normal(size=n)
        X[:, t] = x
    return X[:, 100:]


def test_kernel_config_validation():
    X = _data()
    with pytest.raises(InvalidInputError, match="unknown kernel"):
        build_kernel_blocks("polynomial", X_train=X)
    with pytest.raises(InvalidInputError, match="gamma"):
        build_kernel_blocks("autocovariance", gamma=-0.1, X_train=X)
    with pytest.raises(InvalidInputError, match="H >= 0"):
        build_kernel_blocks("autocovariance", H=-1, X_train=X)


def test_build_kernel_blocks_requirements():
    with pytest.raises(InvalidInputError, match="training data"):
        build_kernel_blocks("autocovariance")
    with pytest.raises(InvalidInputError, match="training data"):
        build_kernel_blocks("linear")
    with pytest.raises(InvalidInputError, match="graph"):
        build_kernel_blocks("spatial-temporal")
    with pytest.raises(InvalidInputError, match="graph"):
        build_kernel_blocks("rbf")


@pytest.mark.parametrize("kernel", KERNEL_TAGS)
def test_graph_kernels_are_the_tags_that_need_the_graph(kernel):
    # cli builds the sensor graph for a kernel selection only when the
    # kernel is in GRAPH_KERNELS
    X = _data(n=5)
    if kernel in GRAPH_KERNELS:
        with pytest.raises(InvalidInputError, match="graph"):
            build_kernel_blocks(kernel, H=1, X_train=X)
    else:
        assert len(build_kernel_blocks(kernel, H=1, X_train=X)) == 2


def test_autocovariance_kernel_lambda_zero_matches_linear():
    X = _data()
    H = 1
    blocks = estimate_blocks(X, H)
    kb = build_kernel_blocks("autocovariance", H=H, X_train=X)
    I = [0, 3]
    lin = criterion_linear(blocks, I, H)
    ker = criterion_kernel(blocks, kb, I, lam=0.0, H=H)
    assert ker == pytest.approx(lin, abs=1e-10)
    lin_order = greedy_select_linear(blocks, 3, H=H).order
    ker_order = greedy_select_kernel(blocks, kb, 3, lam=0.0, H=H).order
    assert lin_order == ker_order


def test_lambda_monotonicity_single_instance():
    X = _data(seed=2)
    blocks = estimate_blocks(X, 1)
    vals = [criterion_kernel(blocks, blocks, [1, 2], lam, 1)
            for lam in [0.0, 0.01, 0.1, 1.0]]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == min(vals)


def test_kernel_tags_give_distinct_blocks():
    # one name per kernel: two tags with equal blocks are one kernel
    g, X = _graph(n=5), _data(n=5)
    blocks = {tag: build_kernel_blocks(tag, gamma=0.4, H=1, graph=g, X_train=X)
              for tag in KERNEL_TAGS}
    for k, a in enumerate(KERNEL_TAGS):
        for b in KERNEL_TAGS[k + 1:]:
            assert not all(np.allclose(Ka, Kb) for Ka, Kb in
                           zip(blocks[a], blocks[b])), (a, b)


def test_spatial_temporal_blocks_structure():
    g = _graph()
    K_g = laplacian_kernel(graph_spectrum(combinatorial_laplacian(g)))
    kb = build_kernel_blocks("spatial-temporal", gamma=0.3, H=2, graph=g)
    assert len(kb) == 3
    for l in range(3):
        assert np.allclose(kb[l], K_g * np.exp(-0.3 * l ** 2), atol=1e-12)
    n = K_g.shape[0]
    K, cross = assemble_blocks(kb, [], 2)
    assert K.shape == (3 * n, 3 * n)
    assert cross.shape == (0, 3 * n)
    assert np.array_equal(K[:n, n:2 * n], kb[1])
    assert np.array_equal(K[n:2 * n, :n], kb[1])
    assert np.array_equal(K[:n, 2 * n:], kb[2])
    assert np.array_equal(K, K.T)
    # PSD because the lag factor is itself a kernel
    assert np.min(np.linalg.eigvalsh(K)) >= -1e-10
    # the kept set [0, 2] at H=1: alpha is the stacked kernel over it
    sub, _ = assemble_blocks(kb, [1, 3, 4, 5], 1)
    assert sub.shape == (4, 4)
    assert np.array_equal(sub[:2, :2], kb[0][np.ix_([0, 2], [0, 2])])
    assert np.array_equal(sub[:2, 2:], kb[1][np.ix_([0, 2], [0, 2])])


def test_graph_and_linear_kernel_blocks_are_exactly_symmetric():
    for seed in range(5):
        g = _graph(n=8, seed=seed)
        X = _data(n=8, T=200, seed=seed)
        for kernel in ("spatial-temporal", "linear", "rbf"):
            kb = build_kernel_blocks(kernel, gamma=0.4, H=2, graph=g, X_train=X)
            for K in kb:
                assert np.array_equal(K, K.T), (kernel, seed)


def test_rbf_kernel_blocks():
    g = _graph(seed=3)
    kb = build_kernel_blocks("rbf", gamma=0.2, H=1, graph=g)
    K0 = kb[0]
    assert np.array_equal(K0, K0.T)
    assert np.allclose(np.diag(K0), 1.0)
    assert np.allclose(kb[1], K0 * np.exp(-0.2), atol=1e-12)
    assert np.min(np.linalg.eigvalsh(K0)) >= -1e-10


def test_autocovariance_blocks_keep_lag_direction():
    X = _data(seed=4)
    kb = build_kernel_blocks("autocovariance", H=1, X_train=X)
    # Gamma(1) from a VAR process is genuinely asymmetric
    assert not np.allclose(kb[1], kb[1].T)


def test_kernel_blocks_assemble_layout():
    X = _data(seed=5)
    kb = build_kernel_blocks("autocovariance", H=1, X_train=X)
    kept = [0, 2, 4]
    K, cross = assemble_blocks(kb, [1, 3], 1)
    q = len(kept)
    ix = np.ix_(kept, kept)
    assert np.array_equal(K[:q, :q], kb[0][ix])
    assert np.array_equal(K[:q, q:], kb[1][ix])
    assert np.array_equal(K[q:, :q], kb[1].T[ix])
    assert np.array_equal(cross[:, q:], kb[1][np.ix_([1, 3], kept)])
    with pytest.raises(InvalidInputError, match="lags"):
        assemble_blocks(kb, [1, 3], 2)


def test_reconstructor_norm_shrinks_with_lambda():
    X = _data(seed=6)
    kb = build_kernel_blocks("autocovariance", H=0, X_train=X)
    K_S = kb[0][1:, 1:]
    K_cross = kb[0][[0], 1:]
    norms = [np.linalg.norm(kernel_reconstructor(K_cross, K_S, lam))
             for lam in (0.0, 0.1, 1.0, 10.0)]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    with pytest.raises(InvalidInputError, match="nonnegative"):
        kernel_reconstructor(K_cross, K_S, -1.0)


def test_exactly_singular_psd_gram_at_lambda_zero():
    # rank-1 Gram with a consistent cross row: jitter handles it
    K_S = np.ones((3, 3))
    K_cross = np.ones((1, 3))
    theta = kernel_reconstructor(K_cross, K_S, 0.0)
    assert np.allclose(theta @ K_S, K_cross, atol=1e-5)


def test_greedy_kernel_result_surface():
    X = _data(seed=8)
    blocks = estimate_blocks(X, 0)
    kb = build_kernel_blocks("autocovariance", H=0, X_train=X)
    result = greedy_select_kernel(blocks, kb, 2, lam=0.05, H=0)
    # select records the method and settings beside the result
    assert result._fields == ("order", "step_values")
    assert len(result.order) == len(result.step_values) == 2
    with pytest.raises(InvalidInputError, match="p="):
        greedy_select_kernel(blocks, kb, 5, lam=0.0, H=0)
    with pytest.raises(InvalidInputError, match="lambda must be nonnegative"):
        greedy_select_kernel(blocks, kb, 2, lam=-0.1, H=0)
    # lag_stack checks the depth of both block lists; short data blocks,
    # deep enough kernel blocks
    kb1 = build_kernel_blocks("autocovariance", H=1, X_train=X)
    with pytest.raises(InvalidInputError, match=r"need lags 0\.\.1, only 1 available"):
        greedy_select_kernel(blocks, kb1, 2, lam=0.0, H=1)
    # deep enough data blocks, short kernel blocks
    with pytest.raises(InvalidInputError, match=r"need lags 0\.\.1, only 1 available"):
        greedy_select_kernel(estimate_blocks(X, 1), kb, 2, lam=0.0, H=1)


def test_fit_predict_kernel_reconstructor():
    X = _data(seed=9)
    kb = build_kernel_blocks("autocovariance", H=1, X_train=X)
    rec = fit_predict_kernel(kb, [1, 3], lam=0.2, H=1)
    assert rec.turned_off == [1, 3]
    assert rec.kept == [0, 2, 4]
    assert rec.theta.shape == (2, 2 * 3)
    pred = rec.predict_panel(X, 10, 20)
    assert pred.shape == (2, 10)


def test_greedy_orders_and_step_values_are_frozen():
    # reference orders and step values of both criteria on a seeded panel
    # with one planted duplicate (7 copies 0) and one noise sensor (4)
    rng = np.random.default_rng(11)
    g = build_knn_graph(rng.uniform(size=(12, 2)), k0=5, k1=3)
    X = synth_generate(g, 600, "graph-smooth", seed=3,
                       redundant_pairs=[(0, 7)], noise_sensors=[4]).values
    H = 1
    blocks = estimate_blocks(X, H)
    lin = greedy_select_linear(blocks, 4, H=H)
    assert lin.order == [7, 6, 11, 5]
    assert lin.step_values == pytest.approx(
        [0.023980776979150464, 0.0981969237766862,
         0.10355579533767256, 0.10453749157095027], rel=1e-12)
    kb = build_kernel_blocks("spatial-temporal", H=H, gamma=gamma_grid(H, 0.5),
                             graph=g)
    ker = greedy_select_kernel(blocks, kb, 4, lam=0.05, H=H)
    assert ker.order == [8, 5, 6, 0]
    assert ker.step_values == pytest.approx(
        [13.239323084452277, 7.1948013966010755,
         4.613528935434546, 3.2341914887372836], rel=1e-12)


def _metamorphic_panel():
    rng = np.random.default_rng(11)
    g = build_knn_graph(rng.uniform(size=(12, 2)), k0=5, k1=3)
    return synth_generate(g, 600, "graph-smooth", seed=3, noise_sensors=[4]).values


def _greedy(criterion, X, H, ridge=0.05, p=4):
    # the kernel ridge is relative to the mean variance, so it scales with X
    blocks = estimate_blocks(X, H)
    if criterion == "linear":
        return greedy_select_linear(blocks, p, H=H)
    kb = build_kernel_blocks("autocovariance", H=H, X_train=X)
    lam = ridge * np.trace(blocks[0]) / blocks[0].shape[0]
    return greedy_select_kernel(blocks, kb, p, lam=lam, H=H)


@pytest.mark.parametrize("criterion", ["linear", "kernel"])
@pytest.mark.parametrize("H", [0, 1])
def test_greedy_scaling_keeps_order_and_scales_values(criterion, H):
    X = _metamorphic_panel()
    c = 1e4
    ref = _greedy(criterion, X, H)
    scaled = _greedy(criterion, c * X, H)
    assert scaled.order == ref.order
    assert np.asarray(scaled.step_values) / c ** 2 == pytest.approx(
        ref.step_values, rel=1e-12)


@pytest.mark.parametrize("criterion", ["linear", "kernel"])
@pytest.mark.parametrize("H", [0, 1])
def test_greedy_sensor_permutation_permutes_order(criterion, H):
    X = _metamorphic_panel()
    perm = np.random.default_rng(5).permutation(X.shape[0])
    ref = _greedy(criterion, X, H)
    permuted = _greedy(criterion, X[perm], H)
    assert [int(perm[k]) for k in permuted.order] == ref.order


@pytest.mark.parametrize("criterion", ["linear", "kernel"])
@pytest.mark.parametrize("H", [0, 1])
def test_greedy_turns_off_an_exact_duplicate_first(criterion, H):
    # with both twins kept, every other candidate's system is singular and
    # only the jitter makes it solvable; a twin is reconstructed exactly
    X = _metamorphic_panel()
    X[9] = X[2]
    result = _greedy(criterion, X, H, ridge=0.0)
    assert result.order[0] in (2, 9)
    assert abs(result.step_values[0]) <= 1e-10 * np.mean(X ** 2)
