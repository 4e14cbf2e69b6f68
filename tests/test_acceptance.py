"""End-to-end checks of the documented guarantees, one test per claim.

Each test prints a single PASS line with the measured quantities, so a
verbose run reads as a checklist. Runtime-guarded tests use wall time.
"""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from netselect.evaluation import (
    gamma_grid,
    random_baseline,
    synth_generate,
)
from netselect.evaluation import test_mse as held_out_mse
from netselect.gcn import (
    ChebNetConfig,
    TrainConfig,
    init_params,
    net_backward,
    pack_params,
    scale_laplacian,
    tensor_items,
    unpack_params,
)
from netselect.gcn.selection import train_selection_dropout, train_selection_masking
from netselect.graph import build_knn_graph, combinatorial_laplacian
from netselect.numerics import power_method, sym_eig
from netselect.select_kernel import (
    KernelConfig,
    build_kernel_blocks,
    criterion_kernel,
    fit_predict_kernel,
    greedy_select_kernel,
    lambda_monotonicity_check,
)
from netselect.select_linear import (
    criterion_linear_h0,
    criterion_linear_h,
    entropy_criterion,
    exhaustive_select,
    fit_predict_linear,
    greedy_select_linear,
    partial_variance,
)
from netselect.timeseries import (
    CovarianceBlocks,
    Split,
    apply_preprocess,
    assemble_blocks,
    estimate_blocks,
    fit_weekly_profile,
    make_split,
    read_panel,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _simulate_var(rng, n, T, radius=0.6, burn=100):
    """Stationary VAR(1) panel with a random stable coefficient matrix."""
    A = rng.normal(size=(n, n))
    A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    X = np.empty((n, burn + T))
    x = np.zeros(n)
    for t in range(burn + T):
        x = A @ x + rng.normal(size=n)
        X[:, t] = x
    return X[:, burn:]


def _toy_matrices():
    A = np.array(
        [
            [0, 1, 1, 1],
            [1, 0, 1, 0],
            [1, 1, 0, 0],
            [1, 0, 0, 0],
        ],
        dtype=float,
    )
    D = np.diag(A.sum(axis=1))
    cov = A + D
    d = np.diag(D)
    corr = A / np.sqrt(np.outer(d, d)) + np.eye(4)
    return cov, corr


def test_criterion_01_toy_partial_variances():
    started = time.monotonic()
    cov, corr = _toy_matrices()
    expected = {
        "covariance": (cov, [1.33, 1.33, 1.33, 0.57], 3),
        "correlation": (corr, [0.44, 0.67, 0.67, 0.57], 0),
    }
    for name, (S, caption, pick) in expected.items():
        pv = [partial_variance(S, i, [j for j in range(4) if j != i])
              for i in range(4)]
        for i, (got, want) in enumerate(zip(pv, caption)):
            assert abs(got - want) <= 0.01, f"{name} sensor {i + 1}: {got}"
        result = greedy_select_linear(CovarianceBlocks(S, [S]), p=1, H=0)
        assert result.order == [pick], f"{name} greedy picked {result.order}"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion 01 PASS: toy partial variances within 0.01, greedy picks "
          f"sensors 4 and 1 ({elapsed:.2f}s)")


def test_criterion_02_gamma_grid_values():
    cases = [
        (1, 0.5, "0.693"),
        (5, 0.5, "0.028"),
        (10, 0.5, "0.007"),
        (1, 0.3, "1.204"),
        (5, 0.3, "0.048"),
        (10, 0.3, "0.012"),
    ]
    for H, r_s, want in cases:
        got = f"{gamma_grid(H, r_s):.3f}"
        assert got == want, f"gamma_grid({H}, {r_s}) printed {got}, want {want}"
    print("criterion 02 PASS: all six gamma values match at 3 decimal places")


def test_criterion_03_criterion_equals_training_mse():
    started = time.monotonic()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        H = int(rng.integers(0, 4))
        X = _simulate_var(rng, n, 2000)
        p = int(rng.integers(1, n))
        I = sorted(rng.choice(n, size=p, replace=False).tolist())
        blocks = estimate_blocks(X, H)
        alpha, beta = assemble_blocks(blocks.gammas, I, H)
        crit = criterion_linear_h(blocks.sigma, alpha, beta, I)
        mse = fit_predict_linear(blocks, I, H).training_mse(X)
        rel = abs(crit - mse) / max(abs(mse), 1e-30)
        worst = max(worst, rel)
        assert rel <= 1e-8, f"n={n} H={H} I={I}: rel error {rel:.3e}"
        if H == 0:
            rel0 = abs(criterion_linear_h0(blocks.sigma, I) - mse) / abs(mse)
            worst = max(worst, rel0)
            assert rel0 <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 03 PASS: 50 instances, worst relative error "
          f"{worst:.2e} ({elapsed:.1f}s)")


def test_criterion_04_autocovariance_kernel_matches_linear():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        H = int(rng.integers(0, 3))
        X = _simulate_var(rng, n, 1200)
        blocks = estimate_blocks(X, H)
        kb = build_kernel_blocks(KernelConfig(kernel="autocovariance", H=H),
                                 X_train=X)
        for _ in range(3):
            p = int(rng.integers(1, n))
            I = sorted(rng.choice(n, size=p, replace=False).tolist())
            alpha, beta = assemble_blocks(blocks.gammas, I, H)
            lin = criterion_linear_h(blocks.sigma, alpha, beta, I)
            ker = criterion_kernel(blocks, kb, I, lam=0.0, H=H)
            worst = max(worst, abs(lin - ker))
            assert abs(lin - ker) <= 1e-8, f"I={I}: {lin} vs {ker}"
        lin_order = greedy_select_linear(blocks, n - 1, H=H).order
        ker_order = greedy_select_kernel(blocks, kb, n - 1, lam=0.0, H=H).order
        assert lin_order == ker_order, f"{lin_order} vs {ker_order}"
    print(f"criterion 04 PASS: 20 instances, kernel(lambda=0) == linear, "
          f"worst value gap {worst:.2e}, all greedy orders identical")


def test_criterion_05_lambda_monotonicity():
    rng = np.random.default_rng(5)
    grid = [0.0, 0.01, 0.1, 1.0, 10.0]
    for _ in range(50):
        n = int(rng.integers(3, 9))
        H = int(rng.integers(0, 3))
        X = _simulate_var(rng, n, 800)
        blocks = estimate_blocks(X, H)
        p = int(rng.integers(1, n))
        I = sorted(rng.choice(n, size=p, replace=False).tolist())
        vals = lambda_monotonicity_check(blocks, I, grid, H=H)
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-10, f"I={I}: {vals}"
        assert vals[0] <= min(vals) + 1e-10
    print("criterion 05 PASS: 50 instances nondecreasing in lambda, "
          "minimum at lambda=0")


def test_criterion_06_entropy_equivalence():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        M = rng.normal(size=(n, n))
        sigma = M @ M.T + 0.1 * np.eye(n)
        pv = [partial_variance(sigma, i, [j for j in range(n) if j != i])
              for i in range(n)]
        ent = [entropy_criterion(sigma, [i]) for i in range(n)]
        assert int(np.argmin(pv)) == int(np.argmax(ent))
        det_full = np.linalg.det(sigma)
        for i in range(n):
            comp = [j for j in range(n) if j != i]
            det_prod = np.linalg.det(sigma[np.ix_(comp, comp)]) * pv[i]
            assert abs(det_prod - det_full) <= 1e-8 * abs(det_full)
    print("criterion 06 PASS: 50 matrices, argmin partial variance == "
          "argmax complement log det, Schur identity to 1e-8")


def test_criterion_07_conjugate_gradient_path():
    rng = np.random.default_rng(7)
    lams = [0.05, 0.2, 1.0]
    for k in range(20):
        n = int(rng.integers(4, 13))
        H = int(rng.integers(0, 4))
        X = _simulate_var(rng, n, 1000)
        blocks = estimate_blocks(X, H)
        kb = build_kernel_blocks(KernelConfig(kernel="autocovariance", H=H),
                                 X_train=X)
        p = min(3, n - 1)
        lam = lams[k % len(lams)]
        direct = greedy_select_kernel(blocks, kb, p, lam=lam, H=H)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            viacg = greedy_select_kernel(blocks, kb, p, lam=lam, H=H,
                                         use_cg=True, eps=1e-10)
        assert direct.order == viacg.order, f"{direct.order} vs {viacg.order}"
    print("criterion 07 PASS: 20 instances, conjugate gradient reproduces "
          "the direct selection order")


def test_criterion_08_gradient_check():
    started = time.monotonic()
    config = ChebNetConfig(n=5, cheb_order=3, f_out=3, fc_sizes=(7,),
                           out_dim=4, h=2)
    rng = np.random.default_rng(8)
    S = rng.normal(size=(5, 5))
    S = (S + S.T) / 2.0
    spectrum = sym_eig(S / np.max(np.abs(np.linalg.eigvalsh(S))))
    params = init_params(config, seed=1)
    x = rng.normal(size=(5, 3))
    target = rng.normal(size=4)

    _, grads = net_backward(x, target, params, config, spectrum)
    vec = pack_params(params)
    num = np.empty_like(vec)
    eps = 1e-6
    for k in range(vec.size):
        bump = np.zeros_like(vec)
        bump[k] = eps
        lo, _ = net_backward(x, target, unpack_params(vec - bump, params),
                             config, spectrum)
        hi, _ = net_backward(x, target, unpack_params(vec + bump, params),
                             config, spectrum)
        num[k] = (hi - lo) / (2.0 * eps)

    pos = 0
    worst = {}
    for name, tensor in tensor_items(grads):
        ana = tensor.ravel()
        ref = num[pos:pos + ana.size]
        pos += ana.size
        rel = np.abs(ana - ref) / np.maximum.reduce(
            [np.abs(ana), np.abs(ref), np.full_like(ref, 1e-8)]
        )
        worst[name] = float(rel.max())
        assert worst[name] <= 1e-4, f"{name}: max rel error {worst[name]:.3e}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    overall = max(worst.values())
    print(f"criterion 08 PASS: every tensor within 1e-4 of central "
          f"differences, worst {overall:.2e} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def selection_sanity():
    """Dropout and masking selection on the designed-redundancy panel.

    N = 20, sensors 1 and 2 duplicate sensor 0's smooth signal, sensor 19
    is pure noise, p = 2, three seeds. Both sanity tests share one run.
    """
    started = time.monotonic()
    net = ChebNetConfig(n=20, cheb_order=3, f_out=4, fc_sizes=(32,),
                        out_dim=20, h=0)
    mask_lams = list(np.linspace(0.05, 0.5, 8))
    wins = {"mse": 0, "top3": 0, "mask": 0}
    details = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(100 + seed)
        coords = rng.normal(size=(20, 2))
        g = build_knn_graph(coords, k0=6, k1=3)
        panel = synth_generate(g, 1500, "graph-smooth", seed=seed,
                               redundant_pairs=[(0, 1), (0, 2)],
                               noise_sensors=[19])
        X = panel.values
        split = make_split(X.shape[1])
        L = combinatorial_laplacian(g)
        spectrum = sym_eig(scale_laplacian(L, power_method(L).value))
        blocks = estimate_blocks(X[:, :split.t_tv], 0)

        scores, result, _ = train_selection_dropout(
            X, split, spectrum, 2, net,
            TrainConfig(optimizer="gd", lr=0.02, batch_size=50, max_epoch=60,
                        early_stop="five-epoch-mean", seed=seed))
        rec = fit_predict_linear(blocks, result.order, 0)
        sel_mse = held_out_mse(rec, X, result.order, split)
        base = random_baseline(lambda I: fit_predict_linear(blocks, I, 0),
                               X, 2, split, draws=100, seed=seed)
        wins["mse"] += sel_mse <= base.mean_mse
        wins["top3"] += {1, 2} <= set(scores.ranking[:3])

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, mpath = train_selection_masking(
                X, split, spectrum, 2, mask_lams, 0.01, net,
                TrainConfig(optimizer="adam", lr=0.01, batch_size=50,
                            max_epoch=8, early_stop="none", seed=seed))
        F = (mpath < 0.01).sum(axis=0)
        rank_pos = {i: k for k, i in enumerate(
            sorted(range(20), key=lambda i: (-F[i], mpath[-1][i], i)))}
        wins["mask"] += rank_pos[1] < rank_pos[19] and rank_pos[2] < rank_pos[19]
        details.append(f"seed {seed}: mse {sel_mse:.3f} vs {base.mean_mse:.3f}, "
                       f"top3 {sorted(scores.ranking[:3])}, "
                       f"F[1,2,19]={F[1]},{F[2]},{F[19]}")
    wins["elapsed"] = time.monotonic() - started
    wins["details"] = details
    return wins


def test_criterion_09_dropout_selection_sanity(selection_sanity):
    s = selection_sanity
    assert s["elapsed"] < 300.0, f"took {s['elapsed']:.0f}s"
    assert s["mse"] >= 2, "\n".join(s["details"])
    assert s["top3"] >= 2, "\n".join(s["details"])
    print(f"criterion 09 PASS: dropout beats the random baseline in "
          f"{s['mse']}/3 seeds, redundant pair in top-3 in {s['top3']}/3 "
          f"({s['elapsed']:.0f}s)")


def test_criterion_10_masking_selection_sanity(selection_sanity):
    s = selection_sanity
    assert s["mask"] >= 2, "\n".join(s["details"])
    print(f"criterion 10 PASS: masking ranks the redundant sensors above "
          f"the noise sensor in {s['mask']}/3 seeds")


def test_criterion_11_greedy_vs_exhaustive():
    rng = np.random.default_rng(11)
    max_gap = 0.0
    for _ in range(4):
        X = _simulate_var(rng, 8, 600)
        sigma = estimate_blocks(X, 0).sigma
        blocks = CovarianceBlocks(sigma, [sigma])
        for p in (1, 2, 3):
            greedy = greedy_select_linear(blocks, p, H=0)
            greedy_val = criterion_linear_h0(sigma, greedy.order)
            _, best_val = exhaustive_select(
                lambda I: criterion_linear_h0(sigma, I), 8, p)
            assert best_val <= greedy_val + 1e-12, f"p={p}"
            if p == 1:
                assert abs(best_val - greedy_val) <= 1e-12
            max_gap = max(max_gap, greedy_val - best_val)
    print(f"criterion 11 PASS: exhaustive <= greedy on all instances, "
          f"equal at p=1, largest greedy gap {max_gap:.3e}")


def test_criterion_12_dataset_tables():
    paris = DATA_DIR / "paris"
    toulouse = DATA_DIR / "toulouse"
    needed = [paris / "panel.csv", toulouse / "panel.csv",
              toulouse / "coords.csv"]
    if not all(f.exists() for f in needed):
        pytest.skip("published dataset CSVs not present under data/ "
                    "(see README for the expected layout)")

    # linear H=0 on the first city
    panel = read_panel(paris / "panel.csv")
    split = Split(3776, 3975, 4417)
    assert split.t1 == panel.t_total
    X = apply_preprocess(panel, fit_weekly_profile(panel, split)).values
    blocks = estimate_blocks(X[:, :split.t_tv], 0)
    res = greedy_select_linear(blocks, 27, H=0)
    mse = held_out_mse(fit_predict_linear(blocks, res.order, 0), X, res.order, split)
    base = random_baseline(lambda I: fit_predict_linear(blocks, I, 0),
                           X, 27, split, draws=100, seed=0)
    assert abs(mse - 32.53) <= 0.05 * 32.53, f"test MSE {mse:.2f}"
    assert abs(base.mean_mse - 41.04) <= 0.05 * 41.04, \
        f"baseline {base.mean_mse:.2f}"

    # graph kernel H=1 on the second city
    panel2 = read_panel(toulouse / "panel.csv")
    split2 = Split(3288, 3649, 4290)
    assert split2.t1 == panel2.t_total
    X2 = apply_preprocess(panel2, fit_weekly_profile(panel2, split2)).values
    from netselect.graph import read_coords

    ids, coords = read_coords(toulouse / "coords.csv")
    index = {sid: k for k, sid in enumerate(ids)}
    coords = coords[[index[sid] for sid in panel2.sensor_ids]]
    graph = build_knn_graph(coords, k0=20, k1=7)
    cov = estimate_blocks(X2[:, :split2.t_tv], 1)
    kb = build_kernel_blocks(
        KernelConfig(kernel="spatial-temporal", gamma=gamma_grid(1, 0.3), H=1),
        graph=graph)
    lam = 0.149
    res2 = greedy_select_kernel(cov, kb, 18, lam=lam, H=1)
    mse2 = held_out_mse(fit_predict_kernel(cov, kb, res2.order, lam, 1),
                    X2, res2.order, split2)
    base2 = random_baseline(lambda I: fit_predict_kernel(cov, kb, I, lam, 1),
                            X2, 18, split2, draws=100, seed=0)
    assert abs(mse2 - 18.13) <= 0.05 * 18.13, f"test MSE {mse2:.2f}"
    assert abs(base2.mean_mse - 20.59) <= 0.05 * 20.59, \
        f"baseline {base2.mean_mse:.2f}"
    print(f"criterion 12 PASS: linear H=0 {mse:.2f} ({base.mean_mse:.2f}), "
          f"kernel H=1 {mse2:.2f} ({base2.mean_mse:.2f}), all within 5%")
