"""End-to-end checks of the documented guarantees, one test per claim.

Each test prints a single PASS line with the measured quantities, so a
verbose run reads as a checklist. Runtime-guarded tests use wall time.
"""

import time
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from netselect.evaluation import (
    gamma_grid,
    random_baseline,
    synth_generate,
)
from netselect.evaluation import test_mse as held_out_mse
from netselect.gcn.layers import ChebNetConfig, init_params, scale_laplacian, tensor_items
from netselect.gcn.selection import train_selection_dropout, train_selection_masking
from netselect.gcn.train import TrainConfig
from netselect.graph import build_knn_graph, combinatorial_laplacian
from netselect.numerics import power_method, sym_eig
from netselect.select_kernel import (
    build_kernel_blocks,
    fit_predict_kernel,
    greedy_select_kernel,
)
from netselect.select_linear import fit_predict_linear, greedy_select_linear
from netselect.timeseries import (
    Split,
    estimate_blocks,
    lag_stack,
    make_split,
    read_panel,
    standardize,
    write_panel,
)
from oracles import (
    central_differences,
    conjugate_gradient,
    criterion_kernel,
    criterion_linear,
    greedy_per_candidate,
    net_backward,
    training_mse,
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
        pv = [criterion_linear([S], [i], 0) for i in range(4)]
        for i, (got, want) in enumerate(zip(pv, caption)):
            assert abs(got - want) <= 0.01, f"{name} sensor {i + 1}: {got}"
        result = greedy_select_linear([S], p=1, H=0)
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
        crit = criterion_linear(blocks, I, H)
        mse = training_mse(fit_predict_linear(blocks, I, H), X)
        rel = abs(crit - mse) / max(abs(mse), 1e-30)
        worst = max(worst, rel)
        assert rel <= 1e-8, f"n={n} H={H} I={I}: rel error {rel:.3e}"
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
        kb = build_kernel_blocks("autocovariance", H=H, X_train=X)
        for _ in range(3):
            p = int(rng.integers(1, n))
            I = sorted(rng.choice(n, size=p, replace=False).tolist())
            lin = criterion_linear(blocks, I, H)
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
        vals = [criterion_kernel(blocks, blocks, I, lam, H) for lam in grid]
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
        pv = [criterion_linear([sigma], [i], 0) for i in range(n)]
        comps = [[j for j in range(n) if j != i] for i in range(n)]
        # entropy criterion: log det of the kept sensors' covariance
        ent = [np.linalg.slogdet(sigma[np.ix_(c, c)])[1] for c in comps]
        assert int(np.argmin(pv)) == int(np.argmax(ent))
        det_full = np.linalg.det(sigma)
        for i, comp in enumerate(comps):
            det_prod = np.linalg.det(sigma[np.ix_(comp, comp)]) * pv[i]
            assert abs(det_prod - det_full) <= 1e-8 * abs(det_full)
    print("criterion 06 PASS: 50 matrices, argmin partial variance == "
          "argmax complement log det, Schur identity to 1e-8")


def _cg_kernel_value(gammas, kb, lam, H):
    """Kernel criterion value of candidate i given the kept set S, with
    the ridge system (K_S + lam Id) theta = K_cross solved by conjugate
    gradient."""

    def value(i, S):
        alpha, beta = lag_stack(gammas, [i], S, H)
        K_S, K_cross = lag_stack(kb, [i], S, H)
        A = K_S + lam * np.eye(K_S.shape[0])
        th = conjugate_gradient(A, K_cross.ravel(), tol=1e-10)
        return float(gammas[0][i, i] - 2.0 * (beta[0] @ th) + th @ alpha @ th)

    return value


def test_criterion_07_conjugate_gradient_path():
    rng = np.random.default_rng(7)
    lams = [0.05, 0.2, 1.0]
    for k in range(20):
        n = int(rng.integers(4, 13))
        H = int(rng.integers(0, 4))
        X = _simulate_var(rng, n, 1000)
        blocks = estimate_blocks(X, H)
        kb = build_kernel_blocks("autocovariance", H=H, X_train=X)
        p = min(3, n - 1)
        lam = lams[k % len(lams)]
        direct = greedy_select_kernel(blocks, kb, p, lam=lam, H=H)
        viacg, _ = greedy_per_candidate(n, p, _cg_kernel_value(blocks, kb, lam, H))
        assert direct.order == viacg, f"{direct.order} vs {viacg}"
    print("criterion 07 PASS: 20 instances, conjugate gradient reproduces "
          "the direct selection order")


def test_criterion_08_gradient_check():
    started = time.monotonic()
    config = ChebNetConfig(cheb_order=3, f_out=3, fc_sizes=(7,), h=2)
    rng = np.random.default_rng(8)
    S = rng.normal(size=(5, 5))
    S = (S + S.T) / 2.0
    spectrum = sym_eig(S / np.max(np.abs(np.linalg.eigvalsh(S))))
    params = init_params(config, 5, 4, seed=1)
    x = rng.normal(size=(5, 3))
    target = rng.normal(size=4)

    _, grads = net_backward(x, target, params, config, spectrum)
    num = central_differences(
        lambda: net_backward(x, target, params, config, spectrum)[0], params)

    worst = {}
    for (name, ana), ref in zip(tensor_items(grads), num):
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
    net = ChebNetConfig(cheb_order=3, f_out=4, fc_sizes=(32,), h=0)
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
            TrainConfig(lr=0.02, batch_size=50, max_epoch=60, seed=seed))
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
                TrainConfig(lr=0.01, batch_size=50, max_epoch=8, seed=seed))
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
        sigma = estimate_blocks(X, 0)[0]
        for p in (1, 2, 3):
            greedy = greedy_select_linear([sigma], p, H=0)
            greedy_val = criterion_linear([sigma], greedy.order, 0)
            best_val = min(criterion_linear([sigma], I, 0)
                           for I in combinations(range(8), p))
            assert best_val <= greedy_val + 1e-12, f"p={p}"
            if p == 1:
                assert abs(best_val - greedy_val) <= 1e-12
            max_gap = max(max_gap, greedy_val - best_val)
    print(f"criterion 11 PASS: exhaustive <= greedy on all instances, "
          f"equal at p=1, largest greedy gap {max_gap:.3e}")


def dataset_tables(paris_dir, toulouse_dir):
    """Criterion 12's two tables, each as (order, test MSE, baseline
    mean MSE): linear H=0 on the first city, the spatial-temporal kernel
    at H=1 on the second."""
    paris, toulouse = Path(paris_dir), Path(toulouse_dir)

    # linear H=0 on the first city
    panel, _ = read_panel(paris / "panel.csv")
    split = Split(3776, 3975, 4417)
    assert split.t1 == panel.t_total
    X = standardize(panel, split)
    blocks = estimate_blocks(X[:, :split.t_tv], 0)
    res = greedy_select_linear(blocks, 27, H=0)
    mse = held_out_mse(fit_predict_linear(blocks, res.order, 0), X, res.order, split)
    base = random_baseline(lambda I: fit_predict_linear(blocks, I, 0),
                           X, 27, split, draws=100, seed=0)

    # graph kernel H=1 on the second city
    panel2, _ = read_panel(toulouse / "panel.csv")
    split2 = Split(3288, 3649, 4290)
    assert split2.t1 == panel2.t_total
    X2 = standardize(panel2, split2)
    from netselect.graph import read_coords

    ids, coords = read_coords(toulouse / "coords.csv")
    index = {sid: k for k, sid in enumerate(ids)}
    coords = coords[[index[sid] for sid in panel2.sensor_ids]]
    graph = build_knn_graph(coords, k0=20, k1=7)
    cov = estimate_blocks(X2[:, :split2.t_tv], 1)
    kb = build_kernel_blocks("spatial-temporal", H=1, gamma=gamma_grid(1, 0.3),
                             graph=graph)
    lam = 0.149
    res2 = greedy_select_kernel(cov, kb, 18, lam=lam, H=1)
    mse2 = held_out_mse(fit_predict_kernel(kb, res2.order, lam, 1),
                        X2, res2.order, split2)
    base2 = random_baseline(lambda I: fit_predict_kernel(kb, I, lam, 1),
                            X2, 18, split2, draws=100, seed=0)
    return (res.order, mse, base.mean_mse), (res2.order, mse2, base2.mean_mse)


def test_criterion_12_dataset_tables():
    paris = DATA_DIR / "paris"
    toulouse = DATA_DIR / "toulouse"
    needed = [paris / "panel.csv", toulouse / "panel.csv",
              toulouse / "coords.csv"]
    if not all(f.exists() for f in needed):
        pytest.skip("published dataset CSVs not present under data/ "
                    "(see README for the expected layout)")

    (_, mse, base), (_, mse2, base2) = dataset_tables(paris, toulouse)
    assert abs(mse - 32.53) <= 0.05 * 32.53, f"test MSE {mse:.2f}"
    assert abs(base - 41.04) <= 0.05 * 41.04, f"baseline {base:.2f}"
    assert abs(mse2 - 18.13) <= 0.05 * 18.13, f"test MSE {mse2:.2f}"
    assert abs(base2 - 20.59) <= 0.05 * 20.59, f"baseline {base2:.2f}"
    print(f"criterion 12 PASS: linear H=0 {mse:.2f} ({base:.2f}), "
          f"kernel H=1 {mse2:.2f} ({base2:.2f}), all within 5%")


def _city_shaped(directory, n, T, seed):
    """A synth_generate panel of n sensors and T hours on a kNN graph of
    random coordinates, written as directory/panel.csv and coords.csv."""
    directory.mkdir()
    coords = np.random.default_rng(seed).uniform(size=(n, 2))
    panel = synth_generate(build_knn_graph(coords, k0=20, k1=7), T, seed=seed)
    write_panel(panel, directory / "panel.csv")
    rows = ["sensor_id,lat,lon"] + [f"{sid},{lat!r},{lon!r}" for sid, (lat, lon)
                                    in zip(panel.sensor_ids, coords.tolist())]
    (directory / "coords.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return directory


@pytest.fixture(scope="session")
def city_shaped_dirs(tmp_path_factory):
    """Paris- and Toulouse-shaped panel directories; writing them takes
    about as long as the tables, so a session makes them once."""
    root = tmp_path_factory.mktemp("cities")
    return (_city_shaped(root / "paris", 270, 4417, seed=0),
            _city_shaped(root / "toulouse", 180, 4290, seed=1))


def test_criterion_12_body_runs_on_city_shaped_panels(city_shaped_dirs):
    # data/ is absent wherever the suite runs, so criterion 12 runs its
    # body on synthetic panels of the two cities' shapes; a synthetic
    # panel guarantees no published number, only that greedy beats random
    (order, mse, base), (order2, mse2, base2) = dataset_tables(*city_shaped_dirs)
    assert len(order) == 27 and len(order2) == 18
    assert mse < base, (mse, base)
    assert mse2 < base2, (mse2, base2)
    print(f"criterion 12 body on synthetic panels: linear H=0 {mse:.2f} "
          f"({base:.2f}), kernel H=1 {mse2:.2f} ({base2:.2f})")
