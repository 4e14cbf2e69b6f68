"""ChebNet layers, manual gradients, training loops, and selection nets."""

import numpy as np
import pytest

from netselect.errors import InvalidInputError, TrainingDivergedError
from netselect.gcn.layers import (
    ChebNetConfig,
    Workspace,
    backward_batch,
    cheb_values,
    elu,
    elu_grad,
    forward_batch,
    init_params,
    leaky_relu,
    leaky_relu_grad,
    scale_laplacian,
    tensor_items,
)
from netselect.gcn import layers, selection, train
from netselect.gcn.selection import (
    mask_gradients,
    score_sensors,
    train_selection_dropout,
    train_selection_masking,
    write_scores_csv,
)
from netselect.gcn.train import (
    NetReconstructor,
    TrainConfig,
    _early_stop,
    batch_blocks,
    train_prediction_net,
)
from netselect.numerics import sym_eig
from netselect.timeseries import Split, lag_windows
from oracles import central_differences, leaky_relu_where, net_backward


def _toy_setup(n=4, T=260, h=0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, T))
    S = rng.normal(size=(n, n))
    S = (S + S.T) / 2.0
    spectrum = sym_eig(S / np.max(np.abs(np.linalg.eigvalsh(S))))
    split = Split(200, 230, T)
    return X, spectrum, split


def test_activations_and_gradients():
    x = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(elu(x), [np.expm1(-1.0), 0.0, 2.0])
    assert np.allclose(elu_grad(x), [np.exp(-1.0), 1.0, 1.0])
    assert np.allclose(leaky_relu(x, 0.2), [-0.2, 0.0, 2.0])
    assert np.allclose(leaky_relu_grad(x, 0.2), [0.2, 1.0, 1.0])


def _cheb_stack(Lt, K, Xb):
    """Reference Chebyshev stack [T_0(Lt) Xb, ..., T_K(Lt) Xb], shape
    (B, K+1, n, f), by the recursion T_k = 2 Lt T_{k-1} - T_{k-2}."""
    out = [Xb]
    if K >= 1:
        out.append(Lt @ Xb)
    for _ in range(2, K + 1):
        out.append(2.0 * (Lt @ out[-1]) - out[-2])
    return np.stack(out, axis=1)


def _cheb_stack_adjoint(Lt, K, dstack):
    """Reference adjoint of _cheb_stack: the gradient with respect to Xb
    from the gradient with respect to the stack (Lt symmetric)."""
    adj = [dstack[:, k] for k in range(K + 1)]
    for k in range(K, 1, -1):
        adj[k - 1] = adj[k - 1] + 2.0 * (Lt @ adj[k])
        adj[k - 2] = adj[k - 2] - adj[k]
    dXb = adj[0]
    if K >= 1:
        dXb = dXb + Lt @ adj[1]
    return dXb


def test_spectral_filter_matches_chebyshev_recursion():
    n, B, f_out, out_dim = 7, 4, 3, 5
    angles = np.linspace(0.0, np.pi, 9)
    for K in (0, 1, 3, 20, 50):
        assert np.allclose(cheb_values(np.cos(angles), K),
                           np.cos(np.outer(np.arange(K + 1), angles)))
        rng = np.random.default_rng(K)
        S = rng.normal(size=(n, n))
        S = (S + S.T) / 2.0
        Lt = S / np.max(np.abs(np.linalg.eigvalsh(S)))
        spectrum = sym_eig(Lt)
        Xb = rng.normal(size=(B, n, 2))
        dout = rng.normal(size=(B, out_dim))
        stack = _cheb_stack(Lt, K, Xb)
        # the output layer alone, then a leaky relu hidden layer before it
        for fc_sizes in ((), (5,)):
            config = ChebNetConfig(cheb_order=K, f_out=f_out, fc_sizes=fc_sizes, h=1)
            params = init_params(config, n, out_dim, seed=K)
            params.gconv_bias[:] = rng.normal(size=params.gconv_bias.shape)
            workspace = Workspace(spectrum)
            out, cache = forward_batch(Xb, params, workspace, want_cache=True)
            grads, dXb = backward_batch(dout, cache, params, workspace,
                                        want_input_grad=True)

            G_pre = np.einsum("bknf,kfo->bno", stack, params.theta) + params.gconv_bias
            f, pre_acts = elu(G_pre).reshape(B, -1), []
            for W, b in zip(params.fc_weights[:-1], params.fc_biases[:-1]):
                pre_acts.append(f @ W.T + b)
                f = leaky_relu_where(pre_acts[-1], layers.LEAKY_ALPHA)
            out_ref = f @ params.fc_weights[-1].T + params.fc_biases[-1]
            df = dout @ params.fc_weights[-1]
            for W, u in zip(params.fc_weights[-2::-1], pre_acts[::-1]):
                df = (df * leaky_relu_grad(u, layers.LEAKY_ALPHA)) @ W
            dG = df.reshape(B, n, f_out) * elu_grad(G_pre)
            dtheta = np.einsum("bknf,bno->kfo", stack, dG)
            dX = _cheb_stack_adjoint(Lt, K, np.einsum("kfo,bno->bknf", params.theta, dG))
            for name, got, ref in (("out", out, out_ref), ("G_pre", cache["G_pre"], G_pre),
                                   ("dtheta", grads.theta, dtheta), ("dX", dXb, dX)):
                rel = np.abs(got - ref).max() / np.abs(ref).max()
                assert rel <= 1e-10, f"K={K} fc={fc_sizes} {name}: rel {rel:.2e}"


def test_input_gradient_matches_central_differences():
    # dXb feeds the mask gradient of the masking selector
    config = ChebNetConfig(cheb_order=3, f_out=2, fc_sizes=(5,), h=1)
    _, spectrum, _ = _toy_setup()
    rng = np.random.default_rng(11)
    params = init_params(config, 4, 3, seed=2)
    Xb = rng.normal(size=(2, 4, 2))
    dout = rng.normal(size=(2, 3))
    workspace = Workspace(spectrum)
    _, cache = forward_batch(Xb, params, workspace, want_cache=True)
    _, dXb = backward_batch(dout, cache, params, workspace,
                            want_input_grad=True)
    eps = 1e-6
    num = np.empty_like(Xb)
    for idx in np.ndindex(Xb.shape):
        bump = np.zeros_like(Xb)
        bump[idx] = eps
        hi = np.sum(dout * forward_batch(Xb + bump, params, Workspace(spectrum)))
        lo = np.sum(dout * forward_batch(Xb - bump, params, Workspace(spectrum)))
        num[idx] = (hi - lo) / (2.0 * eps)
    assert np.allclose(dXb, num, rtol=1e-5, atol=1e-9)


def test_mask_gradient_matches_central_differences():
    # the whole mask gradient dw: the input path, the (1 - w)^2 loss
    # factor and the l1 term, against the full masked batch loss
    config = ChebNetConfig(cheb_order=3, f_out=2, fc_sizes=(5,), h=1)
    _, spectrum, _ = _toy_setup()
    rng = np.random.default_rng(12)
    params = init_params(config, 4, 4, seed=2)
    params.gconv_bias[:] = rng.normal(size=params.gconv_bias.shape)
    Xb = rng.normal(size=(6, 4, 2))
    target = rng.normal(size=(6, 4))
    w = rng.uniform(0.1, 0.9, size=4)
    lam = 0.3

    def loss(w):
        out = forward_batch(Xb * w[None, :, None], params, Workspace(spectrum))
        resid = out - target
        return np.sum((1.0 - w) ** 2 * resid ** 2) / 6 + lam * np.abs(w).sum()

    _, dw = mask_gradients(Xb, target, w, lam, params, Workspace(spectrum))
    eps = 1e-6
    num = np.empty_like(w)
    for i in range(w.size):
        bump = np.zeros_like(w)
        bump[i] = eps
        num[i] = (loss(w + bump) - loss(w - bump)) / (2.0 * eps)
    assert np.allclose(dw, num, rtol=1e-6, atol=1e-9)


def test_scale_laplacian():
    L = np.diag([0.0, 1.0, 4.0])
    Lt = scale_laplacian(L, 4.0)
    assert np.allclose(np.diag(Lt), [-1.0, -0.5, 1.0])
    with pytest.raises(InvalidInputError, match="lam_max"):
        scale_laplacian(L, 0.0)


def test_init_params_bounds_and_determinism():
    config = ChebNetConfig(cheb_order=4, f_out=3, fc_sizes=(10,), h=1)
    params = init_params(config, 6, 2, seed=3)
    bound = np.sqrt(6.0 / ((config.cheb_order + 1) * (config.h + 1) + config.f_out))
    assert np.all(np.abs(params.theta) <= bound)
    assert np.all(params.gconv_bias == 0)
    assert all(np.all(b == 0) for b in params.fc_biases)
    assert params.fc_weights[0].shape == (10, 6 * 3)
    assert params.fc_weights[1].shape == (2, 10)
    def same(p, q):
        return all(np.array_equal(a, b)
                   for (_, a), (_, b) in zip(tensor_items(p), tensor_items(q)))

    assert same(params, init_params(config, 6, 2, seed=3))
    assert not same(params, init_params(config, 6, 2, seed=4))


def test_net_config_validation():
    # a fractional size used to fail in init_params as a bare TypeError,
    # and h=True to build a two-lag net
    sizes = {"cheb_order": 1, "f_out": 1, "fc_sizes": (4,)}
    for field, lo, bad in (("cheb_order", 0, (-1, 2.5, True, "2", None)),
                           ("f_out", 1, (0, 1.5, True)),
                           ("h", 0, (-1, 0.5, True, False))):
        for value in bad:
            with pytest.raises(InvalidInputError,
                               match=f"{field} must be an integer >= {lo}"):
                ChebNetConfig(**dict(sizes, **{field: value}))
    for fc_sizes, k in (((0,), 0), ((4.0,), 0), ((4, True), 1), ((4, -2), 1)):
        with pytest.raises(InvalidInputError,
                           match=rf"fc_sizes\[{k}\] must be an integer >= 1"):
            ChebNetConfig(cheb_order=1, f_out=1, fc_sizes=fc_sizes)
    # a bare width or None used to fail as a bare TypeError
    for fc_sizes in (4, None):
        with pytest.raises(InvalidInputError, match="fc_sizes must be a sequence"):
            ChebNetConfig(cheb_order=1, f_out=1, fc_sizes=fc_sizes)
    config = ChebNetConfig(cheb_order=np.int64(2), f_out=np.int64(3),
                           fc_sizes=(np.int64(4),), h=np.int64(1))
    assert init_params(config, 5, 2).theta.shape == (3, 2, 3)


def test_forward_batch_validates_shape():
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=1)
    params = init_params(config, 3, 1)
    spectrum = sym_eig(np.eye(3) * 0.5)
    with pytest.raises(InvalidInputError, match="input must be"):
        forward_batch(np.zeros((2, 3, 1)), params, Workspace(spectrum))
    # the params are the architecture: two lag channels into a net built
    # for one are refused, the count taken from theta
    one_lag = init_params(ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0), 3, 1)
    assert one_lag.theta.shape[1] == 1
    with pytest.raises(InvalidInputError, match=r"input must be \(B, 3, 1\)"):
        forward_batch(np.zeros((2, 3, 2)), one_lag, Workspace(spectrum))


def test_small_gradient_check():
    config = ChebNetConfig(cheb_order=2, f_out=2, fc_sizes=(4,), h=1)
    rng = np.random.default_rng(5)
    S = rng.normal(size=(3, 3))
    S = (S + S.T) / 2.0
    spectrum = sym_eig(S / np.max(np.abs(np.linalg.eigvalsh(S))))
    params = init_params(config, 3, 2, seed=1)
    x = rng.normal(size=(3, 2))
    target = rng.normal(size=2)
    _, grads = net_backward(x, target, params, spectrum)
    num = central_differences(
        lambda: net_backward(x, target, params, spectrum)[0], params)
    for (_, ana), ref in zip(tensor_items(grads), num):
        rel = np.abs(ana - ref) / np.maximum(np.abs(ref), 1e-6)
        assert rel.max() <= 1e-6


def test_batch_blocks_contiguity():
    blocks = batch_blocks(0, 20, h=3, batch_size=6)
    flat = np.concatenate(blocks)
    assert flat[0] == 3
    assert flat[-1] == 19
    assert np.all(np.diff(flat) == 1)
    assert all(len(b) <= 6 for b in blocks)
    with pytest.raises(InvalidInputError, match="no usable targets"):
        batch_blocks(0, 3, h=5, batch_size=4)


def test_two_epoch_stop_rule():
    assert not _early_stop("two-epoch-mean", [3.0, 2.0])
    assert not _early_stop("two-epoch-mean", [3.0, 2.0, 1.0])
    assert _early_stop("two-epoch-mean", [1.0, 2.0, 3.0])


def test_five_epoch_stop_rule():
    falling = list(np.linspace(2.0, 1.0, 10))
    assert not _early_stop("five-epoch-mean", falling)
    rising = list(np.linspace(1.0, 2.0, 10))
    assert _early_stop("five-epoch-mean", rising)
    assert not _early_stop("five-epoch-mean", rising[:9])
    # length 11, not a block end
    assert not _early_stop("five-epoch-mean", rising + [0.0])


def test_train_config_validation():
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match="lr must be a finite number > 0"):
            TrainConfig(lr=lr)
    # a seed below 0 used to fail later as a bare ValueError in the rng,
    # a fractional batch size as a TypeError, and batch_size=True to
    # train on batches of one
    for field, lo, bad in (("batch_size", 1, (0, -3, 1.5, 2.0, True, "50", None)),
                           ("max_epoch", 1, (0, 1.5, True)),
                           ("seed", 0, (-1, 0.5, False, "0"))):
        for value in bad:
            with pytest.raises(InvalidInputError,
                               match=f"{field} must be an integer >= {lo}"):
                TrainConfig(**{field: value})
    assert TrainConfig(batch_size=np.int64(7), max_epoch=1, seed=np.int64(0)).seed == 0


def test_prediction_training_runs_and_stops():
    X, spectrum, split = _toy_setup()
    config = ChebNetConfig(cheb_order=2, f_out=2, fc_sizes=(8,), h=0)
    params, val_losses = train_prediction_net(
        X, split, Workspace(spectrum), [2], config,
        TrainConfig(lr=0.01, batch_size=32, max_epoch=5, seed=0))
    # stops at the first epoch where the two-epoch rule fires
    assert len(val_losses) == 4
    assert [e for e in range(1, 5)
            if _early_stop("two-epoch-mean", val_losses[:e])] == [4]
    assert all(np.isfinite(v) for v in val_losses)
    out = forward_batch(lag_windows(X, np.arange(230, 240), 0),
                        params, Workspace(spectrum))
    assert out.shape == (10, 1)


def test_prediction_training_validates_the_turned_off_set():
    # [-1] used to mask the last sensor, [0, 0] to train two outputs for
    # one sensor, and all four a net with no input left; [4] hit an
    # IndexError
    X, spectrum, split = _toy_setup()
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    for I, match in (([], "nonempty"), ([-1], "outside"), ([4], "outside"),
                     ([0, 0], "duplicates"), ([0, 1, 2, 3], "proper subset")):
        with pytest.raises(InvalidInputError, match=match):
            train_prediction_net(X, split, Workspace(spectrum), I, config,
                                 TrainConfig())


def test_training_diverges_at_huge_lr():
    X, spectrum, split = _toy_setup()
    config = ChebNetConfig(cheb_order=2, f_out=2, fc_sizes=(8,), h=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            train_prediction_net(
                X, split, Workspace(spectrum), [1], config,
                TrainConfig(lr=1e100, batch_size=32, max_epoch=20, seed=0))


def test_net_reconstructor_surface():
    X, spectrum, split = _toy_setup(h=1)
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=1)
    params = init_params(config, 4, 2, seed=0)
    rec = NetReconstructor(params, spectrum, [1, 3])
    pred = rec.predict_panel(X, 10, 15)
    assert pred.shape == (2, 5)
    with pytest.raises(InvalidInputError, match="lag columns"):
        rec.predict_panel(X, 0, 5)
    # the lag depth comes from the params
    deep = init_params(ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=2), 4, 2)
    assert deep.h == 2
    rec = NetReconstructor(deep, spectrum, [1, 3])
    with pytest.raises(InvalidInputError, match="needs 2 lag columns"):
        rec.predict_panel(X, 1, 5)
    assert rec.predict_panel(X, 2, 5).shape == (2, 3)


def test_score_sensors_mse_and_zero_variance():
    X, spectrum, _ = _toy_setup()
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    params = init_params(config, 4, 4, seed=2)
    val_ts = np.arange(200, 230)
    scores = score_sensors(params, X, val_ts, Workspace(spectrum), measure="mse")
    assert scores.measure == "mse"
    assert list(np.argsort(scores.scores, kind="stable")) == scores.ranking

    r2 = score_sensors(params, X, val_ts, Workspace(spectrum), measure="r2")
    assert np.all(r2.scores <= 1.0)
    assert list(np.argsort(-r2.scores, kind="stable")) == r2.ranking

    flat = X.copy()
    flat[2, val_ts] = 7.0
    with pytest.warns(UserWarning, match="index 2"):
        fallback = score_sensors(params, flat, val_ts, Workspace(spectrum), measure="r2")
    assert fallback.measure == "mse"
    mse = score_sensors(params, flat, val_ts, Workspace(spectrum), measure="mse")
    assert np.array_equal(fallback.scores, mse.scores)
    with pytest.raises(InvalidInputError, match="measure"):
        score_sensors(params, X, val_ts, Workspace(spectrum), measure="mae")


def test_dropout_checks_the_measure_before_training(monkeypatch):
    # "mae" used to be refused by the scoring pass, after every epoch ran
    X, spectrum, split = _toy_setup()
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    epochs = []
    monkeypatch.setattr(selection, "run_epochs", lambda *a, **k: epochs.append(a))
    with pytest.raises(InvalidInputError, match="measure must be one of"):
        train_selection_dropout(X, split, Workspace(spectrum), 1, config, TrainConfig(),
                                measure="mae")
    assert epochs == []


def test_write_scores_csv(tmp_path):
    # rank 1 is the first sensor turned off, the one rebuilt best while
    # hidden: the highest R^2 or the lowest MSE
    X, spectrum, _ = _toy_setup()
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    params = init_params(config, 4, 4, seed=2)
    for measure in ("r2", "mse"):
        scores = score_sensors(params, X, np.arange(200, 230), Workspace(spectrum),
                               measure)
        path = tmp_path / f"{measure}.csv"
        write_scores_csv(scores, ["a", "b", "c", "d"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sensor_id,score,rank"
        rows = sorted((int(rank), float(score), sid)
                      for sid, score, rank in (line.split(",") for line in lines[1:]))
        assert [rank for rank, _, _ in rows] == [1, 2, 3, 4]
        by_rank = [score for _, score, _ in rows]
        assert by_rank == sorted(by_rank, reverse=measure == "r2")
        assert len(set(by_rank)) == 4  # the direction is not a tie
        assert rows[0][2] == "abcd"[scores.ranking[0]]


def test_dropout_selection_counts_degenerate_draws():
    # with two sensors and q = 1/2, half of all mask draws are degenerate
    X, spectrum, split = _toy_setup(n=2)
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    tc = TrainConfig(lr=0.01, batch_size=25, max_epoch=5, seed=0)
    scores, result, diagnostics = train_selection_dropout(
        X, split, Workspace(spectrum), 1, config, tc)
    assert diagnostics["resampled"] > 0
    assert result.order == scores.ranking[:1]
    assert scores.measure == "r2"
    assert len(scores.scores) == 2


def test_dropout_selection_follows_the_early_stop_rule():
    X, spectrum, split = _toy_setup()
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    tc = TrainConfig(lr=0.05, batch_size=25, max_epoch=40, seed=0)
    _, _, diagnostics = train_selection_dropout(X, split, Workspace(spectrum), 1, config, tc)
    val_losses = diagnostics["val_losses"]
    # the rule is checked every five epochs; it first fires at epoch 25
    assert len(val_losses) == 25
    assert [e for e in range(1, 26)
            if _early_stop("five-epoch-mean", val_losses[:e])] == [25]
    # a run capped before the stop makes the same epochs
    short = TrainConfig(lr=0.05, batch_size=25, max_epoch=24, seed=0)
    _, _, diagnostics = train_selection_dropout(X, split, Workspace(spectrum), 1, config, short)
    assert diagnostics["val_losses"] == val_losses[:24]


def test_dropout_selection_validation():
    X, spectrum, split = _toy_setup()
    good = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    tc = TrainConfig(max_epoch=1)
    with pytest.raises(InvalidInputError, match="p="):
        train_selection_dropout(X, split, Workspace(spectrum), 4, good, tc)


def test_dropout_selection_falls_back_to_mse_on_a_constant_sensor():
    # r2 is undefined for a sensor with no variance on the validation rows
    X, spectrum, split = _toy_setup()
    X[1, split.t_tv:split.t0] = 0.3
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    tc = TrainConfig(lr=0.01, batch_size=25, max_epoch=2, seed=0)
    with pytest.warns(UserWarning, match="sensor index 1 .*falling back to mse"):
        scores, result, _ = train_selection_dropout(X, split, Workspace(spectrum), 1, config, tc)
    assert scores.measure == "mse"
    assert result.order == scores.ranking[:1]
    assert list(np.argsort(scores.scores, kind="stable")) == scores.ranking


def test_masking_selection_shapes_and_validation():
    X, spectrum, split = _toy_setup()
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    tc = TrainConfig(lr=0.01, batch_size=32, max_epoch=2, seed=0)
    with pytest.warns(UserWarning, match="below eps0"):
        result, mask_path = train_selection_masking(
            X, split, Workspace(spectrum), 1, [0.01, 0.02], 1e-6, config, tc)
    assert mask_path.shape == (2, 4)
    assert np.all(mask_path >= 0.0)
    assert np.all(mask_path <= 1.0)
    assert len(result.order) == len(result.step_values) == 1

    with pytest.raises(InvalidInputError, match="ascending"):
        train_selection_masking(X, split, Workspace(spectrum), 1, [0.2, 0.1], 0.01, config, tc)
    with pytest.raises(InvalidInputError, match="ascending"):
        train_selection_masking(X, split, Workspace(spectrum), 1, [], 0.01, config, tc)
    for grid in ([0.1, float("nan")], [0.1, float("inf")]):
        with pytest.raises(InvalidInputError, match="finite"):
            train_selection_masking(X, split, Workspace(spectrum), 1, grid, 0.01, config, tc)
    # a negative penalty pushes every weight up to 1, so none collapses
    with pytest.raises(InvalidInputError, match="nonnegative"):
        train_selection_masking(X, split, Workspace(spectrum), 1, [-0.1, 0.1], 0.01, config, tc)
    for eps0 in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError,
                           match="eps0 must be a finite number > 0"):
            train_selection_masking(X, split, Workspace(spectrum), 1, [0.1], eps0, config, tc)


def test_masking_is_deterministic_given_seed():
    X, spectrum, split = _toy_setup()
    config = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=0)
    tc = TrainConfig(lr=0.02, batch_size=32, max_epoch=2, seed=7)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, path_a = train_selection_masking(X, split, Workspace(spectrum), 1, [0.05, 0.1],
                                            0.01, config, tc)
        _, path_b = train_selection_masking(X, split, Workspace(spectrum), 1, [0.05, 0.1],
                                            0.01, config, tc)
    assert np.array_equal(path_a, path_b)


# Recorded on the toy panel below (numpy float64); each training net must
# reproduce them exactly, so a change to the shared training loop that
# alters the order of the random stream or of the floating-point
# operations shows here.
FROZEN_PREDICTION_VAL_LOSSES = [
    1.731777371187768, 1.158075398604687, 0.9796549194585008,
    0.9422445052569411, 0.9429667695816062, 0.962205963620402]
FROZEN_DROPOUT_SCORES = [
    -0.029829119137570803, 0.19739740438581554, -0.22861310454117678,
    -0.20113389236266843]
FROZEN_DROPOUT_RESAMPLED = 82
FROZEN_DROPOUT_VAL_LOSSES = [
    2.0227062359789922, 1.801775643557145, 1.7743559279695023,
    1.8143028399104852, 1.7478065909878098, 1.7424747630013548,
    1.757736979115421, 1.7783131475464062, 1.7253031623498984,
    1.7538066918548316, 1.7545823512734593, 1.7444189793834766,
    1.7379550126170138, 1.7297911249987812, 1.7357819018885468,
    1.7409648269276035, 1.7659486754358966, 1.7619828292988786,
    1.7235154210865382, 1.7316549946458986]
FROZEN_MASK_PATH = [
    [0.6989782361762668, 0.6947810691807788, 0.6922557390826738,
     0.6880523138760545],
    [0.6973585994855918, 0.6908739507221745, 0.6895300157627867,
     0.6831573630260144]]


def test_training_nets_are_frozen():
    X, spectrum, split = _toy_setup()
    pred_net = ChebNetConfig(cheb_order=2, f_out=2, fc_sizes=(8,), h=1)
    _, val_losses = train_prediction_net(
        X, split, Workspace(spectrum), [2], pred_net,
        TrainConfig(lr=0.01, batch_size=32, max_epoch=20, seed=0))
    assert np.array_equal(val_losses, FROZEN_PREDICTION_VAL_LOSSES)  # stops at 6

    sel_net = ChebNetConfig(cheb_order=1, f_out=2, fc_sizes=(4,), h=1)
    scores, _, diagnostics = train_selection_dropout(
        X, split, Workspace(spectrum), 1, sel_net,
        TrainConfig(lr=0.05, batch_size=25, max_epoch=40, seed=0))
    assert np.array_equal(scores.scores, FROZEN_DROPOUT_SCORES)
    assert diagnostics["resampled"] == FROZEN_DROPOUT_RESAMPLED
    assert np.array_equal(diagnostics["val_losses"],
                          FROZEN_DROPOUT_VAL_LOSSES)  # stops at 20

    with pytest.warns(UserWarning, match="below eps0"):
        _, mask_path = train_selection_masking(
            X, split, Workspace(spectrum), 1, [0.01, 0.1], 0.01, sel_net,
            TrainConfig(lr=0.01, batch_size=32, max_epoch=3, seed=0))
    assert np.array_equal(mask_path, FROZEN_MASK_PATH)


def test_each_run_builds_its_table_once_and_each_block_once(monkeypatch):
    # the Chebyshev table and the block inputs are fixed for a run, so
    # no trainer rebuilds them per step
    X, spectrum, split = _toy_setup()
    net = ChebNetConfig(cheb_order=2, f_out=2, fc_sizes=(4,), h=1)
    tc = TrainConfig(lr=0.01, batch_size=32, max_epoch=3, seed=0)
    calls = {"cheb_values": 0, "lag_windows": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(layers, "cheb_values", counted("cheb_values", layers.cheb_values))
    lag = counted("lag_windows", train.lag_windows)
    monkeypatch.setattr(train, "lag_windows", lag)
    monkeypatch.setattr(selection, "lag_windows", lag)

    def run(trainer, *args, **kwargs):
        for name in calls:
            calls[name] = 0
        trainer(*args, **kwargs)
        return dict(calls)

    n_train = len(batch_blocks(0, split.t_tv, net.h, tc.batch_size))  # 7
    n_val = len(batch_blocks(split.t_tv, split.t0, net.h, tc.batch_size))  # 1
    # training blocks and the one validation block
    assert run(train_prediction_net, X, split, Workspace(spectrum), [2], net, tc) == {
        "cheb_values": 1, "lag_windows": n_train + 1}
    # training and validation blocks, then the scoring pass, which runs
    # on the training workspace and its table
    assert run(train_selection_dropout, X, split, Workspace(spectrum), 1, net, tc) == {
        "cheb_values": 1, "lag_windows": n_train + n_val + 1}
    # one table and one set of blocks for the whole lambda path
    with pytest.warns(UserWarning, match="below eps0"):
        assert run(train_selection_masking, X, split, Workspace(spectrum), 1, [0.01, 0.1, 0.2],
                   0.01, net, tc) == {"cheb_values": 1, "lag_windows": n_train}


def test_workspace_builds_its_spectrums_table_once_per_order():
    # a workspace owns its run's spectrum, so the order alone keys the table
    spectrum = sym_eig(np.diag(np.linspace(-1.0, 1.0, 5)))
    workspace = Workspace(spectrum)
    table = workspace.cheb_table(3)
    assert np.array_equal(table, cheb_values(spectrum.values, 3))
    assert workspace.cheb_table(3) is table
    assert np.array_equal(workspace.cheb_table(4), cheb_values(spectrum.values, 4))
    assert workspace.cheb_table(3) is table
