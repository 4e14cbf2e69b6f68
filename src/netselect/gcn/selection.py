"""Selection networks: dropout scoring and mask-with-l1 (Lasso path).

Both transforms give the net_config architecture the N sensors of X as
its nodes and as its outputs, and pick 1 <= p < N of them. The dropout
variant knocks sensors out at random and scores how well each sensor is
predicted when missing; the masking variant learns a continuous input
mask under an l1 penalty and ranks sensors by how early their mask
weight collapses along an ascending lambda grid.
"""

import math
import warnings
from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import InvalidInputError
from ..select_linear import SelectionResult
from ..timeseries import Split, _check_size, lag_windows, write_csv
from .layers import ChebNetConfig, Workspace, forward_batch, init_params
from .train import (
    TrainConfig,
    batch_blocks,
    batch_loss,
    make_optimizer,
    run_epochs,
)

MEASURES = ("r2", "mse")


@dataclass
class SensorScores:
    scores: np.ndarray   # per sensor
    measure: str         # "r2" or "mse"
    ranking: List[int]   # descending score for r2, ascending for mse


def write_scores_csv(scores: SensorScores, sensor_ids, path):
    """CSV sensor_id,score,rank with rank 1 at the top of the ranking."""
    rank_of = {i: k + 1 for k, i in enumerate(scores.ranking)}
    write_csv(path, ["sensor_id", "score", "rank"],
              ([sid, float(scores.scores[i]), rank_of[i]]
               for i, sid in enumerate(sensor_ids)))


def _check_measure(measure):
    if measure not in MEASURES:
        raise InvalidInputError(f"measure must be one of {MEASURES}, got {measure!r}")


def score_sensors(params, spectrum, X, val_ts, workspace: Workspace,
                  measure="r2") -> SensorScores:
    """Per-sensor score of the trained network on validation rows.

    Predictions use the full input (no dropout, no rescaling). R^2 per
    sensor is 1 - sum (x - x_hat)^2 / sum (x - x_bar)^2 with x_bar the
    validation mean; a zero-variance sensor leaves it undefined, so the
    scores fall back to mse with a warning naming that sensor.
    """
    _check_measure(measure)
    X = np.asarray(X, dtype=float)
    val_ts = np.asarray(val_ts, dtype=int)
    pred = forward_batch(lag_windows(X, val_ts, params.h), params, spectrum, workspace)
    actual = X[:, val_ts].T
    resid_sq = ((actual - pred) ** 2).sum(axis=0)  # per sensor
    if measure == "r2":
        centered = ((actual - actual.mean(axis=0)) ** 2).sum(axis=0)
        if np.any(centered == 0):
            bad = int(np.nonzero(centered == 0)[0][0])
            warnings.warn(f"sensor index {bad} has zero variance on validation "
                          f"rows; falling back to mse scoring")
            measure = "mse"
    if measure == "mse":
        scores = resid_sq / val_ts.size
        ranking = list(np.argsort(scores, kind="stable"))
    else:
        scores = 1.0 - resid_sq / centered
        ranking = list(np.argsort(-scores, kind="stable"))
    return SensorScores(scores, measure, [int(i) for i in ranking])


def _own_value_blocks(X, split: Split, h, batch_size):
    """The training blocks of a net that predicts every sensor from its
    lag windows, built once for the whole run: (inputs, targets) with
    the targets the inputs' lag-0 channel, a view rather than a copy."""
    return [(Xb, Xb[:, :, 0]) for Xb in (lag_windows(X, ts, h)
            for ts in batch_blocks(0, split.t_tv, h, batch_size))]


def train_selection_dropout(X, split: Split, spectrum, p, net_config: ChebNetConfig,
                            train_config: TrainConfig, measure="r2"):
    """Dropout selection: train with random sensor knockouts, rank by score.

    The net's nodes and outputs are the N sensors of X. Per batch a
    Bernoulli vector w with zero-probability q = p/N masks the input; the
    loss counts only dropped sensors (factor 1 - w), and degenerate draws
    (all zeros or all ones) are resampled. The net trains by plain
    gradient descent and stops early by the "five-epoch-mean" rule;
    validation masks are drawn once, so the trace is deterministic.

    Scoring uses the full input. Returns (scores, result, diagnostics).
    """
    _check_measure(measure)
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    _check_size(n, p)
    q = p / n
    h = net_config.h

    rng = np.random.default_rng(train_config.seed)
    params = init_params(net_config, n, n, seed=train_config.seed)
    opt = make_optimizer("gd", train_config.lr)
    workspace = Workspace()

    def draw_mask():
        resampled = 0
        while True:
            w = (rng.random(n) >= q).astype(float)
            if 0.0 < w.sum() < n:
                return w, resampled
            resampled += 1

    # the validation masks are fixed, so their blocks hold the masked input
    train_blocks = _own_value_blocks(X, split, h, train_config.batch_size)
    val_block_ts = batch_blocks(split.t_tv, split.t0, h, train_config.batch_size)
    val_masks = [draw_mask()[0] for _ in val_block_ts]
    val_blocks = [(lag_windows(X, ts, h) * w[None, :, None], X[:, ts].T,
                   (1.0 - w)[None, :]) for ts, w in zip(val_block_ts, val_masks)]
    val_ts = np.concatenate(val_block_ts)

    resample_count = 0

    def step(block):
        nonlocal resample_count
        Xb, target = block
        w, extra = draw_mask()
        resample_count += extra
        _, grads, _, _ = batch_loss(Xb * w[None, :, None], target, (1.0 - w)[None, :],
                                    params, spectrum, workspace)
        opt.step([params.vector], [grads.vector])

    def val_loss():
        vl = 0.0
        for Xb, target, weight in val_blocks:
            resid = forward_batch(Xb, params, spectrum, workspace) - target
            vl += float(np.sum(weight * resid ** 2))
        return vl / val_ts.size

    val_losses = run_epochs(rng, train_blocks, train_config.max_epoch, step,
                            val_loss, "five-epoch-mean")

    scores = score_sensors(params, spectrum, X, val_ts, workspace, measure)

    order = scores.ranking[:p]
    result = SelectionResult(order, [float(scores.scores[i]) for i in order])
    diagnostics = {"resampled": resample_count, "val_losses": val_losses}
    return scores, result, diagnostics


def mask_gradients(Xb, target, w, lam, params, spectrum, workspace: Workspace):
    """Gradients of the masking rule's loss on one batch.

    The loss is sum_t sum_i (1 - w_i)^2 (x_it - x_hat_it)^2 / B plus
    lam ||w||_1, where x_hat is the net's output on the masked input
    Xb * w and the B rows of target are the x_t. Returns (grads, dw):
    the parameter gradients and the gradient in the mask w, whose l1
    part is lam sign(w). A non-finite data loss raises
    TrainingDivergedError. The pass runs on workspace.
    """
    _, grads, resid, dXb = batch_loss(Xb * w[None, :, None], target,
                                      ((1.0 - w) ** 2)[None, :], params, spectrum,
                                      workspace, want_input_grad=True)
    # the input path, the (1-w)^2 loss factor, and l1
    dw = (dXb * Xb).sum(axis=(0, 2))
    dw += -2.0 * (1.0 - w) * (resid ** 2).sum(axis=0) / target.shape[0]
    dw += lam * np.sign(w)
    return grads, dw


def _train_mask(blocks, lam, spectrum, n, net_config, train_config, workspace):
    """One grid point of the masking rule: a fresh net and mask trained
    jointly; returns the final mask. The net and its optimizer are freed
    on return, before the next point builds its own."""
    params = init_params(net_config, n, n, seed=train_config.seed)
    w = np.full(n, 0.5)
    opt = make_optimizer("adam", train_config.lr)

    # lam is finite (the caller checks) and w stays in [0, 1], so the l1
    # term is finite and batch_loss checking the data loss alone catches
    # divergence
    def step(block):
        grads, dw = mask_gradients(*block, w, lam, params, spectrum, workspace)
        opt.step([params.vector, w], [grads.vector, dw])
        np.clip(w, 0.0, 1.0, out=w)

    run_epochs(np.random.default_rng(train_config.seed), blocks,
               train_config.max_epoch, step)
    return w


def train_selection_masking(X, split: Split, spectrum, p, lam_grid, eps0,
                            net_config: ChebNetConfig, train_config: TrainConfig):
    """Masking selection: l1-penalized trainable input mask, Lasso path.

    For each lambda in the ascending, nonnegative grid a net with the N
    sensors of X as nodes and outputs and a mask w (init 0.5) are trained
    jointly with Adam for the full max_epoch, from a fresh init and batch
    order; after every optimizer step w is projected onto [0, 1]. The
    per-batch loss is mean_t sum_i (1 - w_i)^2 (x_it - x_hat_it)^2 plus
    lambda ||w||_1. F_i counts the grid points whose final mask weight
    falls below eps0; sensors are ranked by descending F_i with ties (and
    the no-collapse fallback) broken by the final weight at the largest
    lambda.

    Returns (result, mask_path) with mask_path of shape (len(grid), N).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    _check_size(n, p)
    lam_grid = [float(l) for l in lam_grid]
    if (not lam_grid or not all(math.isfinite(l) and l >= 0 for l in lam_grid)
            or any(b < a for a, b in zip(lam_grid, lam_grid[1:]))):
        raise InvalidInputError(
            "lambda grid must be nonempty, finite, nonnegative and ascending")
    if not (math.isfinite(eps0) and eps0 > 0):
        raise InvalidInputError(f"eps0 must be a finite number > 0, got {eps0}")
    h = net_config.h

    train_blocks = _own_value_blocks(X, split, h, train_config.batch_size)
    mask_path = np.empty((len(lam_grid), n))
    workspace = Workspace()  # shared by the grid's runs, which run in turn
    for gi, lam in enumerate(lam_grid):
        mask_path[gi] = _train_mask(train_blocks, lam, spectrum, n, net_config,
                                    train_config, workspace)

    final_at_top = mask_path[-1]
    F = (mask_path < eps0).sum(axis=0)
    if int((F > 0).sum()) < p:
        warnings.warn(
            f"only {int((F > 0).sum())} sensors were driven below eps0={eps0} "
            f"along the lambda path; ranking the rest by final mask weight"
        )
    ranking = sorted(range(n), key=lambda i: (-F[i], final_at_top[i], i))
    order = ranking[:p]
    result = SelectionResult(order, [float(F[i]) for i in order])
    return result, mask_path
