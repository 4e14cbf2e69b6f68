"""The training loop that the prediction, dropout and mask nets share.

Batches are contiguous chronological blocks whose order is reshuffled
every epoch from the run seed, so runs are deterministic given the seed.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import InvalidInputError, TrainingDivergedError
from ..numerics import EigenPair
from ..timeseries import Split, _check_subset, lag_windows
from .layers import (
    ChebNetConfig,
    ChebNetParams,
    Workspace,
    _check_int,
    backward_batch,
    forward_batch,
    init_params,
)

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 50
    max_epoch: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidInputError(f"lr must be a finite number > 0, got {self.lr}")
        for name, lo in (("batch_size", 1), ("max_epoch", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), lo)


class _GD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, tensors, grads):
        for t, g in zip(tensors, grads):
            t -= self.lr * g


class _Adam:
    """Adam with its moments updated in place and its temporaries taken
    from two scratch arrays per tensor, so only the first step
    allocates. The trainers hand in a net as the one vector its tensors
    are views of, and the mask rule its mask as a second tensor."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None

    def step(self, tensors, grads):
        if self.m is None:
            self.m = [np.zeros_like(t) for t in tensors]
            self.v = [np.zeros_like(t) for t in tensors]
            self._scratch = [(np.empty_like(t), np.empty_like(t)) for t in tensors]
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for t, g, m, v, (s, r) in zip(tensors, grads, self.m, self.v, self._scratch):
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.multiply(1 - b2, g, out=s)
            s *= g
            v += s
            # t -= lr m_hat / (sqrt(v_hat) + eps)
            np.divide(m, 1 - b1 ** self.t, out=s)
            s *= self.lr
            np.divide(v, 1 - b2 ** self.t, out=r)
            np.sqrt(r, out=r)
            r += ADAM_EPS
            s /= r
            t -= s


def make_optimizer(kind, lr):
    """Adam for kind "adam", plain gradient descent for "gd"."""
    return _Adam(lr) if kind == "adam" else _GD(lr)


def batch_blocks(t_lo, t_hi, h, batch_size):
    """Contiguous chronological target blocks within [max(t_lo, h), t_hi)."""
    ts = np.arange(max(t_lo, h), t_hi)
    if ts.size == 0:
        raise InvalidInputError(f"no usable targets in [{t_lo}, {t_hi}) at lag {h}")
    return [ts[k:k + batch_size] for k in range(0, ts.size, batch_size)]


def _check_finite(loss):
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"training loss became non-finite ({loss})")


def _early_stop(rule, val_losses):
    """Whether the early-stopping rule fires after the latest epoch.

    "two-epoch-mean": the mean of the current and previous validation
    losses exceeds the previous such mean. "five-epoch-mean": at the end
    of every 5 epochs, the mean of the last 5 validation losses exceeds
    the mean of the block of 5 before.
    """
    e = len(val_losses)
    if rule == "two-epoch-mean" and e >= 3:
        cur = (val_losses[-1] + val_losses[-2]) / 2.0
        prev = (val_losses[-2] + val_losses[-3]) / 2.0
        return cur > prev
    if rule == "five-epoch-mean" and e >= 10 and e % 5 == 0:
        return float(np.mean(val_losses[-5:])) > float(np.mean(val_losses[-10:-5]))
    return False


def batch_loss(Xb, target, weight, params, workspace: Workspace, want_input_grad=False):
    """Weighted squared-error loss of one batch and its gradients.

    The loss is sum(weight * (out - target)^2) / B for the B rows of the
    batch, with weight broadcast against the (B, out_dim) residual; a
    non-finite loss raises TrainingDivergedError. Returns
    (loss, grads, resid, dXb), dXb being None unless want_input_grad.
    The layers keep their intermediates, the gradients and dXb in
    workspace.
    """
    out, cache = forward_batch(Xb, params, workspace, want_cache=True)
    resid = out - target
    B = target.shape[0]
    loss = float(np.sum(weight * resid ** 2) / B)
    _check_finite(loss)
    grads, dXb = backward_batch(2.0 * weight * resid / B, cache, params, workspace,
                                want_input_grad=want_input_grad)
    return loss, grads, resid, dXb


def run_epochs(rng, blocks, max_epoch, step, val_loss=None, rule=None):
    """Up to max_epoch passes of step(block) over the batch blocks.

    Each pass visits the blocks in a fresh order drawn from rng. When
    val_loss is given, it is called after every pass and checked to be
    finite, and training stops once the early-stopping rule fires.
    Returns the validation losses, one per pass made (none without
    val_loss).
    """
    val_losses: List[float] = []
    for _ in range(max_epoch):
        for bi in rng.permutation(len(blocks)):
            step(blocks[bi])
        if val_loss is not None:
            loss = val_loss()
            _check_finite(loss)
            val_losses.append(loss)
            if _early_stop(rule, val_losses):
                break
    return val_losses


def _masked_windows(X, ts, h, I):
    """lag_windows(X, ts, h) with the turned-off sensors I reading zero."""
    Xb = lag_windows(X, ts, h)
    Xb[:, I, :] = 0.0
    return Xb


def train_prediction_net(X, split: Split, workspace: Workspace, I,
                         net_config: ChebNetConfig, train_config: TrainConfig):
    """Train the reconstruction network for the turned-off set I.

    X is the preprocessed (n, T) panel matrix, workspace the run's
    Workspace, which holds the spectrum of the rescaled Laplacian, and I
    a nonempty proper subset of range(n); the net_config architecture
    gets n nodes and |I| outputs. Inputs are lag windows with zeros
    inserted at the rows of I; targets are x_{I,t}. The net trains with
    Adam; the validation loss is tracked per epoch and training stops
    early by the "two-epoch-mean" rule. Nets trained one after another
    share one workspace, whose buffers then serve every net of the same
    shape.

    Returns (params, val_losses).
    """
    X = np.asarray(X, dtype=float)
    I, _ = _check_subset(X.shape[0], I)
    h = net_config.h

    rng = np.random.default_rng(train_config.seed)
    params = init_params(net_config, X.shape[0], len(I), seed=train_config.seed)
    opt = make_optimizer("adam", train_config.lr)

    # each block's inputs and targets, built once for every epoch
    train_blocks = [(_masked_windows(X, ts, h, I), X[np.ix_(I, ts)].T)
                    for ts in batch_blocks(0, split.t_tv, h, train_config.batch_size)]
    val_ts = np.concatenate(batch_blocks(split.t_tv, split.t0, h, split.t0 - split.t_tv))
    val_in = _masked_windows(X, val_ts, h, I)
    val_target = X[np.ix_(I, val_ts)].T

    def step(block):
        Xb, target = block
        _, grads, _, _ = batch_loss(Xb, target, 1.0, params, workspace)
        opt.step([params.vector], [grads.vector])

    def val_loss():
        val_out = forward_batch(val_in, params, workspace)
        return float(np.sum((val_out - val_target) ** 2) / val_ts.size)

    val_losses = run_epochs(rng, train_blocks, train_config.max_epoch, step,
                            val_loss, "two-epoch-mean")
    return params, val_losses


@dataclass
class NetReconstructor:
    """Trained network wrapped as a panel reconstructor for the set I.

    Matches the linear reconstructor surface: predict_panel zeroes the
    turned-off rows of the input and returns predictions of shape
    (|I|, t_end - t_start). Each call runs on a workspace of its own, so
    no test-sized buffer outlives it under the nets trained after.
    """

    params: ChebNetParams
    spectrum: EigenPair
    turned_off: List[int]

    def predict_panel(self, X, t_start, t_end):
        ts = np.arange(t_start, t_end)
        h = self.params.h
        if ts.size and ts[0] < h:
            raise InvalidInputError(f"prediction needs {h} lag columns before t_start")
        out = forward_batch(_masked_windows(np.asarray(X, dtype=float), ts, h,
                                            self.turned_off),
                            self.params, Workspace(self.spectrum))
        return out.T
