"""Training loops for the reconstruction network.

Batches are contiguous chronological blocks whose order is reshuffled
every epoch from the run seed, so runs are deterministic given the seed.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import InvalidInputError, TrainingDivergedError
from ..numerics import EigenPair
from ..timeseries import Split
from .layers import (
    ChebNetConfig,
    ChebNetParams,
    backward_batch,
    forward_batch,
    init_params,
    tensor_items,
)

OPTIMIZERS = ("adam", "gd")
EARLY_STOP_RULES = ("none", "two-epoch-mean", "five-epoch-mean")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    lr: float = 0.001
    batch_size: int = 50
    max_epoch: int = 50
    early_stop: str = "two-epoch-mean"
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise InvalidInputError(f"optimizer must be one of {OPTIMIZERS}")
        if self.lr <= 0:
            raise InvalidInputError("lr must be positive")
        if self.batch_size < 1 or self.max_epoch < 1:
            raise InvalidInputError("batch_size and max_epoch must be >= 1")
        if self.early_stop not in EARLY_STOP_RULES:
            raise InvalidInputError(f"early_stop must be one of {EARLY_STOP_RULES}")


class _GD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, tensors, grads):
        for t, g in zip(tensors, grads):
            t -= self.lr * g


class _Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, tensors, grads):
        if self.m is None:
            self.m = [np.zeros_like(t) for t in tensors]
            self.v = [np.zeros_like(t) for t in tensors]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, (t, g) in enumerate(zip(tensors, grads)):
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / (1 - b1 ** self.t)
            v_hat = self.v[k] / (1 - b2 ** self.t)
            t -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(cfg: TrainConfig):
    return _Adam(cfg.lr) if cfg.optimizer == "adam" else _GD(cfg.lr)


def window_tensor(X, ts, h):
    """Lag windows (B, n, h+1) with [:, :, l] = X[:, t - l]; needs min(ts) >= h."""
    cols = np.stack([X[:, ts - l] for l in range(h + 1)], axis=2)  # (n, B, h+1)
    return cols.transpose(1, 0, 2)


def batch_blocks(t_lo, t_hi, h, batch_size):
    """Contiguous chronological target blocks within [max(t_lo, h), t_hi)."""
    ts = np.arange(max(t_lo, h), t_hi)
    if ts.size == 0:
        raise InvalidInputError(f"no usable targets in [{t_lo}, {t_hi}) at lag {h}")
    return [ts[k:k + batch_size] for k in range(0, ts.size, batch_size)]


def _param_tensors(params: ChebNetParams):
    return [a for _, a in tensor_items(params)]


def _check_finite(loss):
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"training loss became non-finite ({loss})")


def _early_stop(rule, val_losses):
    """Whether the early-stopping rule fires after the latest epoch.

    "two-epoch-mean": the mean of the current and previous validation
    losses exceeds the previous such mean. "five-epoch-mean": at the end
    of every 5 epochs, the mean of the last 5 validation losses exceeds
    the mean of the block of 5 before. "none" never fires.
    """
    e = len(val_losses)
    if rule == "two-epoch-mean" and e >= 3:
        cur = (val_losses[-1] + val_losses[-2]) / 2.0
        prev = (val_losses[-2] + val_losses[-3]) / 2.0
        return cur > prev
    if rule == "five-epoch-mean" and e >= 10 and e % 5 == 0:
        return float(np.mean(val_losses[-5:])) > float(np.mean(val_losses[-10:-5]))
    return False


def train_prediction_net(X, split: Split, spectrum, I, net_config: ChebNetConfig,
                         train_config: TrainConfig):
    """Train the reconstruction network for the turned-off set I.

    X is the preprocessed (n, T) panel matrix and spectrum the EigenPair
    of the rescaled Laplacian. Inputs are lag windows with zeros inserted
    at the rows of I; targets are x_{I,t}. Validation loss is tracked per
    epoch and training stops early by the rule train_config.early_stop.

    Returns (params, val_losses).
    """
    X = np.asarray(X, dtype=float)
    I = [int(i) for i in I]
    if not I:
        raise InvalidInputError("turned-off set must be nonempty")
    if net_config.out_dim != len(I):
        raise InvalidInputError(
            f"out_dim {net_config.out_dim} must equal |I| = {len(I)}"
        )
    h = net_config.h
    X_masked = X.copy()
    X_masked[I, :] = 0.0

    rng = np.random.default_rng(train_config.seed)
    params = init_params(net_config, seed=train_config.seed)
    opt = make_optimizer(train_config)

    train_blocks = batch_blocks(0, split.t_tv, h, train_config.batch_size)
    val_ts = np.concatenate(batch_blocks(split.t_tv, split.t0, h, split.t0 - split.t_tv))
    val_in = window_tensor(X_masked, val_ts, h)
    val_target = X[np.ix_(I, val_ts)].T

    val_losses: List[float] = []
    for _ in range(train_config.max_epoch):
        for bi in rng.permutation(len(train_blocks)):
            ts = train_blocks[bi]
            Xb = window_tensor(X_masked, ts, h)
            target = X[np.ix_(I, ts)].T
            out, cache = forward_batch(Xb, params, net_config, spectrum,
                                       want_cache=True)
            resid = out - target
            loss = float(np.sum(resid ** 2) / ts.size)
            _check_finite(loss)
            grads, _ = backward_batch(2.0 * resid / ts.size, cache, params,
                                      net_config, spectrum)
            opt.step(_param_tensors(params), _param_tensors(grads))

        val_out = forward_batch(val_in, params, net_config, spectrum)
        val_loss = float(np.sum((val_out - val_target) ** 2) / val_ts.size)
        _check_finite(val_loss)
        val_losses.append(val_loss)
        if _early_stop(train_config.early_stop, val_losses):
            break
    return params, val_losses


@dataclass
class NetReconstructor:
    """Trained network wrapped as a panel reconstructor for the set I.

    Matches the linear reconstructor surface: predict_panel zeroes the
    turned-off rows of the input and returns predictions of shape
    (|I|, t_end - t_start).
    """

    params: object
    config: ChebNetConfig
    spectrum: EigenPair
    turned_off: List[int]

    @property
    def kept(self):
        off = set(self.turned_off)
        return [i for i in range(self.config.n) if i not in off]

    @property
    def H(self):
        return self.config.h

    def predict_panel(self, X, t_start, t_end):
        X = np.asarray(X, dtype=float)
        X_masked = X.copy()
        X_masked[self.turned_off, :] = 0.0
        ts = np.arange(t_start, t_end)
        if ts.size and ts[0] < self.config.h:
            raise InvalidInputError(
                f"prediction needs {self.config.h} lag columns before t_start"
            )
        out = forward_batch(window_tensor(X_masked, ts, self.config.h),
                            self.params, self.config, self.spectrum)
        return out.T
