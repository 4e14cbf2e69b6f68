"""Reference computations of the paper's identities, used only by tests.

The library computes what the pipeline runs: the greedy steps, which
score every candidate from one inverse, and the fitted reconstructors,
each lag-stacked Gram by timeseries.assemble_blocks of a turned-off set.
The reference builder lag_stack, which stacks any rows against any
columns, the set criteria, the training error they equal, the greedy
that solves each candidate's system on its own, the kernel greedy step
that reads each candidate from the step inverse with its own solve, the
conjugate-gradient solve and the single-sample network loss live here,
so the tests can check the pipeline against them. So do the plain
forms of what the network layers compute faster: the activations as
np.where branches and an Adam step that allocates its moments and
temporaries afresh, the lag windows by np.take, and the ingest layer
as it was written before it went columnar: a row loop that keeps every
record as a tuple, and a panel writer that formats one field at a time.
"""

import csv
import math
import warnings

import numpy as np

from netselect.gcn.layers import Workspace, backward_batch, forward_batch, tensor_items
from netselect.gcn.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from netselect.errors import InvalidInputError
from netselect.numerics import solve_spd
from netselect.select_kernel import kernel_reconstructor
from netselect.timeseries import (
    HOUR,
    PanelSeries,
    _format_stamp,
    _parse_moment,
    assemble_blocks,
    lag_positions,
    write_csv,
)


def lag_stack(blocks, rows, cols, H):
    """timeseries.assemble_blocks' layout for any rows and cols: alpha
    over cols, beta from rows to cols, both in the given orders. The
    reference builder, which the pipeline does not use."""
    if H < 0:
        raise InvalidInputError(f"lag depth H must be >= 0, got {H}")
    if H + 1 > len(blocks):
        raise InvalidInputError(f"need lags 0..{H}, only {len(blocks)} available")
    cols = np.asarray(cols, dtype=int)
    ix = np.ix_(cols, cols)
    sub = [blocks[l][ix] for l in range(H + 1)]
    q = cols.shape[0]
    alpha = np.empty(((H + 1) * q, (H + 1) * q))
    for r in range(H + 1):
        for c in range(H + 1):
            alpha[r * q:(r + 1) * q, c * q:(c + 1) * q] = (
                sub[c - r] if c >= r else sub[r - c].T
            )
    rx = np.ix_(np.asarray(rows, dtype=int), cols)
    beta = np.concatenate([blocks[c][rx] for c in range(H + 1)], axis=1)
    return alpha, beta


def criterion_linear(gammas, I, H):
    """tr(Sigma_I - beta alpha^{-1} beta^T) for the turned-off set I.

    gammas holds Gamma(0..H). At H = 0 this is
    tr(Sigma_I - Sigma_II^c Sigma_I^c^{-1} Sigma_I^cI); on a singleton
    I = [i] it is the partial variance sigma^2_{i|I^c}.
    """
    alpha, beta = assemble_blocks(gammas, I, H)
    explained = beta @ solve_spd(alpha, beta.T)
    return float(np.trace(gammas[0][np.ix_(I, I)]) - np.trace(explained))


def criterion_kernel(gammas, kb, I, lam, H):
    """tr(Sigma_I - 2 beta Theta^T + Theta alpha Theta^T).

    alpha and beta are the data Gram blocks for I from Gamma(0..H) in
    gammas; Theta is the kernel ridge reconstructor from the kernel Gram
    blocks kb.
    """
    alpha, beta = assemble_blocks(gammas, I, H)
    K_S, K_cross = assemble_blocks(kb, I, H)
    theta = kernel_reconstructor(K_cross, K_S, lam)
    return float(
        np.trace(gammas[0][np.ix_(I, I)])
        - 2.0 * np.trace(beta @ theta.T)
        + np.trace(theta @ alpha @ theta.T)
    )


def greedy_per_candidate(n, p, value):
    """Backward greedy that scores each candidate on its own.

    At each of p steps, value(i, S) scores every remaining sensor i
    against the others S, and the smallest score moves i to the
    turned-off set; ties go to the lowest index. Returns (order,
    step_values).
    """
    remaining = list(range(n))
    order, step_values = [], []
    for _ in range(p):
        vals = [value(i, [j for j in remaining if j != i]) for i in remaining]
        k = min(range(len(vals)), key=vals.__getitem__)
        order.append(remaining.pop(k))
        step_values.append(vals[k])
    return order, step_values


def linear_value(gammas, H):
    """value(i, S) = Gamma_ii(0) - beta alpha^{-1} beta^T of [i] on S."""

    def value(i, S):
        alpha, beta = lag_stack(gammas, [i], S, H)
        b = beta[0]
        return float(gammas[0][i, i] - b @ solve_spd(alpha, b))

    return value


def kernel_value(gammas, kb, lam, H):
    """value(i, S) of the kernel ridge criterion of [i] on S: the data
    Gram blocks from gammas, Theta_lambda(i) from the kernel blocks kb."""

    def value(i, S):
        alpha, beta = lag_stack(gammas, [i], S, H)
        K_S, K_cross = lag_stack(kb, [i], S, H)
        th = kernel_reconstructor(K_cross, K_S, lam).ravel()
        return float(gammas[0][i, i] - 2.0 * (beta[0] @ th) + th @ alpha @ th)

    return value


def kernel_step_score(gammas, H):
    """greedy_select_kernel's score(T, Q) with one solve_spd per
    candidate: Theta_lambda(i) is the lag-0 row of -Q_JJ^{-1} Q_J,: with
    its J entries set to 0, for Q the inverse of K_R + lambda Id over the
    sensors R outside the turned-off set T."""

    def score(T, Q):
        R = [j for j in range(gammas[0].shape[0]) if j not in T]
        q = len(R)
        positions = lag_positions(q, H)
        theta = np.empty((q, Q.shape[0]))
        for k, J in enumerate(positions):
            theta[k] = -solve_spd(Q[np.ix_(J, J)], Q[J])[0]
            theta[k, J] = 0.0
        M_R = lag_stack(gammas, [], R, H)[0]
        vals = (np.diag(M_R)[:q] - 2.0 * np.sum(M_R[:q] * theta, axis=1)
                + np.sum((theta @ M_R) * theta, axis=1))
        return [float(v) for v in vals]

    return score


def lagged_design(X, rows, H):
    """Zero-padded lag-stacked design of the given rows of X.

    Returns a ((H+1)|rows|, T+H) matrix whose lag-l row block is X[rows]
    shifted right by l with zeros at both ends. Its Gram matrix,
    normalized by 1/T, equals assemble_blocks exactly, which is what
    makes the trace criteria coincide with training mean squared error.
    """
    X = np.asarray(X, dtype=float)
    rows = np.asarray(rows, dtype=int)
    T = X.shape[1]
    q = rows.shape[0]
    D = np.zeros(((H + 1) * q, T + H))
    for l in range(H + 1):
        D[l * q:(l + 1) * q, l:l + T] = X[rows, :]
    return D


def lag_windows_by_take(X, ts, H):
    """timeseries.lag_windows as np.take gathers them, which first copies
    a panel that is not C-ordered whole."""
    lags = np.asarray(ts, dtype=int)[:, None] - np.arange(H + 1)
    cols = np.take(X, lags, axis=1)
    cols[:, lags < 0] = 0.0
    return cols.transpose(1, 0, 2)


def training_mse(rec, X_train):
    """Mean squared training error of a LinearReconstructor.

    The sum runs over T+H zero-padded columns and is divided by T, which
    makes it equal to the trace criterion exactly.
    """
    X_train = np.asarray(X_train, dtype=float)
    T = X_train.shape[1]
    D = lagged_design(X_train, rec.kept, rec.H)
    target = np.zeros((len(rec.turned_off), T + rec.H))
    target[:, :T] = X_train[rec.turned_off, :]
    resid = target - rec.theta @ D
    return float(np.sum(resid ** 2) / T)


def conjugate_gradient(A, b, tol=1e-8):
    """Textbook conjugate gradient for A x = b with A symmetric positive
    definite; stops when ||r||_2 <= tol ||b||_2 and asserts that it did
    within 10 n iterations."""
    b = np.asarray(b, dtype=float)
    b_norm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for _ in range(10 * b.size):
        if np.sqrt(rs) <= tol * b_norm:
            return x
        Ap = A @ p
        alpha = rs / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    assert np.sqrt(rs) <= tol * b_norm, "conjugate gradient did not converge"
    return x


def net_backward(x_input, target, params, spectrum):
    """Loss sum_j (out_j - target_j)^2 of one sample, with its parameter
    gradients. Returns (loss, grads)."""
    Xb = np.asarray(x_input, dtype=float)[None]
    workspace = Workspace(spectrum)
    out, cache = forward_batch(Xb, params, workspace, want_cache=True)
    resid = out - np.asarray(target, dtype=float)[None]
    grads, _ = backward_batch(2.0 * resid, cache, params, workspace)
    return float(np.sum(resid ** 2)), grads


def central_differences(loss, params, eps=1e-6):
    """Central-difference gradient of loss() in every parameter entry.

    Each entry of params is moved by +-eps in place and restored. Returns
    one array per tensor_items(params) entry, in that order.
    """
    grads = []
    for _, tensor in tensor_items(params):
        num = np.empty_like(tensor)
        for idx in np.ndindex(tensor.shape):
            old = tensor[idx]
            tensor[idx] = old + eps
            hi = loss()
            tensor[idx] = old - eps
            lo = loss()
            tensor[idx] = old
            num[idx] = (hi - lo) / (2.0 * eps)
        grads.append(num)
    return grads


def elu_where(x):
    """exp(x) - 1 for x < 0, identity otherwise."""
    return np.where(x < 0, np.expm1(x), x)


def elu_grad_where(x):
    return np.where(x < 0, np.exp(x), 1.0)


def leaky_relu_where(x, alpha):
    """alpha * x for x < 0, identity otherwise."""
    return np.where(x < 0, alpha * x, x)


class AdamAllocating:
    """Adam written as array expressions: every step builds new moment
    arrays and temporaries. The library's step must match it bit for
    bit."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None

    def step(self, tensors, grads):
        if self.m is None:
            self.m = [np.zeros_like(t) for t in tensors]
            self.v = [np.zeros_like(t) for t in tensors]
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for k, (t, g) in enumerate(zip(tensors, grads)):
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / (1 - b1 ** self.t)
            v_hat = self.v[k] / (1 - b2 ** self.t)
            t -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def read_raw_records_by_row(path):
    """read_raw_records as a row loop: a dict station -> list of
    (moment, bikes, spaces) tuples sorted by moment, each row checked as
    it is read."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["station", "moment", "bikes", "spaces"]
        if header is None or [h.strip() for h in header] != expected:
            raise InvalidInputError(
                f"{path}: line 1: expected header 'station,moment,bikes,spaces'"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise InvalidInputError(f"{path}: line {lineno}: expected 4 fields")
            where = f"{path}: line {lineno}"
            moment = _parse_moment(row[1], where)
            try:
                bikes = float(row[2])
                spaces = float(row[3])
            except ValueError:
                raise InvalidInputError(f"{where}: non-numeric bikes/spaces")
            if not (math.isfinite(bikes) and math.isfinite(spaces)):
                raise InvalidInputError(f"{where}: non-finite bikes/spaces")
            out.setdefault(row[0], []).append((moment, bikes, spaces))
    for recs in out.values():
        recs.sort(key=lambda r: r[0])
    return out


def clean_stations_by_row(records, r_c, min_records=100):
    """clean_stations over lists of record tuples."""
    kept = []
    for station in sorted(records):
        recs = records[station]
        if not recs:
            continue
        totals = np.array([b + s for (_, b, s) in recs], dtype=float)
        max_bikes = float(totals.max())
        if max_bikes <= 0:
            continue
        rate = float(np.mean(totals == max_bikes))
        if rate > r_c and len(recs) >= min_records:
            kept.append((station, max_bikes))
    return kept


def interpolate_hourly_by_row(records, kept):
    """interpolate_hourly over lists of record tuples, rebuilding each
    station's columns from its tuples."""
    if not kept:
        raise InvalidInputError("no stations to interpolate")
    starts = np.array([records[s][0][0] for s, _ in kept])
    ends = np.array([records[s][-1][0] for s, _ in kept])
    t_first = int(np.ceil(float(np.quantile(starts, 0.995)) / HOUR)) * HOUR
    t_last = int(np.floor(float(np.quantile(ends, 0.005)) / HOUR)) * HOUR
    if t_last < t_first:
        raise InvalidInputError(
            f"empty common interval: grid start {t_first} after end {t_last}"
        )
    stamps = np.arange(t_first, t_last + HOUR, HOUR, dtype=np.int64)
    ids, rows = [], []
    for station, max_bikes in kept:
        recs = records[station]
        if len(recs) < 2:
            warnings.warn(f"station {station} has fewer than 2 records, dropped")
            continue
        moments = np.array([m for (m, _, _) in recs])
        outside = int((stamps < moments[0]).sum() + (stamps > moments[-1]).sum())
        if outside:
            warnings.warn(f"station {station} has no records for {outside} "
                          f"grid hours, flat-extrapolated")
        levels = np.array([b for (_, b, _) in recs]) / max_bikes
        rows.append(np.clip(np.interp(stamps.astype(float), moments, levels), 0.0, 1.0))
        ids.append(station)
    if not rows:
        raise InvalidInputError("no station had enough records to interpolate")
    return PanelSeries(ids, stamps, np.vstack(rows))


def write_panel_by_field(panel, path):
    """write_panel with every field of every row through csv.writer."""
    write_csv(path, ["timestamp"] + list(panel.sensor_ids),
              ([_format_stamp(stamp)] + panel.values[:, t].tolist()
               for t, stamp in enumerate(panel.timestamps)))
