"""Panel ingestion, cleaning, weekly detrending, and covariance blocks.

Raw station records (station, moment, bikes, spaces) are cleaned by the
correction-rate rule, normalized by station capacity, and linearly
interpolated onto a common hourly grid. Panels are detrended by a weekly
profile fit on training rows and scaled to unit residual deviation.
Second moments are uncentered throughout: the detrended series is
treated as zero-mean.
"""

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List, Tuple

import numpy as np

from .errors import (
    IntervalError,
    InvalidInputError,
    LagError,
    PartitionError,
    ZeroScaleError,
)

WEEK_HOURS = 168
HOUR = 3600
# epoch seconds of 0001-01-01T00:00:00 and 9999-12-31T23:59:59 UTC
MIN_MOMENT = -62135596800
MAX_MOMENT = 253402300799


@dataclass(frozen=True)
class PanelSeries:
    sensor_ids: List[str]
    timestamps: np.ndarray  # epoch seconds, strictly hourly
    values: np.ndarray      # (n, T)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise InvalidInputError(f"values must be 2-D, got shape {vals.shape}")
        if len(self.sensor_ids) != vals.shape[0]:
            raise InvalidInputError("sensor_ids and values disagree on sensor count")
        if ts.shape[0] != vals.shape[1]:
            raise InvalidInputError("timestamps and values disagree on length")
        if ts.shape[0] >= 2 and not np.all(np.diff(ts) == HOUR):
            raise InvalidInputError("timestamps must increase in exact 1-hour steps")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("panel contains non-finite values")
        dups = sorted(s for s, k in Counter(self.sensor_ids).items() if k > 1)
        if dups:
            raise InvalidInputError(f"duplicate sensor ids {dups[:5]}")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def t_total(self):
        return self.values.shape[1]

    def with_values(self, values):
        return PanelSeries(self.sensor_ids, self.timestamps, values)


@dataclass(frozen=True)
class Split:
    t_tv: int  # end of training rows (exclusive)
    t0: int    # end of validation rows
    t1: int    # end of test rows = panel length

    def __post_init__(self):
        if not (0 < self.t_tv < self.t0 < self.t1):
            raise InvalidInputError(
                f"split must satisfy 0 < t_tv < t0 < t1, got "
                f"({self.t_tv}, {self.t0}, {self.t1})"
            )


def make_split(t_total, val_frac=0.05, test_frac=0.15) -> Split:
    """Chronological split with the given validation/test fractions."""
    t0 = t_total - int(round(test_frac * t_total))
    t_tv = t0 - int(round(val_frac * t_total))
    return Split(t_tv, t0, t_total)


@dataclass(frozen=True)
class PreprocessModel:
    profile: np.ndarray  # (n, 168) weekly trend per sensor
    scale: np.ndarray    # (n,) residual standard deviations, all positive


def _parse_moment(text, where):
    """Epoch seconds of a moment in years 1 to 9999, the range
    _format_stamp writes."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise InvalidInputError(f"{where}: unparseable moment {text!r}")
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        value = dt.timestamp()
    if not math.isfinite(value):
        raise InvalidInputError(f"{where}: non-finite moment {text!r}")
    if not MIN_MOMENT <= value <= MAX_MOMENT:
        raise InvalidInputError(f"{where}: moment {text!r} outside years 1 to 9999")
    return value


def read_raw_records(path) -> Dict[str, List[Tuple[float, float, float]]]:
    """Read raw records CSV station,moment,bikes,spaces.

    Moments may be epoch seconds or ISO-8601 timestamps (naive = UTC);
    moments, bikes and spaces must be finite. Returns a dict station ->
    list of (moment, bikes, spaces) sorted by moment.
    """
    out: Dict[str, List[Tuple[float, float, float]]] = {}
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


def clean_stations(records, r_c, min_records=100):
    """Keep stations whose capacity correction rate exceeds r_c.

    For each station, max_bikes = max(bikes + spaces) and the correction
    rate is the fraction of records where bikes + spaces equals that
    maximum. A station is kept iff rate > r_c (strict) and it has at
    least min_records records and positive capacity.

    Returns a list of (station, max_bikes) sorted by station id.
    """
    if not (0 < r_c <= 1):
        raise InvalidInputError(f"r_c must be in (0, 1], got {r_c}")
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


def interpolate_hourly(records, kept) -> PanelSeries:
    """Interpolate kept stations onto a common hourly grid.

    The grid spans from the 0.995 quantile of per-station start moments
    to the 0.005 quantile of per-station end moments, so nearly every
    station covers the whole interval; one that does not is held flat
    past its first or last record, with a warning. Values are
    bikes / max_bikes, linearly interpolated and clamped to [0, 1].
    """
    if not kept:
        raise IntervalError("no stations to interpolate")
    starts = np.array([records[s][0][0] for s, _ in kept])
    ends = np.array([records[s][-1][0] for s, _ in kept])
    start_q = float(np.quantile(starts, 0.995))
    end_q = float(np.quantile(ends, 0.005))
    t_first = int(np.ceil(start_q / HOUR)) * HOUR
    t_last = int(np.floor(end_q / HOUR)) * HOUR
    if t_last < t_first:
        raise IntervalError(
            f"empty common interval: grid start {t_first} after end {t_last}"
        )
    stamps = np.arange(t_first, t_last + HOUR, HOUR, dtype=np.int64)

    ids = []
    rows = []
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
        series = np.interp(stamps.astype(float), moments, levels)
        rows.append(np.clip(series, 0.0, 1.0))
        ids.append(station)
    if not rows:
        raise IntervalError("no station had enough records to interpolate")
    return PanelSeries(ids, stamps, np.vstack(rows))


def fit_weekly_profile(panel: PanelSeries, split: Split) -> PreprocessModel:
    """Weekly profile and residual scale from training rows only.

    P_i(m) is the mean of x_i over training columns whose index is
    congruent to m mod 168; scale_i is the standard deviation of the
    detrended training residuals.
    """
    if split.t_tv < WEEK_HOURS:
        raise InvalidInputError(
            f"need at least {WEEK_HOURS} training rows, got {split.t_tv}"
        )
    X = panel.values[:, : split.t_tv]
    slots = np.arange(split.t_tv) % WEEK_HOURS
    profile = np.empty((panel.n, WEEK_HOURS))
    for m in range(WEEK_HOURS):
        profile[:, m] = X[:, slots == m].mean(axis=1)
    residual = X - profile[:, slots]
    scale = residual.std(axis=1)
    if np.any(scale <= 0):
        bad = int(np.nonzero(scale <= 0)[0][0])
        raise ZeroScaleError(
            f"sensor {panel.sensor_ids[bad]!r} (index {bad}) has zero "
            f"residual variance on training rows"
        )
    return PreprocessModel(profile, scale)


def apply_preprocess(panel: PanelSeries, model: PreprocessModel) -> PanelSeries:
    slots = np.arange(panel.t_total) % WEEK_HOURS
    values = (panel.values - model.profile[:, slots]) / model.scale[:, None]
    return panel.with_values(values)


def autocovariance(X, l):
    """Uncentered sample autocovariance Gamma(l) = (1/T) sum_t x_t x_{t-l}^T."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError(f"X must be (n, T), got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("X contains non-finite values")
    T = X.shape[1]
    if not (0 <= l < T):
        raise LagError(f"lag {l} outside [0, {T - 1}]")
    G = X[:, l:] @ X[:, : T - l].T / T
    if l == 0:
        G = (G + G.T) / 2.0
    return G


def estimate_blocks(X, H) -> List[np.ndarray]:
    """Covariance and autocovariances [Gamma(0), ..., Gamma(H)] of a data
    matrix, in the block layout of assemble_blocks."""
    return [autocovariance(X, l) for l in range(H + 1)]


def _check_partition(n, I):
    I = [int(i) for i in I]
    off = set(I)
    if len(off) != len(I):
        raise PartitionError(f"turned-off set has duplicates: {I}")
    if any(i < 0 or i >= n for i in I):
        raise PartitionError(f"turned-off set {I} outside range(0, {n})")
    Ic = [j for j in range(n) if j not in off]
    return I, Ic


def lag_stack(blocks, rows, cols, H):
    """The lag-stacked layout of assemble_blocks for any rows and cols:
    alpha over cols, beta from rows to cols."""
    if H + 1 > len(blocks):
        raise LagError(f"need lags 0..{H}, only {len(blocks)} available")
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


def lag_windows(X, ts, H):
    """Lag windows (B, n, H+1) of the columns ts of X: [:, :, l] is
    X[:, t - l], zero where t - l < 0.

    The windows are a C-ordered (n, B, H+1) array seen through a
    transpose, and a sum over them (the masking rule's per-sensor sum
    over batch and lags) runs in that memory order.
    """
    lags = np.asarray(ts, dtype=int)[:, None] - np.arange(H + 1)  # (B, H+1)
    cols = np.take(X, lags, axis=1)
    cols[:, lags < 0] = 0.0
    return cols.transpose(1, 0, 2)


def assemble_blocks(blocks, I, H):
    """Lag-stacked Gram matrices for the turned-off set I.

    blocks holds G(0..H), or more lags, with G(-l) = G(l)^T: the data
    autocovariances Gamma(l) and the kernel Gram blocks K(l) share this
    convention. alpha is the (H+1)|I^c| square matrix with block (r, c)
    equal to G_{I^c}(c - r); beta is the |I| x (H+1)|I^c| matrix whose
    c-th block is G_{I I^c}(c). With I empty, alpha is the full
    lag-stacked matrix.
    """
    I, Ic = _check_partition(blocks[0].shape[0], I)
    return lag_stack(blocks, I, Ic, H)


def _format_stamp(epoch):
    # isoformat pads years below 1000 to four digits, as fromisoformat reads them
    dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    return dt.replace(tzinfo=None).isoformat()


def write_csv(path, header, rows):
    """Write a CSV table: a header row, then rows; fields that hold a
    comma, quote or newline are quoted, and floats are written with
    .17g so a read-write cycle is lossless. Every table the commands
    write goes through here."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v
                          for v in row] for row in rows)


def write_panel(panel: PanelSeries, path):
    """Write a panel CSV: first column timestamp (ISO-8601 hour), one
    column per sensor id."""
    write_csv(path, ["timestamp"] + list(panel.sensor_ids),
              ([_format_stamp(stamp)] + panel.values[:, t].tolist()
               for t, stamp in enumerate(panel.timestamps)))


def read_panel(path) -> PanelSeries:
    """Read a panel CSV written by write_panel (or equivalent)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip() != "timestamp":
            raise InvalidInputError(f"{path}: line 1: first column must be 'timestamp'")
        ids = [h.strip() for h in header[1:]]
        if not ids:
            raise InvalidInputError(f"{path}: line 1: no sensor columns")
        stamps = []
        cols = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(ids) + 1:
                raise InvalidInputError(
                    f"{path}: line {lineno}: expected {len(ids) + 1} fields"
                )
            stamps.append(int(_parse_moment(row[0], f"{path}: line {lineno}")))
            try:
                cols.append([float(v) for v in row[1:]])
            except ValueError:
                raise InvalidInputError(f"{path}: line {lineno}: non-numeric value")
        if not stamps:
            raise InvalidInputError(f"{path}: no data rows")
    values = np.asarray(cols, dtype=float).T
    return PanelSeries(ids, np.asarray(stamps, dtype=np.int64), values)
