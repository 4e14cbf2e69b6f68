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
from array import array
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List

import numpy as np

from .errors import InvalidInputError

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


VAL_PART = 0.05
TEST_PART = 0.15


def make_split(t_total) -> Split:
    """Chronological split: the last TEST_PART of the hours for test, the
    VAL_PART before them for validation, the rest for training."""
    t0 = t_total - int(round(TEST_PART * t_total))
    t_tv = t0 - int(round(VAL_PART * t_total))
    return Split(t_tv, t0, t_total)


def _iso_seconds(text):
    """Epoch seconds of an ISO-8601 moment, naive meaning UTC; ValueError
    when text is not one."""
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _parse_moment(text, where):
    """Epoch seconds of a moment in years 1 to 9999, the range
    _format_stamp writes."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        try:
            value = _iso_seconds(text)
        except ValueError:
            raise InvalidInputError(f"{where}: unparseable moment {text!r}")
    if not math.isfinite(value):
        raise InvalidInputError(f"{where}: non-finite moment {text!r}")
    if not MIN_MOMENT <= value <= MAX_MOMENT:
        raise InvalidInputError(f"{where}: moment {text!r} outside years 1 to 9999")
    return value


def _raw_rows(fh, path):
    """The csv_rows of a raw records file past its checked header."""
    rows = csv_rows(fh, path)
    if [h.strip() for h in next(rows)[1]] != ["station", "moment", "bikes", "spaces"]:
        raise InvalidInputError(
            f"{path}: line 1: expected header 'station,moment,bikes,spaces'"
        )
    return rows


def _raise_first_bad_record(path):
    """Re-read a raw records file row by row and raise the error of its
    first bad record. read_raw_records checks whole columns at once, so
    it calls this, once it knows some record is bad, to name the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        for line, row in _raw_rows(fh, path):
            where = f"{path}: line {line}"
            _parse_moment(row[1], where)
            float_fields(row[2:], "bikes/spaces", where)
    raise InvalidInputError(f"{path}: a record failed to read but none is bad on re-reading")


def read_raw_records(path) -> Dict[str, np.ndarray]:
    """Read raw records CSV station,moment,bikes,spaces.

    Moments may be epoch seconds or ISO-8601 timestamps (naive = UTC)
    in years 1 to 9999; bikes and spaces must be finite. A bad record
    raises InvalidInputError naming the first bad line. Returns a dict
    station -> (k, 3) array of its k records (moment, bikes, spaces)
    sorted by moment, records with equal moments in file order; the
    stations come in order of first appearance.
    """
    codes: Dict[str, int] = {}  # station -> code, in order of first appearance
    code = array("q")
    moment, bikes, spaces = array("d"), array("d"), array("d")
    add_code, add_moment = code.append, moment.append
    add_bikes, add_spaces = bikes.append, spaces.append
    with open(path, newline="", encoding="utf-8") as fh:
        _raw_rows(fh, path)  # checks the header
        try:
            # a bare reader: numbering each row would cost time on every record
            for row in csv.reader(fh):
                if not row:
                    continue
                station, m, b, s = row
                c = codes.get(station)
                if c is None:
                    c = codes[station] = len(codes)
                try:
                    t = float(m)
                except ValueError:
                    t = _iso_seconds(m.strip())
                add_moment(t)
                add_bikes(float(b))
                add_spaces(float(s))
                add_code(c)
        except (ValueError, csv.Error):
            _raise_first_bad_record(path)
    code = np.frombuffer(code, dtype=np.int64)
    moment, bikes, spaces = (np.frombuffer(a) for a in (moment, bikes, spaces))
    # NaN fails both comparisons
    if not (np.all((moment >= MIN_MOMENT) & (moment <= MAX_MOMENT))
            and np.all(np.isfinite(bikes)) and np.all(np.isfinite(spaces))):
        _raise_first_bad_record(path)
    order = np.lexsort((moment, code))
    # each column sorted straight into a contiguous table row: a sorted copy
    # beside the table set ingest's peak (take's default mode makes one)
    table = np.empty((3, order.size))
    for row, column in zip(table, (moment, bikes, spaces)):
        np.take(column, order, out=row, mode="clip")
    ends = np.cumsum(np.bincount(code))
    return dict(zip(codes, np.split(table.T, ends[:-1])))


def clean_stations(records, r_c, min_records=100):
    """Keep stations whose capacity correction rate exceeds r_c.

    records maps each station to its (k, 3) array, as read_raw_records
    returns them. For each station, max_bikes = max(bikes + spaces) and
    the correction rate is the fraction of records where bikes + spaces
    equals that maximum. A station is kept iff rate > r_c (strict) and
    it has at least min_records records and positive capacity.

    Returns a list of (station, max_bikes) sorted by station id.
    """
    if not (0 < r_c < 1):
        raise InvalidInputError(f"r_c must be in (0, 1), got {r_c}")
    kept = []
    for station in sorted(records):
        recs = records[station]
        if not len(recs):
            continue
        totals = recs[:, 1] + recs[:, 2]
        max_bikes = float(totals.max())
        if max_bikes <= 0:
            continue
        rate = float(np.mean(totals == max_bikes))
        if rate > r_c and len(recs) >= min_records:
            kept.append((station, max_bikes))
    return kept


def interpolate_hourly(records, kept) -> PanelSeries:
    """Interpolate kept stations of records, as clean_stations takes
    them, onto a common hourly grid.

    The grid spans from the 0.995 quantile of per-station start moments
    to the 0.005 quantile of per-station end moments, so nearly every
    station covers the whole interval; one that does not is held flat
    past its first or last record, with a warning. Values are
    bikes / max_bikes, linearly interpolated and clamped to [0, 1].
    """
    if not kept:
        raise InvalidInputError("no stations to interpolate")
    arrays = [records[s] for s, _ in kept]
    start_q = float(np.quantile([recs[0, 0] for recs in arrays], 0.995))
    end_q = float(np.quantile([recs[-1, 0] for recs in arrays], 0.005))
    t_first = int(np.ceil(start_q / HOUR)) * HOUR
    t_last = int(np.floor(end_q / HOUR)) * HOUR
    if t_last < t_first:
        raise InvalidInputError(
            f"empty common interval: grid start {t_first} after end {t_last}"
        )
    stamps = np.arange(t_first, t_last + HOUR, HOUR, dtype=np.int64)
    grid = stamps.astype(float)

    ids = []
    rows = []
    for (station, max_bikes), recs in zip(kept, arrays):
        if len(recs) < 2:
            warnings.warn(f"station {station} has fewer than 2 records, dropped")
            continue
        moments = recs[:, 0]
        outside = int((stamps < moments[0]).sum() + (stamps > moments[-1]).sum())
        if outside:
            warnings.warn(f"station {station} has no records for {outside} "
                          f"grid hours, flat-extrapolated")
        series = np.interp(grid, moments, recs[:, 1] / max_bikes)
        rows.append(np.clip(series, 0.0, 1.0))
        ids.append(station)
    if not rows:
        raise InvalidInputError("no station had enough records to interpolate")
    return PanelSeries(ids, stamps, np.vstack(rows))


def standardize(panel: PanelSeries, split: Split) -> np.ndarray:
    """The (n, T) panel values minus a weekly profile, over a residual
    scale, both fitted on training rows only.

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
        raise InvalidInputError(
            f"sensor {panel.sensor_ids[bad]!r} (index {bad}) has zero "
            f"residual variance on training rows"
        )
    slots = np.arange(panel.t_total) % WEEK_HOURS
    return (panel.values - profile[:, slots]) / scale[:, None]


def autocovariance(X, l):
    """Uncentered sample autocovariance Gamma(l) = (1/T) sum_t x_t x_{t-l}^T."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError(f"X must be (n, T), got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("X contains non-finite values")
    T = X.shape[1]
    if not (0 <= l < T):
        raise InvalidInputError(f"lag {l} outside [0, {T - 1}]")
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
        raise InvalidInputError(f"turned-off set has duplicates: {I}")
    if any(i < 0 or i >= n for i in I):
        raise InvalidInputError(f"turned-off set {I} outside range(0, {n})")
    Ic = [j for j in range(n) if j not in off]
    return I, Ic


def _check_subset(n, I):
    """_check_partition of a turned-off set I that is nonempty and proper."""
    I, Ic = _check_partition(n, I)
    if not I or not Ic:
        raise InvalidInputError("I must be a nonempty proper subset")
    return I, Ic


def _check_size(n, p):
    """The size p of a selection from n sensors must be in [1, n)."""
    if not (1 <= p < n):
        raise InvalidInputError(f"need 1 <= p < {n}, got p={p}")


def lag_stack(blocks, rows, cols, H):
    """The lag-stacked layout of assemble_blocks for any rows and cols:
    alpha over cols, beta from rows to cols."""
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


def lag_positions(q, H):
    """(q, H+1) array whose row k holds the positions of sensor k in
    lag_stack's layout of q sensors, lag 0 first."""
    return np.arange(q)[:, None] + q * np.arange(H + 1)


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


def csv_rows(fh, path):
    """(line, fields) of the header of an open CSV file, [] if it is
    empty, then of each record past it but blank ones. A record's line is
    the file line it starts on; blank lines and lines inside a quoted
    newline count. A record with other than the header's number of
    fields, or one that csv cannot parse (a field over
    csv.field_size_limit(), say), raises InvalidInputError naming its
    line, as does a line that is not UTF-8. Every line number an input
    CSV's errors name comes from here."""
    reader = csv.reader(fh)
    line = 1
    try:
        header = next(reader, [])
        yield line, header
        line = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise InvalidInputError(
                        f"{path}: line {line}: expected {len(header)} fields")
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise InvalidInputError(f"{path}: line {line}: {exc}") from None
    except UnicodeDecodeError:
        raise InvalidInputError(
            f"{path}: line {_undecodable_line(path)}: not UTF-8 text") from None


def _undecodable_line(path):
    """The number of the first line of a file that is not UTF-8, read
    from its bytes: the text layer decodes ahead of the line csv reads."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    # only valid UTF-8 comes back unchanged from decoding with replacement
    return next((number for number, line in enumerate(lines, start=1)
                 if line.decode("utf-8", "replace").encode("utf-8") != line), 1)


def float_fields(fields, what, where, finite=True):
    """The fields as floats, finite unless finite is False; else an
    InvalidInputError at where, "non-numeric what" or "non-finite what"."""
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise InvalidInputError(f"{where}: non-numeric {what}") from None
    if finite and not all(map(math.isfinite, values)):
        raise InvalidInputError(f"{where}: non-finite {what}")
    return values


def write_csv(path, header, rows, row_format=None):
    """Write a CSV table: a header row, then rows; fields that hold a
    comma, quote or newline are quoted, and floats are written with
    .17g so a read-write cycle is lossless. Every table the commands
    write goes through here.

    Rows whose fields never need quoting may instead be written with one
    %-format each, row_format % tuple(row), which then holds the line end.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if row_format is not None:
            fh.writelines(row_format % tuple(row) for row in rows)
            return
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v
                          for v in row] for row in rows)


def write_panel(panel: PanelSeries, path):
    """Write a panel CSV: first column timestamp (ISO-8601 hour), one
    column per sensor id. The ids go through csv quoting; a timestamp
    or a .17g float never needs it, so each row is one %-format. Beside
    it goes the sidecar that read_panel reads, path + ".npz": the stamps,
    the (T, n) C-order values and the SHA-256 of the CSV's bytes."""
    write_csv(path, ["timestamp"] + list(panel.sensor_ids),
              ((_format_stamp(stamp), *values) for stamp, values in
               zip(panel.timestamps.tolist(), panel.values.T.tolist())),
              row_format="%s" + ",%.17g" * panel.n + "\n")
    np.savez(f"{path}.npz", stamps=panel.timestamps,
             values=np.ascontiguousarray(panel.values.T), sha256=_file_sha256(path))


def sha256_hex(chunks):
    """Hex SHA-256 of the bytes an iterable yields."""
    # imported here: hashlib loads OpenSSL, whose pages raise the peak
    # memory of ingest while its raw records are alive
    import hashlib
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _file_sha256(path):
    """Hex SHA-256 of a file's bytes, read 64 KiB at a time."""
    with open(path, "rb") as fh:
        return sha256_hex(iter(lambda: fh.read(1 << 16), b""))


def _parse_stamp(text, where):
    """Integer epoch seconds of a panel timestamp, which must be a whole
    second."""
    value = _parse_moment(text, where)
    if not value.is_integer():
        raise InvalidInputError(
            f"{where}: timestamp {text.strip()!r} is not a whole second")
    return int(value)


def _read_panel_rows(path):
    """read_panel one csv_rows record at a time; the source of every
    read_panel error."""
    lines, stamps, cols = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv_rows(fh, path)
        header = next(rows)[1]
        if not header or header[0].strip() != "timestamp":
            raise InvalidInputError(f"{path}: line 1: first column must be 'timestamp'")
        if len(header) < 2:
            raise InvalidInputError(f"{path}: line 1: no sensor columns")
        for line, row in rows:
            where = f"{path}: line {line}"
            stamps.append(_parse_stamp(row[0], where))
            cols.append(float_fields(row[1:], "value", where, finite=False))
            lines.append(line)
    if not stamps:
        raise InvalidInputError(f"{path}: no data rows")
    values = np.asarray(cols, dtype=float)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise InvalidInputError(
            f"{path}: line {lines[int(np.argmin(finite))]}: non-finite value")
    stamps = np.asarray(stamps, dtype=np.int64)
    off_step = np.nonzero(np.diff(stamps) != HOUR)[0]
    if off_step.size:
        raise InvalidInputError(f"{path}: line {lines[off_step[0] + 1]}: "
                                f"timestamp is not 1 hour after the one before")
    dups = sorted(s for s, k in Counter(header[1:]).items() if k > 1)
    if dups:
        raise InvalidInputError(f"{path}: line 1: duplicate sensor ids {dups[:5]}")
    return PanelSeries(header[1:], stamps, values.T)


def _read_sidecar(path, digest):
    """The panel of write_panel's sidecar to the CSV path, or None unless
    it loads without pickle, records digest, holds int64 stamps and
    C-order float64 values, and PanelSeries accepts them with the CSV
    header's ids."""
    try:
        with np.load(f"{path}.npz", allow_pickle=False) as sidecar:
            recorded, stamps, values = (sidecar[k] for k in ("sha256", "stamps", "values"))
        if (str(recorded) != digest or stamps.dtype != np.int64 or values.dtype != np.float64
                or not values.flags.c_contiguous or not values.size):
            return None
        with open(path, newline="", encoding="utf-8") as fh:
            ids = next(csv_rows(fh, path))[1][1:]
        return PanelSeries(ids, stamps, values.T)
    # a sidecar is only a copy: whatever keeps it from reading, the CSV is read
    except Exception:
        return None


def read_panel(path):
    """The panel of a CSV written by write_panel (or equivalent), and the
    SHA-256 of the CSV's bytes. It comes from write_panel's sidecar when
    that records the digest; else from the row loop, which reads values
    as float() does and names the line of the first bad record."""
    digest = _file_sha256(path)
    panel = _read_sidecar(path, digest)
    return (_read_panel_rows(path) if panel is None else panel), digest
