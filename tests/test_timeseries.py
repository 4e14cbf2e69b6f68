"""Ingestion, cleaning, weekly detrending, covariance blocks, panel IO."""

import csv
import hashlib
import re

import numpy as np
import pytest

from netselect import timeseries
from netselect.errors import InvalidInputError
from netselect.graph import read_coords
from netselect.timeseries import (
    HOUR,
    WEEK_HOURS,
    PanelSeries,
    Split,
    assemble_blocks,
    autocovariance,
    clean_stations,
    estimate_blocks,
    interpolate_hourly,
    lag_windows,
    make_split,
    read_panel,
    read_raw_records,
    standardize,
    write_csv,
    write_panel,
)
from oracles import lagged_design


def _panel(n=3, T=400, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, T))
    stamps = np.arange(T, dtype=np.int64) * HOUR
    return PanelSeries([f"s{i}" for i in range(n)], stamps, values)


def test_panel_series_validation():
    stamps = np.array([0, HOUR, 3 * HOUR])
    with pytest.raises(InvalidInputError, match="1-hour steps"):
        PanelSeries(["a"], stamps, np.zeros((1, 3)))
    with pytest.raises(InvalidInputError, match="non-finite"):
        PanelSeries(["a"], np.array([0, HOUR]), np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidInputError, match="sensor count"):
        PanelSeries(["a", "b"], np.array([0, HOUR]), np.zeros((1, 2)))
    with pytest.raises(InvalidInputError, match="2-D"):
        PanelSeries(["a"], np.array([0, HOUR]), np.zeros(2))
    with pytest.raises(InvalidInputError, match="length"):
        PanelSeries(["a"], np.array([0, HOUR]), np.zeros((1, 3)))
    with pytest.raises(InvalidInputError, match=r"duplicate sensor ids \['a'\]"):
        PanelSeries(["a", "b", "a"], np.array([0, HOUR]), np.zeros((3, 2)))


def test_split_validation_and_make_split():
    with pytest.raises(InvalidInputError, match="split"):
        Split(0, 5, 10)
    with pytest.raises(InvalidInputError, match="split"):
        Split(5, 5, 10)
    s = make_split(1000)
    assert (s.t_tv, s.t0, s.t1) == (800, 850, 1000)


def test_read_raw_records_parsing(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text(
        "station,moment,bikes,spaces\n"
        "a,7200,5,5\n"
        "a,2015-01-01T01:00:00,4,6\n"
        "b,0,2,8\n"
    )
    records = read_raw_records(path)
    assert set(records) == {"a", "b"}
    # rows are sorted by moment within each station
    assert records["a"][0][0] == 7200.0
    assert records["a"][1][1] == 4.0

    bad = tmp_path / "bad.csv"
    bad.write_text("station,when,bikes,spaces\n")
    with pytest.raises(InvalidInputError, match="line 1"):
        read_raw_records(bad)
    bad.write_text("station,moment,bikes,spaces\na,0,5\n")
    with pytest.raises(InvalidInputError, match="line 2"):
        read_raw_records(bad)
    bad.write_text("station,moment,bikes,spaces\na,noon,5,5\n")
    with pytest.raises(InvalidInputError, match="unparseable moment"):
        read_raw_records(bad)
    bad.write_text("station,moment,bikes,spaces\na,0,many,5\n")
    with pytest.raises(InvalidInputError, match="non-numeric"):
        read_raw_records(bad)
    # a station id or a header that is not UTF-8 raised UnicodeDecodeError
    for text, line in ((b"station,moment,bikes,spaces\na,0,5,5\n\xffb,0,5,5\n", 3),
                       (b"station\xff,moment,bikes,spaces\na,0,5,5\n", 1)):
        bad.write_bytes(text)
        with pytest.raises(InvalidInputError, match=f"line {line}: not UTF-8 text"):
            read_raw_records(bad)


@pytest.mark.parametrize("row, message", [
    ("a,nan,3,7", "non-finite moment 'nan'"),
    ("a,-inf,3,7", "non-finite moment '-inf'"),
    ("a,3600,nan,7", "non-finite bikes/spaces"),
    ("a,3600,3,inf", "non-finite bikes/spaces"),
    ("a,1e300,3,7", "moment '1e300' outside years 1 to 9999"),
    ("a,-62135596801,3,7", "moment '-62135596801' outside years 1 to 9999"),
    ("a,9999-12-31T23:00:00-01:00,3,7",
     "moment '9999-12-31T23:00:00-01:00' outside years 1 to 9999"),
])
def test_read_raw_records_rejects_non_finite_values(tmp_path, row, message):
    # a NaN moment breaks the sort by moment, a NaN count drops the
    # station from cleaning without a word, and a moment past year 9999
    # overflows the hourly grid
    path = tmp_path / "raw.csv"
    path.write_text(f"station,moment,bikes,spaces\na,0,5,5\n{row}\n")
    with pytest.raises(InvalidInputError, match=f"line 3: {message}"):
        read_raw_records(path)


def test_clean_stations_rules():
    # 200 records, capacity 10; "good" is always consistent, "half" is
    # consistent exactly half the time, "short" has too few records,
    # "empty" has zero capacity
    good = np.array([(float(t), 5.0, 5.0) for t in range(200)])
    half = np.array([(float(t), 5.0, 5.0 if t % 2 else 4.0) for t in range(200)])
    short = np.array([(float(t), 5.0, 5.0) for t in range(50)])
    empty = np.array([(float(t), 0.0, 0.0) for t in range(200)])
    records = {"good": good, "half": half, "short": short, "empty": empty}
    kept = clean_stations(records, r_c=0.5)
    assert kept == [("good", 10.0)]
    # strict inequality: rate 0.5 does not pass r_c = 0.5
    assert clean_stations({"half": half}, r_c=0.4) == [("half", 10.0)]
    with pytest.raises(InvalidInputError, match="r_c"):
        clean_stations(records, r_c=0.0)


def test_interpolate_hourly_grid_and_clamp():
    # capacity 10; bikes ramp 0 -> 20 so the normalized series hits the
    # upper clamp at 1
    recs = np.array([(0.0, 0.0, 10.0), (10 * HOUR, 20.0, 0.0)])
    records = {"a": recs, "b": recs}
    kept = [("a", 20.0), ("b", 20.0)]
    panel = interpolate_hourly(records, kept)
    assert panel.sensor_ids == ["a", "b"]
    assert panel.t_total == 11
    assert panel.values[0, 0] == pytest.approx(0.0)
    assert panel.values[0, 5] == pytest.approx(0.5)
    assert panel.values[0, 10] == pytest.approx(1.0)
    assert np.all(panel.values <= 1.0)
    with pytest.raises(InvalidInputError, match="no stations"):
        interpolate_hourly(records, [])


def test_interpolate_hourly_warns_on_flat_extrapolation():
    # 200 stations span hours 0..20; with them the grid quantiles land on
    # 0 and 20 h, so "late" (first record at 5 h) is held flat for hours
    # 0..4 and "early" (last record at 17 h) for hours 18..20
    full = np.array([(0.0, 5.0, 5.0), (20 * HOUR, 5.0, 5.0)])
    records = {f"s{k:03d}": full for k in range(200)}
    records["late"] = np.array([(5 * HOUR, 5.0, 5.0), (20 * HOUR, 5.0, 5.0)])
    records["early"] = np.array([(0.0, 5.0, 5.0), (17 * HOUR, 5.0, 5.0)])
    kept = [(s, 10.0) for s in sorted(records)]
    with pytest.warns(UserWarning) as caught:
        panel = interpolate_hourly(records, kept)
    assert panel.t_total == 21
    assert sorted(str(w.message) for w in caught) == [
        "station early has no records for 3 grid hours, flat-extrapolated",
        "station late has no records for 5 grid hours, flat-extrapolated",
    ]


def test_weekly_profile_round_trip():
    rng = np.random.default_rng(1)
    T = 2 * WEEK_HOURS + 50
    base = rng.normal(size=(2, WEEK_HOURS))
    slots = np.arange(T) % WEEK_HOURS
    values = base[:, slots] + 0.1 * rng.normal(size=(2, T))
    panel = PanelSeries(["a", "b"], np.arange(T, dtype=np.int64) * HOUR, values)
    split = Split(2 * WEEK_HOURS, 2 * WEEK_HOURS + 20, T)
    # the training columns are two whole weeks: the profile is the mean
    # of each hour-of-week slot over them, the scale the residual std
    train = values[:, : split.t_tv]
    profile = train.reshape(2, 2, WEEK_HOURS).mean(axis=1)
    scale = (train - np.tile(profile, 2)).std(axis=1)
    detrended = standardize(panel, split)
    restored = detrended * scale[:, None] + profile[:, slots]
    assert np.allclose(restored, panel.values, atol=1e-12)
    # training residuals have unit scale by construction
    resid = detrended[:, : split.t_tv]
    assert np.allclose(resid.std(axis=1), 1.0, atol=1e-10)


def test_weekly_profile_needs_a_week_and_variance():
    panel = _panel(T=400)
    with pytest.raises(InvalidInputError, match="training rows"):
        standardize(panel, Split(100, 200, 400))
    flat = panel.values.copy()
    flat[1, :] = 2.5
    constant = PanelSeries(panel.sensor_ids, panel.timestamps, flat)
    with pytest.raises(InvalidInputError, match="s1"):
        standardize(constant, Split(200, 300, 400))


def test_autocovariance_manual_and_lag_bounds():
    X = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])
    G1 = autocovariance(X, 1)
    assert np.allclose(G1, X[:, 1:] @ X[:, :-1].T / 3.0)
    G0 = autocovariance(X, 0)
    assert np.array_equal(G0, G0.T)
    with pytest.raises(InvalidInputError):
        autocovariance(X, 3)
    with pytest.raises(InvalidInputError):
        autocovariance(X, -1)
    with pytest.raises(InvalidInputError, match=r"\(n, T\)"):
        autocovariance(X[0], 0)
    for bad in (np.nan, np.inf):
        X[1, 2] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            autocovariance(X, 1)
        with pytest.raises(InvalidInputError, match="non-finite"):
            estimate_blocks(X, 0)


def test_assemble_blocks_layout():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 300))
    blocks = estimate_blocks(X, 1)
    I = [1]
    alpha, beta = assemble_blocks(blocks, I, 1)
    Ic = [0, 2, 3]
    q = 3
    G0, G1 = blocks
    assert np.allclose(alpha[:q, :q], G0[np.ix_(Ic, Ic)])
    assert np.allclose(alpha[:q, q:], G1[np.ix_(Ic, Ic)])
    assert np.allclose(alpha[q:, :q], G1.T[np.ix_(Ic, Ic)])
    assert np.allclose(beta[:, q:], G1[np.ix_(I, Ic)])
    with pytest.raises(InvalidInputError):
        assemble_blocks(blocks, I, 2)
    with pytest.raises(InvalidInputError):
        assemble_blocks(blocks, [0, 0], 1)
    with pytest.raises(InvalidInputError):
        assemble_blocks(blocks, [7], 1)


def test_lag_windows_layout():
    X = np.arange(12.0).reshape(2, 6)
    ts = np.array([3, 5, 0, 1])
    W = lag_windows(X, ts, 2)
    assert W.shape == (4, 2, 3)
    for b, t in enumerate(ts):
        for l in range(3):
            # lags before column 0 are zero
            want = X[:, t - l] if t >= l else np.zeros(2)
            assert np.array_equal(W[b, :, l], want)
    # an (n, B, H+1) array seen through a transpose: the masking rule's
    # per-sensor sum over batch and lags keeps its memory order, and so
    # its bits
    assert W.transpose(1, 0, 2).flags.c_contiguous


def test_lagged_design_gram_identity():
    # the zero-padded design reproduces the block-Toeplitz Gram exactly
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 200))
    H = 2
    blocks = estimate_blocks(X, H)
    alpha, _ = assemble_blocks(blocks, [0], H)
    D = lagged_design(X, [1, 2, 3], H)
    assert D.shape == (3 * (H + 1), 200 + H)
    assert np.allclose(D @ D.T / 200.0, alpha, atol=1e-12)
    assert np.array_equal(D[:4 - 1, :200], X[[1, 2, 3], :])
    assert np.all(D[3:6, 0] == 0)


def test_panel_csv_round_trip(tmp_path):
    # through the sidecar and through the row loop; a rewrite gives the
    # same bytes, and the digest is the CSV's
    panel = _panel(T=50)
    path = tmp_path / "panel.csv"
    write_panel(panel, path)
    sidecar = (tmp_path / "panel.csv.npz").read_bytes()
    write_panel(panel, path)
    assert (tmp_path / "panel.csv.npz").read_bytes() == sidecar
    read, digest = read_panel(path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    for back in (read, timeseries._read_panel_rows(path)):
        assert back.sensor_ids == panel.sensor_ids
        assert np.array_equal(back.timestamps, panel.timestamps)
        assert np.array_equal(back.values, panel.values)


def test_read_panel_errors(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("time,a\n1970-01-01T00:00:00,1.0\n")
    with pytest.raises(InvalidInputError, match="timestamp"):
        read_panel(path)
    path.write_text("timestamp,a\n1970-01-01T00:00:00,1.0,2.0\n")
    with pytest.raises(InvalidInputError, match="line 2"):
        read_panel(path)
    path.write_text("timestamp,a\n1970-01-01T00:00:00,high\n")
    with pytest.raises(InvalidInputError, match="non-numeric"):
        read_panel(path)
    path.write_text("timestamp,a\n")
    with pytest.raises(InvalidInputError, match="no data rows"):
        read_panel(path)
    for stamp in ("nan", "inf"):
        path.write_text(f"timestamp,a\n0,1.0\n{stamp},2.0\n")
        with pytest.raises(InvalidInputError,
                           match=f"line 3: non-finite moment '{stamp}'"):
            read_panel(path)
    # a moment past year 9999 overflowed the int64 timestamps
    for stamp in ("1e300", "253402300800", "-1e20"):
        path.write_text(f"timestamp,a\n0,1.0\n{stamp},2.0\n")
        with pytest.raises(InvalidInputError,
                           match=f"line 3: moment '{stamp}' outside years 1 to 9999"):
            read_panel(path)
    # a fractional stamp was truncated: 0.5, 3600.9 read as hourly and
    # -0.5, 3599.5 as a broken step
    for first, second in (("0.5", "3600.9"), ("-0.5", "3599.5")):
        path.write_text(f"timestamp,a\n{first},1.0\n{second},2.0\n")
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}: line 2: timestamp '{first}' is not a whole second")):
            read_panel(path)
    # float() refuses \x1c to \x1f at a value's ends, which some parsers strip
    path.write_text("timestamp,a\n0,1\x1c\n")
    with pytest.raises(InvalidInputError, match="line 2: non-numeric value"):
        read_panel(path)
    # float() would read a value longer than csv's field limit
    path.write_text(f"timestamp,a\n0,{'0' * csv.field_size_limit()}1\n")
    with pytest.raises(InvalidInputError, match="line 2: field larger than field limit"):
        read_panel(path)
    # a non-finite value was named without its file or line
    for value in ("nan", "inf", "-1e999"):
        path.write_text(f"timestamp,a,b\n0,1.0,2.0\n\n3600,2.0,{value}\n")
        with pytest.raises(InvalidInputError,
                           match=f"{path}: line 4: non-finite value"):
            read_panel(path)
    # a skipped or repeated hour, and a repeated id, were named without
    # their file or line
    for text, line in (("0,1\n3600,2\n\n10800,3\n", 5), ("0,1\n0,2\n", 3)):
        path.write_text("timestamp,a\n" + text)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}: line {line}: timestamp is not 1 hour after the one before")):
            read_panel(path)
    # a non-finite value on line 3 is named before the repeated hour on line 4
    path.write_text("timestamp,a\n0,1\n3600,nan\n3600,3\n")
    with pytest.raises(InvalidInputError, match="line 3: non-finite value"):
        read_panel(path)
    path.write_text("timestamp,a,b,a\n0,1,2,3\n")
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{path}: line 1: duplicate sensor ids ['a']")):
        read_panel(path)
    # a byte that is not UTF-8 raised UnicodeDecodeError (exit 1); the
    # text layer decodes ahead, so the line is found in the bytes
    lines = ["timestamp,a"] + [f"{k * HOUR},1" for k in range(3000)]
    lines[1500] += "\xff"
    for text, line in (("timestamp,a\n0,\xff\n", 2), ("timestamp,\xe9\n0,1\n", 1),
                       ("\n".join(lines), 1501), ("\r\n".join(lines[:1500]) + "\xc3", 1500)):
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}: line {line}: not UTF-8 text")):
            read_panel(path)


@pytest.mark.parametrize("name, text, message", [
    ("raw.csv", 'station,moment,bikes,spaces\n"a\nb",0,5,5\na,0,many,5\n',
     "line 4: non-numeric bikes/spaces"),
    ("panel.csv", 'timestamp,"a\nb",c\n0,1,2\n3600,x,2\n', "line 4: non-numeric value"),
    ("coords.csv", 'sensor_id,lat,lon\n"a\nb",0,0\nc,nan,0\n',
     "line 4: non-finite coordinate"),
    ("coords.csv", 'sensor_id,lat,lon\n"a\nb",0,0\n\n"a\nb",1,1\n',
     r"line 5: sensor_id 'a\\nb' repeats line 2"),
], ids=["raw", "panel", "coords", "coords-repeat"])
def test_lines_inside_a_quoted_newline_count(tmp_path, name, text, message):
    # write_csv quotes an id that holds a newline, so it round-trips; rows
    # numbered from 2 named every later line one too early
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    read = {"raw.csv": read_raw_records, "panel.csv": read_panel,
            "coords.csv": read_coords}[name]
    with pytest.raises(InvalidInputError, match=message):
        read(path)


def test_panel_csv_round_trips_the_first_and_last_hours(tmp_path):
    # years 1 to 9999, written with four-digit years that read back
    for first in (-62135596800, 253402300799 - HOUR - 59 * 60 - 59):
        panel = PanelSeries(["a"], first + np.arange(2) * HOUR, np.ones((1, 2)))
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        for back in (read_panel(path)[0], timeseries._read_panel_rows(path)):
            assert np.array_equal(back.timestamps, panel.timestamps)


def test_write_csv_quotes_fields_and_keeps_floats(tmp_path):
    path = tmp_path / "table.csv"
    rows = [["a,1", 0.1, 3], ['b"2', np.float64(1 / 3), -1], ["c\n3", 1e300, 0]]
    write_csv(path, ["id", "value", "rank"], rows)
    with open(path, newline="", encoding="utf-8") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["id", "value", "rank"]
    assert [row[0] for row in back[1:]] == ["a,1", 'b"2', "c\n3"]
    assert [float(row[1]) for row in back[1:]] == [0.1, 1 / 3, 1e300]
    assert [row[2] for row in back[1:]] == ["3", "-1", "0"]
    assert path.read_bytes().endswith(b"1.0000000000000001e+300,0\n")
