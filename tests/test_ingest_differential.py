"""The columnar ingest layer against its row-loop reference.

read_raw_records streams records into typed columns and checks them a
column at a time; clean_stations and interpolate_hourly slice the
per-station arrays it returns, and write_panel formats each panel row
at once. Each must give exactly what the row loop over record tuples
gives, and the same first error on bad input.
"""

import csv
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from netselect.errors import InvalidInputError
from netselect.timeseries import (
    HOUR,
    PanelSeries,
    clean_stations,
    interpolate_hourly,
    read_raw_records,
    write_panel,
)
from oracles import (
    clean_stations_by_row,
    interpolate_hourly_by_row,
    read_raw_records_by_row,
    write_panel_by_field,
)

EPOCH0 = 1_546_300_800  # 2019-01-01T00:00:00Z
SPAN_HOURS = 200
CAPACITY = 20
FEEDS = ["interleaved", "duplicates", "mixed-moments", "blank-lines",
         "quoted-ids", "all"]


def _moment_text(rng, moment):
    """moment written in one of the forms a feed may mix."""
    form = rng.integers(6)
    if form == 0:
        return str(int(moment))
    if form == 1:
        return repr(float(moment))
    if form == 2:
        return f" {int(moment)} "
    utc = datetime.fromtimestamp(int(moment), tz=timezone.utc)
    if form == 3:
        return utc.replace(tzinfo=None).isoformat()
    if form == 4:
        return utc.astimezone(timezone(timedelta(hours=2))).isoformat()
    return utc.replace(tzinfo=None).isoformat(sep=" ")


def _write_feed(path, kind, seed=0):
    """A raw feed of a few stations; kind picks what makes it awkward."""
    rng = np.random.default_rng(seed)
    every = kind == "all"
    ids = (["a,1", 'b"2', " c3", "d4 ", "e5"] if every or kind == "quoted-ids"
           else ["s1", "s2", "s3", "s4", "s5"])
    rows = []
    for k, sid in enumerate(ids):
        # the first and last hour bound the stations; the last one starts
        # halfway, past the start of the grid, and is held flat before it
        first = SPAN_HOURS // 2 * HOUR if k == len(ids) - 1 else 0
        inner = first + rng.random(40) * (SPAN_HOURS * HOUR - first)
        moments = np.concatenate([[first, SPAN_HOURS * HOUR], inner])
        for m in moments:
            bikes = int(rng.integers(CAPACITY))
            broken = int(rng.random() < 0.2)
            rows.append([sid, EPOCH0 + m, bikes, CAPACITY - bikes - broken])
    if every or kind == "duplicates":
        # repeated moments with the counts swapped; their file order must hold
        for r in [rows[i] for i in rng.choice(len(rows), size=30)]:
            rows.append([r[0], r[1], r[3], r[2]])
    if every or kind in ("interleaved", "duplicates"):
        rows = [rows[i] for i in rng.permutation(len(rows))]
    mixed = every or kind == "mixed-moments"
    for r in rows:
        r[1] = _moment_text(rng, r[1]) if mixed else str(int(r[1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["station", "moment", "bikes", "spaces"])
        for r in rows:
            writer.writerow(r)
            if (every or kind == "blank-lines") and rng.random() < 0.1:
                fh.write("\n")


def _interpolated(interpolate, records, kept):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        panel = interpolate(records, kept)
    return panel, [str(w.message) for w in caught]


@pytest.mark.parametrize("kind", FEEDS)
def test_columnar_ingest_equals_the_row_loop(tmp_path, kind):
    raw = tmp_path / "raw.csv"
    _write_feed(raw, kind)
    got = read_raw_records(raw)
    ref = read_raw_records_by_row(raw)
    assert list(got) == list(ref)
    for station, recs in got.items():
        assert recs.shape == (len(ref[station]), 3)
        assert np.array_equal(recs, np.array(ref[station]))
    if kind == "duplicates":
        assert any(np.any(np.diff(recs[:, 0]) == 0) for recs in got.values())

    kept = clean_stations(got, 0.5, min_records=30)
    assert kept == clean_stations_by_row(ref, 0.5, min_records=30)
    assert len(kept) == len(got)
    panel, said = _interpolated(interpolate_hourly, got, kept)
    ref_panel, ref_said = _interpolated(interpolate_hourly_by_row, ref, kept)
    assert said == ref_said
    assert len(said) == 1
    assert panel.sensor_ids == ref_panel.sensor_ids == [s for s, _ in kept]
    assert np.array_equal(panel.timestamps, ref_panel.timestamps)
    assert np.array_equal(panel.values, ref_panel.values)

    write_panel(panel, tmp_path / "panel.csv")
    write_panel_by_field(ref_panel, tmp_path / "ref_panel.csv")
    assert (tmp_path / "panel.csv").read_bytes() == (tmp_path / "ref_panel.csv").read_bytes()


def test_clean_and_interpolate_take_lists_of_tuples():
    recs = [(0.0, 5.0, 5.0), (float(HOUR), 2.0, 8.0), (2.0 * HOUR, 9.0, 1.0)]
    records = {"a": recs, "b": recs[:2] + [(3.0 * HOUR, 4.0, 6.0)], "none": []}
    kept = clean_stations(records, 0.5, min_records=3)
    assert kept == clean_stations_by_row(records, 0.5, min_records=3)
    panel = interpolate_hourly(records, kept)
    ref = interpolate_hourly_by_row(records, kept)
    assert np.array_equal(panel.values, ref.values)


def test_panel_rows_keep_every_float_digit(tmp_path):
    # subnormal, huge, negative zero and values whose shortest repr is
    # shorter than 17 digits are written as format(v, ".17g") writes them
    rng = np.random.default_rng(1)
    values = rng.normal(size=(4, 30)) * 10.0 ** rng.integers(-320, 300, size=(4, 30))
    values[0, :4] = [-0.0, 0.1, 5e-324, 1.7976931348623157e308]
    panel = PanelSeries(["a", "b,", 'c"', " d"], EPOCH0 + np.arange(30) * HOUR, values)
    write_panel(panel, tmp_path / "panel.csv")
    write_panel_by_field(panel, tmp_path / "ref_panel.csv")
    assert (tmp_path / "panel.csv").read_bytes() == (tmp_path / "ref_panel.csv").read_bytes()


def test_the_first_bad_line_is_named_though_a_later_one_fails_first(tmp_path):
    # the NaN moment passes float() and is caught by the column check
    # after the loop; the bad count on line 5 stops the loop itself
    path = tmp_path / "raw.csv"
    path.write_text("station,moment,bikes,spaces\n"
                    "a,0,5,5\n"
                    "a,nan,5,5\n"
                    "a,3600,5,5\n"
                    "a,7200,lots,5\n")
    with pytest.raises(InvalidInputError, match="line 3: non-finite moment 'nan'"):
        read_raw_records(path)


BAD_ROWS = [
    "a,0,5", "a,noon,5,5", "a,nan,5,5", "a,1e300,5,5",
    "a,9999-12-31T23:00:00-01:00,5,5", "a,0,many,5", "a,0,5,inf", "a,0,5,5,5",
]


@pytest.mark.parametrize("first", BAD_ROWS)
@pytest.mark.parametrize("second", ["a,0,5,x", "a,-inf,5,5", "a,0,5,nan"])
def test_errors_match_the_row_loop(tmp_path, first, second):
    path = tmp_path / "raw.csv"
    lines = [f"b,{k * HOUR},1,1" for k in range(6)]
    lines[2] = first
    lines[4] = second
    path.write_text("station,moment,bikes,spaces\n" + "\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError) as ref:
        read_raw_records_by_row(path)
    with pytest.raises(InvalidInputError) as got:
        read_raw_records(path)
    assert str(got.value) == str(ref.value)
    assert ": line 4: " in str(got.value)
