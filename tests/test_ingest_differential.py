"""The columnar ingest layer against its row-loop reference.

read_raw_records streams records into typed columns and checks them a
column at a time; clean_stations and interpolate_hourly slice the
per-station arrays it returns, and write_panel formats each panel row
at once. Each must give exactly what the row loop over record tuples
gives, and the same first error on bad input. read_panel reads the
panel that write_panel wrote from its binary sidecar and must return
what its row loop returns, bit for bit; a sidecar it cannot trust is
ignored.
"""

import csv
import math
import os
import subprocess
import sys
import threading
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from netselect import cli, raw_feed, timeseries
from netselect.errors import InvalidInputError
from netselect.raw_feed import _cuts, _range_count, _range_lines, _read_one_range
from netselect.timeseries import (
    HOUR,
    PanelSeries,
    _file_sha256,
    _read_panel_rows,
    _read_sidecar,
    clean_stations,
    interpolate_hourly,
    read_panel,
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
QUOTE_FREE_FEEDS = FEEDS[:4]


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
    ids = (["a,1", 'b"2', " c3", "d4 ", "e\n5"] if every or kind == "quoted-ids"
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


def _panel_read(read, path):
    """What read makes of a panel CSV: its ids, stamps, value bits and
    value strides, None, or the message of its InvalidInputError."""
    try:
        panel = read(path)
    except InvalidInputError as exc:
        return str(exc)
    if panel is None:
        return None
    return (panel.sensor_ids, panel.timestamps.tolist(), panel.values.tobytes(),
            panel.values.strides)


def _sidecar_read(path):
    return _read_sidecar(path, _file_sha256(path))


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
    sidecar = _panel_read(_sidecar_read, tmp_path / "panel.csv")
    assert sidecar is not None
    assert sidecar == _panel_read(_read_panel_rows, tmp_path / "panel.csv")
    if kind in ("quoted-ids", "all"):
        assert {"a,1", 'b"2', "e\n5"} <= set(sidecar[0])


def test_clean_and_interpolate_match_the_tuple_reference():
    # the library reads read_raw_records' (k, 3) arrays, the reference
    # the same records as lists of tuples; a station may have none
    recs = [(0.0, 5.0, 5.0), (float(HOUR), 2.0, 8.0), (2.0 * HOUR, 9.0, 1.0)]
    records = {"a": recs, "b": recs[:2] + [(3.0 * HOUR, 4.0, 6.0)], "none": []}
    arrays = {station: np.array(rows, dtype=float).reshape(-1, 3)
              for station, rows in records.items()}
    kept = clean_stations(arrays, 0.5, min_records=3)
    assert kept == clean_stations_by_row(records, 0.5, min_records=3)
    panel = interpolate_hourly(arrays, kept)
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


def test_a_trailing_z_reads_as_utc(tmp_path):
    # Python 3.10's fromisoformat refused the Z that 3.11 reads, so one
    # feed ingested under one and exited 2 under the other
    path = tmp_path / "raw.csv"
    path.write_text("station,moment,bikes,spaces\n"
                    "a,2019-01-01T00:00:00Z,5,5\n"
                    "a,2019-01-01 01:00:00.500Z ,5,5\n")
    assert read_raw_records(path)["a"][:, 0].tolist() == [EPOCH0, EPOCH0 + HOUR + 0.5]
    assert read_raw_records_by_row(path)["a"][1][0] == EPOCH0 + HOUR + 0.5


# line ends and text that the ranges of a raw feed must split and decode
# as the text layer does: \r\n, a bare \r, no final newline, characters
# str.splitlines would split at, and text of more than one chunk
RANGE_TEXTS = {
    "crlf": "station,moment\r\na,1\r\nb,2\r\n",
    "bare-cr": "station,moment\ra,1\rb,2\n\nc,3\r\nd,4",
    "separators": "station,moment\na\x1c\x85\u2028\x0b,1\n\u00e9t\u00e9,2\n",
    "long": "station,moment\n" + "".join(f"s{k % 7},{k}\r\n" for k in range(5000)),
}


@pytest.mark.parametrize("text", RANGE_TEXTS.values(), ids=list(RANGE_TEXTS))
def test_ranges_split_lines_as_the_text_layer_does(tmp_path, text):
    path = tmp_path / "raw.csv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, newline="", encoding="utf-8") as fh:
        want = list(fh)
    assert list(_range_lines(path, 0, math.inf)) == want
    data = path.read_bytes()
    # any cut just past a newline splits the lines between the ranges
    cuts = [k + 1 for k, byte in enumerate(data) if byte == ord("\n")][::97]
    for cut in cuts:
        got = list(_range_lines(path, 0, cut)) + list(_range_lines(path, cut, len(data)))
        assert got == want


def _in_one_thread(case, *args):
    """Run this module's case(*args) in a new Python process of one
    thread, where read_raw_records may fork. A fork of pytest's process,
    which may run BLAS threads, warns on Python 3.12 and the warning
    fails the test; so does one in the new process."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONWARNINGS="error::DeprecationWarning")
    script = f"import sys\nfrom {__name__} import {case.__name__}\n{case.__name__}(*sys.argv[1:])"
    run = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def _force_ranges(count):
    """Let read_raw_records cut a feed of any size into count ranges."""
    raw_feed.MIN_RANGE_BYTES = 1
    os.sched_getaffinity = lambda pid: set(range(count))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_read(path, count):
    """read_raw_records(path), checked to be read in count ranges, with
    no fall back to one, and to be the one-range read, bit for bit."""
    def fall_back(path):
        raise AssertionError(f"the split read of {path} fell back to one range")

    assert _range_count(path) == count
    assert len(_cuts(path, count)) == count + 1
    raw_feed._read_one_range = fall_back
    try:
        got = read_raw_records(path)
    finally:
        raw_feed._read_one_range = _read_one_range
    one = _read_one_range(path)
    assert list(got) == list(one)
    assert all(got[s].tobytes() == one[s].tobytes() for s in got)
    return got


def _split_read_equals_the_row_loop(tmp, count):
    count = int(count)
    _force_ranges(count)
    for kind in QUOTE_FREE_FEEDS:
        raw = Path(tmp) / f"{kind}.csv"
        _write_feed(raw, kind)
        got = _split_read(raw, count)
        ref = read_raw_records_by_row(raw)
        assert list(got) == list(ref)
        for station, recs in got.items():
            assert np.array_equal(recs, np.array(ref[station]))
    _no_child_left()


@pytest.mark.parametrize("count", [2, 3])
def test_a_split_read_equals_the_row_loop(tmp_path, count):
    _in_one_thread(_split_read_equals_the_row_loop, tmp_path, count)


def _offset(lines, k):
    """Byte offset of line k of a feed of lines ended by newlines."""
    return sum(len(line.encode("utf-8")) + 1 for line in lines[:k])


def _late_stations_keep_their_place(tmp):
    _force_ranges(3)
    path = Path(tmp) / "raw.csv"
    blocks = [["b", "a"], ["a", "c"], ["d", "c", "b", "e"]]
    lines = ["station,moment,bikes,spaces"] + [
        f"{block[k % len(block)]},{(20 * j + k) * HOUR:07d},{k % 5},{k % 3}"
        for j, block in enumerate(blocks) for k in range(20)]
    path.write_text("\n".join(lines) + "\n")
    cuts = _cuts(path, 3)
    first = {s: next(k for k, line in enumerate(lines) if line.startswith(s + ","))
             for s in "abcde"}
    assert cuts[1] <= _offset(lines, first["c"]) < cuts[2] <= _offset(lines, first["d"])
    got = _split_read(path, 3)
    assert list(got) == list(read_raw_records_by_row(path)) == ["b", "a", "c", "d", "e"]
    _no_child_left()


def test_a_station_first_seen_in_a_later_range_keeps_its_place(tmp_path):
    _in_one_thread(_late_stations_keep_their_place, tmp_path)


def _bad_rows_name_the_row_loops_line(tmp):
    _force_ranges(3)
    path = Path(tmp) / "raw.csv"
    for bad in BAD_ROWS:
        for at in (5, 15, 25):
            lines = ["station,moment,bikes,spaces"] + [f"b,{k * HOUR},1,1" for k in range(30)]
            lines[at] = bad
            # a later bad record in the last range must not be the one named
            lines[28] = "a,0,5,x"
            path.write_text("\n".join(lines) + "\n")
            cuts = _cuts(path, 3)
            assert cuts.index(max(c for c in cuts if c <= _offset(lines, at))) == at // 10
            with pytest.raises(InvalidInputError) as ref:
                read_raw_records_by_row(path)
            with pytest.raises(InvalidInputError) as got:
                read_raw_records(path)
            assert str(got.value) == str(ref.value)
            assert f": line {at + 1}: " in str(got.value)
            _no_child_left()
    path.write_text("station,when,bikes,spaces\n" + "b,0,1,1\n" * 30)
    with pytest.raises(InvalidInputError, match=": line 1: expected header"):
        read_raw_records(path)
    _no_child_left()


def test_a_bad_record_in_any_range_names_the_row_loops_line(tmp_path):
    _in_one_thread(_bad_rows_name_the_row_loops_line, tmp_path)


def _a_refused_fork_reads_one_range(tmp):
    _force_ranges(3)
    path = Path(tmp) / "raw.csv"
    _write_feed(path, "interleaved")
    forks, fork = [], os.fork

    def second_refused():
        forks.append(len(forks))
        if len(forks) == 2:
            raise BlockingIOError("fork refused")
        return fork()

    os.fork = second_refused
    fds = len(os.listdir("/proc/self/fd"))
    got = read_raw_records(path)
    assert len(forks) == 2
    assert len(os.listdir("/proc/self/fd")) == fds
    one = _read_one_range(path)
    assert list(got) == list(one)
    assert all(got[s].tobytes() == one[s].tobytes() for s in got)
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files in /proc")
def test_a_refused_fork_reads_one_range(tmp_path):
    _in_one_thread(_a_refused_fork_reads_one_range, tmp_path)


def _one_range_cases(tmp):
    def split(*args):
        raise AssertionError("a split read")

    os.sched_getaffinity = lambda pid: {0, 1, 2}
    raw_feed._fork = split
    tmp = Path(tmp)
    # under 2 MiB, each of two ranges would be under MIN_RANGE_BYTES:
    # 16-byte records and blank lines make a feed of 2 MiB - 1 bytes, and
    # one blank line more makes one of 2 MiB
    header = b"station,moment,bikes,spaces\n"
    size = 2 * raw_feed.MIN_RANGE_BYTES
    records = b"".join(b"a,%09d,1,1\n" % k for k in range((size - len(header)) // 16))
    data = header + records + b"\n" * ((size - len(header)) % 16)
    (tmp / "small.csv").write_bytes(data[:-1])
    (tmp / "big.csv").write_bytes(data)
    assert len(read_raw_records(tmp / "small.csv")["a"]) == len(records) // 16
    with pytest.raises(AssertionError, match="a split read"):
        read_raw_records(tmp / "big.csv")
    # feeds of any size from here on
    raw_feed.MIN_RANGE_BYTES = 1
    _write_feed(tmp / "plain.csv", "interleaved")
    _write_feed(tmp / "quoted.csv", "quoted-ids")
    assert _range_count(tmp / "plain.csv") == 3
    assert _range_count(tmp / "quoted.csv") == 1
    assert list(read_raw_records(tmp / "quoted.csv")) == list(
        read_raw_records_by_row(tmp / "quoted.csv"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _range_count(tmp / "plain.csv") == 1
        assert list(read_raw_records(tmp / "plain.csv")) == list(
            read_raw_records_by_row(tmp / "plain.csv"))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert _range_count(tmp / "plain.csv") == 3


def test_quotes_small_feeds_and_threads_keep_one_range(tmp_path):
    _in_one_thread(_one_range_cases, tmp_path)


# hand-written panels, which only the row loop reads, and what it reads
ROW_LOOP_PANELS = {
    "crlf": ("timestamp,a,b\r\n0,1,2\r\n3600,3,4\r\n", ["a", "b"], [[1, 3], [2, 4]]),
    "quoted-ids": ('timestamp,"a,1","b""2","c\n3"\n0,1,2,3\n',
                   ["a,1", 'b"2', "c\n3"], [[1], [2], [3]]),
    "underscore": ("timestamp,a\n0,1_0\n3600,2\n", ["a"], [[10, 2]]),
    "quoted-value": ('timestamp,a\n0,"1.5"\n3600,2\n', ["a"], [[1.5, 2]]),
}


@pytest.mark.parametrize("text, ids, values", ROW_LOOP_PANELS.values(),
                         ids=list(ROW_LOOP_PANELS))
def test_hand_written_panels_read_through_the_row_loop(tmp_path, text, ids, values):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    panel, digest = read_panel(path)
    assert panel.sensor_ids == ids
    assert panel.values.tolist() == values
    assert digest == _file_sha256(path)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_an_ingested_panel_reads_from_its_sidecar(tmp_path, monkeypatch, capsys):
    # a sidecar that never read would pass every other test
    raw = tmp_path / "raw.csv"
    _write_feed(raw, "all")
    assert cli.main(["ingest", str(raw), "--min-records", "30",
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "panel.csv"
    ref = _panel_read(_read_panel_rows, path)

    def row_loop(path):
        raise AssertionError(f"{path} went through the row loop")

    monkeypatch.setattr(timeseries, "_read_panel_rows", row_loop)
    assert _panel_read(lambda p: read_panel(p)[0], path) == ref
    assert ref[3] == (8, 8 * len(ref[0]))


def _sidecar(path):
    return path.parent / (path.name + ".npz")


def _rewrite_sidecar(path, allow_pickle=False, **change):
    """Overwrite path's sidecar, each array that change names passed
    through its function."""
    with np.load(_sidecar(path)) as sidecar:
        arrays = {name: change.get(name, lambda x: x)(array)
                  for name, array in sidecar.items()}
    np.savez(_sidecar(path), allow_pickle=allow_pickle, **arrays)


# ways a sidecar can fail to fit panel.csv, given the panel and another
SPOILS = {
    "stale": lambda path, other: path.write_text(path.read_text().replace("0.5", "0.25", 1)),
    "truncated": lambda path, other: _sidecar(path).write_bytes(
        _sidecar(path).read_bytes()[:-100]),
    "foreign": lambda path, other: _sidecar(path).write_bytes(_sidecar(other).read_bytes()),
    "wrong-shape": lambda path, other: _rewrite_sidecar(path, values=lambda v: v[:, :-1]),
    "object-array": lambda path, other: _rewrite_sidecar(
        path, allow_pickle=True, values=lambda v: v.astype(object)),
    "float32": lambda path, other: _rewrite_sidecar(
        path, values=lambda v: v.astype(np.float32)),
    "fortran-order": lambda path, other: _rewrite_sidecar(path, values=np.asfortranarray),
    "empty": lambda path, other: _rewrite_sidecar(path, stamps=lambda s: s[:0],
                                                  values=lambda v: v[:0]),
}


@pytest.mark.parametrize("spoil", SPOILS.values(), ids=list(SPOILS))
def test_a_sidecar_that_does_not_fit_is_ignored(tmp_path, spoil):
    rng = np.random.default_rng(0)
    path, other = tmp_path / "panel.csv", tmp_path / "other.csv"
    write_panel(PanelSeries(["a", "b", "c"], EPOCH0 + HOUR * np.arange(4),
                            np.array([[0.5, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]])), path)
    write_panel(PanelSeries(["a", "b", "c"], EPOCH0 + HOUR * np.arange(4),
                            rng.random((3, 4))), other)
    spoil(path, other)
    assert _sidecar_read(path) is None
    ref = _panel_read(_read_panel_rows, path)
    assert _panel_read(lambda p: read_panel(p)[0], path) == ref
