"""End-to-end command line runs: ingest, select, evaluate, exit codes."""

import argparse
import ast
import csv
import hashlib
import importlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from netselect import cli, select_kernel
from netselect.cli import METHODS, _build_parser, main
from netselect.errors import (
    InvalidInputError,
    SingularMatrixError,
    TrainingDivergedError,
)
from netselect.evaluation import default_p, lambda_grid, synth_generate
from netselect.evaluation import test_mse as held_out_mse
from netselect.graph import build_knn_graph, read_coords
from netselect.select_kernel import (
    GRAPH_KERNELS,
    KERNEL_TAGS,
    build_kernel_blocks,
    fit_predict_kernel,
)
from netselect.select_linear import fit_predict_linear
from netselect.timeseries import (
    HOUR,
    PanelSeries,
    Split,
    assemble_blocks,
    estimate_blocks,
    read_panel,
    write_panel,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _write_raw(path):
    """Three clean stations, one sparse, one with too many bad capacities."""
    lines = ["station,moment,bikes,spaces"]
    for name, mult in (("a01", 3), ("a02", 5), ("a03", 7)):
        for k in range(300):
            bikes = (k * mult) % 11
            lines.append(f"{name},{k * HOUR},{bikes},{10 - bikes}")
    for k in range(50):
        lines.append(f"sparse,{k * HOUR},5,5")
    for k in range(200):
        spaces = 5 if k % 2 == 0 else 4  # capacity correct half the time
        lines.append(f"flaky,{k * HOUR},5,{spaces}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_coords(path, ids, coords):
    lines = ["sensor_id,lat,lon"]
    lines += [f"{sid},{c[0]},{c[1]}" for sid, c in zip(ids, coords)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _correlated_panel(tmp_path, n=6, T=400, seed=0):
    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(n, n))
    X = mixing @ rng.normal(size=(n, T))
    ids = [f"s{i:03d}" for i in range(n)]
    panel = PanelSeries(ids, np.arange(T) * HOUR, X)
    panel_path = tmp_path / "panel.csv"
    write_panel(panel, panel_path)
    coords_path = tmp_path / "coords.csv"
    _write_coords(coords_path, ids, rng.normal(size=(n, 2)))
    return panel_path, coords_path, ids


def test_ingest_keeps_only_clean_stations(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    _write_raw(raw)
    out1 = tmp_path / "run1"
    assert main(["ingest", str(raw), "--out-dir", str(out1)]) == 0
    assert "ingested 3 stations" in capsys.readouterr().out

    header = (out1 / "panel.csv").read_text().splitlines()[0]
    assert header == "timestamp,a01,a02,a03"
    stations = (out1 / "stations.csv").read_text().splitlines()
    assert stations[0] == "station,max_bikes"
    assert [row.split(",")[0] for row in stations[1:]] == ["a01", "a02", "a03"]

    out2 = tmp_path / "run2"
    assert main(["ingest", str(raw), "--out-dir", str(out2)]) == 0
    for name in ("panel.csv", "panel.csv.npz", "stations.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_ingest_with_no_clean_station_exits_2(tmp_path, capsys):
    # no station of the feed holds 1000 records
    raw = tmp_path / "raw.csv"
    _write_raw(raw)
    out = tmp_path / "out"
    assert main(["ingest", str(raw), "--min-records", "1000", "--out-dir", str(out)]) == 2
    assert ("no station passes the cleaning rule (rc=0.5, min 1000 records)"
            in capsys.readouterr().err)
    assert not out.exists()


def _write_feed(path, stations):
    """A clean feed: station name -> hours of its records."""
    lines = ["station,moment,bikes,spaces"]
    lines += [f"{name},{h * HOUR},{h % 7},{10 - h % 7}"
              for name, hours in stations.items() for h in hours]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_drops_a_one_record_station_that_passes_the_cleaning(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    _write_feed(raw, {"a01": range(300), "a02": range(300), "lone": [0]})
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="station lone has fewer than 2 records, dropped"):
        assert main(["ingest", str(raw), "--min-records", "1", "--out-dir", str(out)]) == 0
    assert "ingested 2 stations" in capsys.readouterr().out
    stations = (out / "stations.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in stations[1:]] == ["a01", "a02"]
    # with one record at every kept station no series can be interpolated
    _write_feed(raw, {"lone": [0], "solo": [0]})
    with pytest.warns(UserWarning, match="fewer than 2 records"):
        assert main(["ingest", str(raw), "--min-records", "1",
                     "--out-dir", str(tmp_path / "none")]) == 2
    assert "no station had enough records to interpolate" in capsys.readouterr().err


def test_ids_keep_their_spaces_from_feed_to_selection(tmp_path, capsys):
    # read_panel stripped the header ids, so the panel that ingest wrote
    # for the station " a1" came back as "a1", and select found no
    # coordinates for it (exit 2)
    raw = tmp_path / "raw.csv"
    _write_raw(raw)
    raw.write_text(raw.read_text().replace("a01,", " a1,"), encoding="utf-8")
    ids = [" a1", "a02", "a03"]
    _write_coords(tmp_path / "coords.csv", ids, _COORDS4)
    data = tmp_path / "data"
    assert main(["ingest", str(raw), "--out-dir", str(data)]) == 0
    assert main(["select", str(data / "panel.csv"), "--coords",
                 str(tmp_path / "coords.csv"), "--method", "linear", "--p", "1",
                 "--k0", "2", "--k1", "1", "--out-dir", str(tmp_path / "sel")]) == 0
    capsys.readouterr()
    assert _read_csv(data / "panel.csv")[0] == ["timestamp"] + ids
    assert [row[0] for row in _read_csv(data / "stations.csv")[1:]] == ids


@pytest.mark.parametrize("row, message", [
    ("a01,nan,3,7", "non-finite moment"),
    ("a02,3600,nan,7", "non-finite bikes/spaces"),
    ("a01,1e300,3,7", "moment '1e300' outside years 1 to 9999"),
], ids=["nan-moment", "nan-bikes", "huge-moment"])
def test_ingest_rejects_non_finite_records(tmp_path, capsys, row, message):
    # with a01's records in reverse order, a NaN moment used to break
    # their sort and shrink the panel to 2 hours; a NaN bikes value
    # dropped a02 without a word; a moment past year 9999 was read in
    # without a word here, and overflowed the hourly grid (exit 1) when
    # it bounded the grid
    raw = tmp_path / "raw.csv"
    _write_raw(raw)
    lines = raw.read_text().splitlines()
    lines[1:301] = lines[300:0:-1] + [row]
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", str(raw), "--out-dir", str(out)]) == 2
    assert f"line 302: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name", [
    ("ingest", "raw.csv"), ("select", "panel.csv"), ("select", "coords.csv"),
])
def test_oversized_fields_exit_2(tmp_path, capsys, command, name):
    # csv refuses a field longer than csv.field_size_limit(); its csv.Error
    # exited 1 with a traceback
    if command == "ingest":
        _write_raw(tmp_path / name)
        argv = ["ingest", str(tmp_path / name)]
    else:
        panel_path, coords_path, _ = _correlated_panel(tmp_path)
        argv = ["select", str(panel_path), "--coords", str(coords_path)]
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[2] = "x" * (csv.field_size_limit() + 1) + lines[2][lines[2].index(","):]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert f"{path}: line 3: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name", [
    ("ingest", "raw.csv"), ("select", "panel.csv"), ("select", "coords.csv"),
])
def test_undecodable_bytes_exit_2(tmp_path, capsys, command, name):
    # a byte that is not UTF-8 raised UnicodeDecodeError, which exited 1
    # with a traceback
    if command == "ingest":
        _write_raw(tmp_path / name)
        argv = ["ingest", str(tmp_path / name)]
    else:
        panel_path, coords_path, _ = _correlated_panel(tmp_path)
        argv = ["select", str(panel_path), "--coords", str(coords_path)]
    path = tmp_path / name
    lines = path.read_bytes().splitlines()
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert f"{path}: line 3: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_ids_that_need_quoting_survive_every_table(tmp_path, capsys):
    # stations.csv and mask_path.csv were joined by hand, so the id a,1
    # split into two fields there while panel.csv quoted it
    ids = ["a,1", 'b"2', "c3"]
    with open(tmp_path / "raw.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station", "moment", "bikes", "spaces"])
        for mult, sid in zip((3, 5, 7), ids):
            for k in range(300):
                bikes = (k * mult) % 11
                writer.writerow([sid, k * HOUR, bikes, 10 - bikes])
    with open(tmp_path / "coords.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["sensor_id", "lat", "lon"]]
                                 + [[sid] + c for sid, c in zip(ids, _COORDS4)])
    data = tmp_path / "data"
    assert main(["ingest", str(tmp_path / "raw.csv"), "--out-dir", str(data)]) == 0
    sel = tmp_path / "sel"
    with pytest.warns(UserWarning, match="below eps0"):
        assert main(["select", str(data / "panel.csv"),
                     "--coords", str(tmp_path / "coords.csv"),
                     "--method", "gcn-mask", "--out-dir", str(sel)]
                    + _SELECT_FLAGS) == 0
    capsys.readouterr()
    assert _read_csv(data / "panel.csv")[0] == ["timestamp"] + ids
    for path, header in ((data / "stations.csv", ["station", "max_bikes"]),
                         (sel / "mask_path.csv", ["lambda"] + ids)):
        rows = _read_csv(path)
        assert rows[0] == header
        assert all(len(row) == len(header) for row in rows)
    assert [row[0] for row in _read_csv(data / "stations.csv")[1:]] == ids


def _readme_commands():
    """Every `netselect ...` command line in the README's shell blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                            flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("netselect "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_use_only_existing_flags():
    # a deleted option must not linger in the documented examples
    parser = _build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"ingest", "select", "evaluate"}
    for argv in commands:
        known = set(subparsers.choices[argv[0]]._option_string_actions)
        flags = [tok for tok in argv if tok.startswith("--")]
        assert flags, argv
        unknown = [flag for flag in flags if flag not in known]
        assert not unknown, f"netselect {argv[0]} does not accept {unknown}"
        parser.parse_args(argv)


def test_readme_library_imports_resolve():
    # a deleted function or class must not linger in the library examples
    imports = [(node.module, alias.name)
               for block in re.findall(r"```python\n(.*?)```",
                                       README.read_text(encoding="utf-8"), flags=re.S)
               for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "netselect"
               for alias in node.names]
    assert {module for module, _ in imports} >= {
        "netselect.timeseries", "netselect.select_linear", "netselect.select_kernel"}
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"README imports names the package lacks: {missing}"


def test_ingest_missing_file_is_input_error(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "absent.csv"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_select_rejects_bad_panel_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,s000\n0,1.0\n", encoding="utf-8")
    coords = tmp_path / "coords.csv"
    _write_coords(coords, ["s000"], [(0.0, 0.0)])
    assert main(["select", str(bad), "--coords", str(coords)]) == 2
    assert "timestamp" in capsys.readouterr().err
    bad.write_text("timestamp\n0\n", encoding="utf-8")
    assert main(["select", str(bad), "--coords", str(coords)]) == 2
    assert "line 1: no sensor columns" in capsys.readouterr().err


@pytest.mark.parametrize("stamp", ["nan", "inf"])
def test_select_rejects_non_finite_timestamp(tmp_path, capsys, stamp):
    panel_path, coords_path, _ = _correlated_panel(tmp_path)
    lines = panel_path.read_text().splitlines()
    lines[5] = stamp + lines[5][lines[5].index(","):]
    panel_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(tmp_path / "sel")]) == 2
    assert f"line 6: non-finite moment '{stamp}'" in capsys.readouterr().err


def test_select_rejects_out_of_range_timestamp(tmp_path, capsys):
    # a timestamp past year 9999 overflowed the int64 timestamps: exit 1
    panel_path, coords_path, _ = _correlated_panel(tmp_path)
    lines = panel_path.read_text().splitlines()
    lines[5] = "1e300" + lines[5][lines[5].index(","):]
    panel_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(tmp_path / "sel")]) == 2
    assert "line 6: moment '1e300' outside years 1 to 9999" in capsys.readouterr().err


def test_select_stores_explicit_split_boundaries(tmp_path, capsys):
    panel_path, coords_path, _ = _correlated_panel(tmp_path)
    out = tmp_path / "sel"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--split", "300,340,400", "--out-dir", str(out)]) == 0
    sel = json.loads((out / "selection.json").read_text())
    assert sel["hyperparams"]["split"] == [300, 340, 400]
    capsys.readouterr()


@pytest.mark.parametrize("split, message", [
    ("300,340,390", "split t_tv,t0,t1 = [300, 340, 390] covers 390 hours, "
                    "panel has 400"),
    # train,val,test sizes sum to T, so they never end at hour T
    ("300,40,60", "split t_tv,t0,t1 = [300, 40, 60] covers 60 hours, "
                  "panel has 400"),
    ("0,340,400", "split must satisfy 0 < t_tv < t0 < t1, got (0, 340, 400)"),
    ("340,300,400", "split must satisfy 0 < t_tv < t0 < t1, got (340, 300, 400)"),
], ids=["off-the-panel-length", "sizes", "no-training-rows", "decreasing"])
def test_select_rejects_split_boundaries_off_the_panel_length(tmp_path, capsys,
                                                              split, message):
    panel_path, coords_path, _ = _correlated_panel(tmp_path)
    out = tmp_path / "sel"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--split", split, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_select_missing_coords_is_input_error(tmp_path, capsys):
    panel_path, _, _ = _correlated_panel(tmp_path)
    assert main(["select", str(panel_path),
                 "--coords", str(tmp_path / "absent.csv"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_select_linear_writes_deterministic_outputs(tmp_path, capsys):
    panel_path, coords_path, ids = _correlated_panel(tmp_path)
    out1 = tmp_path / "sel1"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(out1)]) == 0
    assert "wrote" in capsys.readouterr().out

    sel = json.loads((out1 / "selection.json").read_text())
    assert sel["method"] == "linear"
    assert len(sel["order"]) == 1  # default p is 10% of 6 sensors
    assert sel["hyperparams"]["sensor_ids"] == ids
    assert sel["hyperparams"]["split"] == [320, 340, 400]

    geo = json.loads((out1 / "selected.geojson").read_text())
    assert geo["type"] == "FeatureCollection"
    assert len(geo["features"]) == 1
    props = geo["features"][0]["properties"]
    assert props["sensor_id"] == ids[sel["order"][0]]
    assert props["rank"] == 1

    out2 = tmp_path / "sel2"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(out2)]) == 0
    for name in ("selection.json", "selected.geojson"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_select_autocovariance_kernel_matches_linear(tmp_path, capsys):
    panel_path, coords_path, _ = _correlated_panel(tmp_path)
    lin_dir = tmp_path / "lin"
    ker_dir = tmp_path / "ker"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--p", "3", "--out-dir", str(lin_dir)]) == 0
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--p", "3", "--method", "kernel", "--kernel", "autocovariance",
                 "--lambda", "0", "--H", "0", "--out-dir", str(ker_dir)]) == 0
    capsys.readouterr()

    lin = json.loads((lin_dir / "selection.json").read_text())
    ker = json.loads((ker_dir / "selection.json").read_text())
    assert ker["method"] == "kernel"
    assert ker["hyperparams"]["lambda"] == 0.0
    assert ker["order"] == lin["order"]


def test_select_autocovariance_kernel_estimates_blocks_once(tmp_path, capsys,
                                                           monkeypatch):
    # the autocovariance kernel's Gram blocks are the data blocks Gamma(0..H)
    panel_path, coords_path, _ = _correlated_panel(tmp_path)
    calls = []

    def counted(X, H):
        calls.append(H)
        return estimate_blocks(X, H)

    for module in (cli, select_kernel):
        monkeypatch.setattr(module, "estimate_blocks", counted)
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--p", "2", "--method", "kernel", "--kernel", "autocovariance",
                 "--H", "1", "--out-dir", str(tmp_path / "ker")]) == 0
    capsys.readouterr()
    assert calls == [1]
    sel = json.loads((tmp_path / "ker" / "selection.json").read_text())
    assert sel["method"] == "kernel"
    assert len(sel["order"]) == 2


def test_select_kernel_readme_example_defaults_p(tmp_path, capsys):
    # the README kernel example, which leaves --p at its default
    n = 24
    panel_path, coords_path, _ = _correlated_panel(tmp_path, n=n)
    out = tmp_path / "kernel"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--method", "kernel", "--kernel", "spatial-temporal",
                 "--H", "1", "--r-s", "0.3", "--k0", "20", "--k1", "7",
                 "--standardize", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    sel = json.loads((out / "selection.json").read_text())
    assert sel["method"] == "kernel"
    assert len(sel["order"]) == default_p(n)
    assert len(sel["hyperparams"]["lambda_grid"]) == 5


def test_select_kernel_with_a_fixed_lambda_fits_no_reconstructor(tmp_path, capsys,
                                                                   monkeypatch):
    # a given --lambda skips the grid, and with it the one use of a fitted
    # reconstructor in select: scoring it on the validation rows
    panel_path, coords_path, _ = _correlated_panel(tmp_path, n=8)
    fits = []

    def counted(*args, **kwargs):
        fits.append(args[1:])  # turned-off set, lambda, H
        return select_kernel.fit_predict_kernel(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_predict_kernel", counted)
    out = tmp_path / "sel"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--method", "kernel", "--kernel", "spatial-temporal", "--H", "1",
                 "--k0", "6", "--k1", "3", "--p", "2", "--lambda", "0.01",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert fits == []
    hp = json.loads((out / "selection.json").read_text())["hyperparams"]
    assert hp["lambda"] == 0.01
    assert "lambda_grid" not in hp and "validation_error" not in hp


def test_kernel_grid_raises_an_input_error_once(tmp_path, capsys, recwarn):
    # the lambda grid skipped a config on any error, so --p n ran the
    # greedy once per grid point, warned five times and joined the one
    # message five times
    argv = _twelve_sensors(tmp_path) + ["--method", "kernel", "--p", "12",
                                        "--k0", "5", "--k1", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: need 1 <= p < 12, got p=12\n"
    assert not recwarn.list


def test_kernel_grid_singular_everywhere_exits_3(tmp_path, capsys, monkeypatch):
    # a lambda grid whose every fit failed is a computation that failed
    # on valid input, not bad input
    def singular(*args, **kwargs):
        raise SingularMatrixError("Gram singular")

    monkeypatch.setattr(cli, "greedy_select_kernel", singular)
    argv = _twelve_sensors(tmp_path) + ["--method", "kernel", "--k0", "5", "--k1", "3"]
    with pytest.warns(UserWarning, match="skipped: Gram singular"):
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NetselectError: every grid config failed (5); ")
    assert err.endswith(": Gram singular\n")
    assert not (tmp_path / "out").exists()


def test_select_rejects_duplicate_sensor_ids(tmp_path, capsys):
    panel_path, coords_path, ids = _correlated_panel(tmp_path)
    lines = panel_path.read_text().splitlines()
    lines[0] = ",".join(["timestamp"] + ids[:-1] + [ids[0]])
    panel_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(tmp_path / "sel")]) == 2
    assert "duplicate sensor ids ['s000']" in capsys.readouterr().err
    assert not (tmp_path / "sel").exists()


@pytest.mark.parametrize("line, row, message", [
    (3, "s002,nan,0.5", "line 4: non-finite coordinate"),
    (7, "s002,0.5,0.5", "line 8: sensor_id 's002' repeats line 4"),
], ids=["nan-latitude", "repeated-id"])
def test_select_rejects_bad_coordinates(tmp_path, capsys, line, row, message):
    # a NaN would reach selected.geojson as a bare NaN, which is not JSON,
    # and a repeated id would silently replace the first row's coordinates
    panel_path, coords_path, _ = _correlated_panel(tmp_path)
    lines = coords_path.read_text().splitlines()
    lines[line:line + 1] = [row]
    coords_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--p", "3", "--out-dir", str(tmp_path / "sel")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sel").exists()


@pytest.mark.parametrize("flags", [
    ["--H", "-1"],
    ["--method", "kernel", "--H", "-1"],
    ["--split", "300,x,50"],
    ["--method", "gcn-mask", "--fc-sizes", "8,x"],
    ["--method", "gcn-mask", "--mask-lambda-count", "-1"],
    ["--method", "gcn-mask", "--mask-lambda-count", "0"],
    # recorded unchecked, then refused by evaluate on the same selection.json
    ["--method", "kernel", "--kernel", "autocovariance", "--k0", "0"],
    ["--method", "linear", "--k0", "0"],
    # out of range, and checked only where used, so these exited 0
    ["--method", "kernel", "--kernel", "autocovariance", "--H", "0", "--r-s", "5"],
    # the alias of spatial-temporal is gone, so its name is no kernel
    ["--method", "kernel", "--kernel", "laplacian"],
])
def test_select_rejects_bad_flag_values(tmp_path, capsys, flags):
    # argparse rejects them (exit 2) before any work, never a traceback
    panel_path, coords_path, _ = _correlated_panel(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["select", str(panel_path), "--coords", str(coords_path),
              "--k0", "2", "--k1", "1", "--cheb-order", "2", "--max-epoch", "1",
              "--out-dir", str(tmp_path)] + flags)
    assert exc.value.code == 2
    assert f"argument {flags[-2]}:" in capsys.readouterr().err
    assert not (tmp_path / "selection.json").exists()


_IDS4 = [f"s{i:03d}" for i in range(4)]


def _noiseless_panel(tmp_path, T=400, seed=1):
    # two free signals plus their difference and sum: any pair of the
    # four sensors reconstructs the rest exactly
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(2, T))
    X = np.vstack([Z[0], Z[1], Z[0] - Z[1], Z[0] + Z[1]])
    panel_path = tmp_path / "panel.csv"
    write_panel(PanelSeries(_IDS4, np.arange(T) * HOUR, X), panel_path)
    return panel_path


# the panel_sha256 that select records for _noiseless_panel's file
with tempfile.TemporaryDirectory() as _tmp:
    _PANEL4_SHA256 = hashlib.sha256(
        _noiseless_panel(Path(_tmp)).read_bytes()).hexdigest()


def _write_selection(path):
    record = {"method": "linear",
              "hyperparams": {"H": 0, "sensor_ids": _IDS4,
                              "panel_sha256": _PANEL4_SHA256,
                              "split": [300, 350, 400], "standardize": False},
              "order": [2, 3], "step_values": [0.0, 0.0]}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def test_evaluate_reports_exact_reconstruction(tmp_path, capsys):
    panel_path = _noiseless_panel(tmp_path)
    sel_path = tmp_path / "selection.json"
    _write_selection(sel_path)
    out1 = tmp_path / "ev1"
    assert main(["evaluate", str(panel_path), str(sel_path),
                 "--baseline-draws", "5", "--out-dir", str(out1)]) == 0
    assert "test MSE" in capsys.readouterr().out

    report = json.loads((out1 / "report.json").read_text())
    assert report["method"] == "linear"
    assert report["selected"] == [2, 3]
    assert report["test_mse"] <= 1e-10
    assert report["baseline_draws"] == 5
    assert report["baseline_skipped"] == 0
    assert "prediction_net" not in report["hyperparams"]

    summary = (out1 / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,H=0"
    assert summary[1].startswith("linear,")

    out2 = tmp_path / "ev2"
    assert main(["evaluate", str(panel_path), str(sel_path),
                 "--baseline-draws", "5", "--out-dir", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def _fails_after_the_selection(monkeypatch, error):
    """Patch evaluate's linear fit to raise error on every baseline draw;
    returns the list of subsets it was asked for."""
    calls = []

    def fit(gammas, I, H):
        calls.append(list(I))
        if len(calls) > 1:
            raise error
        return fit_predict_linear(gammas, I, H)

    monkeypatch.setattr(cli, "fit_predict_linear", fit)
    return calls


def test_evaluate_baseline_input_error_exits_2_at_once(tmp_path, capsys, monkeypatch,
                                                       recwarn):
    # every draw would repeat an input error, so the first ends the run
    # with its own message, unwarned
    calls = _fails_after_the_selection(
        monkeypatch, InvalidInputError("lag 2 reaches past the training rows"))
    panel_path = _noiseless_panel(tmp_path)
    sel_path = tmp_path / "selection.json"
    _write_selection(sel_path)
    assert main(["evaluate", str(panel_path), str(sel_path), "--baseline-draws", "5",
                 "--out-dir", str(tmp_path / "ev")]) == 2
    assert capsys.readouterr().err == "error: lag 2 reaches past the training rows\n"
    assert len(calls) == 2
    assert not recwarn.list
    assert not (tmp_path / "ev").exists()


def test_evaluate_baseline_singular_on_every_draw_exits_3(tmp_path, capsys,
                                                          monkeypatch):
    calls = _fails_after_the_selection(monkeypatch,
                                       SingularMatrixError("Gram singular"))
    panel_path = _noiseless_panel(tmp_path)
    sel_path = tmp_path / "selection.json"
    _write_selection(sel_path)
    with pytest.warns(UserWarning, match="skipped: Gram singular") as caught:
        assert main(["evaluate", str(panel_path), str(sel_path),
                     "--baseline-draws", "5", "--out-dir", str(tmp_path / "ev")]) == 3
    assert len(calls) == 6 and len(caught) == 5
    err = capsys.readouterr().err
    assert err == (f"error: NetselectError: every baseline draw failed (5); the first "
                   f"was {calls[1]!r}: Gram singular\n")


@pytest.mark.parametrize("key, value, message", [
    ("sensor_ids", _IDS4 + ["s004"], "made on 5 sensors that differ from the "
                                     "panel's 4 in ids or order"),
    ("sensor_ids", _IDS4[:3] + ["s009"], "made on 4 sensors that differ from "
                                        "the panel's 4 in ids or order"),
    ("sensor_ids", _IDS4[:3], "made on 3 sensors that differ from the "
                              "panel's 4 in ids or order"),
    ("order", [2, 4], "exceeds panel size 4"),
    ("split", [300, 350, 380], "covers 380 hours, panel has 400"),
], ids=["sensor_ids", "sensor_ids-renamed", "sensor_ids-fewer", "order", "split"])
def test_evaluate_rejects_mismatched_network_size(tmp_path, capsys, key, value,
                                                  message):
    # a selection made on another panel is an input error
    panel_path = _noiseless_panel(tmp_path)
    sel_path = tmp_path / "selection.json"
    _write_selection(sel_path)
    stored = json.loads(sel_path.read_text())
    (stored if key == "order" else stored["hyperparams"])[key] = value
    sel_path.write_text(json.dumps(stored), encoding="utf-8")
    assert main(["evaluate", str(panel_path), str(sel_path),
                 "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_evaluate_refuses_the_panel_with_its_sensors_reordered(tmp_path, capsys):
    # the same sensors in another order would score the selection's
    # indices on the wrong series, with exit 0
    panel_path, coords_path, ids = _correlated_panel(tmp_path)
    sel_dir = tmp_path / "sel"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(sel_dir)]) == 0
    panel, _ = read_panel(panel_path)
    reversed_path = tmp_path / "reversed.csv"
    write_panel(PanelSeries(ids[::-1], panel.timestamps, panel.values[::-1]),
                reversed_path)
    capsys.readouterr()
    for path, code in ((reversed_path, 2), (panel_path, 0)):
        assert main(["evaluate", str(path), str(sel_dir / "selection.json"),
                     "--baseline-draws", "2", "--out-dir", str(tmp_path / "ev")]
                    ) == code
    assert ("made on 6 sensors that differ from the panel's 6 in ids or order"
            in capsys.readouterr().err)


def test_evaluate_refuses_the_panel_with_a_value_edited(tmp_path, capsys):
    # the same ids in the same order with one value changed used to
    # evaluate with exit 0 and another test MSE
    panel_path, coords_path, ids = _correlated_panel(tmp_path)
    sel_dir = tmp_path / "sel"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(sel_dir)]) == 0
    panel, _ = read_panel(panel_path)
    values = panel.values.copy()
    values[0, -1] += 0.5
    edited_path = tmp_path / "edited.csv"
    write_panel(PanelSeries(ids, panel.timestamps, values), edited_path)
    capsys.readouterr()
    for path, code in ((edited_path, 2), (panel_path, 0)):
        assert main(["evaluate", str(path), str(sel_dir / "selection.json"),
                     "--baseline-draws", "2", "--out-dir", str(tmp_path / "ev")]
                    ) == code
    err = capsys.readouterr().err
    assert "edited.csv: the panel's bytes differ" in err and "rerun select" in err


def _kernel_run(tmp_path, kernel="spatial-temporal"):
    """Select a kernel method at H=1 on an 8-sensor panel; returns the
    panel path, the coords path and the selection.json path."""
    panel_path, coords_path, _ = _correlated_panel(tmp_path, n=8)
    sel_dir = tmp_path / "sel"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--method", "kernel", "--kernel", kernel, "--H", "1",
                 "--k0", "6", "--k1", "3", "--p", "2", "--out-dir", str(sel_dir)]) == 0
    return panel_path, coords_path, sel_dir / "selection.json"


def _evaluate_report(panel_path, sel_path, coords_path, out_dir):
    """Exit code of evaluate and the bytes of the report.json it wrote."""
    code = main(["evaluate", str(panel_path), str(sel_path), "--coords",
                 str(coords_path), "--baseline-draws", "3", "--out-dir", str(out_dir)])
    report = out_dir / "report.json"
    return code, report.read_bytes() if report.exists() else None


def test_evaluate_refuses_coordinates_other_than_the_selections(tmp_path, capsys):
    # the graph is rebuilt from --coords; the same ids with their
    # coordinate pairs shuffled built another graph and exited 0 with
    # another test MSE
    panel_path, coords_path, sel_path = _kernel_run(tmp_path)
    rows = coords_path.read_text().splitlines()
    pairs = [row.split(",", 1)[1] for row in rows[1:]]
    shuffled = list(pairs)
    random.Random(1).shuffle(shuffled)
    assert shuffled != pairs
    coords_path.with_name("shuffled.csv").write_text("\n".join(
        [rows[0]] + [row.split(",", 1)[0] + "," + pair
                     for row, pair in zip(rows[1:], shuffled)]) + "\n")
    capsys.readouterr()
    code, report = _evaluate_report(panel_path, sel_path,
                                    coords_path.with_name("shuffled.csv"),
                                    tmp_path / "ev")
    assert (code, report) == (2, None)
    err = capsys.readouterr().err
    assert "shuffled.csv: the coordinates of the panel's sensors differ" in err
    assert "rerun select" in err


def test_evaluate_of_a_graph_kernel_needs_the_coordinates(tmp_path, capsys):
    panel_path, _, sel_path = _kernel_run(tmp_path)
    capsys.readouterr()
    out = tmp_path / "ev"
    assert main(["evaluate", str(panel_path), str(sel_path),
                 "--out-dir", str(out)]) == 2
    assert ("--coords is required to rebuild the graph of kernel"
            in capsys.readouterr().err)
    assert not (out / "report.json").exists()


def test_evaluate_takes_the_coordinates_in_any_row_order(tmp_path, capsys):
    # the digest is of the coordinates aligned to the panel, so a file
    # with an extra station or its rows reordered names the same graph
    panel_path, coords_path, sel_path = _kernel_run(tmp_path)
    rows = coords_path.read_text().splitlines()
    variants = {"extra.csv": rows + ["zzz,0.5,0.5"],
                "reordered.csv": rows[:1] + rows[:0:-1]}
    code, expected = _evaluate_report(panel_path, sel_path, coords_path,
                                      tmp_path / "ev")
    assert code == 0
    for name, lines in variants.items():
        coords_path.with_name(name).write_text("\n".join(lines) + "\n")
        assert _evaluate_report(panel_path, sel_path, coords_path.with_name(name),
                                tmp_path / f"ev-{name}") == (0, expected), name
    capsys.readouterr()


@pytest.mark.parametrize("kernel", KERNEL_TAGS)
def test_select_and_evaluate_build_the_same_kernel(tmp_path, capsys, kernel):
    # evaluate refits with the Gram blocks that select searched lambda on;
    # the test MSE it reports is the library's for the stored settings
    panel_path, coords_path, sel_path = _kernel_run(tmp_path, kernel)
    code, report = _evaluate_report(panel_path, sel_path, coords_path, tmp_path / "ev")
    capsys.readouterr()
    assert code == 0
    sel = json.loads(sel_path.read_text())
    hp, order = sel["hyperparams"], sel["order"]
    X = read_panel(panel_path)[0].values
    split = Split(*hp["split"])
    graph = (build_knn_graph(read_coords(coords_path)[1], 6, 3)
             if kernel in GRAPH_KERNELS else None)
    kb = build_kernel_blocks(kernel, H=1, gamma=hp["gamma"], graph=graph,
                             X_train=X[:, :split.t_tv])
    expected = held_out_mse(fit_predict_kernel(kb, order, hp["lambda"], 1), X, order,
                            split)
    assert json.loads(report)["test_mse"] == expected


def test_kernel_grid_is_scaled_by_the_gram_eigensolve(tmp_path, capsys, monkeypatch):
    # lambda_max of the lag-stacked Gram comes from one eigensolve; the
    # power method scales only the GCN Laplacian
    def no_power_method(*args, **kwargs):
        raise AssertionError("the kernel grid ran the power method")

    monkeypatch.setattr(cli, "power_method", no_power_method)
    panel_path, coords_path, sel_path = _kernel_run(tmp_path)
    capsys.readouterr()
    hp = json.loads(sel_path.read_text())["hyperparams"]
    graph = build_knn_graph(read_coords(coords_path)[1], 6, 3)
    kb = build_kernel_blocks("spatial-temporal", H=1, gamma=hp["gamma"], graph=graph)
    K = assemble_blocks(kb, [], 1)[0]
    assert hp["lambda_grid"] == lambda_grid(np.linalg.eigvalsh(K)[-1])


def test_evaluate_records_gcn_prediction_net_settings(tmp_path, capsys):
    panel_path = _noiseless_panel(tmp_path)
    coords_path = tmp_path / "coords.csv"
    _write_coords(coords_path, _IDS4,
                  [[0.0, 0.0], [1.0, 0.2], [0.1, 1.3], [1.2, 1.1]])
    sel_dir = tmp_path / "sel"
    with pytest.warns(UserWarning, match="below eps0"):
        assert main(["select", str(panel_path), "--coords", str(coords_path),
                     "--method", "gcn-mask", "--p", "1", "--k0", "2", "--k1", "1",
                     "--cheb-order", "2", "--f-out", "2", "--fc-sizes", "4",
                     "--max-epoch", "2", "--mask-lambda-count", "2",
                     "--out-dir", str(sel_dir)]) == 0
    ev_dir = tmp_path / "ev"
    assert main(["evaluate", str(panel_path), str(sel_dir / "selection.json"),
                 "--coords", str(coords_path), "--baseline-draws", "2",
                 "--lr", "0.01", "--batch-size", "64", "--max-epoch", "3",
                 "--out-dir", str(ev_dir)]) == 0
    report = json.loads((ev_dir / "report.json").read_text())
    assert report["method"] == "gcn-mask"
    assert report["hyperparams"]["prediction_net"] == {
        "lr": 0.01, "batch_size": 64, "max_epoch": 3}


_COORDS4 = [[0.0, 0.0], [1.0, 0.2], [0.1, 1.3], [1.2, 1.1]]
_COORDS4_SHA256 = hashlib.sha256(np.asarray(_COORDS4, dtype="<f8").tobytes()).hexdigest()
# complete hyperparams of each stored method family, as select writes them
_STORED = {
    "linear": {"H": 0, "sensor_ids": _IDS4, "panel_sha256": _PANEL4_SHA256,
               "split": [300, 350, 400], "standardize": False},
    "kernel": {"H": 0, "sensor_ids": _IDS4, "panel_sha256": _PANEL4_SHA256,
               "split": [300, 350, 400], "standardize": False,
               "kernel": "autocovariance", "gamma": 0.0, "lambda": 0.0},
    "gcn-mask": {"H": 0, "sensor_ids": _IDS4, "panel_sha256": _PANEL4_SHA256,
                 "split": [300, 350, 400], "standardize": False,
                 "k0": 2, "k1": 1, "coords_sha256": _COORDS4_SHA256,
                 "laplacian": "combinatorial", "cheb_order": 2,
                 "f_out": 2, "fc_sizes": [4]},
}


def _evaluate_stored(tmp_path, method, order, hp):
    """Exit code of evaluate on a hand-written selection.json."""
    panel_path = _noiseless_panel(tmp_path)
    coords_path = tmp_path / "coords.csv"
    _write_coords(coords_path, _IDS4, _COORDS4)
    sel_path = tmp_path / "selection.json"
    sel = {"method": method, "hyperparams": hp, "order": order,
           "step_values": [0.0] * len(order)}
    sel_path.write_text(json.dumps(sel), encoding="utf-8")
    return main(["evaluate", str(panel_path), str(sel_path),
                 "--coords", str(coords_path), "--baseline-draws", "2",
                 "--max-epoch", "1", "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("method", sorted(_STORED))
def test_evaluate_needs_every_stored_setting(tmp_path, capsys, method):
    # evaluate keeps no defaults of its own: a missing key is an input
    # error, never a silently different method
    hp = _STORED[method]
    for key in hp:
        partial = {k: v for k, v in hp.items() if k != key}
        assert _evaluate_stored(tmp_path, method, [2, 3], partial) == 2, key
        err = capsys.readouterr().err
        assert repr(key) in err and "rerun select" in err
    assert _evaluate_stored(tmp_path, method, [2, 3], hp) == 0
    assert json.loads((tmp_path / "report.json").read_text())["method"] == method


@pytest.mark.parametrize("kernel, graph_keys", [
    ("autocovariance", {}),
    ("spatial-temporal", {"k0": 2, "k1": 1, "coords_sha256": _COORDS4_SHA256})])
def test_evaluate_needs_k0_k1_only_for_a_graph_kernel(tmp_path, capsys, kernel,
                                                      graph_keys):
    # k0, k1 and the coordinates' digest are settings of the kNN graph,
    # which only the graph kernels and the GCN rules build
    hp = dict(_STORED["kernel"], kernel=kernel, **graph_keys)
    assert _evaluate_stored(tmp_path, "kernel", [2, 3], hp) == 0
    for key in graph_keys:
        partial = {k: v for k, v in hp.items() if k != key}
        assert _evaluate_stored(tmp_path, "kernel", [2, 3], partial) == 2
        assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("method", sorted(_STORED))
def test_evaluate_rejects_negative_sensor_index(tmp_path, capsys, method):
    # numpy would read -1 as the last sensor
    assert _evaluate_stored(tmp_path, method, [-1, 2], _STORED[method]) == 2
    assert "'order' must be a list of one or more distinct integers >= 0" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("method, key, value", [
    ("linear", "sensor_ids", ",".join(_IDS4)),
    ("linear", "sensor_ids", [0, 1, 2, 3]),
    ("linear", "split", [300, 400]),
    ("linear", "standardize", "no"),
    ("linear", "panel_sha256", _PANEL4_SHA256.upper()),
    ("linear", "H", "0"),
    ("linear", "H", 0.5),
    ("linear", "H", -1),
    ("linear", "H", True),
    ("kernel", "gamma", "0"),
    ("kernel", "lambda", -1.0),
    ("gcn-mask", "k0", "2"),
    ("gcn-mask", "laplacian", "foo"),
    ("gcn-mask", "fc_sizes", "4"),
    ("gcn-mask", "coords_sha256", _COORDS4_SHA256.upper()),
    ("gcn-mask", "coords_sha256", _COORDS4_SHA256[:63]),
])
def test_evaluate_checks_stored_setting_types(tmp_path, capsys, method, key, value):
    # a wrong type or range is an input error naming the key, never a
    # traceback or a silently different method
    hp = dict(_STORED[method], **{key: value})
    assert _evaluate_stored(tmp_path, method, [2, 3], hp) == 2
    assert f"{key!r} must be" in capsys.readouterr().err


def test_evaluate_rejects_malformed_selection(tmp_path, capsys):
    panel_path = _noiseless_panel(tmp_path)
    sel_path = tmp_path / "selection.json"
    argv = ["evaluate", str(panel_path), str(sel_path), "--out-dir", str(tmp_path)]
    sel_path.write_text("order: [2, 3]\n", encoding="utf-8")
    assert main(argv) == 2
    assert "malformed selection" in capsys.readouterr().err
    _write_selection(sel_path)
    stored = json.loads(sel_path.read_text())
    del stored["order"]
    sel_path.write_text(json.dumps(stored), encoding="utf-8")
    assert main(argv) == 2
    assert "'order'" in capsys.readouterr().err
    # JSON values of the wrong type are not coerced
    for key, value in (("order", [2.9, True]), ("order", ["3", 1]),
                       ("order", [2, True]), ("step_values", ["0.5", True]),
                       ("step_values", [0.5, True])):
        _write_selection(sel_path)
        stored = json.loads(sel_path.read_text())
        stored[key] = value
        sel_path.write_text(json.dumps(stored), encoding="utf-8")
        assert main(argv) == 2, (key, value)
        assert f"{key!r} must be a list of" in capsys.readouterr().err
    # nor are values that no select run writes; json.load reads bare
    # NaN and Infinity
    for key, text in (("order", "[2, 2]"), ("order", "[]"),
                      ("step_values", "[0.0]"), ("step_values", "[NaN, 0.0]"),
                      ("step_values", "[0.0, Infinity]")):
        _write_selection(sel_path)
        stored = json.loads(sel_path.read_text())
        stored[key] = "@"
        sel_path.write_text(json.dumps(stored).replace('"@"', text), encoding="utf-8")
        assert main(argv) == 2, (key, text)
        assert repr(key) in capsys.readouterr().err, (key, text)
    _write_selection(sel_path)
    sel_path.write_text(f"[{sel_path.read_text()}]", encoding="utf-8")
    assert main(argv) == 2
    assert "malformed selection" in capsys.readouterr().err
    sel_path.write_bytes(b"\xff" + sel_path.read_bytes())  # not UTF-8
    assert main(argv) == 2
    assert "malformed selection" in capsys.readouterr().err


def test_evaluate_takes_the_split_from_the_selection_only(tmp_path, capsys):
    panel_path = _noiseless_panel(tmp_path)
    sel_path = tmp_path / "selection.json"
    _write_selection(sel_path)
    for flag in ("--standardize", "--split", "--val-frac", "--test-frac"):
        argv = ["evaluate", str(panel_path), str(sel_path),
                "--out-dir", str(tmp_path), flag]
        with pytest.raises(SystemExit) as exc:
            main(argv if flag == "--standardize" else argv + ["0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


_SELECT_FLAGS = ["--p", "1", "--k0", "2", "--k1", "1", "--cheb-order", "2",
                 "--f-out", "2", "--fc-sizes", "4", "--max-epoch", "2",
                 "--mask-lambda-count", "2"]
_COMMON_RECORD = ["H", "panel_sha256", "sensor_ids", "split", "standardize"]
_KERNEL_RECORD = _COMMON_RECORD + ["gamma", "kernel", "lambda"]
_GRAPH_KERNEL_RECORD = _KERNEL_RECORD + ["coords_sha256", "k0", "k1"]
_GCN_RECORD = _COMMON_RECORD + ["batch_size", "cheb_order", "coords_sha256", "f_out",
                                "fc_sizes", "k0", "k1", "laplacian", "lr",
                                "max_epoch", "seed"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("flags, keys, values", [
    (["--method", "linear"], _COMMON_RECORD, {"H": 0}),
    (["--method", "kernel"], _GRAPH_KERNEL_RECORD + ["lambda_grid", "validation_error"],
     {"H": 0}),
    (["--method", "kernel", "--lambda", "0.1"], _GRAPH_KERNEL_RECORD, {"lambda": 0.1}),
    (["--method", "kernel", "--kernel", "autocovariance", "--lambda", "0.1"],
     _KERNEL_RECORD, {"kernel": "autocovariance"}),
    (["--method", "gcn-dropout", "--lr", "0.02"], _GCN_RECORD + ["measure"],
     {"measure": "r2", "lr": 0.02, "batch_size": 50, "max_epoch": 2}),
    (["--method", "gcn-dropout"], _GCN_RECORD + ["measure"], {"lr": 0.002}),
    (["--method", "gcn-mask", "--eps0", "0.02"],
     _GCN_RECORD + ["eps0", "mask_lambda_grid"],
     {"eps0": 0.02, "mask_lambda_grid": [0.05, 0.35], "lr": 0.05,
      "batch_size": 50, "max_epoch": 2}),
], ids=["linear", "kernel-grid", "kernel-lambda", "kernel-autocovariance",
        "gcn-dropout", "gcn-dropout-default-lr", "gcn-mask"])
def test_select_records_every_setting(tmp_path, capsys, flags, keys, values):
    # select alone writes the settings record, each fact once, and
    # evaluate rebuilds the method from it; every output names the
    # method as --method does, and p is the length of the order
    panel_path = _noiseless_panel(tmp_path)
    coords_path = tmp_path / "coords.csv"
    _write_coords(coords_path, _IDS4, _COORDS4)
    sel_dir = tmp_path / "sel"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(sel_dir)] + _SELECT_FLAGS + flags) == 0
    sel = json.loads((sel_dir / "selection.json").read_text())
    hp = sel["hyperparams"]
    assert sel["method"] == flags[1]
    assert len(sel["order"]) == 1
    assert sorted(hp) == sorted(keys)
    assert {k: hp[k] for k in values} == values
    if "mask_lambda_grid" in hp:
        rows = (sel_dir / "mask_path.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == hp["mask_lambda_grid"]
    assert main(["evaluate", str(panel_path), str(sel_dir / "selection.json"),
                 "--coords", str(coords_path), "--baseline-draws", "2",
                 "--max-epoch", "1", "--out-dir", str(tmp_path / "ev")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert report["method"] == flags[1]
    assert _read_csv(tmp_path / "ev" / "summary.csv")[1][0] == flags[1]


_REPORT_KEYS = ["baseline_draws", "baseline_mean", "baseline_skipped", "hyperparams",
                "method", "seed", "selected", "test_mse"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("method", ["linear", "kernel", "gcn-mask"])
def test_report_holds_the_documented_keys(tmp_path, capsys, method):
    # report.json is written from one dict that no class declares; its
    # hyperparams are the selection's, plus the prediction net's
    # settings for the GCN rules
    panel_path = _noiseless_panel(tmp_path)
    coords_path = tmp_path / "coords.csv"
    _write_coords(coords_path, _IDS4, _COORDS4)
    sel_path = tmp_path / "sel" / "selection.json"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--method", method, "--out-dir", str(sel_path.parent)]
                + _SELECT_FLAGS) == 0
    assert main(["evaluate", str(panel_path), str(sel_path), "--coords",
                 str(coords_path), "--baseline-draws", "2", "--lr", "0.01",
                 "--batch-size", "64", "--max-epoch", "1",
                 "--out-dir", str(tmp_path / "ev")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert sorted(report) == _REPORT_KEYS
    expected = json.loads(sel_path.read_text())["hyperparams"]
    if method.startswith("gcn"):
        expected["prediction_net"] = {"lr": 0.01, "batch_size": 64, "max_epoch": 1}
    assert report["hyperparams"] == expected


def _twelve_sensors(tmp_path, coords=None, constant_sensor=None):
    """select argv on a 12-sensor, 400-hour panel and its coords file."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 400))
    if constant_sensor is not None:
        X[constant_sensor] = 0.5
    ids = [f"s{i:03d}" for i in range(12)]
    panel_path = tmp_path / "panel.csv"
    write_panel(PanelSeries(ids, np.arange(400) * HOUR, X), panel_path)
    coords_path = tmp_path / "coords.csv"
    _write_coords(coords_path, ids, rng.normal(size=(12, 2)) if coords is None
                  else coords)
    return ["select", str(panel_path), "--coords", str(coords_path),
            "--out-dir", str(tmp_path / "out")]


def _disjoint_feeds(tmp_path):
    """ingest argv on two stations whose records never overlap in time."""
    lines = ["station,moment,bikes,spaces"]
    for name, start in (("a01", 0), ("a02", 1000)):
        lines += [f"{name},{(start + k) * HOUR},{k % 7},{10 - k % 7}"
                  for k in range(150)]
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["ingest", str(raw), "--out-dir", str(tmp_path / "out")]


_SAME_SPOT = [[0.0, 0.0]] * 3 + [[float(i), 1.0] for i in range(9)]
_TWO_CLUSTERS = ([[0.1 * i, 0.0] for i in range(6)]
                 + [[100.0 + 0.1 * i, 100.0] for i in range(6)])


@pytest.mark.parametrize("argv, message", [
    (lambda tmp: _twelve_sensors(tmp, constant_sensor=1) + ["--standardize"],
     "sensor 's001' (index 1) has zero residual variance on training rows"),
    (lambda tmp: _twelve_sensors(tmp) + ["--H", "500"], "lag 320 outside [0, 319]"),
    (lambda tmp: _twelve_sensors(tmp, coords=_SAME_SPOT)
     + ["--method", "kernel", "--k0", "3", "--k1", "1"],
     "node 0 has zero distance to its k1-th neighbor (duplicate coordinates)"),
    (lambda tmp: _twelve_sensors(tmp, coords=_TWO_CLUSTERS)
     + ["--method", "kernel", "--k0", "3", "--k1", "1"],
     "kNN graph with k0=3 is not connected: components "
     "[[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]]"),
    (_disjoint_feeds, "empty common interval"),
], ids=["constant-sensor", "lag-beyond-training", "duplicate-coordinates",
        "disconnected-graph", "no-common-interval"])
def test_input_faults_exit_2(tmp_path, capsys, argv, message):
    # these faults in the data exited 3, the code of a failed computation
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


# each command's positional arguments; argparse rejects a bad flag first
_POSITIONAL = {"ingest": ["raw.csv"], "select": ["panel.csv", "--coords", "c.csv"],
               "evaluate": ["panel.csv", "selection.json"]}


@pytest.mark.parametrize("command, flag", [
    ("ingest", "--rc"),
    ("select", "--lambda"), ("select", "--r-s"), ("select", "--lr"),
    ("select", "--mask-lambda-min"), ("select", "--mask-lambda-max"),
    ("select", "--eps0"),
    ("evaluate", "--lr"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_flags_exit_2(capsys, command, flag, value):
    # they crashed with a traceback, ran into a later error, or wrote a
    # bare NaN into selection.json
    with pytest.raises(SystemExit) as exc:
        main([command] + _POSITIONAL[command] + [f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: {value!r} is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["select", "evaluate"])
def test_negative_seed_exits_2(capsys, command):
    # numpy's generator rejects it, which exited 1 with a traceback
    with pytest.raises(SystemExit) as exc:
        main([command] + _POSITIONAL[command] + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: '-1' is not an integer >= 0" in capsys.readouterr().err


def _commands():
    """Each command's argparse parser, by command name."""
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# a value that each numeric flag's kind refuses, and the kind's phrase
_REFUSED = [
    ("ingest", "--rc", "nan", "a finite number"),
    ("ingest", "--min-records", "-1", "an integer >= 0"),
    ("select", "--p", "0", "an integer >= 1"),
    ("select", "--H", "1.5", "an integer >= 0"),
    ("select", "--lambda", "-1", "a finite number >= 0"),
    ("select", "--r-s", "inf", "a finite number"),
    ("select", "--seed", "x", "an integer >= 0"),
    ("select", "--k0", "0", "an integer >= 1"),
    ("select", "--k1", "-2", "an integer >= 1"),
    ("select", "--cheb-order", "-1", "an integer >= 0"),
    ("select", "--f-out", "0", "an integer >= 1"),
    ("select", "--fc-sizes", "8,0", "a list of integers >= 1"),
    ("select", "--lr", "0", "a finite number > 0"),
    ("select", "--batch-size", "0", "an integer >= 1"),
    ("select", "--max-epoch", "0", "an integer >= 1"),
    ("select", "--mask-lambda-min", "-1", "a finite number >= 0"),
    ("select", "--mask-lambda-max", "-0.5", "a finite number >= 0"),
    ("select", "--mask-lambda-count", "0", "an integer >= 1"),
    ("select", "--eps0", "0", "a finite number > 0"),
    ("select", "--split", "300,340", "three integers t_tv, t0, t1"),
    ("evaluate", "--baseline-draws", "0", "an integer >= 1"),
    ("evaluate", "--seed", "-1", "an integer >= 0"),
    ("evaluate", "--lr", "-0.01", "a finite number > 0"),
    ("evaluate", "--batch-size", "0", "an integer >= 1"),
    ("evaluate", "--max-epoch", "2.5", "an integer >= 1"),
]


# values that pass the finiteness check but not the range of their kind
_OUT_OF_RANGE = [
    ("ingest", "--rc", "0", "a finite number in (0, 1)"),
    ("ingest", "--rc", "1.5", "a finite number in (0, 1)"),
    # a share of records is at most 1, so no station has one above 1
    ("ingest", "--rc", "1", "a finite number in (0, 1)"),
    ("select", "--r-s", "1", "a finite number in (0, 1)"),
    ("select", "--r-s", "5", "a finite number in (0, 1)"),
]


# list values with an empty entry, which the parse once skipped
_EMPTY_ENTRY = [
    ("select", "--fc-sizes", "16,,8", "a list of integers >= 1"),
    ("select", "--split", "1200,,1275,1500", "three integers t_tv, t0, t1"),
]


# boundaries that are not three integers >= 0
_SPLIT_FORM = [
    ("select", "--split", "300,340,400,500", "three integers t_tv, t0, t1"),
    ("select", "--split", "-1,340,400", "three integers t_tv, t0, t1"),
    ("select", "--split", "300,340,inf", "three integers t_tv, t0, t1"),
]


@pytest.mark.parametrize("command, flag, value, wanted",
                         _REFUSED + _OUT_OF_RANGE + _EMPTY_ENTRY + _SPLIT_FORM)
def test_numeric_flags_parse_with_their_kind(capsys, command, flag, value, wanted):
    # checked at parse time whether or not the chosen method uses the flag,
    # so select never records a value that evaluate refuses
    with pytest.raises(SystemExit) as exc:
        main([command] + _POSITIONAL[command] + [f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: {value!r} is not {wanted}" in capsys.readouterr().err


def test_every_numeric_flag_parses_with_a_kind():
    # a flag without a kind takes any value, which its consumer may not check
    typed = {(command, action.option_strings[0]): action.type
             for command, parser in _commands().items()
             for action in parser._actions if action.type is not None}
    assert sorted(typed) == sorted((command, flag) for command, flag, _, _ in _REFUSED)
    assert all(isinstance(getattr(parse, "__self__", None), cli.Kind)
               for parse in typed.values())


def test_select_flags_and_evaluate_share_each_settings_kind():
    # select records a flag's value under its key, and evaluate checks it
    # with the same Kind object, so the two accept the same values;
    # --standardize takes no value
    actions = _commands()["select"]._option_string_actions
    shared = {}
    for key, (kind, _) in cli.SETTINGS.items():
        action = actions.get("--" + key.replace("_", "-"))
        if action is None or key == "standardize":
            continue
        if action.choices is not None:
            assert all(kind.check(choice) for choice in action.choices), key
        else:
            assert action.type.__self__ is kind, key
        shared[key] = kind.wanted
    assert shared == {
        "split": "three integers t_tv, t0, t1", "H": "an integer >= 0",
        "kernel": f"one of {select_kernel.KERNEL_TAGS}",
        "lambda": "a finite number >= 0", "k0": "an integer >= 1",
        "k1": "an integer >= 1", "laplacian": f"one of {cli.LAPLACIANS}",
        "cheb_order": "an integer >= 0", "f_out": "an integer >= 1",
        "fc_sizes": "a list of integers >= 1"}


def test_select_methods_are_the_methods_a_record_holds(tmp_path, capsys):
    # the stored method is select's --method value; a tag of the old
    # H-suffixed form restated H and is refused, with a pointer to select
    assert _commands()["select"]._option_string_actions["--method"].choices == METHODS
    for tag, method in (("linear-h0", "linear"), ("kernel-h", "kernel")):
        assert _evaluate_stored(tmp_path, tag, [2, 3], _STORED[method]) == 2
        err = capsys.readouterr().err
        assert str(METHODS) in err and "rerun select" in err
        assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("error, code", [
    (InvalidInputError("bad"), 2),
    (SingularMatrixError("bad"), 3),
    (TrainingDivergedError("bad"), 3),
])
def test_the_error_class_decides_the_exit_code(capsys, monkeypatch, error, code):
    def fail(path):
        raise error
    monkeypatch.setattr(cli, "read_panel", fail)
    assert main(["select", "panel.csv", "--coords", "coords.csv"]) == code
    assert capsys.readouterr().err.endswith("bad\n")



def test_select_writes_the_same_bytes_with_the_thread_count_unset(tmp_path):
    # on a multi-core host, the autocovariance X X^T of a panel of the
    # linear-h0 benchmark's shape sums in another order at two BLAS
    # threads than at one, which moved the step values in their last
    # digits; numpy is loaded in this process, so only a new one shows
    # the thread count that cli sets
    rng = np.random.default_rng(0)
    coords = rng.uniform(size=(110, 2))
    panel = synth_generate(build_knn_graph(coords, 20, 7), 1500, "graph-smooth",
                           seed=0)
    panel_path, coords_path = tmp_path / "panel.csv", tmp_path / "coords.csv"
    write_panel(panel, panel_path)
    _write_coords(coords_path, panel.sensor_ids, coords)
    src = str(Path(__file__).resolve().parent.parent / "src")
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    outputs = []
    for threads in ({}, dict.fromkeys(names, "1")):
        env = {k: v for k, v in os.environ.items() if k not in names}
        env.update(threads, PYTHONPATH=src)
        out = tmp_path / f"threads-{len(threads)}"
        subprocess.run([sys.executable, "-m", "netselect.cli", "select",
                        str(panel_path), "--coords", str(coords_path), "--method",
                        "linear", "--H", "0", "--standardize", "--out-dir", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append([(out / name).read_bytes()
                        for name in ("selection.json", "selected.geojson")])
    assert outputs[0] == outputs[1]
