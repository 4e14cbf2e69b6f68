"""End-to-end command line runs: ingest, select, evaluate, exit codes."""

import argparse
import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from netselect import cli, select_kernel
from netselect.cli import _build_parser, main
from netselect.evaluation import default_p
from netselect.select_linear import SelectionResult
from netselect.timeseries import HOUR, PanelSeries, estimate_blocks, write_panel

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
    assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()


@pytest.mark.parametrize("row, message", [
    ("a01,nan,3,7", "non-finite moment"),
    ("a02,3600,nan,7", "non-finite bikes/spaces"),
], ids=["nan-moment", "nan-bikes"])
def test_ingest_rejects_non_finite_records(tmp_path, capsys, row, message):
    # with a01's records in reverse order, a NaN moment used to break
    # their sort and shrink the panel to 2 hours; a NaN bikes value
    # dropped a02 without a word
    raw = tmp_path / "raw.csv"
    _write_raw(raw)
    lines = raw.read_text().splitlines()
    lines[1:301] = lines[300:0:-1] + [row]
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", str(raw), "--out-dir", str(out)]) == 2
    assert f"line 302: {message}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("stamp", ["nan", "inf"])
def test_select_rejects_non_finite_timestamp(tmp_path, capsys, stamp):
    panel_path, coords_path, _ = _correlated_panel(tmp_path)
    lines = panel_path.read_text().splitlines()
    lines[5] = stamp + lines[5][lines[5].index(","):]
    panel_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(tmp_path / "sel")]) == 2
    assert f"line 6: non-finite moment '{stamp}'" in capsys.readouterr().err


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
    assert sel["method"] == "linear-h0"
    assert len(sel["order"]) == 1  # default p is 10% of 6 sensors
    assert sel["hyperparams"]["n"] == 6
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
    assert ker["method"] == "kernel-h0"
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
    assert sel["method"] == "kernel-h"
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
    assert sel["method"] == "kernel-h"
    assert len(sel["order"]) == default_p(n)
    assert sel["hyperparams"]["p"] == default_p(n)
    assert len(sel["hyperparams"]["lambda_grid"]) == 5


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


def _noiseless_panel(tmp_path, T=400, seed=1):
    # two free signals plus their difference and sum: any pair of the
    # four sensors reconstructs the rest exactly
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(2, T))
    X = np.vstack([Z[0], Z[1], Z[0] - Z[1], Z[0] + Z[1]])
    ids = [f"s{i:03d}" for i in range(4)]
    panel_path = tmp_path / "panel.csv"
    write_panel(PanelSeries(ids, np.arange(T) * HOUR, X), panel_path)
    return panel_path


def _write_selection(path):
    result = SelectionResult(
        "linear-h0", {"H": 0, "n": 4, "split": [300, 350, 400],
                      "standardize": False},
        [2, 3], [0.0, 0.0])
    path.write_text(result.to_json() + "\n", encoding="utf-8")


def test_evaluate_reports_exact_reconstruction(tmp_path, capsys):
    panel_path = _noiseless_panel(tmp_path)
    sel_path = tmp_path / "selection.json"
    _write_selection(sel_path)
    out1 = tmp_path / "ev1"
    assert main(["evaluate", str(panel_path), str(sel_path),
                 "--baseline-draws", "5", "--out-dir", str(out1)]) == 0
    assert "test MSE" in capsys.readouterr().out

    report = json.loads((out1 / "report.json").read_text())
    assert report["method"] == "linear-h0"
    assert report["selected"] == [2, 3]
    assert report["test_mse"] <= 1e-10
    assert report["baseline_draws"] == 5
    assert report["baseline_skipped"] == 0
    assert "prediction_net" not in report["hyperparams"]

    summary = (out1 / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,H=0"
    assert summary[1].startswith("linear-h0,")

    out2 = tmp_path / "ev2"
    assert main(["evaluate", str(panel_path), str(sel_path),
                 "--baseline-draws", "5", "--out-dir", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


@pytest.mark.parametrize("key, value, message", [
    ("n", 7, "made for 7 sensors, panel has 4"),
    ("order", [2, 4], "exceeds panel size 4"),
    ("split", [300, 350, 380], "covers 380 hours, panel has 400"),
], ids=["n", "order", "split"])
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


def test_evaluate_records_gcn_prediction_net_settings(tmp_path, capsys):
    panel_path = _noiseless_panel(tmp_path)
    coords_path = tmp_path / "coords.csv"
    _write_coords(coords_path, [f"s{i:03d}" for i in range(4)],
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
# complete hyperparams of each stored method family, as select writes them
_STORED = {
    "linear-h0": {"H": 0, "n": 4, "split": [300, 350, 400], "standardize": False},
    "kernel-h0": {"H": 0, "n": 4, "split": [300, 350, 400], "standardize": False,
                  "kernel": "autocovariance", "gamma": 0.0, "lambda": 0.0,
                  "k0": 2, "k1": 1},
    "gcn-mask": {"H": 0, "n": 4, "split": [300, 350, 400], "standardize": False,
                 "k0": 2, "k1": 1, "laplacian": "combinatorial", "cheb_order": 2,
                 "f_out": 2, "fc_sizes": [4]},
}


def _evaluate_stored(tmp_path, method, order, hp):
    """Exit code of evaluate on a hand-written selection.json."""
    panel_path = _noiseless_panel(tmp_path)
    coords_path = tmp_path / "coords.csv"
    _write_coords(coords_path, [f"s{i:03d}" for i in range(4)], _COORDS4)
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
        assert repr(key) in capsys.readouterr().err
    assert _evaluate_stored(tmp_path, method, [2, 3], hp) == 0
    assert json.loads((tmp_path / "report.json").read_text())["method"] == method


@pytest.mark.parametrize("method", sorted(_STORED))
def test_evaluate_rejects_negative_sensor_index(tmp_path, capsys, method):
    # numpy would read -1 as the last sensor
    assert _evaluate_stored(tmp_path, method, [-1, 2], _STORED[method]) == 2
    assert "negative index" in capsys.readouterr().err


@pytest.mark.parametrize("method, key, value", [
    ("linear-h0", "n", "4"),
    ("linear-h0", "split", [300, 400]),
    ("linear-h0", "standardize", "no"),
    ("linear-h0", "H", "0"),
    ("linear-h0", "H", 0.5),
    ("linear-h0", "H", -1),
    ("linear-h0", "H", True),
    ("kernel-h0", "gamma", "0"),
    ("kernel-h0", "lambda", -1.0),
    ("gcn-mask", "k0", "2"),
    ("gcn-mask", "laplacian", "foo"),
    ("gcn-mask", "fc_sizes", "4"),
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
_COMMON_RECORD = ["H", "k0", "k1", "n", "p", "seed", "split", "standardize"]
_KERNEL_RECORD = _COMMON_RECORD + ["gamma", "kernel", "lambda", "lambda_grid"]
_GCN_RECORD = _COMMON_RECORD + ["batch_size", "cheb_order", "f_out", "fc_sizes",
                                "laplacian", "lr", "max_epoch"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("flags, keys, values", [
    (["--method", "linear"], _COMMON_RECORD, {"H": 0, "p": 1}),
    (["--method", "kernel"], _KERNEL_RECORD + ["validation_error"], {"H": 0}),
    (["--method", "kernel", "--lambda", "0.1"], _KERNEL_RECORD,
     {"lambda": 0.1, "lambda_grid": [0.1]}),
    (["--method", "gcn-dropout", "--lr", "0.02"], _GCN_RECORD + ["measure", "q"],
     {"q": 0.25, "measure": "r2", "lr": 0.02, "batch_size": 50, "max_epoch": 2}),
    (["--method", "gcn-mask", "--eps0", "0.02"],
     _GCN_RECORD + ["eps0", "mask_lambda_grid"],
     {"eps0": 0.02, "mask_lambda_grid": [0.05, 0.35], "lr": 0.05,
      "batch_size": 50, "max_epoch": 2}),
], ids=["linear", "kernel-grid", "kernel-lambda", "gcn-dropout", "gcn-mask"])
def test_select_records_every_setting(tmp_path, capsys, flags, keys, values):
    # select alone writes the settings record, and evaluate rebuilds the
    # method from it
    panel_path = _noiseless_panel(tmp_path)
    coords_path = tmp_path / "coords.csv"
    _write_coords(coords_path, [f"s{i:03d}" for i in range(4)], _COORDS4)
    sel_dir = tmp_path / "sel"
    assert main(["select", str(panel_path), "--coords", str(coords_path),
                 "--out-dir", str(sel_dir)] + _SELECT_FLAGS + flags) == 0
    hp = json.loads((sel_dir / "selection.json").read_text())["hyperparams"]
    assert sorted(hp) == sorted(keys)
    assert {k: hp[k] for k in values} == values
    if "mask_lambda_grid" in hp:
        rows = (sel_dir / "mask_path.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == hp["mask_lambda_grid"]
    assert main(["evaluate", str(panel_path), str(sel_dir / "selection.json"),
                 "--coords", str(coords_path), "--baseline-draws", "2",
                 "--max-epoch", "1", "--out-dir", str(tmp_path / "ev")]) == 0
    capsys.readouterr()
