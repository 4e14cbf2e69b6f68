"""End-to-end command line runs: ingest, select, evaluate, exit codes."""

import json

import numpy as np
import pytest

from netselect.cli import main
from netselect.evaluation import default_p
from netselect.select_linear import SelectionResult
from netselect.timeseries import HOUR, PanelSeries, write_panel


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


def _write_selection(path, n=4):
    result = SelectionResult(
        "linear-h0", {"H": 0, "n": n, "split": [300, 350, 400],
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


def test_evaluate_rejects_mismatched_network_size(tmp_path, capsys):
    panel_path = _noiseless_panel(tmp_path)
    sel_path = tmp_path / "selection.json"
    _write_selection(sel_path, n=7)
    assert main(["evaluate", str(panel_path), str(sel_path),
                 "--out-dir", str(tmp_path)]) == 3
    assert "PartitionError" in capsys.readouterr().err


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
