"""Seeded mutations of every file the commands read.

Each case makes one to three byte edits to one small input file (the
raw feed, panel.csv, its sidecar panel.csv.npz, coords.csv or
selection.json) and runs the commands that read it through cli.main.
Every run must return 0, 2 or 3, with no exception escaping; a panel
whose sidecar was mutated must select what it selects with no sidecar.
"""

import random
import shutil

import pytest

from netselect.cli import main
from netselect.timeseries import HOUR

CASES = 100  # per mutated file
TOKENS = [b"\xff", b"\xc3", b"\x00", b'"', b",", b"\n", b"\r", b" ", b"nan", b"-inf",
          b"1e309", b"1_0", b"-", b".", b"e", b"0", b"9" * 30, b"[", b"]", b"{", b"}",
          b":", b"null", b"true"]
STATIONS = ["s1", "s2", "s3", "s4"]


def _mutate(data, rng):
    """data with one to three edits: a token inserted, bytes overwritten
    by a token, or a few bytes deleted."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at, token = rng.randrange(len(data) + 1), rng.choice(TOKENS)
        edit = rng.randrange(3)
        if edit == 0:
            data[at:at] = token
        elif edit == 1:
            data[at:at + len(token)] = token
        else:
            del data[at:at + rng.randint(1, 8)]
    return bytes(data)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small raw feed, the panel that ingest makes of it, coordinates
    and a linear selection."""
    root = tmp_path_factory.mktemp("fuzz")
    lines = ["station,moment,bikes,spaces"]
    for k, sid in enumerate(STATIONS):
        for t in range(48):
            bikes = (t * (k + 2) + t * t % (k + 3)) % 9
            lines.append(f"{sid},{t * HOUR},{bikes},{10 - bikes}")
    (root / "raw.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    coords = [f"{sid},{48.8 + k / 70:.6f},{2.3 + k * k / 90:.6f}\n"
              for k, sid in enumerate(STATIONS)]
    (root / "coords.csv").write_text("sensor_id,lat,lon\n" + "".join(coords),
                                     encoding="utf-8")
    assert main(["ingest", str(root / "raw.csv"), "--min-records", "10",
                 "--out-dir", str(root)]) == 0
    assert main(_select(root, root)) == 0
    return root


def _select(data, out):
    return ["select", str(data / "panel.csv"), "--coords", str(data / "coords.csv"),
            "--p", "2", "--out-dir", str(out)]


def _evaluate(data, out):
    return ["evaluate", str(data / "panel.csv"), str(data / "selection.json"),
            "--baseline-draws", "2", "--out-dir", str(out)]


# the commands that read each file
COMMANDS = {
    "raw.csv": lambda data, out: [["ingest", str(data / "raw.csv"), "--min-records", "10",
                                   "--out-dir", str(out)]],
    "panel.csv": lambda data, out: [_select(data, out), _evaluate(data, out)],
    "panel.csv.npz": lambda data, out: [_select(data, out)],
    "coords.csv": lambda data, out: [_select(data, out)],
    "selection.json": lambda data, out: [_evaluate(data, out)],
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_inputs_exit_0_2_or_3(inputs, tmp_path, capsys, name):
    data = tmp_path / "data"
    shutil.copytree(inputs, data)
    original = (inputs / name).read_bytes()
    reference = None
    if name == "panel.csv.npz":
        (data / name).unlink()
        assert main(_select(data, tmp_path / "ref")) == 0
        reference = (tmp_path / "ref" / "selection.json").read_bytes()
    rng = random.Random(name)
    for case in range(CASES):
        (data / name).write_bytes(_mutate(original, rng))
        for argv in COMMANDS[name](data, tmp_path / "out"):
            code = main(argv)
            assert code in (0, 2, 3), (name, case, code)
            if reference is not None:
                assert code == 0, case
                assert (tmp_path / "out" / "selection.json").read_bytes() == reference, case
    capsys.readouterr()
