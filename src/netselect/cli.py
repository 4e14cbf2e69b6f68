"""Command line surface: ingest -> select -> evaluate.

Every command is deterministic given --seed and its inputs; outputs are
byte-identical across reruns. Exit codes: 0 success, 2 input error,
3 computation error.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable

# BLAS sums in another order at each thread count, which it reads when
# numpy loads: one thread, unless the caller set one, fixes the bytes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .errors import InvalidInputError, NetselectError
from .evaluation import (
    default_p,
    gamma_grid,
    grid_search,
    lambda_grid,
    random_baseline,
    summary_table_csv,
    test_mse,
)
from .graph import (
    build_knn_graph,
    combinatorial_laplacian,
    normalized_laplacian,
    read_coords,
)
from .numerics import power_method, sym_eig
from .select_kernel import (
    GRAPH_KERNELS,
    KERNEL_TAGS,
    build_kernel_blocks,
    fit_predict_kernel,
    greedy_select_kernel,
)
from .select_linear import SelectionResult, fit_predict_linear, greedy_select_linear
from .timeseries import (
    Split,
    assemble_blocks,
    clean_stations,
    estimate_blocks,
    interpolate_hourly,
    make_split,
    read_panel,
    read_raw_records,
    sha256_hex,
    standardize,
    write_csv,
    write_panel,
)

LAPLACIAN_OF = {"combinatorial": combinatorial_laplacian,
                "normalized": normalized_laplacian}
LAPLACIANS = tuple(LAPLACIAN_OF)
# select's --method values, which the selection record stores; the
# family of a method (FAMILY) is its name up to the first "-"
METHODS = ("linear", "kernel", "gcn-dropout", "gcn-mask")
# select's --lr default per selection rule: Adam for the mask, plain
# gradient descent (which diverges at Adam's rate) for dropout
DEFAULT_LR = {"gcn-mask": 0.05, "gcn-dropout": 0.002}


@dataclass(frozen=True)
class Kind:
    """What a setting must be: a check of its value, the phrase for its
    errors, and how a flag's text parses into a value."""
    wanted: str
    check: Callable
    parse: Callable = None

    def flag(self, text):
        """argparse type: the parsed text, if the check admits it."""
        try:
            value = self.parse(text)
        except ValueError:
            value = None
        if not self.check(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {self.wanted}")
        return value


def _is_int(v, lo):
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _comma_ints(text):
    return [int(part) for part in text.split(",")]


INT_GE0 = Kind("an integer >= 0", lambda v: _is_int(v, 0), int)
INT_GE1 = Kind("an integer >= 1", lambda v: _is_int(v, 1), int)
INTS_GE1 = Kind("a list of integers >= 1", lambda v: isinstance(v, list)
                and all(_is_int(w, 1) for w in v), _comma_ints)
FRACTION = Kind("a finite number in (0, 1)", lambda v: _is_number(v) and 0 < v < 1,
                float)
FINITE_GE0 = Kind("a finite number >= 0", lambda v: _is_number(v) and v >= 0, float)
FINITE_GT0 = Kind("a finite number > 0", lambda v: _is_number(v) and v > 0, float)

SHA256 = Kind("64 lowercase hex characters", lambda v: isinstance(v, str)
              and re.fullmatch("[0-9a-f]{64}", v) is not None)

# the selection.json hyperparams evaluate rebuilds a method from: each
# key's kind, which select's flag for it parses with too, and the
# families of the records that need it, "graph" for the methods that
# build the kNN graph; select writes all of them
_FAMILIES = ("linear", "kernel", "gcn")
SETTINGS = {
    "sensor_ids": (Kind("a list of sensor ids", lambda v: isinstance(v, list)
                        and all(isinstance(s, str) for s in v)), _FAMILIES),
    "panel_sha256": (SHA256, _FAMILIES),
    "split": (Kind("three integers t_tv, t0, t1", lambda v: isinstance(v, list)
                   and len(v) == 3 and all(_is_int(t, 0) for t in v),
                   _comma_ints), _FAMILIES),
    "standardize": (Kind("true or false", lambda v: isinstance(v, bool)), _FAMILIES),
    "H": (INT_GE0, _FAMILIES),
    "kernel": (Kind(f"one of {KERNEL_TAGS}", lambda v: v in KERNEL_TAGS), ("kernel",)),
    "gamma": (FINITE_GE0, ("kernel",)),
    "lambda": (FINITE_GE0, ("kernel",)),
    "k0": (INT_GE1, ("graph",)),
    "k1": (INT_GE1, ("graph",)),
    "coords_sha256": (SHA256, ("graph",)),
    "laplacian": (Kind(f"one of {LAPLACIANS}", lambda v: v in LAPLACIANS), ("gcn",)),
    "cheb_order": (INT_GE0, ("gcn",)),
    "f_out": (INT_GE1, ("gcn",)),
    "fc_sizes": (INTS_GE1, ("gcn",)),
}

# the keys of selection.json and their kinds; select checks the record
# it writes, evaluate the one it reads, and step_values has one entry
# per sensor in order
RECORD = {
    "method": Kind(f"one of {METHODS}", lambda v: v in METHODS),
    "hyperparams": Kind("a JSON object", lambda v: isinstance(v, dict)),
    "order": Kind("a list of one or more distinct integers >= 0", lambda v:
                  isinstance(v, list) and all(_is_int(i, 0) for i in v)
                  and 0 < len(set(v)) == len(v)),
    "step_values": Kind("a list of finite numbers", lambda v: isinstance(v, list)
                        and all(_is_number(x) for x in v)),
}


def _check_kinds(where, values, kinds):
    """Raise InvalidInputError unless the dict values holds each key of
    kinds, of its Kind; where names the dict in the message."""
    missing = [key for key in kinds if key not in values]
    if missing:
        raise InvalidInputError(f"no {', '.join(map(repr, missing))} in the "
                                f"{where}; rerun select to write them")
    for key, kind in kinds.items():
        if not kind.check(values[key]):
            raise InvalidInputError(
                f"{where} {key!r} must be {kind.wanted}, got {values[key]!r}; "
                f"rerun select to record it")


def _check_record(record):
    """Raise InvalidInputError unless record is a selection record that
    evaluate can read."""
    if not isinstance(record, dict):
        raise InvalidInputError(f"malformed selection: the top level must be "
                                f"a JSON object, not {type(record).__name__}")
    _check_kinds("selection", record, RECORD)
    if len(record["step_values"]) != len(record["order"]):
        raise InvalidInputError(
            f"selection 'step_values' has {len(record['step_values'])} entries "
            f"for the {len(record['order'])} sensors of 'order'")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _panel_split(bounds, panel) -> Split:
    """The Split at boundaries t_tv, t0, t1; t1 must be the panel's length."""
    if bounds[-1] != panel.t_total:
        raise InvalidInputError(
            f"split t_tv,t0,t1 = {bounds} covers {bounds[-1]} hours, "
            f"panel has {panel.t_total}")
    return Split(*bounds)


def _align_coords(panel, coords_path):
    """Coordinates reordered to the panel's sensor order."""
    ids, coords = read_coords(coords_path)
    index = {sid: k for k, sid in enumerate(ids)}
    missing = [sid for sid in panel.sensor_ids if sid not in index]
    if missing:
        raise InvalidInputError(
            f"{coords_path}: no coordinates for sensors {missing[:5]}"
            + ("..." if len(missing) > 5 else "")
        )
    return coords[[index[sid] for sid in panel.sensor_ids]]


def _uses_graph(method, kernel):
    """Whether a method builds the kNN graph: the GCN rules and the
    GRAPH_KERNELS. Its record then holds k0, k1 and coords_sha256."""
    return method.startswith("gcn") or (method == "kernel" and kernel in GRAPH_KERNELS)


def _coords_sha256(coords):
    """SHA-256 of the panel-aligned coordinates as little-endian float64."""
    return sha256_hex([np.asarray(coords, dtype="<f8").tobytes()])


def _graph(method, hp, coords):
    """The kNN graph that a method uses, or None; coords is the
    panel-aligned array, None when no --coords was given."""
    if not _uses_graph(method, hp.get("kernel")):
        return None
    if coords is None:
        raise InvalidInputError(
            f"--coords is required to rebuild the graph of {method}")
    return build_knn_graph(coords, hp["k0"], hp["k1"])


def _geojson(result: SelectionResult, sensor_ids, coords):
    features = []
    for rank, i in enumerate(result.order, start=1):
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [float(coords[i, 1]), float(coords[i, 0])],
                },
                "properties": {
                    "sensor_id": sensor_ids[i],
                    "rank": rank,
                    "step_value": float(result.step_values[rank - 1]),
                },
            }
        )
    return json.dumps(
        {"type": "FeatureCollection", "features": features},
        indent=2,
        sort_keys=True,
    )


def cmd_ingest(args):
    records = read_raw_records(args.raw_csv)
    kept = clean_stations(records, args.rc, args.min_records)
    if not kept:
        raise InvalidInputError(
            f"no station passes the cleaning rule (rc={args.rc}, "
            f"min {args.min_records} records)"
        )
    panel = interpolate_hourly(records, kept)
    # freed before write_panel loads hashlib: OpenSSL's pages on top of
    # the raw records would set ingest's peak memory
    del records
    os.makedirs(args.out_dir, exist_ok=True)
    panel_path = os.path.join(args.out_dir, "panel.csv")
    write_panel(panel, panel_path)
    manifest_path = os.path.join(args.out_dir, "stations.csv")
    ids = set(panel.sensor_ids)
    write_csv(manifest_path, ["station", "max_bikes"],
              ([station, int(mb)] for station, mb in kept if station in ids))
    print(f"ingested {len(panel.sensor_ids)} stations x {panel.t_total} hours "
          f"-> {panel_path}, {manifest_path}")
    return 0


# One function per method family builds what select and evaluate share
# and returns two closures: select(p) gives the SelectionResult, the
# hyperparams the family decided and a writer per extra output file;
# fit(I) gives the reconstructor for the turned-off set I. They call
# library functions through this module's globals, as patched there.

def linear(args, hp, X, split, graph):
    """Least squares on the data blocks Gamma(0..H)."""
    H = hp["H"]
    gammas = estimate_blocks(X[:, :split.t_tv], H)

    def select(p):
        return greedy_select_linear(gammas, p, H=H), {}, {}

    return select, lambda I: fit_predict_linear(gammas, I, H)


def kernel(args, hp, X, split, graph):
    """Kernel ridge on the Gram blocks K(0..H) of hp["kernel"]."""
    H = hp["H"]
    X_train = X[:, :split.t_tv]
    kb = build_kernel_blocks(hp["kernel"], H=H, gamma=hp["gamma"], graph=graph,
                             X_train=X_train)

    def select(p):
        # the autocovariance kernel's Gram blocks are the data blocks
        gammas = (kb if hp["kernel"] == "autocovariance"
                  else estimate_blocks(X_train, H))
        if args.lam is not None:
            result = greedy_select_kernel(gammas, kb, p, lam=args.lam, H=H)
            return result, {"lambda": float(args.lam)}, {}

        def run(lam):
            res = greedy_select_kernel(gammas, kb, p, lam=lam, H=H)
            return res, fit_predict_kernel(kb, res.order, lam, H)

        lam_list = lambda_grid(np.linalg.eigvalsh(assemble_blocks(kb, [], H)[0])[-1])
        gs = grid_search(run, lam_list, X, split)
        return gs.result, {
            "lambda": float(gs.config),
            "lambda_grid": [float(v) for v in lam_list],
            "validation_error": gs.val_error,
        }, {}

    return select, lambda I: fit_predict_kernel(kb, I, hp["lambda"], H)


def gcn(args, hp, X, split, graph):
    """ChebNets filtering in the rescaled Laplacian's eigenbasis."""
    # only the gcn methods load the gcn modules: a command compiles what
    # it imports when no bytecode is cached, and its peak memory grows
    # with that source
    from .gcn.layers import ChebNetConfig, Workspace, scale_laplacian
    from .gcn.selection import (
        train_selection_dropout,
        train_selection_masking,
        write_scores_csv,
    )
    from .gcn.train import NetReconstructor, TrainConfig, train_prediction_net

    L = LAPLACIAN_OF[hp["laplacian"]](graph)
    spectrum = sym_eig(scale_laplacian(L, power_method(L).value))
    ids = hp["sensor_ids"]
    net = ChebNetConfig(cheb_order=hp["cheb_order"], f_out=hp["f_out"],
                        fc_sizes=tuple(hp["fc_sizes"]), h=hp["H"])

    def select(p):
        tc = TrainConfig(lr=hp["lr"], batch_size=hp["batch_size"],
                         max_epoch=hp["max_epoch"], seed=hp["seed"])
        if args.method == "gcn-dropout":
            scores, result, _ = train_selection_dropout(
                X, split, spectrum, p, net, tc, measure=args.measure)
            return result, {"measure": scores.measure}, {
                "scores.csv": lambda path: write_scores_csv(scores, ids, path)}
        grid = hp["mask_lambda_grid"]
        result, path_values = train_selection_masking(
            X, split, spectrum, p, grid, hp["eps0"], net, tc)
        return result, {}, {"mask_path.csv": lambda path: write_csv(
            path, ["lambda"] + ids,
            ([lam] + row.tolist() for lam, row in zip(grid, path_values)))}

    # evaluate retrains the prediction net for each requested set; the
    # nets train in turn with equal shapes, so they share one workspace
    workspace = Workspace()

    def fit(I):
        tc = TrainConfig(lr=args.lr, batch_size=args.batch_size,
                         max_epoch=args.max_epoch, seed=args.seed)
        params, _ = train_prediction_net(X, split, spectrum, I, net, tc, workspace)
        return NetReconstructor(params, spectrum, list(I))

    return select, fit


FAMILY = {"linear": linear, "kernel": kernel, "gcn": gcn}


def cmd_select(args):
    panel, panel_sha256 = read_panel(args.panel)
    split = (make_split(panel.t_total) if args.split is None
             else _panel_split(args.split, panel))
    X = standardize(panel, split) if args.standardize else panel.values
    p = args.p if args.p is not None else default_p(X.shape[0])
    coords = _align_coords(panel, args.coords)

    # every setting the method runs with, among them all that evaluate
    # rebuilds it from (SETTINGS)
    hp = {
        "sensor_ids": list(panel.sensor_ids),
        "panel_sha256": panel_sha256,
        "H": args.H,
        "standardize": bool(args.standardize),
        "split": [split.t_tv, split.t0, split.t1],
    }
    if _uses_graph(args.method, args.kernel):
        hp.update(k0=args.k0, k1=args.k1, coords_sha256=_coords_sha256(coords))
    if args.method == "kernel":
        hp["kernel"] = args.kernel
        hp["gamma"] = gamma_grid(args.H, args.r_s) if args.H > 0 else 0.0
    elif args.method != "linear":
        hp.update(seed=args.seed, laplacian=args.laplacian, cheb_order=args.cheb_order,
                  f_out=args.f_out, fc_sizes=args.fc_sizes,
                  lr=args.lr if args.lr is not None else DEFAULT_LR[args.method],
                  batch_size=args.batch_size, max_epoch=args.max_epoch)
    if args.method == "gcn-mask":
        hp["eps0"] = args.eps0
        hp["mask_lambda_grid"] = [float(v) for v in np.linspace(
            args.mask_lambda_min, args.mask_lambda_max, args.mask_lambda_count)]

    select, _ = FAMILY[args.method.split("-")[0]](
        args, hp, X, split, _graph(args.method, hp, coords))
    result, extras, tables = select(p)
    record = {"method": args.method, "hyperparams": dict(hp, **extras),
              "order": result.order, "step_values": result.step_values}
    _check_record(record)

    os.makedirs(args.out_dir, exist_ok=True)
    sel_path = os.path.join(args.out_dir, "selection.json")
    _write_text(sel_path, json.dumps(record, indent=2, sort_keys=True))
    geo_path = os.path.join(args.out_dir, "selected.geojson")
    _write_text(geo_path, _geojson(result, panel.sensor_ids, coords))
    written = [sel_path, geo_path]
    for name, write in tables.items():
        written.append(os.path.join(args.out_dir, name))
        write(written[-1])
    names = [panel.sensor_ids[i] for i in result.order]
    print(f"{args.method} selected {len(result.order)} sensors: "
          f"{' '.join(names)}")
    print("wrote " + ", ".join(written))
    return 0


def cmd_evaluate(args):
    panel, panel_sha256 = read_panel(args.panel)
    with open(args.selection, encoding="utf-8") as fh:
        try:
            sel = json.loads(fh.read())
        except ValueError as err:
            raise InvalidInputError(f"malformed selection: {err}") from None
    _check_record(sel)
    method, hp, order = sel["method"], sel["hyperparams"], sel["order"]
    families = (method.split("-")[0],) + (
        ("graph",) if _uses_graph(method, hp.get("kernel")) else ())
    _check_kinds("selection hyperparams", hp,
                 {key: kind for key, (kind, needed_by) in SETTINGS.items()
                  if any(f in families for f in needed_by)})
    if hp["sensor_ids"] != list(panel.sensor_ids):
        raise InvalidInputError(
            f"selection was made on {len(hp['sensor_ids'])} sensors that differ "
            f"from the panel's {panel.n} in ids or order; rerun select on this panel")
    if panel_sha256 != hp["panel_sha256"]:
        raise InvalidInputError(
            f"{args.panel}: the panel's bytes differ from those the selection "
            f"was made on; rerun select on this panel")
    if any(i >= panel.n for i in order):
        raise InvalidInputError(
            f"selection order {order} exceeds panel size {panel.n}")
    split = _panel_split(hp["split"], panel)
    X = standardize(panel, split) if hp["standardize"] else panel.values

    coords = None
    if "graph" in families and args.coords is not None:
        coords = _align_coords(panel, args.coords)
        if _coords_sha256(coords) != hp["coords_sha256"]:
            raise InvalidInputError(
                f"{args.coords}: the coordinates of the panel's sensors differ "
                f"from those the selection's graph was built on; rerun select "
                f"with this file")
    _, fit = FAMILY[families[0]](args, hp, X, split,
                                 _graph(method, hp, coords))
    mse = test_mse(fit(order), X, split)
    base = random_baseline(fit, X, len(order), split,
                           draws=args.baseline_draws, seed=args.seed)
    if "gcn" in families:
        hp = dict(hp, prediction_net={"lr": args.lr, "batch_size": args.batch_size,
                                      "max_epoch": args.max_epoch})
    report = {"method": method, "selected": order, "test_mse": mse,
              "baseline_mean": base.mean_mse, "baseline_draws": base.draws,
              "baseline_skipped": base.skipped, "hyperparams": hp,
              "seed": args.seed}
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.json")
    _write_text(report_path, json.dumps(report, indent=2, sort_keys=True))
    table_path = os.path.join(args.out_dir, "summary.csv")
    summary_table_csv(report, table_path)
    print(f"{method}: test MSE {mse:.4f}, baseline {base.mean_mse:.4f} "
          f"over {base.draws} draws ({base.skipped} skipped)")
    print(f"wrote {report_path}, {table_path}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="netselect",
        description="Sensor subset selection for networks of time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ing = sub.add_parser("ingest", help="clean raw records into an hourly panel")
    ing.add_argument("raw_csv")
    ing.add_argument("--rc", type=FRACTION.flag, default=0.5,
                     help="minimum share of consistent records to keep a station")
    ing.add_argument("--min-records", type=INT_GE0.flag, default=100)
    ing.add_argument("--out-dir", default=".")
    ing.set_defaults(func=cmd_ingest)

    slc = sub.add_parser("select", help="choose the sensors to turn off")
    slc.add_argument("panel")
    slc.add_argument("--coords", required=True,
                     help="sensor_id,lat,lon CSV; required for output maps")
    slc.add_argument("--method", choices=METHODS, default="linear")
    slc.add_argument("--p", type=INT_GE1.flag, default=None,
                     help="sensors to turn off (default 10%% of N)")
    slc.add_argument("--H", type=INT_GE0.flag, default=0,
                     help="input history length")
    slc.add_argument("--lambda", dest="lam", type=FINITE_GE0.flag, default=None,
                     help="ridge strength; default searches the a_i grid")
    slc.add_argument("--r-s", type=FRACTION.flag, default=0.5,
                     help="target temporal kernel value at lag H; sets the "
                          "decay -ln(r_s)/H^2")
    slc.add_argument("--kernel", choices=KERNEL_TAGS, default="spatial-temporal")
    slc.add_argument("--seed", type=INT_GE0.flag, default=0)
    slc.add_argument("--k0", type=INT_GE1.flag, default=20)
    slc.add_argument("--k1", type=INT_GE1.flag, default=7)
    slc.add_argument("--laplacian", choices=LAPLACIANS, default="combinatorial")
    slc.add_argument("--cheb-order", type=INT_GE0.flag, default=50)
    slc.add_argument("--f-out", type=INT_GE1.flag, default=16)
    slc.add_argument("--fc-sizes", type=INTS_GE1.flag, default="128,500,64")
    slc.add_argument("--lr", type=FINITE_GT0.flag, default=None,
                     help="selection net learning rate (default 0.05 for "
                          "gcn-mask's Adam, 0.002 for gcn-dropout's "
                          "gradient descent)")
    slc.add_argument("--batch-size", type=INT_GE1.flag, default=50)
    slc.add_argument("--max-epoch", type=INT_GE1.flag, default=500)
    slc.add_argument("--measure", choices=("r2", "mse"), default="r2")
    slc.add_argument("--mask-lambda-min", type=FINITE_GE0.flag, default=0.05)
    slc.add_argument("--mask-lambda-max", type=FINITE_GE0.flag, default=0.35)
    slc.add_argument("--mask-lambda-count", type=INT_GE1.flag, default=20)
    slc.add_argument("--eps0", type=FINITE_GT0.flag, default=0.01)
    slc.add_argument("--out-dir", default=".")
    slc.add_argument("--split", type=SETTINGS["split"][0].flag, default=None,
                     help="boundaries t_tv,t0,t1 ending the train, val and "
                          "test hours (t1 = T; default 80/5/15%% of T)")
    slc.add_argument("--standardize", action="store_true",
                     help="remove the weekly profile and scale by train std")
    slc.set_defaults(func=cmd_select)

    ev = sub.add_parser("evaluate", help="score a stored selection on test rows")
    ev.add_argument("panel")
    ev.add_argument("selection", help="selection.json from the select command")
    ev.add_argument("--coords", default=None)
    ev.add_argument("--baseline-draws", type=INT_GE1.flag, default=100)
    ev.add_argument("--seed", type=INT_GE0.flag, default=0)
    ev.add_argument("--lr", type=FINITE_GT0.flag, default=0.001,
                    help="prediction net learning rate (gcn methods)")
    ev.add_argument("--batch-size", type=INT_GE1.flag, default=1000)
    ev.add_argument("--max-epoch", type=INT_GE1.flag, default=50)
    ev.add_argument("--out-dir", default=".")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NetselectError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
