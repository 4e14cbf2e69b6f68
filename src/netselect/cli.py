"""Command line surface: ingest -> select -> evaluate.

Every command is deterministic given --seed and its inputs; outputs are
byte-identical across reruns. Exit codes: 0 success, 2 input error,
3 computation error.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import InvalidInputError, NetselectError
from .evaluation import (
    EvalReport,
    default_p,
    gamma_grid,
    grid_search,
    lambda_grid,
    random_baseline,
    summary_table_csv,
    test_mse,
)
from .gcn import (
    ChebNetConfig,
    NetReconstructor,
    TrainConfig,
    scale_laplacian,
    train_prediction_net,
    train_selection_dropout,
    train_selection_masking,
    write_scores_csv,
)
from .graph import (
    build_knn_graph,
    combinatorial_laplacian,
    normalized_laplacian,
    read_coords,
)
from .numerics import power_method, sym_eig
from .select_kernel import (
    KERNEL_TAGS,
    build_kernel_blocks,
    fit_predict_kernel,
    greedy_select_kernel,
)
from .select_linear import (
    SelectionResult,
    fit_predict_linear,
    greedy_select_linear,
)
from .timeseries import (
    Split,
    apply_preprocess,
    assemble_blocks,
    clean_stations,
    estimate_blocks,
    fit_weekly_profile,
    interpolate_hourly,
    make_split,
    read_panel,
    read_raw_records,
    write_panel,
)

METHODS = ("linear", "kernel", "gcn-dropout", "gcn-mask")
LAPLACIANS = ("combinatorial", "normalized")
GRAPH_KERNELS = ("laplacian", "spatial-temporal", "rbf")
# selection.json hyperparams evaluate rebuilds a method from, by method
# family; select writes all of them
_COMMON_KEYS = ("n", "split", "standardize", "H")
EVALUATE_KEYS = {
    "linear": _COMMON_KEYS,
    "kernel": _COMMON_KEYS + ("kernel", "gamma", "lambda", "k0", "k1"),
    "gcn": _COMMON_KEYS + ("k0", "k1", "laplacian", "cheb_order", "f_out",
                           "fc_sizes"),
}


def _is_int(v, lo):
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_nonnegative_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) and v >= 0)


# what each EVALUATE_KEYS value must be: (check, description)
EVALUATE_TYPES = {
    "n": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "split": (lambda v: isinstance(v, list) and len(v) == 3
              and all(_is_int(t, 0) for t in v), "three integers t_tv, t0, t1"),
    "standardize": (lambda v: isinstance(v, bool), "true or false"),
    "H": (lambda v: _is_int(v, 0), "an integer >= 0"),
    "kernel": (lambda v: v in KERNEL_TAGS, f"one of {KERNEL_TAGS}"),
    "gamma": (_is_nonnegative_number, "a finite number >= 0"),
    "lambda": (_is_nonnegative_number, "a finite number >= 0"),
    "k0": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "k1": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "laplacian": (lambda v: v in LAPLACIANS, f"one of {LAPLACIANS}"),
    "cheb_order": (lambda v: _is_int(v, 0), "an integer >= 0"),
    "f_out": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "fc_sizes": (lambda v: isinstance(v, list) and all(_is_int(w, 1) for w in v),
                 "a list of integers >= 1"),
}


def _int_at_least(lo):
    """argparse type: an integer >= lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {lo}")
        return value
    return parse


def _int_list(text):
    """argparse type: comma-separated integers."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _resolve_split(args, t_total) -> Split:
    sizes = args.split
    if sizes:
        if len(sizes) != 3:
            raise InvalidInputError("--split needs train,val,test sizes")
        if sum(sizes) != t_total:
            raise InvalidInputError(
                f"--split sizes sum to {sum(sizes)}, panel has {t_total} hours"
            )
        return Split(sizes[0], sizes[0] + sizes[1], t_total)
    return make_split(t_total, args.val_frac, args.test_frac)


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


def _laplacian(graph, tag):
    if tag == "normalized":
        return normalized_laplacian(graph)
    return combinatorial_laplacian(graph)


def _panel_matrix(panel, split, standardize):
    """Panel values, with the weekly profile fitted on the training rows
    removed when standardize is set."""
    if standardize:
        return apply_preprocess(panel, fit_weekly_profile(panel, split)).values
    return panel.values


def _needs_graph(method, hp):
    """Whether a method (select's --method or a stored tag) uses the graph."""
    return method.startswith("gcn") or (
        method.startswith("kernel") and hp["kernel"] in GRAPH_KERNELS
    )


def _kernel_blocks(hp, X_train, graph):
    """Kernel Gram blocks K(0..H) for the kernel in hp."""
    return build_kernel_blocks(hp["kernel"], H=hp["H"], gamma=hp["gamma"],
                               graph=graph, X_train=X_train)


def _gcn_spectrum(hp, graph):
    """EigenPair of the rescaled Laplacian the ChebNet filters in."""
    L = _laplacian(graph, hp["laplacian"])
    return sym_eig(scale_laplacian(L, power_method(L).value))


def _chebnet(hp, out_dim):
    return ChebNetConfig(n=hp["n"], cheb_order=hp["cheb_order"],
                         f_out=hp["f_out"], fc_sizes=tuple(hp["fc_sizes"]),
                         out_dim=out_dim, h=hp["H"])


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
    os.makedirs(args.out_dir, exist_ok=True)
    panel_path = os.path.join(args.out_dir, "panel.csv")
    write_panel(panel, panel_path)
    manifest_path = os.path.join(args.out_dir, "stations.csv")
    lines = ["station,max_bikes"]
    ids = set(panel.sensor_ids)
    lines += [f"{station},{int(mb)}" for station, mb in kept if station in ids]
    _write_text(manifest_path, "\n".join(lines))
    print(f"ingested {len(panel.sensor_ids)} stations x {panel.t_total} hours "
          f"-> {panel_path}, {manifest_path}")
    return 0


def _select_kernel_cmd(args, hp, X, split, graph):
    H, p = hp["H"], hp["p"]
    X_train = X[:, :split.t_tv]
    gammas = estimate_blocks(X_train, H)
    if hp["kernel"] == "autocovariance":
        kb = gammas  # the autocovariance kernel's Gram blocks are the data blocks
    else:
        kb = _kernel_blocks(hp, X_train, graph)

    if args.lam is not None:
        lam_list = [args.lam]
    else:
        lam_max = power_method(assemble_blocks(kb, [], H)[0]).value
        lam_list = lambda_grid(lam_max)

    def run(lam):
        res = greedy_select_kernel(gammas, kb, p, lam=lam, H=H)
        rec = fit_predict_kernel(kb, res.order, lam, H)
        return res, rec

    if len(lam_list) == 1:
        result, _ = run(lam_list[0])
        lam_star = lam_list[0]
        val_error = None
    else:
        gs = grid_search(run, lam_list, X, split)
        result, lam_star, val_error = gs.result, gs.config, gs.val_error
    extras = {
        "lambda": float(lam_star),
        "lambda_grid": [float(v) for v in lam_list],
    }
    if val_error is not None:
        extras["validation_error"] = val_error
    return result, extras


def cmd_select(args):
    panel = read_panel(args.panel)
    split = _resolve_split(args, panel.t_total)
    X = _panel_matrix(panel, split, args.standardize)
    n = X.shape[0]
    p = args.p if args.p is not None else default_p(n)
    coords = _align_coords(panel, args.coords)

    # every setting the method runs with, among them all that evaluate
    # rebuilds it from (EVALUATE_KEYS)
    hp = {
        "n": n,
        "p": p,
        "H": args.H,
        "seed": args.seed,
        "standardize": bool(args.standardize),
        "split": [split.t_tv, split.t0, split.t1],
        "k0": args.k0,
        "k1": args.k1,
    }
    if args.method == "kernel":
        hp["kernel"] = args.kernel
        hp["gamma"] = gamma_grid(args.H, args.r_s) if args.H > 0 else 0.0
    elif args.method != "linear":
        hp.update(laplacian=args.laplacian, cheb_order=args.cheb_order,
                  f_out=args.f_out, fc_sizes=args.fc_sizes, lr=args.lr,
                  batch_size=args.batch_size, max_epoch=args.max_epoch)
    if args.method == "gcn-mask":
        hp["eps0"] = args.eps0
        hp["mask_lambda_grid"] = [float(v) for v in np.linspace(
            args.mask_lambda_min, args.mask_lambda_max, args.mask_lambda_count)]
    graph = None
    if _needs_graph(args.method, hp):
        graph = build_knn_graph(coords, hp["k0"], hp["k1"])

    scores = None
    mask_path_values = None
    extras = {}
    if args.method == "linear":
        gammas = estimate_blocks(X[:, :split.t_tv], args.H)
        result = greedy_select_linear(gammas, p, H=args.H)
    elif args.method == "kernel":
        result, extras = _select_kernel_cmd(args, hp, X, split, graph)
    else:
        spectrum = _gcn_spectrum(hp, graph)
        net = _chebnet(hp, n)
        tc = TrainConfig(lr=hp["lr"], batch_size=hp["batch_size"],
                         max_epoch=hp["max_epoch"], seed=args.seed)
        if args.method == "gcn-dropout":
            scores, result, _ = train_selection_dropout(
                X, split, spectrum, p, net, tc, measure=args.measure)
        else:
            result, mask_path_values = train_selection_masking(
                X, split, spectrum, p, hp["mask_lambda_grid"], hp["eps0"], net, tc)

    result.hyperparams.update(hp, **extras)

    os.makedirs(args.out_dir, exist_ok=True)
    sel_path = os.path.join(args.out_dir, "selection.json")
    _write_text(sel_path, result.to_json())
    geo_path = os.path.join(args.out_dir, "selected.geojson")
    _write_text(geo_path, _geojson(result, panel.sensor_ids, coords))
    written = [sel_path, geo_path]
    if scores is not None:
        scores_path = os.path.join(args.out_dir, "scores.csv")
        write_scores_csv(scores, panel.sensor_ids, scores_path)
        written.append(scores_path)
    if mask_path_values is not None:
        path_csv = os.path.join(args.out_dir, "mask_path.csv")
        lines = ["lambda," + ",".join(panel.sensor_ids)]
        for lam, row in zip(hp["mask_lambda_grid"], mask_path_values):
            lines.append(format(lam, ".17g") + ","
                         + ",".join(format(v, ".17g") for v in row))
        _write_text(path_csv, "\n".join(lines))
        written.append(path_csv)
    names = [panel.sensor_ids[i] for i in result.order]
    print(f"{result.method} selected {len(result.order)} sensors: "
          f"{' '.join(names)}")
    print("wrote " + ", ".join(written))
    return 0


def _evaluate_fit_fn(args, sel, X, split, graph):
    """Reconstructor factory for the stored method, reused for baselines."""
    hp = sel.hyperparams
    H = hp["H"]
    X_train = X[:, :split.t_tv]
    if sel.method.startswith("linear"):
        gammas = estimate_blocks(X_train, H)
        return lambda I: fit_predict_linear(gammas, I, H)
    if sel.method.startswith("kernel"):
        kb = _kernel_blocks(hp, X_train, graph)
        return lambda I: fit_predict_kernel(kb, I, hp["lambda"], H)
    # gcn: retrain the prediction network for each requested set
    spectrum = _gcn_spectrum(hp, graph)
    tc = TrainConfig(lr=args.lr, batch_size=args.batch_size,
                     max_epoch=args.max_epoch, seed=args.seed)

    def fit(I):
        net = _chebnet(hp, len(I))
        params, _ = train_prediction_net(X, split, spectrum, I, net, tc)
        return NetReconstructor(params, net, spectrum, list(I))

    return fit


def cmd_evaluate(args):
    panel = read_panel(args.panel)
    with open(args.selection, encoding="utf-8") as fh:
        sel = SelectionResult.from_json(fh.read())
    hp = sel.hyperparams
    keys = EVALUATE_KEYS[sel.method.split("-")[0]]
    missing = [k for k in keys if k not in hp]
    if missing:
        raise InvalidInputError(
            f"selection hyperparams lack {', '.join(map(repr, missing))}; "
            f"rerun select to write them"
        )
    for key in keys:
        check, wanted = EVALUATE_TYPES[key]
        if not check(hp[key]):
            raise InvalidInputError(
                f"selection hyperparam {key!r} must be {wanted}, got {hp[key]!r}"
            )
    n = panel.n
    if hp["n"] != n:
        raise InvalidInputError(
            f"selection was made for {hp['n']} sensors, panel has {n}"
        )
    if any(i >= n for i in sel.order):
        raise InvalidInputError(f"selection order {sel.order} exceeds panel size {n}")
    split = Split(*hp["split"])
    if split.t1 != panel.t_total:
        raise InvalidInputError(
            f"stored split covers {split.t1} hours, panel has {panel.t_total}"
        )
    X = _panel_matrix(panel, split, hp["standardize"])

    graph = None
    if _needs_graph(sel.method, hp):
        if args.coords is None:
            raise InvalidInputError(
                f"--coords is required to rebuild the graph of {sel.method}"
            )
        graph = build_knn_graph(_align_coords(panel, args.coords),
                                hp["k0"], hp["k1"])
    fit_fn = _evaluate_fit_fn(args, sel, X, split, graph)
    rec = fit_fn(sel.order)
    mse = test_mse(rec, X, sel.order, split)
    base = random_baseline(fit_fn, X, len(sel.order), split,
                           draws=args.baseline_draws, seed=args.seed)
    if sel.method.startswith("gcn"):
        hp = dict(hp, prediction_net={"lr": args.lr, "batch_size": args.batch_size,
                                      "max_epoch": args.max_epoch})
    report = EvalReport(
        method=sel.method,
        selected=sel.order,
        test_mse=mse,
        baseline_mean=base.mean_mse,
        baseline_draws=base.draws,
        baseline_skipped=base.skipped,
        hyperparams=hp,
        seed=args.seed,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.json")
    _write_text(report_path, report.to_json())
    table_path = os.path.join(args.out_dir, "summary.csv")
    summary_table_csv(report, table_path)
    print(f"{sel.method}: test MSE {mse:.4f}, baseline {base.mean_mse:.4f} "
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
    ing.add_argument("--rc", type=float, default=0.5,
                     help="minimum share of consistent records to keep a station")
    ing.add_argument("--min-records", type=int, default=100)
    ing.add_argument("--out-dir", default=".")
    ing.set_defaults(func=cmd_ingest)

    slc = sub.add_parser("select", help="choose the sensors to turn off")
    slc.add_argument("panel")
    slc.add_argument("--coords", required=True,
                     help="sensor_id,lat,lon CSV; required for output maps")
    slc.add_argument("--method", choices=METHODS, default="linear")
    slc.add_argument("--p", type=int, default=None,
                     help="sensors to turn off (default 10%% of N)")
    slc.add_argument("--H", type=_int_at_least(0), default=0,
                     help="input history length")
    slc.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="ridge strength; default searches the a_i grid")
    slc.add_argument("--r-s", type=float, default=0.5,
                     help="target temporal kernel value at lag H; sets the "
                          "decay -ln(r_s)/H^2")
    slc.add_argument("--kernel", choices=KERNEL_TAGS, default="laplacian")
    slc.add_argument("--seed", type=int, default=0)
    slc.add_argument("--k0", type=int, default=20)
    slc.add_argument("--k1", type=int, default=7)
    slc.add_argument("--laplacian", choices=LAPLACIANS, default="combinatorial")
    slc.add_argument("--cheb-order", type=int, default=50)
    slc.add_argument("--f-out", type=int, default=16)
    slc.add_argument("--fc-sizes", type=_int_list, default="128,500,64")
    slc.add_argument("--lr", type=float, default=0.05)
    slc.add_argument("--batch-size", type=int, default=50)
    slc.add_argument("--max-epoch", type=int, default=500)
    slc.add_argument("--measure", choices=("r2", "mse"), default="r2")
    slc.add_argument("--mask-lambda-min", type=float, default=0.05)
    slc.add_argument("--mask-lambda-max", type=float, default=0.35)
    slc.add_argument("--mask-lambda-count", type=_int_at_least(1), default=20)
    slc.add_argument("--eps0", type=float, default=0.01)
    slc.add_argument("--out-dir", default=".")
    slc.add_argument("--split", type=_int_list, default=None,
                     help="train,val,test sizes in hours (must sum to T)")
    slc.add_argument("--val-frac", type=float, default=0.05)
    slc.add_argument("--test-frac", type=float, default=0.15)
    slc.add_argument("--standardize", action="store_true",
                     help="remove the weekly profile and scale by train std")
    slc.set_defaults(func=cmd_select)

    ev = sub.add_parser("evaluate", help="score a stored selection on test rows")
    ev.add_argument("panel")
    ev.add_argument("selection", help="selection.json from the select command")
    ev.add_argument("--coords", default=None)
    ev.add_argument("--baseline-draws", type=int, default=100)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--lr", type=float, default=0.001,
                    help="prediction net learning rate (gcn methods)")
    ev.add_argument("--batch-size", type=int, default=1000)
    ev.add_argument("--max-epoch", type=int, default=50)
    ev.add_argument("--out-dir", default=".")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NetselectError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
