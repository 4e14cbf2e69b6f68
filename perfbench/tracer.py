"""Traced netselect command: spans around the public functions of each layer.

Run as ``python3 perfbench/tracer.py SPANS_JSON -- <netselect arguments>``
with ``src`` on PYTHONPATH. It wraps the functions listed in TARGETS in
every ``netselect`` module that bound them (``solve_spd``, for one, is
bound separately in ``numerics``, ``select_linear`` and
``select_kernel``), runs ``netselect.cli.main`` on the arguments, and
writes the spans when the command ends. The spans stay in memory until
then. ``layer_metrics`` turns the span files of one pipeline pass into
the benchmark's per-layer metrics.
"""

import importlib
import json
import sys
import time

# module -> public functions to wrap; a span is named <layer>.<function>
TARGETS = {
    "netselect.timeseries": ["read_raw_records", "interpolate_hourly",
                             "write_panel", "read_panel", "estimate_blocks",
                             "assemble_blocks"],
    "netselect.graph": ["build_knn_graph", "graph_spectrum"],
    "netselect.numerics": ["solve_spd", "stabilize_spd", "power_method"],
    "netselect.select_linear": ["greedy_select_linear", "fit_predict_linear"],
    "netselect.select_kernel": ["greedy_select_kernel", "kernel_reconstructor",
                                "assemble_kernel", "build_kernel_blocks",
                                "fit_predict_kernel"],
    "netselect.evaluation": ["grid_search", "random_baseline", "test_mse"],
    "netselect.gcn.layers": ["forward_batch", "backward_batch", "cheb_apply"],
    "netselect.gcn.train": ["train_prediction_net", "make_optimizer"],
    "netselect.gcn.selection": ["train_selection_masking"],
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _note_solve(args, kwargs, out):
    return {"dim3": int(_arg(args, kwargs, 0, "A").shape[0]) ** 3}


def _note_stabilize(args, kwargs, out):
    import numpy as np
    from netselect import numerics

    A = np.asarray(_arg(args, kwargs, 0, "A"), dtype=float)
    trigger = getattr(numerics, "JITTER_TRIGGER", 1e-12) * np.trace(A) / A.shape[0]
    return {"jitter": int(out[1] < trigger)}


NOTES = {
    "timeseries.read_raw_records": lambda a, k, out: {
        "records": sum(len(r) for r in out.values()), "stations": len(out)},
    "timeseries.interpolate_hourly": lambda a, k, out: {"stations": out.n},
    "numerics.solve_spd": _note_solve,
    "numerics.stabilize_spd": _note_stabilize,
    "numerics.power_method": lambda a, k, out: {"iterations": int(out.iterations)},
    "select_linear.greedy_select_linear": lambda a, k, out: {"steps": len(out.order)},
    "evaluation.grid_search": lambda a, k, out: {
        "points": len(list(_arg(a, k, 1, "grid")))},
    "evaluation.random_baseline": lambda a, k, out: {"skipped": int(out.skipped)},
    "gcn.layers.forward_batch": lambda a, k, out: {
        "samples": int(_arg(a, k, 0, "Xb").shape[0])},
    "gcn.train.train_prediction_net": lambda a, k, out: {
        "epochs": len(out[1]), "max_epoch": int(_arg(a, k, 5, "train_config").max_epoch)},
    "gcn.selection.train_selection_masking": lambda a, k, out: {
        "collapsed": int((out[1] < _arg(a, k, 5, "eps0")).any(axis=0).sum())},
}


class Recorder:
    """Spans [name, start, end, parent index, note] of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return traced

    def wrap_optimizer(self, make_optimizer):
        # time each step of the object make_optimizer returns
        def make(*args, **kwargs):
            opt = make_optimizer(*args, **kwargs)
            opt.step = self.wrap("gcn.train.optimizer_step", opt.step)
            return opt

        return make

    def install(self):
        """Patch every netselect module that bound a target; return the
        targets the package no longer has."""
        missing = []
        for modname, names in TARGETS.items():
            mod = importlib.import_module(modname)
            layer = modname[len("netselect."):]
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:
                    missing.append(f"{layer}.{fname}")
                    continue
                name = f"{layer}.{fname}"
                wrapper = (self.wrap_optimizer(orig) if fname == "make_optimizer"
                           else self.wrap(name, orig))
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").split(".")[0] != "netselect":
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, attr, wrapper)
        return missing


def main(argv):
    spans_path, argv = argv[0], argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import netselect.cli  # noqa: F401  (imports every layer first)

    rec = Recorder()
    missing = rec.install()
    command = argv[0] if argv else ""
    cli_main = rec.wrap(f"cli.main.{command}", sys.modules["netselect.cli"].main)
    code = 1
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, "spans": rec.spans}, fh)
    return code


# -- aggregation of span files into per-layer metrics ------------------------

# metric name -> unit; times are inclusive wall time summed over calls,
# except numerics.solve_spd.s, which is self time (its stabilize_spd child
# is reported on its own)
LAYER_METRICS = {
    "timeseries.read_raw_records.s": "s",
    "timeseries.interpolate_hourly.s": "s",
    "timeseries.write_panel.s": "s",
    "timeseries.ingest.records": "count",
    "timeseries.ingest.stations_dropped": "count",
    "timeseries.read_panel.calls": "count",
    "timeseries.read_panel.s": "s",
    "timeseries.estimate_blocks.s": "s",
    "timeseries.assemble_blocks.calls": "count",
    "timeseries.assemble_blocks.s": "s",
    "graph.build_knn_graph.s": "s",
    "graph.graph_spectrum.s": "s",
    "numerics.solve_spd.calls": "count",
    "numerics.solve_spd.s": "s",
    "numerics.solve_spd.dim3": "computed_m3",
    "numerics.stabilize_spd.s": "s",
    "numerics.stabilize_spd.jitter": "count",
    "numerics.power_method.iterations": "count",
    "select_linear.greedy_select_linear.s": "s",
    "select_linear.greedy.steps": "count",
    "select_linear.greedy.candidates": "count",
    "select_linear.greedy.picks_per_candidate": "ratio",
    "select_linear.fit_predict_linear.calls": "count",
    "select_linear.fit_predict_linear.s": "s",
    "select_kernel.greedy_select_kernel.calls": "count",
    "select_kernel.greedy_select_kernel.s": "s",
    "select_kernel.kernel_reconstructor.calls": "count",
    "select_kernel.kernel_reconstructor.s": "s",
    "select_kernel.assemble_kernel.s": "s",
    "select_kernel.build_kernel_blocks.s": "s",
    "select_kernel.fit_predict_kernel.s": "s",
    "evaluation.grid_search.s": "s",
    "evaluation.grid_search.points": "count",
    "evaluation.random_baseline.s": "s",
    "evaluation.random_baseline.draws": "count",
    "evaluation.random_baseline.skipped": "count",
    "evaluation.test_mse.s": "s",
    "evaluation.mse_ratio": "ratio",
    "gcn.layers.forward_batch.calls": "count",
    "gcn.layers.forward_batch.s": "s",
    "gcn.layers.backward_batch.calls": "count",
    "gcn.layers.backward_batch.s": "s",
    "gcn.layers.cheb_apply.s": "s",
    "gcn.layers.samples": "count",
    "gcn.train.train_prediction_net.s": "s",
    "gcn.train.epochs": "count",
    "gcn.train.epochs_ratio": "ratio",
    "gcn.train.optimizer_step.calls": "count",
    "gcn.train.optimizer_step.s": "s",
    "gcn.selection.train_selection_masking.s": "s",
    "gcn.selection.mask_collapsed": "count",
    "cli.main.ingest.s": "s",
    "cli.main.select.s": "s",
    "cli.main.evaluate.s": "s",
    "trace.overhead_s": "s",
}

SELF_TIMED = {"numerics.solve_spd"}
GREEDY = "select_linear.greedy_select_linear"
BASELINE = "evaluation.random_baseline"


def layer_metrics(span_files):
    """Per-layer metrics (name -> value) from the span files of one pass,
    plus the sorted list of targets the package no longer has."""
    total, self_time, calls, notes = {}, {}, {}, {}
    # candidate solves under the greedy; baseline draws actually scored
    candidates = draws = 0
    missing = set()
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        missing.update(data["missing"])
        spans = data["spans"]
        child = [0.0] * len(spans)
        ancestors = [frozenset()] * len(spans)
        for k, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                ancestors[k] = ancestors[parent] | {spans[parent][0]}
        for k, (name, start, end, parent, note) in enumerate(spans):
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - child[k]
            calls[name] = calls.get(name, 0) + 1
            for key, value in (note or {}).items():
                notes[(name, key)] = notes.get((name, key), 0) + value
            if name == "numerics.solve_spd" and GREEDY in ancestors[k]:
                candidates += 1
            if name == "evaluation.test_mse" and BASELINE in ancestors[k]:
                draws += 1

    out = {}
    for metric in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if kind == "s" and base in SELF_TIMED:
            out[metric] = self_time.get(base, 0.0)
        elif kind == "s":
            out[metric] = total.get(base, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(base, 0)
    def n(name, key):
        return notes.get((name, key), 0)

    steps = n(GREEDY, "steps")
    epochs = n("gcn.train.train_prediction_net", "epochs")
    cap = n("gcn.train.train_prediction_net", "max_epoch")
    out.update({
        "timeseries.ingest.records": n("timeseries.read_raw_records", "records"),
        "timeseries.ingest.stations_dropped":
            n("timeseries.read_raw_records", "stations")
            - n("timeseries.interpolate_hourly", "stations"),
        "numerics.solve_spd.dim3": n("numerics.solve_spd", "dim3"),
        "numerics.stabilize_spd.jitter": n("numerics.stabilize_spd", "jitter"),
        "numerics.power_method.iterations": n("numerics.power_method", "iterations"),
        "select_linear.greedy.steps": steps,
        "select_linear.greedy.candidates": candidates,
        "select_linear.greedy.picks_per_candidate": steps / candidates if candidates else 0.0,
        "evaluation.grid_search.points": n("evaluation.grid_search", "points"),
        "evaluation.random_baseline.draws": draws,
        "evaluation.random_baseline.skipped": n(BASELINE, "skipped"),
        "gcn.layers.samples": n("gcn.layers.forward_batch", "samples"),
        "gcn.train.epochs": epochs,
        "gcn.train.epochs_ratio": epochs / cap if cap else 0.0,
        "gcn.selection.mask_collapsed": n("gcn.selection.train_selection_masking", "collapsed"),
    })
    return out, sorted(missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
