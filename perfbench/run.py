#!/usr/bin/env python3
"""End-to-end benchmark of netselect: ingest -> select -> evaluate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root. The inputs of a workload are generated
from --seed; each netselect command then runs in its own process, as a
user runs it, and every output is checked.

With --trace 0 the command repeats ingest, select and evaluate while
another pass fits in --seconds. Each command's wall time is scaled by the
host speed that a fixed probe measures just before and just after it, and
the median over the passes is reported: the end-to-end metrics.
With --trace 1 it makes one untraced pass and one traced pass of the
pipeline (perfbench/tracer.py) and reports the per-layer metrics; their
difference in wall time is the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything a run leaves is under
perfbench/out/<workload>/, including run_record.json with the machine,
the source revision, the seed and the full flags of every command.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# one thread for BLAS and for netselect's own pool: the load is one busy
# core, and the tracer keeps one span stack per process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NETSELECT_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

REFERENCE_SEED = 0     # outputs on this seed must match reference.json
MIN_PASSES = 3         # ingest -> select -> evaluate passes per run, at least
CMD_TIMEOUT = 150.0    # seconds before a command is killed and counted failed
RUN_BUDGET = 170.0     # no select/evaluate repetition starts past this
EPS0 = 0.01            # mask collapse threshold passed to gcn-mask
INGEST_FLAGS = ("--rc", "0.5", "--min-records", "100")
DIRTY_STATIONS = 2     # stations gen.py plants for the cleaning rule to drop
PROBE_PIECES = 10      # probe pieces timed before and after each command
PROBE_REF_S = 0.010    # piece time that defines the reference host speed


@dataclass(frozen=True)
class Workload:
    n: int                  # clean stations
    T: int                  # hours
    extra_per_hour: float   # mean raw records per station-hour besides the on-hour one
    p: int                  # sensors turned off
    select: tuple           # flags of `netselect select`, starting with --method
    evaluate: tuple         # flags of `netselect evaluate`
    draws: int              # random-baseline draws

    @property
    def method(self):
        return self.select[1]


def _evaluate_flags(draws, max_epoch):
    return ("--baseline-draws", str(draws), "--lr", "0.001",
            "--batch-size", "1000", "--max-epoch", str(max_epoch))


WORKLOADS = {
    # Paris set-up: greedy_select_linear + solve_spd dominate select_s;
    # evaluate makes 101 one-shot fits with the same solver; GCN idle
    "linear-h0": Workload(
        n=110, T=1500, extra_per_hour=0.5, p=11,
        select=("--method", "linear", "--H", "0"),
        evaluate=_evaluate_flags(100, 50), draws=100),
    # Toulouse set-up: graph kernel, power_method, 5-point lambda grid of
    # full greedy_select_kernel passes over lag-stacked (H=1) blocks
    "kernel-st-h1": Workload(
        n=50, T=1200, extra_per_hour=1.5, p=5,
        select=("--method", "kernel", "--kernel", "spatial-temporal",
                "--H", "1", "--p", "5"),
        evaluate=_evaluate_flags(100, 50), draws=100),
    # gcn.layers dominate; no SPD solves: select trains N-output nets with
    # input gradients (Adam, batch 50), evaluate retrains p-output nets
    "gcn-mask": Workload(
        n=40, T=800, extra_per_hour=3.0, p=4,
        select=("--method", "gcn-mask", "--cheb-order", "20", "--f-out", "8",
                "--fc-sizes", "64", "--max-epoch", "8", "--lr", "0.05",
                "--batch-size", "50", "--mask-lambda-min", "1.0",
                "--mask-lambda-max", "3.0", "--mask-lambda-count", "3",
                "--eps0", str(EPS0)),
        evaluate=_evaluate_flags(10, 3), draws=10),
}

# relative test_mse tolerance against reference.json; GCN training runs
# thousands of float updates, so its reference is compared more loosely
MSE_RTOL = {"linear": 1e-6, "kernel": 1e-6, "gcn-mask": 1e-2}

COMMANDS = ("ingest", "select", "evaluate")
END_TO_END = {"setup_s": "s", "select_s": "s", "evaluate_s": "s", "peak_rss_mb": "MB"}


# -- commands ---------------------------------------------------------------

@dataclass
class CmdResult:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_command(argv, log_path):
    """Run argv to completion; wall time and peak RSS from os.wait4."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=_env())
        timer = threading.Timer(CMD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CmdResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)


class Session:
    """Commands of one run, their failures and the run record."""

    def __init__(self, name, wl, seed, run_dir, generated):
        self.name, self.wl, self.seed = name, wl, seed
        self.dir = run_dir
        self.generated = generated  # gen.Inputs as a dict
        self.inputs = run_dir / "inputs"
        self.attempted = 0
        self.failures = {}  # command label -> problems
        self.commands = {}
        self.first_bytes = {}
        self.result = None
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)["workloads"][name]

    def argv(self, command, out_dir, traced_spans=None):
        head = [sys.executable, "-m", "netselect.cli"]
        if traced_spans is not None:
            head = [sys.executable, str(BENCH / "tracer.py"), str(traced_spans), "--"]
        panel = str(self.inputs / "panel.csv")
        coords = str(self.inputs / "coords.csv")
        if command == "ingest":
            args = ["ingest", str(self.inputs / "raw.csv"), *INGEST_FLAGS,
                    "--out-dir", str(out_dir)]
        elif command == "select":
            args = ["select", panel, "--coords", coords, *self.wl.select,
                    "--seed", "0", "--standardize", "--out-dir", str(out_dir)]
        else:
            args = ["evaluate", panel, str(out_dir / "selection.json"),
                    "--coords", coords, *self.wl.evaluate, "--seed", "0",
                    "--out-dir", str(out_dir)]
        self.commands[command] = [os.path.relpath(a, ROOT) if a.startswith(str(ROOT))
                                  else a for a in args]
        return head + args

    def run(self, command, out_dir, traced_spans=None, tag=""):
        """Run one command and its output check; failures are recorded."""
        out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted += 1
        log = out_dir / f"{command}{tag}.log"
        res = run_command(self.argv(command, out_dir, traced_spans), log)
        if res.code != 0:
            problems = [f"exit code {res.code} (see {os.path.relpath(log, ROOT)})"]
        else:
            try:
                problems = getattr(self, f"check_{command}")(out_dir)
            except (OSError, ValueError, KeyError, TypeError) as err:
                problems = [f"unreadable output: {err!r}"]
        if problems:
            self.fail(command + tag, *problems)
        return res

    def fail(self, label, *problems):
        self.failures.setdefault(label, []).extend(problems)

    def _same_as_first(self, path, label):
        data = path.read_bytes()
        first = self.first_bytes.setdefault(label, data)
        return [] if data == first else [f"{path.name} differs from the first run's"]

    # -- output checks ------------------------------------------------------

    def check_ingest(self, out_dir):
        problems = []
        with open(out_dir / "panel.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = sum(1 for _ in fh)
        expected = ["timestamp"] + self.generated["stations"]
        if header != expected:
            problems.append("panel.csv sensors differ from the clean stations")
        if rows != self.wl.T:
            problems.append(f"panel.csv has {rows} hours, expected {self.wl.T}")
        return problems + self._same_as_first(out_dir / "panel.csv", "panel")

    def check_select(self, out_dir):
        wl = self.wl
        sel = json.loads((out_dir / "selection.json").read_text(encoding="utf-8"))
        order = [int(i) for i in sel["order"]]
        problems = self._same_as_first(out_dir / "selection.json", "selection")
        if len(order) != wl.p or len(set(order)) != wl.p or not all(
                0 <= i < wl.n for i in order):
            problems.append(f"order {order} is not {wl.p} distinct sensors")
        if wl.method == "linear":
            pairs = self.generated["pairs"]
            hit = {k for k, pair in enumerate(pairs)
                   for i in order[:len(pairs)] if i in pair}
            if len(hit) != len(pairs):
                problems.append(f"first picks {order[:len(pairs)]} are not one "
                                f"sensor of each planted pair {pairs}")
            noise = self.generated["noise"]
            if noise in order:
                problems.append(f"noise sensor {noise} was turned off")
        if wl.method == "gcn-mask":
            collapsed = _mask_collapsed(out_dir / "mask_path.csv")
            if collapsed < wl.p:
                problems.append(f"only {collapsed} mask weights fell below {EPS0}")
        if self.seed == REFERENCE_SEED:
            ref = self.reference["order"]
            # the gcn mask ranks sensors by near-tied final weights: compare sets
            same = (sorted(order) == sorted(ref)) if wl.method == "gcn-mask" else order == ref
            if not same:
                problems.append(f"order {order} differs from the reference {ref}")
        return problems

    def check_evaluate(self, out_dir):
        wl = self.wl
        rep = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        sel = json.loads((out_dir / "selection.json").read_text(encoding="utf-8"))
        problems = self._same_as_first(out_dir / "report.json", "report")
        mse, base = float(rep["test_mse"]), rep["baseline_mean"]
        self.result = {"order": sel["order"], "test_mse": mse, "baseline_mean": base,
                       "mse_ratio": mse / base if base else 0.0}
        if not (math.isfinite(mse) and mse > 0 and base is not None and base > 0):
            return problems + [f"test_mse {mse} or baseline_mean {base} is not positive"]
        if rep["selected"] != sel["order"]:
            problems.append("report scores another set than selection.json")
        if rep["baseline_draws"] != wl.draws or rep["baseline_skipped"] != 0:
            problems.append(f"baseline ran {rep['baseline_draws']} draws with "
                            f"{rep['baseline_skipped']} skipped, expected {wl.draws}, 0")
        if wl.method != "gcn-mask" and not mse / base < 1.0:
            problems.append(f"mse_ratio {mse / base:.4f} is not below 1")
        if self.seed == REFERENCE_SEED:
            ref = self.reference["test_mse"]
            if abs(mse - ref) > MSE_RTOL[wl.method] * abs(ref):
                problems.append(f"test_mse {mse!r} differs from the reference {ref!r}")
        return problems


def _mask_collapsed(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        rows = [[float(v) for v in line.split(",")[1:]] for line in fh if line.strip()]
    return sum(1 for col in zip(*rows) if min(col) < EPS0)


# -- run record --------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def cpu_ticks():
    """Aggregate (steal, total) CPU ticks from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def machine_record():
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def source_record():
    """Commit when the checkout is a git work tree, and a digest of src/."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text(encoding="utf-8").strip() \
                if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


# -- runs --------------------------------------------------------------------

def _prepare(name, seed):
    """Generate the inputs in a child process. The kernel carries a
    process's peak RSS across exec into its children, so this process
    stays small and `ru_maxrss` reports the commands' own peaks."""
    wl = WORKLOADS[name]
    run_dir = OUT / name
    shutil.rmtree(run_dir, ignore_errors=True)
    out = subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), str(run_dir / "inputs"),
         str(wl.n), str(wl.T), str(seed), str(wl.extra_per_hour)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, check=True, text=True,
        timeout=CMD_TIMEOUT)
    return Session(name, wl, seed, run_dir, json.loads(out.stdout))


def _probe_piece():
    total = 0
    for i in range(150_000):
        total += i * i
    return total


def probe():
    """Median time of a fixed pure-Python piece of work: the host's
    current speed. The benchmark process runs it, so it stays small."""
    times = []
    for _ in range(PROBE_PIECES):
        start = time.perf_counter()
        _probe_piece()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(name, seed, seconds):
    """End-to-end metrics, tracing off: whole passes repeat while another
    fits in `seconds`, so ingest, select and evaluate see the same machine."""
    started = time.perf_counter()
    s = _prepare(name, seed)
    passes, probes = [], []
    while True:
        pass_start = time.perf_counter()
        tag = f"-{len(passes)}"
        pass_probes = [probe()]
        results = []
        for command, out_dir in zip(COMMANDS, (s.inputs, s.dir / "run", s.dir / "run")):
            results.append(s.run(command, out_dir, tag=tag))
            pass_probes.append(probe())
        passes.append(results)
        probes.append(pass_probes)
        # stop before a pass that would likely end past the time allowed
        now = time.perf_counter()
        ends = now - started + (now - pass_start)
        if ends > RUN_BUDGET or (len(passes) >= MIN_PASSES and ends > seconds):
            break
    # A shared host runs the same command up to 1.6 times slower in phases
    # that outlast a run. Each wall time is scaled to the reference speed
    # by the probes on either side of it, which see the same phase.
    walls = [[r.wall_s for r in col] for col in zip(*passes)]
    scaled = [[r.wall_s * 2 * PROBE_REF_S / (pp[j] + pp[j + 1])
               for r, pp in zip(col, probes)] for j, col in enumerate(zip(*passes))]
    metrics = {
        "setup_s": statistics.median(scaled[0]),
        "select_s": statistics.median(scaled[1]),
        "evaluate_s": statistics.median(scaled[2]),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in passes),
    }
    record = {"walls_s": dict(zip(COMMANDS, walls)),
              "scaled_s": dict(zip(COMMANDS, scaled)),
              "probe_s": probes,
              "cpu_s": {c: [r.cpu_s for r in col] for c, col in zip(COMMANDS, zip(*passes))}}
    return s, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, record


def trace(name, seed):
    """Per-layer metrics from a traced pass, next to an untraced one."""
    import tracer

    s = _prepare(name, seed)
    untraced = [s.run("ingest", s.inputs),
                s.run("select", s.dir / "run"),
                s.run("evaluate", s.dir / "run")]
    traced_dir = s.dir / "traced"
    spans = {c: traced_dir / f"{c}.spans.json" for c in COMMANDS}
    traced = [s.run(c, traced_dir, path, tag="-traced") for c, path in spans.items()]
    layers, missing = tracer.layer_metrics([p for p in spans.values() if p.is_file()])
    layers["trace.overhead_s"] = (sum(r.wall_s for r in traced)
                                  - sum(r.wall_s for r in untraced))
    layers["evaluation.mse_ratio"] = s.result["mse_ratio"] if s.result else 0.0
    _reconcile(s, layers)
    record = {"untraced_walls_s": [r.wall_s for r in untraced],
              "traced_walls_s": [r.wall_s for r in traced],
              "dropped_targets": missing}
    return s, {k: (layers[k], unit) for k, unit in tracer.LAYER_METRICS.items()}, record


def _reconcile(s, layers):
    """Counts of the traced pass must agree with the inputs; a mismatch
    fails the traced command that made the count."""
    wl = s.wl
    want = [("ingest", "timeseries.ingest.records", s.generated["records"]),
            ("ingest", "timeseries.ingest.stations_dropped", DIRTY_STATIONS),
            ("evaluate", "timeseries.read_panel.calls", 2),
            ("evaluate", "evaluation.random_baseline.draws",
             wl.draws - layers["evaluation.random_baseline.skipped"]),
            ("evaluate", "evaluation.random_baseline.skipped", 0)]
    if wl.method == "linear":
        want += [("select", "select_linear.greedy.steps", wl.p),
                 ("select", "select_linear.greedy.candidates",
                  sum(wl.n - k for k in range(wl.p))),
                 ("evaluate", "select_linear.fit_predict_linear.calls", 1 + wl.draws)]
    if wl.method == "kernel":
        want += [("select", "evaluation.grid_search.points", 5),
                 ("select", "select_kernel.greedy_select_kernel.calls", 5)]
    for command, key, value in want:
        if layers[key] != value:
            s.fail(f"{command}-traced", f"{key} is {layers[key]}, expected {value}")
    if wl.method == "gcn-mask" and layers["gcn.selection.mask_collapsed"] < wl.p:
        s.fail("select-traced", "fewer mask weights collapsed than sensors selected")


def report(name, seed, seconds, traced):
    """Run one workload; print its summary and return the result object
    plus the quality figures printed beside the metrics."""
    before = cpu_ticks()
    s, metrics, record = trace(name, seed) if traced else measure(name, seed, seconds)
    after = cpu_ticks()
    if before and after:
        # share of the machine's CPU time the hypervisor took during the run
        record["steal_frac"] = (after[0] - before[0]) / max(after[1] - before[1], 1)
    failed = len(s.failures)
    extra = {"mse_ratio": (s.result["mse_ratio"] if s.result else 0.0, "ratio"),
             "failed_frac": (failed / s.attempted, "ratio")}
    record.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "machine": machine_record(), "source": source_record(),
        "inputs": {"n": s.wl.n, "T": s.wl.T, "raw_records": s.generated["records"],
                   "planted_pairs": s.generated["pairs"],
                   "planted_noise": s.generated["noise"]},
        "commands": s.commands, "result": s.result,
        "attempted": s.attempted, "failures": s.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    record_path = s.dir / "run_record.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {name}, seed {seed}, trace {int(traced)}: "
          f"{s.attempted} commands, record in {os.path.relpath(record_path, ROOT)}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"  {key:44s} {value:14.6g} {unit}")
    for label, problems in s.failures.items():
        print(f"  FAILED {label}: {'; '.join(problems)}")
    result = {"correct": failed == 0, "attempted": s.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "netselect" / "cli.py").is_file():
        print(f"error: no netselect sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, _ = report(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0

    # one table of every workload, the quality figures included
    columns = {}
    for name in WORKLOADS:
        result, extra = report(name, args.seed, args.seconds, args.trace)
        columns[name] = {**{k: (m["value"], m["unit"]) for k, m in result["metrics"].items()},
                         **extra}
    print(f"{'metric':48s}" + "".join(f"{n:>16s}" for n in columns))
    for key, (_, unit) in columns["linear-h0"].items():
        print(f"{key + ' [' + unit + ']':48s}"
              + "".join(f"{col[key][0]:16.6g}" for col in columns.values()))
    return 0 if all(col["failed_frac"][0] == 0 for col in columns.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
