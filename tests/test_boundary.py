"""src/netselect holds only code that the pipeline or the benchmark runs."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    """src/netselect's module texts by repository path."""
    return {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted((ROOT / "src" / "netselect").rglob("*.py"))}


def _owners(pattern):
    """The src/netselect modules whose text matches pattern."""
    return sorted(path for path, text in _sources().items()
                  if re.search(pattern, text, flags=re.M))


def test_every_library_name_is_used_outside_the_tests():
    # a reference that only tests call belongs in tests/oracles.py; names
    # in perfbench count, since its tracer wraps library functions by name,
    # and package re-exports do not
    modules = [p for p in sorted((ROOT / "src" / "netselect").rglob("*.py"))
               if p.name != "__init__.py"]
    texts = [p.read_text(encoding="utf-8") for p in modules]
    corpus = "\n".join(texts + [p.read_text(encoding="utf-8")
                                for p in sorted((ROOT / "perfbench").glob("*.py"))])
    unused = [f"{path.stem}.{name}"
              for path, text in zip(modules, texts)
              for name in re.findall(r"^(?:def|class) (\w+)", text, flags=re.M)
              if len(re.findall(rf"\b{name}\b", corpus)) < 2]
    assert not unused, f"defined in src/netselect but used by no other code: {unused}"


def test_packages_hold_only_a_docstring():
    # nothing imports from a package itself, so a re-export or a version
    # string there is code that no caller reads
    for path in sorted((ROOT / "src" / "netselect").rglob("__init__.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(module) and len(module.body) == 1, \
            f"{path.relative_to(ROOT)} holds more than a docstring"


def test_no_function_takes_kwargs():
    # a **kwargs signature hides which options a function takes and needs
    # a hand-written check for the unknown ones; keyword-only parameters
    # do both
    found = [f"{path.relative_to(ROOT)}:{node.kwarg.lineno}"
             for path in sorted((ROOT / "src" / "netselect").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.arguments) and node.kwarg is not None]
    assert not found, f"functions taking **kwargs: {found}"


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps library functions by name and reports a
    # vanished one only as a metric that reads 0; these three are known
    # stale and listed for renaming in ROADMAP.md, any other is a break
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = {f"{modname[len('netselect.'):]}.{name}"
               for modname, names in tracer.TARGETS.items()
               for name in names
               if not hasattr(importlib.import_module(modname), name)}
    assert missing == {"gcn.layers.cheb_apply", "numerics.stabilize_spd",
                       "select_kernel.assemble_kernel"}


def test_tracer_reads_arguments_where_the_library_takes_them():
    # the tracer's notes read a traced call's arguments by position or
    # by name; a signature that moves one would have the note read
    # another argument, which only a traced benchmark run showed
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    notes = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["NOTES"])
    reads, wrong = 0, []
    for key, note in zip(notes.keys, notes.values):
        layer, _, fname = key.value.rpartition(".")
        fn = getattr(importlib.import_module(f"netselect.{layer}"), fname, None)
        if fn is None:  # a stale target, which the test above lists
            continue
        params = list(inspect.signature(fn).parameters)
        for call in ast.walk(defs[note.id] if isinstance(note, ast.Name) else note):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                pos, name = (arg.value for arg in call.args[2:4])
                reads += 1
                if params[pos:pos + 1] != [name]:
                    wrong.append(f"{key.value} reads {name!r} at {pos} of {params}")
    assert reads == 5 and not wrong, wrong


def test_one_owner_of_the_jitter_rule_and_the_lag_layout():
    # numerics decides every jitter, for the SPD solves and a run's one
    # inverse alike, takes every inverse and holds the condition bound of
    # a one-inverse run; timeseries owns the lag-stacked layout that it
    # builds; a second Cholesky test, a second inverse, a second bound or
    # a layout derived again elsewhere drifts from the first
    assert _owners(r"np\.linalg\.(?:cholesky|inv)\b|\bJITTER_TRIGGER\b") == [
        "src/netselect/numerics.py"]
    assert _owners(r"\bCOND_LIMIT\b") == ["src/netselect/numerics.py"]
    for name in ("assemble_blocks", "lag_positions"):
        assert _owners(rf"^def {name}\b") == ["src/netselect/timeseries.py"], name
    # assemble_blocks is the one builder of a lag-stacked Gram; its
    # general form lag_stack is the reference builder in tests/oracles.py
    assert _owners(r"\blag_stack\b") == []


def test_one_owner_of_each_selection_size_rule():
    # timeseries decides which sizes p and which turned-off sets I a
    # selection may have; the copies in the trainers drifted, and the
    # prediction net trained on I = [-1]. A ChebNet config holds only the
    # architecture, so no trainer checks it against the data's sizes
    assert _owners(r"\b1 <= p < n\b|need 1 <= p") == ["src/netselect/timeseries.py"]
    assert _owners(r"\bnot I or not Ic\b|nonempty proper subset\"") == [
        "src/netselect/timeseries.py"]
    layers = importlib.import_module("netselect.gcn.layers")
    assert [f.name for f in dataclasses.fields(layers.ChebNetConfig)] == [
        "cheb_order", "f_out", "fc_sizes", "h"]


def test_one_copy_of_a_nets_shape_and_a_reconstructors_set():
    # a net's params carry its architecture and a reconstructor its
    # turned-off set; a config or an I passed beside them was a second
    # copy that could disagree, and a config with another h broadcast
    # silently into a wrong output
    layers = importlib.import_module("netselect.gcn.layers")
    train = importlib.import_module("netselect.gcn.train")
    selection = importlib.import_module("netselect.gcn.selection")
    evaluation = importlib.import_module("netselect.evaluation")
    named = {f.__name__: [(a.name, a.annotation)
                          for a in inspect.signature(f).parameters.values()]
             for f in (layers.forward_batch, layers.backward_batch,
                       train.batch_loss, selection.score_sensors)}
    named["NetReconstructor"] = [(f.name, f.type)
                                 for f in dataclasses.fields(train.NetReconstructor)]
    with_config = {where: name for where, fields in named.items()
                   for name, kind in fields if "config" in f"{name} {kind}".lower()}
    assert not with_config, f"a net's shape passed beside its params: {with_config}"
    assert list(inspect.signature(evaluation.test_mse).parameters) == [
        "reconstructor", "X", "split"]


def test_every_net_pass_runs_on_a_workspace():
    # a pass without a workspace took a second, allocating path that
    # rebuilt the Chebyshev table, so dropout scoring built each run's
    # table twice; one path leaves no fork to drift from the other
    layers = importlib.import_module("netselect.gcn.layers")
    train = importlib.import_module("netselect.gcn.train")
    selection = importlib.import_module("netselect.gcn.selection")
    passes = (layers.forward_batch, layers.backward_batch, train.batch_loss,
              selection.mask_gradients, selection.score_sensors)
    # a missing workspace parameter counts as one with a default
    optional = [f.__name__ for f in passes
                if getattr(inspect.signature(f).parameters.get("workspace"), "default",
                           None) is not inspect.Parameter.empty]
    assert not optional, f"passes that can run without a workspace: {optional}"
    assert _owners(r"workspace is None|def _out\b") == []


def _callers(callee):
    """(path, qualified name of the enclosing def) of every call of the
    name callee in src/netselect."""
    found = []

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, f"{owner}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == callee:
                found.append((path, owner))
            visit(child, path, owner)

    for path, text in _sources().items():
        visit(ast.parse(text), path, "")
    return sorted(found)


def test_a_workspace_carries_its_runs_spectrum():
    # a workspace owns the spectrum its passes filter with and builds the
    # Chebyshev table from it; a spectrum passed beside it was a second
    # copy, and the table was kept by the identity of the eigenvalue
    # array, which then must not change in place. The command builds one
    # workspace for its runs, and a reconstructor one per prediction
    beside, identity = [], []
    for path in sorted((ROOT / "src" / "netselect" / "gcn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if {"spectrum", "workspace"} <= names:
                    beside.append(node.name)
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                    and not any(isinstance(v, ast.Constant) and v.value is None
                                for v in [node.left] + node.comparators)):
                identity.append(f"{path.name}:{node.lineno}")
    assert not beside, f"a spectrum passed beside a workspace: {beside}"
    assert not identity, f"identity tests on objects other than None: {identity}"
    assert _callers("Workspace") == [
        ("src/netselect/cli.py", "gcn"),
        ("src/netselect/gcn/train.py", "NetReconstructor.predict_panel")]


def test_one_csv_writer():
    # timeseries.write_csv writes every table the commands write; a row
    # joined by hand splits an id that holds a comma into two fields
    sources = _sources()
    writers = sorted(path for path, text in sources.items() if "csv.writer(" in text)
    assert writers == ["src/netselect/timeseries.py"]
    joined = sorted(path for path, text in sources.items()
                    if re.search(r"""["'],["']\.join""", text))
    assert not joined, f"CSV rows joined by hand in {joined}"


def test_one_csv_reader():
    # timeseries.csv_rows numbers the records of every CSV the commands
    # read; a loop of its own that counts rows from 2 names the wrong line
    # after a quoted newline and lets a csv.Error exit 1
    sources = _sources()
    readers = sorted(path for path, text in sources.items() if "csv.reader(" in text)
    assert readers == ["src/netselect/timeseries.py"]
    counted = sorted(path for path, text in sources.items()
                     if re.search(r"enumerate\(.*\bstart=2\)", text))
    assert not counted, f"rows numbered by hand in {counted}"


def test_one_skip_rule():
    # evaluation._each decides which failed fit of a repeated loop is
    # skipped and what is raised when all fail; the grid search and the
    # random baseline each kept a copy, and the copies mapped the same
    # failures to different exit codes; cli.main maps the error classes
    # to the codes
    handlers = []
    for path in sorted((ROOT / "src" / "netselect").rglob("*.py")):
        func = None  # the def that a handler's line follows
        for line in path.read_text(encoding="utf-8").splitlines():
            func = (re.findall(r"^\s*def (\w+)", line) or [func])[0]
            if re.search(r"\bexcept\b[^:]*\bNetselectError\b", line):
                handlers.append((path.relative_to(ROOT).as_posix(), func))
    assert handlers == [("src/netselect/cli.py", "main"),
                        ("src/netselect/evaluation.py", "_each")]


def test_one_kind_per_setting():
    # every numeric flag parses through a cli.Kind, and evaluate checks the
    # stored settings with the same objects through cli.SETTINGS; a bare
    # int or float flag, or a second table of stored keys, lets select
    # record a value that evaluate refuses
    cli = (ROOT / "src" / "netselect" / "cli.py").read_text(encoding="utf-8")
    bare = re.findall(r"\btype=(?:int|float)\b", cli)
    assert not bare, f"flags parsed without a kind: {bare}"
    tables = [name for name in ("EVALUATE_KEYS", "EVALUATE_TYPES") if name in cli]
    assert not tables, f"stored keys declared outside SETTINGS: {tables}"


def test_one_error_class_per_exit_code():
    # cli.main maps InvalidInputError to exit 2 and every other
    # NetselectError to 3; a class of its own per fault let input faults
    # slip to 3, so errors.py holds the two bases and the two computation
    # failures, and src/netselect raises nothing else
    errors = (ROOT / "src" / "netselect" / "errors.py").read_text(encoding="utf-8")
    classes = re.findall(r"^class (\w+)\((\w+)\)", errors, flags=re.M)
    assert classes == [("NetselectError", "Exception"),
                       ("InvalidInputError", "NetselectError"),
                       ("SingularMatrixError", "NetselectError"),
                       ("TrainingDivergedError", "NetselectError")]
    sources = _sources()
    allowed = {name for name, _ in classes} | {"argparse.ArgumentTypeError"}
    raised = {(path, name) for path, text in sources.items()
              for name in re.findall(r"\braise ([\w.]+)\(", text)}
    assert raised and not {r for r in raised if r[1] not in allowed}
    # a handler for one computation failure would steer control by it
    caught = {(path, clause) for path, text in sources.items()
              for clause in re.findall(r"\bexcept ([^:]*):", text)
              if re.search(r"SingularMatrixError|TrainingDivergedError", clause)}
    assert not caught


def test_commands_dispatch_through_the_family_table():
    # cli.FAMILY's functions build what select and evaluate share of a
    # method family; a library call in a command body is a second copy
    # of that setup, and the two copies drifted apart
    tree = ast.parse((ROOT / "src" / "netselect" / "cli.py").read_text(encoding="utf-8"))
    commands = {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name in ("cmd_select", "cmd_evaluate")}
    assert sorted(commands) == ["cmd_evaluate", "cmd_select"]
    family_calls = re.compile(
        r"estimate_blocks|build_kernel_blocks|(greedy_select|fit_predict|train)_\w+")
    named = sorted((name, node.id if isinstance(node, ast.Name) else node.attr)
                   for name, command in commands.items()
                   for node in ast.walk(command)
                   if isinstance(node, (ast.Name, ast.Attribute)))
    called = [pair for pair in named if family_calls.fullmatch(pair[1])]
    assert not called, f"library functions named outside cli.FAMILY: {called}"


def test_cli_owns_the_record_files():
    # cli writes selection.json and report.json, and checks a selection
    # through cli.RECORD; json in another module, or a second tuple of
    # methods, is a second owner of the record format with checks of its
    # own
    sources = _sources()
    for pattern in (r"^\s*(import|from) json\b", r"^\s*METHODS\s*="):
        owners = [path for path, text in sources.items()
                  if re.search(pattern, text, flags=re.M)]
        assert owners == ["src/netselect/cli.py"], (pattern, owners)


def test_no_unused_imports():
    # no linter runs here; a module-level import that nothing in its
    # module reads is a leftover of code that moved or went away
    unused = []
    for path in (sorted((ROOT / "src" / "netselect").rglob("*.py"))
                 + sorted((ROOT / "tests").glob("*.py"))):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                   for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in ((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
                   if name not in read]
    assert not unused, f"imported but never used: {unused}"


def test_hashlib_loads_in_one_function():
    # hashlib loads OpenSSL, whose pages set ingest's peak memory when
    # loaded while the raw records are alive; one function of timeseries
    # hashes the panel file and the coordinates alike
    found = []
    for path, text in _sources().items():
        for top in ast.parse(text).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            found += [(path, owner) for node in ast.walk(top)
                      if isinstance(node, ast.Import)
                      and "hashlib" in [alias.name for alias in node.names]
                      or isinstance(node, ast.ImportFrom) and node.module == "hashlib"]
    assert found == [("src/netselect/timeseries.py", "sha256_hex")]


def test_every_np_load_refuses_pickles():
    # a sidecar is read from the disk beside an input; a pickle in it
    # would run code
    calls = [(path, node.lineno) for path, text in _sources().items()
             for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "load" and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")
             and not any(k.arg == "allow_pickle" and isinstance(k.value, ast.Constant)
                         and k.value.value is False for k in node.keywords)]
    assert not calls, f"np.load without allow_pickle=False: {calls}"


def test_no_second_panel_parser():
    # csv_rows and float() read every CSV value; a second parser such as
    # np.loadtxt needed rules of its own to read values as float() does
    found = [path for path, text in _sources().items() if "loadtxt" in text]
    assert not found, f"loadtxt in {found}"
