"""End-to-end checks of the command line front-end: dispatch, exit
codes, output formats, determinism."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rbw
from rbw import catalog, cli, errors, selftest, symmetry_state, tolerance
from rbw.grouprep import Irrep, group_document


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- dispatch

def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "error" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "invalid choice" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0


@pytest.mark.parametrize("flags", [[], ["-OO"]], ids=["plain", "docstrings-stripped"])
def test_help_shows_the_subcommands_and_exit_status_only(flags):
    # the module docstring's notes on what each subcommand imports are for
    # readers of the code, and the help text does not depend on docstrings
    src = Path(rbw.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, *flags, "-m", "rbw.cli", "--help"],
                         capture_output=True, text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src),
                              "PYTHONDONTWRITEBYTECODE": "1"}).stdout
    for name in ("group-check", "reconstruct", "mzi", "sweep", "boost", "scenario",
                 "contract", "selftest"):
        assert f"\n    {name} " in out
    assert "Exit status: 0 success, 1 bad usage or invalid input, 2 a numerical" in out
    for word in ("numpy", "dataclasses", "json"):
        assert word not in out


def test_import_loads_no_scipy():
    # every subcommand pays for what `import rbw.cli` imports
    assert _fresh_modules("import rbw, rbw.cli", package="scipy") == "[]"


# ---------------------------------------------------------- lazy start-up

# a child's first lines: site-packages, which `python -S` leaves off the path,
# put back by hand
_PRELUDE = ("import sys, sysconfig\n"
                  "sys.path += [sysconfig.get_path('purelib'), sysconfig.get_path('platlib')]\n")


def _child(body, argv=()):
    """Run body in a fresh `python -S` with rbw and site-packages on its path;
    return the last line it wrote to stderr.  -S runs no .pth start-up hook
    of site-packages, whose own imports (re, typing, shutil, ...) would hide
    whether rbw imports them."""
    src = Path(rbw.__file__).resolve().parents[1]
    code = _PRELUDE + body
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return proc.stderr.strip().splitlines()[-1]


def _fresh_modules(body, argv=(), package="numpy"):
    """Run body in a fresh interpreter; return the modules of package it loaded."""
    return _child(f"{body}\nprint([m for m in sys.modules if (m + '.').startswith("
                  f"{package + '.'!r})], file=sys.stderr)", argv)


_RUN_CLI = "import rbw.cli\nassert rbw.cli.main(sys.argv[1:]) == 0"


@pytest.mark.parametrize("body,argv", [
    ("import rbw", ()),
    ("import rbw.cli", ()),
    (_RUN_CLI, ["boost", "--v", "0.6c", "--t", "0", "--x", "1000"]),
    (_RUN_CLI, ["scenario", "--json"]),
    (_RUN_CLI, ["contract", "--hbar", "3/4", "--m", "5/7", "--c", "7/3"]),
], ids=["import-rbw", "import-rbw-cli", "boost", "scenario-json", "contract"])
def test_start_loads_no_numpy(body, argv):
    assert _fresh_modules(body, argv) == "[]"


@pytest.mark.parametrize("argv,loads", [
    (["boost", "--v", "0.6c", "--t", "0", "--x", "1000"], False),
    (["scenario"], False),
    (["sweep", "--k0=2", "--a-min=0", "--a-max=1", "--steps=5"], False),
    (["contract", "--hbar", "3/4"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_only_contract_loads_fractions(argv, loads):
    # contract is the control: its rational scales are parsed as Fractions
    for package in ("fractions", "decimal"):
        loaded = _fresh_modules(_RUN_CLI, argv, package=package)
        assert (f"'{package}'" in loaded) is loads, package


def test_numpy_probe_sees_a_numpy_subcommand():
    # control: the probe above would notice numpy if a subcommand loaded it
    argv = ["mzi", "--k0", "2", "--elements", "source,bs,detector"]
    assert "'numpy'" in _fresh_modules(_RUN_CLI, argv)


def _refuse_cli(needle):
    """A probe body: the CLI exits 1 with one `error:` line holding needle."""
    return ("import contextlib, io, rbw.cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    code = rbw.cli.main(sys.argv[1:])\n"
            "text = err.getvalue()\n"
            "assert code == 1 and text.count('\\n') == 1, (code, text)\n"
            f"assert text.startswith('error: ') and {needle!r} in text, text\n")


# one document per group axiom it breaks, and the message naming it
_NOT_GROUPS = {
    "non-closed": ({"elements": ["e", "r"], "mul": {"e,e": "e", "e,r": "r", "r,e": "r"}},
                   "mul(r,r) is missing from the table"),
    "no-identity": ({"elements": ["a", "b"],
                     "mul": {"a,a": "a", "a,b": "a", "b,a": "b", "b,b": "b"}},
                    "no two-sided identity"),
    "no-inverse": ({"elements": ["e", "a"],
                    "mul": {"e,e": "e", "e,a": "a", "a,e": "a", "a,a": "a"}},
                   "element 'a' has no two-sided inverse"),
    "non-associative": ({"elements": ["e", "a", "b"],
                         "mul": {"e,e": "e", "e,a": "a", "e,b": "b",
                                 "a,e": "a", "a,a": "e", "a,b": "a",
                                 "b,e": "b", "b,a": "b", "b,b": "e"}},
                        "(a*a)*b != a*(a*b)"),
}


@pytest.mark.parametrize("subcommand", ["group-check", "reconstruct"])
@pytest.mark.parametrize("axiom", sorted(_NOT_GROUPS))
def test_table_that_is_not_a_group_is_refused_without_numpy(tmp_path, subcommand, axiom):
    doc, needle = _NOT_GROUPS[axiom]
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    argv = [subcommand, "--group", str(path)]
    if subcommand == "reconstruct":
        argv += ["--irrep", "standard", "--expectations",
                 str(_write_expectations(tmp_path, np.diag([0.75, 0.25])))]
    assert _fresh_modules(_refuse_cli(needle), argv) == "[]"


@pytest.mark.parametrize("source", ["builtin:s3", "file"])
def test_group_that_passes_loads_numpy(tmp_path, source):
    # control: the probe above would notice numpy once the table passes
    if source == "file":
        source = str(tmp_path / "s3.json")
        Path(source).write_text(json.dumps(catalog.s3_document()))
    assert "'numpy'" in _fresh_modules(_RUN_CLI, ["group-check", "--group", source])


@pytest.mark.parametrize("argv,loads", [
    (["sweep", "--k0=2", "--a-min=0", "--a-max=1", "--steps=5"], False),
    (["mzi", "--k0", "2", "--elements", "source,bs,detector"], False),
    (["group-check", "--group", "builtin:s3"], False),
    (["reconstruct", "--group", "builtin:s3", "--irrep", "standard", "--expectations"], False),
    (["contract"], False),
    (["boost", "--v", "0.6c", "--t", "0", "--x", "1000"], True),
    (["scenario"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_only_boost_and_scenario_load_relsim(tmp_path, argv, loads):
    if argv[0] == "reconstruct":
        argv = argv + [str(_write_expectations(tmp_path, np.diag([0.75, 0.25])))]
    loaded = _fresh_modules(_RUN_CLI, argv, package="rbw.relsim")
    assert loaded == ("['rbw.relsim']" if loads else "[]")


@pytest.mark.parametrize("argv,loads", [
    (["selftest"], False),
    (["sweep", "--k0=2", "--a-min=0", "--a-max=1", "--steps=5"], False),
    (["group-check", "--group", "builtin:s3"], False),
    (["mzi", "--k0", "2", "--elements", "source,bs,detector"], False),
    (["mzi", "--k0", "2", "--elements", "source,bs,detector", "--shots=5"], True),
], ids=["selftest", "sweep", "group-check", "mzi", "mzi-shots"])
def test_only_sampled_shots_load_numpy_random(argv, loads):
    # mzi --shots is the control: it draws its counts from numpy.random
    loaded = _fresh_modules(_RUN_CLI, argv, package="numpy.random")
    assert ("'numpy.random'" in loaded) is loads


# ---------------------------------------------------------- module budget

# case -> the non-rbw modules it may load beyond its baseline, taken on CPython 3.11
_BUDGET_FILE = Path(__file__).with_name("start_modules.json")

# case -> (argv, baseline, exit code); {name} in argv is a document that
# _budget_run writes.  The baseline is the bare interpreter for the
# numpy-free cases and `import numpy` for the rest.
_BUDGET_CASES = {
    "group-check": (["group-check", "--group", "builtin:s3"], "import numpy", 0),
    "group-check-file": (["group-check", "--group", "{s3}"], "import numpy", 0),
    "group-check-corrupted": (["group-check", "--group", "{corrupted}"], "", 1),
    "reconstruct": (["reconstruct", "--group", "builtin:s3", "--irrep", "standard",
                     "--expectations", "{expectations}"], "import numpy", 0),
    "mzi": (["mzi", "--k0", "2", "--elements", "source,bs,detector"], "import numpy", 0),
    "mzi-pipeline": (["mzi", "--pipeline", "{pipeline}"], "import numpy", 0),
    "sweep": (["sweep", "--k0=2", "--a-min=0", "--a-max=1", "--steps=5"], "import numpy", 0),
    "boost": (["boost", "--v", "0.6c", "--t", "0", "--x", "1000"], "", 0),
    "boost-events": (["boost", "--v", "0.6c", "--events", "{events}", "--classes"], "", 0),
    "scenario": (["scenario"], "", 0),
    "scenario-json": (["scenario", "--json"], "", 0),
    "contract": (["contract", "--hbar", "3/4", "--m", "5/7", "--c", "7/3"], "", 0),
    "selftest": (["selftest"], "import numpy", 0),
}

_BUDGET_CHILD = """\
import io
{baseline}
before = set(sys.modules)
import rbw.cli
sys.stdout = sys.stderr = io.StringIO()
code = rbw.cli.main(sys.argv[1:])
sys.stderr = sys.__stderr__
print(code, sorted(m for m in set(sys.modules) - before if m.split('.')[0] != 'rbw'),
      file=sys.stderr)
"""


def _budget_run(case, tmp_path):
    """(exit code, the non-rbw modules case loaded beyond its baseline)"""
    argv, baseline, _ = _BUDGET_CASES[case]
    paths = {"expectations": _write_expectations(tmp_path, np.diag([0.75, 0.25]))}
    for name, doc in (("s3", catalog.s3_document()),
                      ("corrupted", _NOT_GROUPS["non-closed"][0]),
                      ("events", {"frame": "boys", "events": [
                          {"label": "a", "t": 0.0, "x": 0.0},
                          {"label": "b", "t": 0.002, "x": 1000.0}]}),
                      ("pipeline", {"k0": 2.0, "elements": ["source", "bs", "detector"]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    line = _child(_BUDGET_CHILD.format(baseline=baseline), [a.format(**paths) for a in argv])
    code, loaded = line.split(" ", 1)
    return int(code), ast.literal_eval(loaded)


@pytest.mark.parametrize("case", sorted(_BUDGET_CASES))
def test_start_stays_within_its_module_budget(tmp_path, case):
    code, loaded = _budget_run(case, tmp_path)
    assert code == _BUDGET_CASES[case][2]
    extra = sorted(set(loaded) - set(json.loads(_BUDGET_FILE.read_text()).get(case, [])))
    assert not extra, (f"{case} loads {extra} beyond its list in {_BUDGET_FILE.name}; "
                       f"to accept them, commit the line {json.dumps({case: loaded})[1:-1]}")


def test_module_budget_keeps_the_start_up_cuts():
    budget = json.loads(_BUDGET_FILE.read_text())
    assert set(budget) == set(_BUDGET_CASES)
    # contract builds no dataclass, and json is loaded only for a document
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"} & set(budget["contract"])
    for case in ("boost", "scenario", "sweep", "mzi", "group-check"):
        assert "json" not in budget[case], case
    # the numpy layers build NamedTuples and plain classes, no dataclass
    for case in ("group-check", "group-check-file", "reconstruct", "mzi", "mzi-pipeline",
                 "sweep"):
        assert not {"dataclasses", "copy"} & set(budget[case]), case
    for case, (_, baseline, _) in _BUDGET_CASES.items():
        assert baseline or "numpy" not in budget[case], case


def test_module_budget_probe_sees_dataclasses_under_boost(tmp_path):
    # control: relsim's Boost and SpacetimeEvent are still dataclasses, so the
    # probe that keeps dataclasses out of contract's list reports it here
    code, loaded = _budget_run("boost", tmp_path)
    assert code == 0
    assert {"dataclasses", "inspect"} <= set(loaded)


def test_every_export_resolves_to_its_home_module():
    assert set(rbw.__all__) <= set(dir(rbw))
    imported = {}
    exec(f"from rbw import {', '.join(rbw.__all__)}", imported)
    for name in rbw.__all__:
        value = getattr(rbw, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"rbw.{name}"], name
        elif name != "__version__":
            assert value is getattr(sys.modules[value.__module__], name), name
        assert imported[name] is value, name
    assert rbw.weak_boost_transform.__module__ == "rbw.relsim"
    with pytest.raises(AttributeError):
        getattr(rbw, "no_such_name")


_NUMPY_FREE = {"relsim", "errors", "tolerance", "documents", "contraction", "cayley"}


# numpy nowhere, not even inside a function
_NUMPY_NOWHERE = {"relsim", "errors", "tolerance", "documents", "cayley"}


def _imports(nodes, functions):
    """(module, relative) for every import among nodes and their children,
    entering function bodies only when functions is true."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from ((alias.name, False) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:
                yield from ((alias.name, True) for alias in node.names)
            else:
                yield node.module, bool(node.level)
        elif functions or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(ast.iter_child_nodes(node), functions)


@pytest.mark.parametrize("module", sorted(_NUMPY_FREE) + ["cli"])
def test_numpy_free_modules_import_no_numpy(module):
    # relsim, errors, tolerance, documents and cayley anywhere; contraction (numpy only for
    # the dense `f` view) and cli at module level: numpy only where it is needed
    path = Path(rbw.__file__).with_name(f"{module}.py")
    for name, relative in _imports(ast.parse(path.read_text()).body,
                                   module in _NUMPY_NOWHERE):
        if relative:
            assert name.split(".")[0] in _NUMPY_FREE, (module, name)
        else:
            assert name.split(".")[0] != "numpy", (module, name)


def test_only_relsim_imports_dataclasses():
    # records are NamedTuples or plain classes; relsim keeps Boost and
    # SpacetimeEvent as dataclasses, whose frozen error and replace() are pinned
    importers = {path.name for path in Path(rbw.__file__).parent.glob("*.py")
                 for name, relative in _imports(ast.parse(path.read_text()).body, True)
                 if not relative and name.split(".")[0] == "dataclasses"}
    assert importers == {"relsim.py"}


def test_symmetry_state_forms_no_group_sum_of_its_own():
    # every group sum goes through Irrep.traces and Irrep.group_sum, so
    # symmetry_state never reads the raw matrix stack
    tree = ast.parse(Path(rbw.__file__).with_name("symmetry_state.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "stacked"]
    assert calls == []


def test_tolerance_has_one_knob():
    # every check reads RBW_TOLERANCE through default_tolerance; no public
    # function takes a per-call tolerance or a switch that skips its checks
    knobs = [(path.name, node.name, arg.arg)
             for path in Path(rbw.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
             for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
             if arg.arg in ("tol", "validate")]
    assert knobs == []
    assert not hasattr(tolerance, "resolve")


def _source_functions():
    """(module file, function) for every function in the package."""
    for path in sorted(Path(rbw.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                yield path.name, node


def _reads_tolerance(node):
    return any(isinstance(n, ast.Name) and n.id == "tol"
               or isinstance(n, ast.Call) and getattr(n.func, "id", None) == "default_tolerance"
               for n in ast.walk(node))


def test_tolerance_comparisons_fail_closed():
    # `residual <= tol` is false for NaN, so NaN fails; `residual > tol` is
    # false for NaN too, so a guard written with it lets NaN pass
    compares = {(name, node.lineno, tuple(type(op).__name__ for op in node.ops),
                 _reads_tolerance(node.left))
                for name, function in _source_functions() for node in ast.walk(function)
                if isinstance(node, ast.Compare) and _reads_tolerance(node)}
    assert ("tolerance.py", "LtE") in {(name, ops[0]) for name, _, ops, _ in compares}
    assert [c for c in compares if c[2] != ("LtE",) or c[3]] == []


# what a `try` may call when it turns a ValueError into another error: parsers
# of text and documents, none of which runs a residual check
_PARSERS = {"open", "load", "float", "int", "Fraction", "split", "index", "append",
            "Element", "matrix_from_pairs", "run_checks"}


def _catches_value_error(handler):
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(getattr(name, "id", None) == "ValueError" for name in caught)


def test_no_value_error_handler_wraps_a_guard():
    # a contract violation is a ValueError too: a handler around a guard would
    # turn its exit 2 into exit 1.  cli.main is where every error gets its code.
    calls = {(name, function.name, getattr(call.func, "id", None) or call.func.attr)
             for name, function in _source_functions()
             if (name, function.name) != ("cli.py", "main")
             for node in ast.walk(function)
             if isinstance(node, ast.Try) and any(map(_catches_value_error, node.handlers))
             for call in ast.walk(ast.Module(body=node.body, type_ignores=[]))
             if isinstance(call, ast.Call)}
    assert ("tolerance.py", "default_tolerance", "float") in calls
    assert [c for c in calls if c[2] not in _PARSERS] == []


def test_unrecognized_flag(capsys):
    code, _, err = run(capsys, "scenario", "--bogus")
    assert code == 1
    assert "unrecognized" in err


# ---------------------------------------------------------------- boost

def test_boost_reference_line(capsys):
    code, out, _ = run(capsys, "boost", "--v", "0.6c", "--t", "0", "--x", "1000")
    assert code == 0
    assert out == "T=-0.0025 s, X=1250 km\n"


def test_boost_explicit_light_speed_matches_the_default(capsys):
    code, out, _ = run(capsys, "boost", "--v", "0.6c", "--t", "0", "--x", "1000",
                       "--c", "300000")
    assert code == 0
    assert out == "T=-0.0025 s, X=1250 km\n"


def test_boost_help_names_the_default_light_speed(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["boost", "--help"])
    assert info.value.code == 0
    assert "light speed in km/s (default 300000)" in capsys.readouterr().out


def test_boost_zero_slice_line(capsys):
    code, out, _ = run(capsys, "boost", "--v", "0.6c", "--t", "0.002", "--x", "1000")
    assert code == 0
    assert out == "T=0 s, X=800 km\n"


def test_boost_velocity_in_km_s(capsys):
    code, out, _ = run(capsys, "boost", "--v", "180000", "--t", "0", "--x", "1000")
    assert code == 0
    assert out == "T=-0.0025 s, X=1250 km\n"


def test_boost_negative_fraction(capsys):
    # --v=-0.6c: the = form, which argparse has always taken
    code, out, _ = run(capsys, "boost", "--v=-0.6c", "--t", "0", "--x", "1000")
    assert code == 0
    assert out == "T=0.0025 s, X=1250 km\n"


@pytest.mark.parametrize("argv,expected", [
    (["--v", "-0.6c", "--t", "0", "--x", "1000"], "T=0.0025 s, X=1250 km\n"),
    (["--v", "0.6c", "--t", "-1e-3", "--x", "1000"], "T=-0.00375 s, X=1475 km\n"),
    (["--v", "-0.6c", "--t", "-1e-3", "--x", "-2.5e3"], "T=-0.0075 s, X=-3350 km\n"),
    (["--v", "-.6c", "--t", "0", "--x", "1000"], "T=0.0025 s, X=1250 km\n"),
], ids=["v", "t", "all", "no-leading-digit"])
def test_boost_takes_negative_values_after_a_space(capsys, argv, expected):
    # argparse alone reads -0.6c and -1e-3 as unknown options; no rbw option
    # looks like a number, so every such token is a value
    code, out, err = run(capsys, "boost", *argv)
    assert (code, out, err) == (0, expected, "")
    joined = [f"{flag}={value}" for flag, value in zip(argv[::2], argv[1::2])]
    assert run(capsys, "boost", *joined) == (0, expected, "")


def test_sweep_takes_a_negative_exponent_after_a_space(capsys):
    spaced = run(capsys, "sweep", "--k0", "2", "--a-min", "-1e-3", "--a-max", "1",
                 "--steps", "2")
    joined = run(capsys, "sweep", "--k0=2", "--a-min=-1e-3", "--a-max=1", "--steps=2")
    assert spaced == joined and spaced[0] == 0
    assert spaced[1].splitlines()[1].startswith("-0.001,")


def test_a_dash_word_is_still_no_value(capsys):
    # only a dash before a digit, or before a point and a digit, makes a value
    code, _, err = run(capsys, "boost", "--v", "-c", "--t", "0", "--x", "1")
    assert code == 1 and "--v: expected one argument" in err


@pytest.mark.parametrize("v", ["--v=1.2c", "--v=300000", "--v=-c"])
def test_boost_superluminal_rejected(capsys, v):
    code, _, err = run(capsys, "boost", v, "--t", "0", "--x", "1")
    assert code == 1
    assert "below c" in err


@pytest.mark.parametrize("source", [("--t", "1", "--x", "1"), ("--events", "EVENTS")])
def test_boost_light_speed_whose_square_underflows_fails_closed(capsys, tmp_path, source):
    path = tmp_path / "events.json"
    path.write_text(json.dumps({"events": [{"label": "a", "t": 1.0, "x": 1.0}]}))
    argv = [str(path) if arg == "EVENTS" else arg for arg in source]
    code, out, err = run(capsys, "boost", "--v", "0", "--c", "1e-200", *argv)
    assert code == 1 and out == ""
    assert err == "error: speed of light 1e-200 is too small: c*c underflows to 0.0\n"


def test_boost_bad_velocity_token(capsys):
    code, _, err = run(capsys, "boost", "--v", "fast", "--t", "0", "--x", "1")
    assert code == 1
    assert "bad velocity" in err


def test_boost_has_no_frame_option(capsys):
    # the single-event path never printed the frame, so the option is gone
    code, out, err = run(capsys, "boost", "--v", "0.6c", "--t", "0", "--x", "1", "--frame", "f")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --frame f" in err


def test_boost_requires_event_or_file(capsys):
    code, _, err = run(capsys, "boost", "--v", "0.6c")
    assert code == 1
    assert "--events" in err


def _write_three_events(tmp_path):
    doc = {"frame": "boys", "events": [
        {"label": "a", "t": 0.0, "x": 0.0},
        {"label": "b", "t": 0.0, "x": 1000.0},
        {"label": "c", "t": 0.002, "x": 1000.0},
    ]}
    path = tmp_path / "events.json"
    path.write_text(json.dumps(doc))
    return path


def test_boost_events_file_with_classes(capsys, tmp_path):
    path = _write_three_events(tmp_path)
    code, out, _ = run(capsys, "boost", "--v", "0.6c",
                       "--events", str(path), "--classes")
    assert code == 0
    assert "a: T=0 s, X=0 km" in out
    assert "b: T=-0.0025 s, X=1250 km" in out
    assert "c: T=0 s, X=800 km" in out
    assert "T=-0.0025 s: b" in out
    assert "T=0 s: a, c" in out


# Reference stdouts, captured once, of outputs the neighbouring tests check
# only in fragments: a changed digit anywhere in them shows here.
BOOST_CLASSES_P17_STDOUT = """\
a: T=0 s, X=0 km
b: T=-0.0025000000000000001 s, X=1250 km
c: T=0 s, X=800 km
simultaneity classes:
  T=-0.0025000000000000001 s: b
  T=0 s: a, c
"""


def test_boost_classes_at_full_precision_match_reference(capsys, tmp_path):
    path = _write_three_events(tmp_path)
    code, out, err = run(capsys, "boost", "--v", "0.6c", "--events", str(path),
                         "--classes", "--precision", "17")
    assert (code, out, err) == (0, BOOST_CLASSES_P17_STDOUT, "")


def test_boost_events_excludes_inline_event(capsys, tmp_path):
    path = tmp_path / "events.json"
    path.write_text(json.dumps({"frame": "f", "events": [{"t": 0, "x": 0}]}))
    code, _, err = run(capsys, "boost", "--v", "0.6c", "--events", str(path),
                       "--t", "0")
    assert code == 1
    assert "excludes" in err


def test_boost_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "boost", "--v", "0.6c",
                       "--events", str(tmp_path / "nope.json"))
    assert code == 1
    assert "cannot read" in err


# ---------------------------------------------------------------- sweep

def test_sweep_header_and_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--k0", "2", "--a-min", "0",
                       "--a-max", "1", "--steps", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,p_D1,p_D2,ReT,ImT"
    assert len(lines) == 6
    assert "\r" not in out


def test_sweep_reproduces_cosine_column(capsys):
    code, out, _ = run(capsys, "sweep", "--k0", "6.2832", "--a-min", "0",
                       "--a-max", "1", "--steps", "100")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 100
    for row in rows:
        a, p1 = float(row[0]), float(row[1])
        assert p1 == pytest.approx(np.cos(6.2832 * a) ** 2, abs=1e-10)


def test_sweep_deterministic(capsys):
    args = ("sweep", "--k0", "2", "--a-min", "0", "--a-max", "2", "--steps", "17")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_sweep_to_file(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--k0", "2", "--a-min", "0",
                       "--a-max", "1", "--steps", "3", "--output", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("a,p_D1,p_D2,ReT,ImT\n")
    assert len(text.splitlines()) == 4


def test_sweep_precision_flag(capsys):
    code, out, _ = run(capsys, "sweep", "--k0", "2", "--a-min", "0.1",
                       "--a-max", "0.1", "--steps", "1", "--precision", "4")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[1] == f"{np.cos(0.2) ** 2:.4g}"


@pytest.mark.parametrize("bad", [
    ("--steps", "0"),
    ("--a-min", "2", "--a-max", "1", "--steps", "5"),
])
def test_sweep_rejects_bad_grid(capsys, bad):
    base = {"--k0": "2", "--a-min": "0", "--a-max": "1"}
    for flag, value in zip(bad[::2], bad[1::2]):
        base[flag] = value
    argv = ["sweep"]
    for flag, value in base.items():
        argv += [flag, value]
    if "--steps" not in base:
        argv += ["--steps", "5"]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("a_max", ["1e308", "inf", "nan"])
def test_sweep_non_finite_rows_exit_1(capsys, a_max):
    code, out, err = run(capsys, "sweep", "--k0=2", "--a-min=0",
                         f"--a-max={a_max}", "--steps=3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_grid_too_large_to_allocate_is_one_error_line(capsys):
    # 10**15 float64 points are 7.1 PiB, past any machine's memory and the
    # default 47-bit user address space, so the allocation fails at once
    # without touching memory
    code, out, err = run(capsys, "sweep", "--k0=1", "--a-min=0", "--a-max=1",
                         "--steps=1000000000000000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_overflow_writes_no_file(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--k0=2", "--a-min=0", "--a-max=1e308",
                       "--steps=3", "--output", str(path))
    assert code == 1
    assert "gives a non-finite phase" in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["mzi", "--k0", "5e307", "--elements", "source,bs,phase:0.3,bs,detector"],
    ["sweep", "--k0", "5e307", "--a-min", "0", "--a-max", "1", "--steps", "3"],
], ids=["mzi", "sweep"])
def test_wavenumber_past_the_splitters_range_exits_1(capsys, argv):
    # 4 k0 overflows, so Q came out wrong and both printed clicks with exit 0
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: wave number must lie between about 4.37e-309 and 4.49e307, got 5e+307\n"


# ------------------------------------------------------------------ mzi

def test_mzi_inline_elements(capsys):
    code, out, _ = run(capsys, "mzi", "--k0", "2", "--elements",
                       "source,bs,mirrors,bs,detector")
    assert code == 0
    assert "source: [1 + 0i, 0 + 0i]" in out
    assert "clicks: D1=1 D2=" in out


def test_mzi_pipeline_file(capsys, tmp_path):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(
        {"k0": 2.0, "elements": ["source", "bs", "mirrors", "phase:0.3",
                                 "bs", "detector"]}))
    code, out, _ = run(capsys, "mzi", "--pipeline", str(path))
    assert code == 0
    assert "phase(0.3)" in out
    p1 = np.cos(0.6) ** 2
    assert f"clicks: D1={p1:.12g}" in out


def test_mzi_sampled_clicks_deterministic(capsys):
    args = ("mzi", "--k0", "2", "--elements", "source,bs,detector",
            "--shots", "50", "--seed", "11")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "sampled 50 shots (seed 11)" in first


def test_mzi_malformed_pipeline(capsys):
    code, _, err = run(capsys, "mzi", "--k0", "2", "--elements",
                       "source,phase:0.1,bs,detector")
    assert code == 1
    assert "error" in err


def test_mzi_pipeline_excludes_inline(capsys, tmp_path):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps({"k0": 2.0, "elements": ["source", "bs", "detector"]}))
    code, _, err = run(capsys, "mzi", "--pipeline", str(path), "--k0", "2")
    assert code == 1
    assert "excludes" in err


def test_mzi_phase_overflow_exits_1(capsys):
    code, out, err = run(capsys, "mzi", "--k0", "1e300", "--elements",
                         "source,bs,phase:1e10,bs,detector")
    assert code == 1
    assert out == ""
    assert err == ("error: phase shift a = 10000000000.0 at wave number k0 = 1e+300 "
                   "gives a non-finite phase\n")


@pytest.mark.parametrize("flag", ["--shots=-1", "--shots=1180591620717411303424", "--seed=-1"])
def test_mzi_bad_sampling_prints_no_report(capsys, flag):
    code, out, err = run(capsys, "mzi", "--k0=2", "--elements=source,bs,detector",
                         "--shots=10", flag)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_mzi_negative_seed_names_the_flag(capsys):
    code, out, err = run(capsys, "mzi", "--k0=1", "--elements=source,bs,detector",
                         "--shots=5", "--seed=-1")
    assert (code, out) == (1, "")
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_mzi_huge_seed_samples(capsys):
    code, out, _ = run(capsys, "mzi", "--k0=1", "--elements=source,bs,detector",
                       "--shots=5", f"--seed={10 ** 29}")
    assert code == 0
    assert f"sampled 5 shots (seed {10 ** 29}): D1=" in out


def test_mzi_requires_some_input(capsys):
    code, _, err = run(capsys, "mzi")
    assert code == 1
    assert "--pipeline" in err


# ------------------------------------------------------------ group-check

def test_group_check_builtin_s3(capsys):
    code, out, _ = run(capsys, "group-check", "--group", "builtin:s3")
    assert code == 0
    assert "group ok: 6 elements" in out
    for name in ("trivial", "sign", "standard"):
        assert f"irrep {name}:" in out
    assert "FAIL" not in out


GROUP_CHECK_S3_STDOUT = """\
group ok: 6 elements, identity 'e', 3 irrep(s)
irrep sign: n=1 unitarity=0 homomorphism=0 character-norm=1 orthogonality=0 resolution=0 OK
irrep standard: n=2 unitarity=4.4408920985e-16 homomorphism=3.33066907388e-16 character-norm=1 orthogonality=3.33066907388e-16 resolution=4.4408920985e-16 OK
irrep trivial: n=1 unitarity=0 homomorphism=0 character-norm=1 orthogonality=0 resolution=0 OK
"""


def test_group_check_builtin_s3_matches_reference(capsys):
    code, out, err = run(capsys, "group-check", "--group", "builtin:s3")
    assert (code, out, err) == (0, GROUP_CHECK_S3_STDOUT, "")


def test_group_check_single_irrep(capsys):
    code, out, _ = run(capsys, "group-check", "--group", "builtin:s3",
                       "--irrep", "standard")
    assert code == 0
    assert "irrep standard:" in out
    assert "irrep trivial:" not in out


def test_group_check_unknown_irrep(capsys):
    code, _, err = run(capsys, "group-check", "--group", "builtin:s3",
                       "--irrep", "spin")
    assert code == 1
    assert "no irrep" in err


BUILTINS = ["s3", "trivial", "z2"]


def test_group_check_unknown_builtin(capsys):
    code, _, err = run(capsys, "group-check", "--group", "builtin:q8")
    assert code == 1
    assert "unknown builtin" in err
    # the message lists every builtin, so the parametrization below misses none
    assert err == f"error: unknown builtin group 'q8'; have {BUILTINS}\n"


@pytest.mark.parametrize("name", BUILTINS)
def test_group_check_every_builtin(capsys, name):
    code, out, err = run(capsys, "group-check", "--group", f"builtin:{name}")
    assert (code, err) == (0, "")
    header, *reports = out.splitlines()
    assert header.startswith("group ok: ") and header.endswith(f" {len(reports)} irrep(s)")
    assert reports and all(line.startswith("irrep ") and line.endswith(" OK")
                           for line in reports)


def test_group_check_builtin_s3_checks_the_table_once(capsys, monkeypatch):
    from rbw import cayley, grouprep
    calls = []

    def counting(document, check=cayley.check_table):
        calls.append(document)
        return check(document)

    monkeypatch.setattr(cayley, "check_table", counting)
    monkeypatch.setattr(grouprep, "check_table", counting)
    assert run(capsys, "group-check", "--group", "builtin:s3")[0] == 0
    assert len(calls) == 1


def test_irrep_option_loads_only_that_irrep(capsys, tmp_path):
    document = _z2(irreps={
        "good": {"n": 1, "matrices": {"e": [[[1, 0]]], "r": [[[-1, 0]]]}},
        "bad": {"n": 1, "matrices": {"e": [[[1, 0]]], "r": [[[-1, 0]], [[0, 0]]]}}})
    group = tmp_path / "z2.json"
    group.write_text(json.dumps(document))
    expectations = tmp_path / "expectations.json"
    expectations.write_text(json.dumps({"irrep": "good", "values": {"e": [1, 0], "r": [-1, 0]}}))

    code, out, _ = run(capsys, "group-check", "--group", str(group), "--irrep", "good")
    assert code == 0 and "irrep good:" in out and "bad" not in out
    code, out, _ = run(capsys, "reconstruct", "--group", str(group), "--irrep", "good",
                       "--expectations", str(expectations))
    assert code == 0 and json.loads(out)["eigenvalues"] == [1.0]
    code, out, err = run(capsys, "group-check", "--group", str(group))
    assert (code, out) == (1, "") and err.startswith("error: irrep 'bad' matrix for 'r'")


def test_group_check_corrupted_table_is_validation_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(catalog.corrupted_s3_document()))
    code, _, err = run(capsys, "group-check", "--group", str(path))
    assert code == 1
    assert "inverse" in err


def test_group_check_reducible_rep_is_numeric_violation(capsys, tmp_path):
    group = catalog.s3_group()
    perm = {g: catalog._perm_matrix(catalog._S3_PERMS[g]).astype(complex)
            for g in group.elements}
    for m in perm.values():
        m.setflags(write=False)
    doc = group_document(group, [Irrep(group=group, n=3, D=perm, name="perm")])
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "group-check", "--group", str(path))
    assert code == 2
    assert "character-norm=2" in out
    assert "FAIL" in out


def test_mzi_norm_failure_names_the_residual_and_tolerance(capsys, monkeypatch):
    # the ket's norm^2 is off 1 by one ulp; the message once read "norm^2 = 1"
    monkeypatch.setenv("RBW_TOLERANCE", "1e-20")
    code, out, err = run(capsys, "mzi", "--k0", "2", "--elements",
                         "source,bs,mirrors,phase:0.3,bs,detector")
    assert code == 2
    assert out == ""
    assert err == "error: ket |norm^2 - 1| = 2.22045e-16 exceeds the tolerance 1e-20\n"


def test_sweep_norm_failure_exits_2(capsys, monkeypatch):
    # one RBW_TOLERANCE, one exit code: group-check, mzi and sweep all exit 2
    monkeypatch.setenv("RBW_TOLERANCE", "1e-20")
    code, out, err = run(capsys, "sweep", "--k0", "2", "--a-min", "0", "--a-max", "1",
                         "--steps", "5")
    assert (code, out) == (2, "")
    assert err == "error: ket |norm^2 - 1| = 4.44089e-16 exceeds the tolerance 1e-20\n"


_ERROR_CLASSES = sorted((c for c in vars(errors).values()
                         if isinstance(c, type) and issubclass(c, errors.RBWError)),
                        key=lambda c: c.__name__)


def test_contract_violations_are_the_numerical_errors():
    assert issubclass(errors.ContractViolation, ValueError)
    assert {c.__name__ for c in _ERROR_CLASSES if issubclass(c, errors.ContractViolation)} == {
        "ContractViolation", "InconsistentExpectations", "MNotCentral",
        "NonOrthonormalBasis", "NotHermitian", "NotUnitary"}


@pytest.mark.parametrize("error", _ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_class(capsys, monkeypatch, error):
    def fail(args):
        raise error("broken")
    monkeypatch.setattr(cli, "cmd_scenario", fail)
    code, out, err = run(capsys, "scenario")
    assert code == (2 if issubclass(error, errors.ContractViolation) else 1)
    assert (out, err) == ("", "error: broken\n")


def test_group_check_honors_env_tolerance(capsys, monkeypatch):
    # the 2-dim irrep has residuals around 1e-16; an absurdly tight
    # global tolerance must turn them into reported failures
    monkeypatch.setenv("RBW_TOLERANCE", "1e-20")
    code, out, _ = run(capsys, "group-check", "--group", "builtin:s3")
    assert code == 2
    assert "FAIL" in out


@pytest.mark.parametrize("value", ["abc", "nan", "inf"])
@pytest.mark.parametrize("subcommand", ["group-check", "mzi", "reconstruct", "selftest"])
def test_bad_env_tolerance_fails_before_any_output(capsys, monkeypatch, tmp_path,
                                                   subcommand, value):
    argv = {
        "group-check": ["--group", "builtin:s3"],
        "mzi": ["--k0", "2", "--elements", "source,bs,mirrors,phase:0.3,bs,detector"],
        "reconstruct": ["--group", "builtin:s3", "--irrep", "standard", "--expectations",
                        str(_write_expectations(tmp_path, np.diag([0.75, 0.25])))],
        "selftest": [],
    }[subcommand]
    monkeypatch.setenv("RBW_TOLERANCE", value)
    code, out, err = run(capsys, subcommand, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: RBW_TOLERANCE"), err


# ------------------------------------------------------------ reconstruct

def _write_expectations(tmp_path, rho):
    irr = catalog.s3_irreps()["standard"]
    es = symmetry_state.expectations_from_state(np.asarray(rho, dtype=complex), irr)
    path = tmp_path / "expectations.json"
    path.write_text(json.dumps(symmetry_state.expectation_document(es)))
    return path


ROUNDTRIP_RHO = [[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]]


def test_reconstruct_roundtrip(capsys, tmp_path):
    rho = ROUNDTRIP_RHO
    path = _write_expectations(tmp_path, rho)
    code, out, err = run(capsys, "reconstruct", "--group", "builtin:s3",
                         "--irrep", "standard", "--expectations", str(path))
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["n"] == 2
    got = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    assert np.allclose(got, np.array(rho), atol=1e-10)
    assert doc["eigenvalues"] == sorted(doc["eigenvalues"], reverse=True)


RECONSTRUCT_ROUNDTRIP_STDOUT = """\
{
  "n": 2,
  "matrix": [
    [
      [
        0.7,
        0.0
      ],
      [
        0.1,
        0.05
      ]
    ],
    [
      [
        0.1,
        -0.05
      ],
      [
        0.3,
        0.0
      ]
    ]
  ],
  "eigenvalues": [
    0.729128784748,
    0.270871215252
  ],
  "eigenvectors": [
    [
      [
        0.967696119901,
        0.0
      ],
      [
        0.225502495823,
        -0.112751247912
      ]
    ],
    [
      [
        0.252119454878,
        0.0
      ],
      [
        -0.865533722265,
        0.432766861132
      ]
    ]
  ]
}
"""


def test_reconstruct_roundtrip_matches_reference(capsys, tmp_path):
    path = _write_expectations(tmp_path, ROUNDTRIP_RHO)
    code, out, err = run(capsys, "reconstruct", "--group", "builtin:s3",
                         "--irrep", "standard", "--expectations", str(path))
    assert (code, out, err) == (0, RECONSTRUCT_ROUNDTRIP_STDOUT, "")


def test_reconstruct_to_file(capsys, tmp_path):
    path = _write_expectations(tmp_path, np.eye(2) / 2)
    out_path = tmp_path / "density.json"
    code, out, _ = run(capsys, "reconstruct", "--group", "builtin:s3",
                       "--irrep", "standard", "--expectations", str(path),
                       "--output", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["eigenvalues"] == [0.5, 0.5]


def test_reconstruct_unrealizable_is_numeric_violation(capsys, tmp_path):
    path = tmp_path / "expectations.json"
    path.write_text(json.dumps(
        {"irrep": "sign", "values": {"e": [1, 0], "r": [0.5, 0]}}))
    code, _, err = run(capsys, "reconstruct", "--group", "builtin:z2",
                       "--irrep", "sign", "--expectations", str(path))
    assert code == 2
    assert "not realizable" in err


def test_reconstruct_missing_element_is_numeric_violation(capsys, tmp_path):
    path = tmp_path / "expectations.json"
    path.write_text(json.dumps({"irrep": "sign", "values": {"e": [1, 0]}}))
    code, _, err = run(capsys, "reconstruct", "--group", "builtin:z2",
                       "--irrep", "sign", "--expectations", str(path))
    assert code == 2
    assert "missing" in err


def test_reconstruct_wrong_irrep_name(capsys, tmp_path):
    path = tmp_path / "expectations.json"
    path.write_text(json.dumps({"irrep": "sign", "values": {"e": [1, 0]}}))
    code, _, err = run(capsys, "reconstruct", "--group", "builtin:z2",
                       "--irrep", "trivial", "--expectations", str(path))
    assert code == 1
    assert "sign" in err


def test_reconstruct_warns_on_nonphysical_state(capsys, tmp_path):
    # conjugation- and roundtrip-consistent, but the state it implies
    # has a negative weight; the tool reports it and still emits JSON
    path = tmp_path / "expectations.json"
    path.write_text(json.dumps(
        {"irrep": "sign", "values": {"e": [-0.5, 0], "r": [0.5, 0]}}))
    code, out, err = run(capsys, "reconstruct", "--group", "builtin:z2",
                         "--irrep", "sign", "--expectations", str(path))
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["eigenvalues"] == [-0.5]


# --------------------------------------------------------------- scenario

def test_scenario_text_report(capsys):
    code, out, _ = run(capsys, "scenario")
    assert code == 0
    assert "gamma = 1.25" in out
    assert "(0.002, 1000)  |  (0, 800)" in out
    assert "Bob passes Alice" in out
    assert "joe bob girls: 800" in out
    assert "kim alice boys: 360" in out


SCENARIO_STDOUT = """\
boost: v = 180000 km/s (0.6c), gamma = 1.25

meeting events  (unprimed t s, x km | primed T s, X km):
  event1  Joe meets Sara: (0, 0)  |  (0, 0)
  event2  Kim passes Bob: (0, 1000)  |  (-0.0025, 1250)
  event3  Bob meets Alice: (0.002, 1000)  |  (0, 800)

shared time slices:
  event1 ~ event2 at boys time 0 s (simultaneous on the boys' t = 0 slice)
  event1 ~ event3 at girls time 0 s (simultaneous on the girls' T = 0 slice)

conclusions:
  - Bob passes Alice at t = 0.002 s, T = 0 s
  - Kim at T = 0 is co-real with Kim at T = -0.0025 s: her own past
  - Bob at t = 0 is co-real with Bob at t = 0.002 s: his own future

separations (km):
  joe bob boys: 1000
  joe bob girls: 800
  kim alice girls: 450
  kim alice boys: 360
"""


def test_scenario_text_report_matches_reference(capsys):
    code, out, err = run(capsys, "scenario")
    assert (code, out, err) == (0, SCENARIO_STDOUT, "")


def test_scenario_json_report(capsys):
    code, out, _ = run(capsys, "scenario", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == 1.25
    assert doc["lengths_km"]["kim_alice_girls"] == 450.0
    assert doc["events"]["event2"]["primed"]["t"] == -0.0025
    assert len(doc["links"]) == 2


def test_scenario_deterministic(capsys):
    _, first, _ = run(capsys, "scenario")
    _, second, _ = run(capsys, "scenario")
    assert first == second


# --------------------------------------------------------------- contract

def test_contract_report_ends_with_ccr_line(capsys):
    code, out, _ = run(capsys, "contract", "--hbar", "1", "--m", "1")
    assert code == 0
    assert out.rstrip().endswith("[P_i,Q_n] = -i δ_in I : CCR RECOVERED")
    assert "jacobi residual (relativistic): 0" in out
    assert "jacobi residual (contracted): 0" in out
    assert "jacobi residual (absolute-time): 0" in out
    assert "NO CCR" in out          # the absolute-time comparison line


def test_contract_finite_c_section(capsys):
    code, out, _ = run(capsys, "contract", "--hbar", "1", "--m", "1", "--c", "2")
    assert code == 0
    assert "[K1,K2] = -i/c^2 J3" in out      # symbolic
    assert "[K1,K2] = (-1/4)i J3" in out     # evaluated at c = 2
    assert out == CONTRACT_C2_STDOUT


def test_contract_rational_scales(capsys):
    code, out, _ = run(capsys, "contract", "--hbar", "1/2", "--m", "3")
    assert code == 0
    assert "CCR RECOVERED" in out
    assert out == CONTRACT_HALF_HBAR_STDOUT


@pytest.mark.parametrize("argv", [
    ("contract", "--hbar", "0"),
    ("contract", "--m", "-1"),
    ("contract", "--hbar", "pi"),
    ("contract", "--c", "0"),
    ("contract", "--c", "1/0"),
    ("contract", "--c", "inf"),
])
def test_contract_rejects_bad_scales(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "error" in err
    assert out == ""            # validated before any table is printed

# Reference stdout of `rbw contract`, captured once from the release before
# the structure-constant engine, so the array engine is pinned to it.
CONTRACT_DEFAULT_STDOUT = """\
# poincare (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,K2] = -i/c^2 J3
[K1,K3] = i/c^2 J2
[K1,T1] = -i/c^2 T0
[K1,T0] = -i T1
[K2,K3] = -i/c^2 J1
[K2,T2] = -i/c^2 T0
[K2,T0] = -i T2
[K3,T3] = -i/c^2 T0
[K3,T0] = -i T3

# contracted (11 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,T1] = -i M
[K2,T2] = -i M
[K3,T3] = -i M

# galilean (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,T0] = -i T1
[K2,T0] = -i T2
[K3,T0] = -i T3

jacobi residual (relativistic): 0
jacobi residual (contracted): 0
jacobi residual (absolute-time): 0

absolute-time [P1,Q1] = 0 : NO CCR
[P1,Q2] = 0
[P1,Q1] = -i I
[P_i,Q_n] = -i δ_in I : CCR RECOVERED
"""

CONTRACT_SI_STDOUT = """\
# poincare (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,K2] = -i/c^2 J3
[K1,K3] = i/c^2 J2
[K1,T1] = -i/c^2 T0
[K1,T0] = -i T1
[K2,K3] = -i/c^2 J1
[K2,T2] = -i/c^2 T0
[K2,T0] = -i T2
[K3,T3] = -i/c^2 T0
[K3,T0] = -i T3

# poincare (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,K2] = (-1/89875517873681764)i J3
[K1,K3] = (1/89875517873681764)i J2
[K1,T1] = (-1/89875517873681764)i T0
[K1,T0] = -i T1
[K2,K3] = (-1/89875517873681764)i J1
[K2,T2] = (-1/89875517873681764)i T0
[K2,T0] = -i T2
[K3,T3] = (-1/89875517873681764)i T0
[K3,T0] = -i T3

# contracted (11 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,T1] = (-50000000000000000000000000000000000000000/5272859)i M
[K2,T2] = (-50000000000000000000000000000000000000000/5272859)i M
[K3,T3] = (-50000000000000000000000000000000000000000/5272859)i M

# galilean (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,T0] = -i T1
[K2,T0] = -i T2
[K3,T0] = -i T3

jacobi residual (relativistic): 0
jacobi residual (contracted): 0
jacobi residual (absolute-time): 0

absolute-time [P1,Q1] = 0 : NO CCR
[P1,Q2] = 0
[P1,Q1] = (-5272859/50000000000000000000000000000000000000000)i I
[P_i,Q_n] = (-5272859/50000000000000000000000000000000000000000)i δ_in I : CCR RECOVERED
"""

# Captured from the release before bracket values became plain data.
# `rbw contract --c 2`: the symbolic table, then the same table at eps = 1/4
CONTRACT_C2_STDOUT = """\
# poincare (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,K2] = -i/c^2 J3
[K1,K3] = i/c^2 J2
[K1,T1] = -i/c^2 T0
[K1,T0] = -i T1
[K2,K3] = -i/c^2 J1
[K2,T2] = -i/c^2 T0
[K2,T0] = -i T2
[K3,T3] = -i/c^2 T0
[K3,T0] = -i T3

# poincare (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,K2] = (-1/4)i J3
[K1,K3] = (1/4)i J2
[K1,T1] = (-1/4)i T0
[K1,T0] = -i T1
[K2,K3] = (-1/4)i J1
[K2,T2] = (-1/4)i T0
[K2,T0] = -i T2
[K3,T3] = (-1/4)i T0
[K3,T0] = -i T3

# contracted (11 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,T1] = -i M
[K2,T2] = -i M
[K3,T3] = -i M

# galilean (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,T0] = -i T1
[K2,T0] = -i T2
[K3,T0] = -i T3

jacobi residual (relativistic): 0
jacobi residual (contracted): 0
jacobi residual (absolute-time): 0

absolute-time [P1,Q1] = 0 : NO CCR
[P1,Q2] = 0
[P1,Q1] = -i I
[P_i,Q_n] = -i δ_in I : CCR RECOVERED
"""

# `rbw contract --hbar 1/2 --m 3`: the non-unit scale of M shows in [K,T]
CONTRACT_HALF_HBAR_STDOUT = """\
# poincare (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,K2] = -i/c^2 J3
[K1,K3] = i/c^2 J2
[K1,T1] = -i/c^2 T0
[K1,T0] = -i T1
[K2,K3] = -i/c^2 J1
[K2,T2] = -i/c^2 T0
[K2,T0] = -i T2
[K3,T3] = -i/c^2 T0
[K3,T0] = -i T3

# contracted (11 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,T1] = -2i M
[K2,T2] = -2i M
[K3,T3] = -2i M

# galilean (10 generators)
[J1,J2] = i J3
[J1,J3] = -i J2
[J1,K2] = i K3
[J1,K3] = -i K2
[J1,T2] = i T3
[J1,T3] = -i T2
[J2,J3] = i J1
[J2,K1] = -i K3
[J2,K3] = i K1
[J2,T1] = -i T3
[J2,T3] = i T1
[J3,K1] = i K2
[J3,K2] = -i K1
[J3,T1] = i T2
[J3,T2] = -i T1
[K1,T0] = -i T1
[K2,T0] = -i T2
[K3,T0] = -i T3

jacobi residual (relativistic): 0
jacobi residual (contracted): 0
jacobi residual (absolute-time): 0

absolute-time [P1,Q1] = 0 : NO CCR
[P1,Q2] = 0
[P1,Q1] = (-1/2)i I
[P_i,Q_n] = (-1/2)i δ_in I : CCR RECOVERED
"""


def test_contract_default_matches_reference(capsys):
    code, out, _ = run(capsys, "contract")
    assert (code, out) == (0, CONTRACT_DEFAULT_STDOUT)


def test_contract_si_units_match_reference(capsys):
    # hbar and m in SI units: exact fractions with 41- and 35-digit denominators
    code, out, _ = run(capsys, "contract", "--hbar", "1.0545718e-34",
                       "--m", "9.109e-31", "--c", "299792458")
    assert (code, out) == (0, CONTRACT_SI_STDOUT)


def test_contract_tiny_hbar_matches_reference(capsys):
    # hbar = 10^-400 is far below any float; the answer stays exact
    ten_400 = "1" + "0" * 400
    want = (CONTRACT_DEFAULT_STDOUT
            .replace("= -i M\n", f"= -{ten_400}i M\n")
            .replace("[P1,Q1] = -i I\n", f"[P1,Q1] = (-1/{ten_400})i I\n")
            .replace("[P_i,Q_n] = -i δ_in I", f"[P_i,Q_n] = (-1/{ten_400})i δ_in I"))
    code, out, _ = run(capsys, "contract", "--hbar", "1e-400")
    assert (code, out) == (0, want)


# --------------------------------------------------------------- selftest

def test_selftest_all_pass(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    total = len(selftest.all_checks())
    assert lines[-1] == f"{total}/{total} checks passed"


def test_selftest_list_enumerates_everything(capsys):
    code, out, _ = run(capsys, "selftest", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(selftest.all_checks())
    for check_id in selftest.all_checks():
        assert any(line.startswith(f"{check_id}:") for line in lines)


def test_selftest_only_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "rel-gamma,algebra-ccr")
    assert code == 0
    assert "2/2 checks passed" in out


def test_selftest_unknown_id(capsys):
    for only in ("nonsense", ""):
        code, _, err = run(capsys, "selftest", "--only", only)
        assert code == 1
        assert "unknown check ids" in err


def test_selftest_failure_exits_two(capsys, monkeypatch):
    def broken():
        raise AssertionError("induced failure")
    monkeypatch.setitem(selftest._REGISTRY, "rel-gamma", ("desc", broken))
    code, out, _ = run(capsys, "selftest", "--only", "rel-gamma")
    assert code == 2
    assert "FAIL rel-gamma" in out
    assert "induced failure" in out


# ------------------------------------------------------ malformed documents

def _z2(**changes):
    return {**catalog.builtin_document("z2"), **changes}


def _z2_sign(r_entry):
    return _z2(irreps={"sign": {"n": 1, "matrices": {"e": [[[1, 0]]], "r": [[r_entry]]}}})


def _z2_sign_matrices(**changes):
    matrices = {"e": [[[1, 0]]], "r": [[[-1, 0]]], **changes}
    return _z2(irreps={"sign": {"n": 1, "matrices": matrices}})


_RECONSTRUCT_Z2 = ["reconstruct", "--group", "builtin:z2", "--irrep", "sign", "--expectations"]


@pytest.mark.parametrize("argv,doc,needle", [
    (["group-check", "--group"], _z2(irreps={"sign": {"matrices": {"e": [[[1, 0]]]}}}),
     "missing field 'n'"),
    (["group-check", "--group"], _z2(elements="er"), "'elements' must be a JSON array"),
    (["group-check", "--group"], _z2(mul=[["e", "e", "e"]]), "'mul' must be a JSON object"),
    (["group-check", "--group"], _z2(irreps=[]), "'irreps' must be a JSON object"),
    (["group-check", "--group"], _z2_sign(["NaN", 0]), "finite"),
    (["group-check", "--group"], _z2_sign([float("inf"), 0]), "finite"),
    (_RECONSTRUCT_Z2, {"irrep": "sign"}, "missing field 'values'"),
    (_RECONSTRUCT_Z2, {"irrep": "sign", "values": [[1, 0], [-1, 0]]},
     "'values' must be a JSON object"),
    (_RECONSTRUCT_Z2, {"irrep": "sign", "values": {"e": [1, 0], "r": ["NaN", 0]}}, "finite"),
    (_RECONSTRUCT_Z2, [{"irrep": "sign"}], "must be a JSON object"),
    (["boost", "--v", "0.6c", "--events"], [{"t": 0, "x": 1000}], "must be a JSON object"),
    (["boost", "--v", "0.6c", "--events"], {"events": {"t": 0, "x": 1000}},
     "'events' must be a JSON array"),
    (["mzi", "--pipeline"], {"k0": 2.0, "elements": "source"},
     "'elements' must be a JSON array"),
    (["group-check", "--group"],
     _z2(irreps={"sign": {"n": True, "matrices": {"e": [[[1, 0]]], "r": [[[-1, 0]]]}}}),
     "n must be a positive integer, got True"),
    (["boost", "--v", "0.6c", "--events"], {"frame": None, "events": [{"t": 0, "x": 0}]},
     "'frame' must be a string"),
    (["boost", "--v", "0.6c", "--events"], {"frame": 7, "events": [{"t": 0, "x": 0}]},
     "'frame' must be a string"),
    (["boost", "--v", "0.6c", "--events"], {"events": [{"label": float("nan"), "t": 0, "x": 0}]},
     "label must be a string"),
    (["mzi", "--pipeline"], {"k0": 1e308, "elements": ["source", "bs", "phase:0.3", "bs",
                                                       "detector"]},
     "wave number must lie between"),
    (["boost", "--v", "0.6c", "--events"], {"events": [{"t": 0, "x": 0}, {"t": 1e308, "x": 0}]},
     "must be finite"),
    (["group-check", "--group"], _z2_sign_matrices(x=[[[1, 0]]]),
     "irrep 'sign' has a matrix for 'x', which is not a group element"),
    (["group-check", "--group"], _z2_sign_matrices(e=[[[1, 0], [0, 0]], [[0, 0]]]),
     "irrep 'sign' matrix for 'e': matrix rows have lengths [2, 1]"),
    (["group-check", "--group"], _z2_sign_matrices(r=[[[-1, 0]], 3]),
     "irrep 'sign' matrix for 'r': matrix row must be a JSON array, got int"),
    (["group-check", "--group"], _z2_sign_matrices(r=[[[float("nan"), 0]]]),
     "irrep 'sign' matrix for 'r': [re, im] pair entry must be a finite number, got nan"),
    *[(argv, doc(bad), "must be a finite number")
      for argv, doc in [
          (["boost", "--v", "0.6c", "--events"], lambda t: {"events": [{"t": t, "x": 1000}]}),
          (["mzi", "--pipeline"], lambda k0: {"k0": k0, "elements": ["source", "bs", "detector"]}),
          (["group-check", "--group"], lambda re: _z2_sign([re, 0])),
          (_RECONSTRUCT_Z2, lambda re: {"irrep": "sign", "values": {"e": [re, 0], "r": [-1, 0]}}),
      ]
      for bad in (True, "1", 10 ** 400)],
], ids=["irrep-without-n", "string-elements", "list-mul", "list-irreps", "nan-matrix",
        "inf-matrix", "no-values", "list-values", "nan-average", "list-expectations",
        "list-events-document", "object-events", "string-pipeline-elements",
        "bool-irrep-n", "null-frame", "number-frame", "nan-label", "overflowing-k0",
        "overflowing-event", "unknown-matrix-element", "ragged-matrix", "non-array-matrix-row",
        "nan-matrix-names-irrep-and-element",
        *[f"{bad}-{where}" for where in ("event-t", "k0", "matrix-entry", "average")
          for bad in ("bool", "string", "huge")]])
def test_malformed_document_is_one_line_error(capsys, tmp_path, argv, doc, needle):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("text,needle", [
    pytest.param(b'{"k0": 1' + b"0" * 4999 + b', "elements": ["source", "bs", "detector"]}',
                 "4300 digits", id="5000-digit-k0",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python parses integers of any length")),
    pytest.param(b'{"k0": 2.0, "elements": ["s\xe9"]}', "utf-8", id="latin-1-byte"),
])
def test_unparseable_document_names_the_file(capsys, tmp_path, text, needle):
    # json.dumps writes neither document, so write the bytes directly
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    code, out, err = run(capsys, "mzi", "--pipeline", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1
    assert needle in err

@pytest.mark.parametrize("argv", [["group-check", "--group", "builtin:z2"], ["selftest"],
                                  ["boost", "--v", "0.6c", "--t", "0", "--x", "1"]])
@pytest.mark.parametrize("digits", ["0", "-1"])
def test_precision_below_one_is_usage_error(capsys, argv, digits):
    code, out, err = run(capsys, *argv, "--precision", digits)
    assert code == 1
    assert out == ""
    assert "--precision" in err and "at least 1" in err


@pytest.mark.parametrize("digits", [str(2 ** 31), "9" * 400], ids=["2**31", "400-digits"])
def test_precision_beyond_float_formatting_is_usage_error(capsys, digits):
    code, out, err = run(capsys, "boost", "--v", "0.6c", "--t", "0", "--x", "1",
                         "--precision", digits)
    assert code == 1
    assert out == ""
    assert "--precision" in err and "at most 2147483647" in err
