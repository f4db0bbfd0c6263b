"""Seeded mutation fuzzer over every document loader and numeric flag.

Each case starts from a valid invocation and breaks one thing in it: one
JSON path of its input document is replaced by a junk value or deleted,
or one numeric flag gets a junk value or is dropped.  `cli.main` runs the
case in-process, and the oracle asks that:

- main raises nothing and returns 0, 1 or 2;
- stderr holds only `warning:` lines and, on exit 1, exactly one `error:`
  line; exit 2 may write one too, or report a FAIL verdict on stdout;
- no Python warning escapes (in a process it would be one more stderr
  line);
- an exit of 0 prints no nan or inf, and an exit of 1 prints nothing on
  stdout (the input is refused before any report starts).

The document paths are drawn from a fixed seed; every numeric flag meets
every junk value.  A boundary walk does the same for the library: every
float parameter of a public numeric callable meets NaN, +-inf, +-1e308,
5e307, 1e-320 and 0.
"""

import contextlib
import copy
import dataclasses
import functools
import inspect
import io
import json
import math
import operator
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import rbw
from rbw import catalog, cli, contraction
from rbw.errors import RBWError
from rbw.mzi import Element

SEED = 7
MUTATIONS_PER_DOCUMENT = 100

JUNK = [None, True, False, 0, -0.0, 2 ** 70, int("9" * 400), 1e308, float("nan"),
        "1", "x", [], [1, 2], {}, {"a": 1}]
DELETE = object()

_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


# averages of the maximally mixed state: half the standard irrep's characters
S3_AVERAGES = {"irrep": "standard",
               "values": {"e": [1.0, 0.0], "(12)": [0.0, 0.0], "(13)": [0.0, 0.0],
                          "(23)": [0.0, 0.0], "(123)": [-0.5, 0.0], "(132)": [-0.5, 0.0]}}

# kind -> (argv with "{doc}" for the document's path, the valid document)
DOCUMENTS = {
    "group": (["group-check", "--group", "{doc}"], catalog.s3_document()),
    "expectations": (["reconstruct", "--group", "builtin:s3", "--irrep", "standard",
                      "--expectations", "{doc}"], S3_AVERAGES),
    "pipeline": (["mzi", "--pipeline", "{doc}"],
                 {"k0": 2.0, "elements": ["source", "bs", "mirrors", "phase:0.3", "bs",
                                          "detector"]}),
    "events": (["boost", "--v", "0.6c", "--events", "{doc}", "--classes"],
               {"frame": "boys", "events": [{"label": "a", "t": 0.0, "x": 0.0},
                                            {"label": "b", "t": 0.0, "x": 1000.0},
                                            {"label": "c", "t": 0.002, "x": 1000.0}]}),
}

# valid invocations; every flag here but --elements is numeric
FLAG_ARGV = {
    "mzi": ["mzi", "--k0=2.0", "--elements=source,bs,mirrors,phase:0.3,bs,detector",
            "--shots=100", "--seed=7", "--precision=12"],
    "sweep": ["sweep", "--k0=2.0", "--a-min=0", "--a-max=1", "--steps=5", "--precision=12"],
    "boost": ["boost", "--v=0.6c", "--c=300000", "--t=0.001", "--x=1000", "--precision=12"],
    "contract": ["contract", "--hbar=1", "--m=1", "--c=2", "--precision=12"],
}


def _paths(node, prefix=()):
    """The path of every value below node, as a tuple of keys and indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(document, path, junk):
    document = copy.deepcopy(document)
    parent = functools.reduce(operator.getitem, path[:-1], document)
    if junk is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    return document


def _flag_text(junk) -> str:
    return junk if isinstance(junk, str) else json.dumps(junk)


def _check_oracle(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, lines = out.getvalue(), err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert code in (0, 1, 2), (argv, code)
    assert len(errors) + sum(line.startswith("warning: ") for line in lines) == len(lines), \
        (argv, lines)
    assert len(errors) == (code == 1) or (code == 2 and len(errors) <= 1), (argv, code, lines)
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 0:
        assert not _NON_FINITE.search(out), (argv, out)
    if code == 1:
        assert out == "", (argv, out)


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_mutated_documents_fail_closed(kind, tmp_path):
    argv, document = DOCUMENTS[kind]
    paths = list(_paths(document))
    rng = random.Random(f"{SEED}:{kind}")
    path_file = tmp_path / "doc.json"
    argv = [str(path_file) if arg == "{doc}" else arg for arg in argv]
    for _ in range(MUTATIONS_PER_DOCUMENT):
        path, junk = rng.choice(paths), rng.choice([*JUNK, DELETE])
        path_file.write_text(json.dumps(_mutated(document, path, junk)))
        _check_oracle(argv)


@pytest.mark.parametrize("subcommand", sorted(FLAG_ARGV))
def test_junk_numeric_flags_fail_closed(subcommand):
    argv = FLAG_ARGV[subcommand]
    for i, arg in enumerate(argv):
        flag = arg.split("=", 1)[0]
        if not flag.startswith("--") or flag == "--elements":
            continue
        for junk in [*JUNK, DELETE]:
            changed = list(argv)
            if junk is DELETE:
                del changed[i]
            else:
                changed[i] = f"{flag}={_flag_text(junk)}"
            _check_oracle(changed)


# ------------------------------------------------------------- boundary walk
# Every float parameter of rbw's public numeric callables, reached directly or
# through the record it builds, meets each boundary value in turn while the
# others keep a valid base value.  The call must return a finite result or
# raise ValueError or an RBWError: no NaN or inf out, no other exception, and
# no numpy warning (pytest turns those into errors).

BOUNDARY = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e307, 1e-320, 0.0]


def _pipeline(a):
    return [Element("source"), Element("bs"), Element("mirrors"), Element("phase", a),
            Element("bs"), Element("detector")]


# name in rbw.__all__ -> (call taking the floats by name, their base values)
WALKS = {
    "ccr_check": (lambda hbar, m: rbw.ccr_check(rbw.contract(rbw.poincare_table(), 1, 1),
                                                hbar, m), {"hbar": 1.5, "m": 2.0}),
    "contract": (lambda hbar, m: rbw.contract(rbw.poincare_table(), hbar, m),
                 {"hbar": 1.5, "m": 2.0}),
    "beam_splitter_op": (lambda k0: rbw.beam_splitter_op(k0), {"k0": 2.0}),
    "reflection_op": (lambda a, k0: rbw.reflection_op(a, k0), {"a": 0.3, "k0": 2.0}),
    "translation_op": (lambda a, k0: rbw.translation_op(a, k0), {"a": 0.3, "k0": 2.0}),
    "run_pipeline": (lambda a, k0: rbw.run_pipeline(_pipeline(a), k0), {"a": 0.3, "k0": 2.0}),
    "expectation_T": (lambda a, k0: rbw.expectation_T(np.array([1, 1]) / np.sqrt(2), a, k0),
                      {"a": 0.3, "k0": 2.0}),
    "density_from_sweep": (lambda k0, a: rbw.density_from_sweep(k0, [0.0, a]),
                           {"k0": 2.0, "a": 0.3}),
    "hamiltonian_expectation": (lambda energy: rbw.hamiltonian_expectation(np.eye(2) / 2,
                                                                           energy),
                                {"energy": 1.5}),
    "Boost": (lambda v, c: rbw.Boost(v, c), {"v": 1000.0, "c": 3e5}),
    "gamma": (lambda v, c: rbw.gamma(rbw.Boost(v, c)), {"v": 1000.0, "c": 3e5}),
    "SpacetimeEvent": (lambda t, x: rbw.SpacetimeEvent(t, x), {"t": 1e-3, "x": 1000.0}),
    "boost_event": (lambda t, x, v, c: rbw.boost_event(rbw.SpacetimeEvent(t, x),
                                                       rbw.Boost(v, c)),
                    {"t": 1e-3, "x": 1000.0, "v": 1000.0, "c": 3e5}),
    "simultaneity_classes": (
        lambda t, x, v, c: rbw.simultaneity_classes(
            [rbw.SpacetimeEvent(0.0, 0.0), rbw.SpacetimeEvent(t, x)], rbw.Boost(v, c)),
        {"t": 1e-3, "x": 1000.0, "v": 1000.0, "c": 3e5}),
    "interval_class": (lambda t, x, c: rbw.interval_class(rbw.SpacetimeEvent(0.0, 0.0),
                                                          rbw.SpacetimeEvent(t, x), c),
                       {"t": 1e-3, "x": 1000.0, "c": 3e5}),
    "weak_boost_transform": (lambda t, x, v, c: rbw.weak_boost_transform(t, x, v, c),
                             {"t": 1e-3, "x": 1000.0, "v": 1000.0, "c": 3e5}),
}

# public callables with no float parameter: they take documents, tables,
# irreps, arrays or nothing
NO_FLOAT_PARAMETER = {
    "RBWError", "GroupSpec", "Irrep", "load_group", "load_irrep", "load_irreps",
    "verify_irrep", "orthogonality_residual", "resolution_identity", "poincare_table",
    "galilean_table", "jacobi_residual", "corealness_chain", "eigendecompose",
    "expand_eigenket", "expectations_from_state", "outcome_probabilities",
    "reconstruct_density",
}


def _finite(value) -> bool:
    """No NaN or inf anywhere in a result, records and containers walked."""
    if isinstance(value, (float, complex)):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value) if f.repr)
    if isinstance(value, contraction.BracketTable):
        return _finite(value.scale)
    return isinstance(value, (str, int, Fraction))


def test_the_walk_covers_every_public_callable():
    callables = {name for name in rbw.__all__
                 if callable(getattr(rbw, name)) and not inspect.ismodule(getattr(rbw, name))}
    assert callables == set(WALKS) | NO_FLOAT_PARAMETER
    assert not set(WALKS) & NO_FLOAT_PARAMETER


@pytest.mark.parametrize("value", BOUNDARY, ids=repr)
@pytest.mark.parametrize("name,parameter", [(name, p) for name, (_, base) in WALKS.items()
                                            for p in base])
def test_float_parameters_at_the_boundary_fail_closed(name, parameter, value):
    call, base = WALKS[name]
    assert _finite(call(**base))
    try:
        result = call(**{**base, parameter: value})
    except (ValueError, RBWError):
        return
    assert _finite(result), result
