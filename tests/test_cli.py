"""End-to-end checks of the command line front-end: dispatch, exit
codes, output formats, determinism."""

import json

import numpy as np
import pytest

from rbw import catalog, cli, selftest, symmetry_state
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


def test_unrecognized_flag(capsys):
    code, _, err = run(capsys, "scenario", "--bogus")
    assert code == 1
    assert "unrecognized" in err


# ---------------------------------------------------------------- boost

def test_boost_reference_line(capsys):
    code, out, _ = run(capsys, "boost", "--v", "0.6c", "--t", "0", "--x", "1000")
    assert code == 0
    assert out == "T=-0.0025 s, X=1250 km\n"


def test_boost_zero_slice_line(capsys):
    code, out, _ = run(capsys, "boost", "--v", "0.6c", "--t", "0.002", "--x", "1000")
    assert code == 0
    assert out == "T=0 s, X=800 km\n"


def test_boost_velocity_in_km_s(capsys):
    code, out, _ = run(capsys, "boost", "--v", "180000", "--t", "0", "--x", "1000")
    assert code == 0
    assert out == "T=-0.0025 s, X=1250 km\n"


def test_boost_negative_fraction(capsys):
    # --v=-0.6c: argparse needs the = form for leading-minus values
    code, out, _ = run(capsys, "boost", "--v=-0.6c", "--t", "0", "--x", "1000")
    assert code == 0
    assert out == "T=0.0025 s, X=1250 km\n"


@pytest.mark.parametrize("v", ["--v=1.2c", "--v=300000", "--v=-c"])
def test_boost_superluminal_rejected(capsys, v):
    code, _, err = run(capsys, "boost", v, "--t", "0", "--x", "1")
    assert code == 1
    assert "below c" in err


def test_boost_bad_velocity_token(capsys):
    code, _, err = run(capsys, "boost", "--v", "fast", "--t", "0", "--x", "1")
    assert code == 1
    assert "bad velocity" in err


def test_boost_requires_event_or_file(capsys):
    code, _, err = run(capsys, "boost", "--v", "0.6c")
    assert code == 1
    assert "--events" in err


def test_boost_events_file_with_classes(capsys, tmp_path):
    doc = {"frame": "boys", "events": [
        {"label": "a", "t": 0.0, "x": 0.0},
        {"label": "b", "t": 0.0, "x": 1000.0},
        {"label": "c", "t": 0.002, "x": 1000.0},
    ]}
    path = tmp_path / "events.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "boost", "--v", "0.6c",
                       "--events", str(path), "--classes")
    assert code == 0
    assert "a: T=0 s, X=0 km" in out
    assert "b: T=-0.0025 s, X=1250 km" in out
    assert "c: T=0 s, X=800 km" in out
    assert "T=-0.0025 s: b" in out
    assert "T=0 s: a, c" in out


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


def test_sweep_overflow_writes_no_file(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--k0=2", "--a-min=0", "--a-max=1e308",
                       "--steps=3", "--output", str(path))
    assert code == 1
    assert "norm" in err
    assert not path.exists()


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


def test_group_check_unknown_builtin(capsys):
    code, _, err = run(capsys, "group-check", "--group", "builtin:q8")
    assert code == 1
    assert "unknown builtin" in err


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


def test_group_check_honors_env_tolerance(capsys, monkeypatch):
    # the 2-dim irrep has residuals around 1e-16; an absurdly tight
    # global tolerance must turn them into reported failures
    monkeypatch.setenv("RBW_TOLERANCE", "1e-20")
    code, out, _ = run(capsys, "group-check", "--group", "builtin:s3")
    assert code == 2
    assert "FAIL" in out


# ------------------------------------------------------------ reconstruct

def _write_expectations(tmp_path, rho):
    irr = catalog.s3_irreps()["standard"]
    es = symmetry_state.expectations_from_state(np.asarray(rho, dtype=complex), irr)
    path = tmp_path / "expectations.json"
    path.write_text(json.dumps(symmetry_state.expectation_document(es)))
    return path


def test_reconstruct_roundtrip(capsys, tmp_path):
    rho = [[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]]
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


def test_contract_rational_scales(capsys):
    code, out, _ = run(capsys, "contract", "--hbar", "1/2", "--m", "3")
    assert code == 0
    assert "CCR RECOVERED" in out


@pytest.mark.parametrize("argv", [
    ("contract", "--hbar", "0"),
    ("contract", "--m", "-1"),
    ("contract", "--hbar", "pi"),
    ("contract", "--c", "0"),
])
def test_contract_rejects_bad_scales(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error" in err


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
    code, _, err = run(capsys, "selftest", "--only", "nonsense")
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
    return {**catalog.builtin_documents()["z2"], **changes}


def _z2_sign(r_entry):
    return _z2(irreps={"sign": {"n": 1, "matrices": {"e": [[[1, 0]]], "r": [[r_entry]]}}})


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
], ids=["irrep-without-n", "string-elements", "list-mul", "list-irreps", "nan-matrix",
        "inf-matrix", "no-values", "list-values", "nan-average", "list-expectations",
        "list-events-document", "object-events", "string-pipeline-elements"])
def test_malformed_document_is_one_line_error(capsys, tmp_path, argv, doc, needle):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("argv", [["group-check", "--group", "builtin:z2"], ["selftest"],
                                  ["boost", "--v", "0.6c", "--t", "0", "--x", "1"]])
@pytest.mark.parametrize("digits", ["0", "-1"])
def test_precision_below_one_is_usage_error(capsys, argv, digits):
    code, out, err = run(capsys, *argv, "--precision", digits)
    assert code == 1
    assert out == ""
    assert "--precision" in err and "at least 1" in err
