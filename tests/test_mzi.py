"""Interferometer pipeline built from symmetry operators."""

import io
import math
import re

import numpy as np
import pytest

from rbw import mzi
from rbw.errors import MalformedPipeline
from rbw.mzi import (
    ClickDistribution,
    Element,
    beam_splitter_op,
    density_from_sweep,
    expectation_T,
    hamiltonian_expectation,
    load_pipeline,
    minus_ket,
    pipeline_document,
    plus_ket,
    reflection_eigenkets,
    reflection_op,
    run_pipeline,
    sample_clicks,
    sweep_rows,
    translation_op,
    write_sweep_csv,
)

K0 = 2.0
SWEEP_ATOL = 8 * 2.0 ** -52   # batch kernel vs the scalar loop, per column


def elements(*tokens):
    out = []
    for tok in tokens:
        if tok.startswith("phase:"):
            out.append(Element("phase", float(tok.split(":")[1])))
        else:
            out.append(Element(tok))
    return out


# ---------------------------------------------------------------- operators

def test_translation_identity_at_zero():
    assert np.allclose(translation_op(0.0, K0), np.eye(2), atol=1e-15)


def test_translation_quarter_period():
    a = np.pi / (2 * K0)
    assert np.allclose(translation_op(a, K0), np.diag([-1j, 1j]), atol=1e-15)


@pytest.mark.parametrize("a,b", [(0.1, 0.2), (-0.7, 1.3), (2.5, -2.5)])
def test_translation_composition(a, b):
    lhs = translation_op(a, K0) @ translation_op(b, K0)
    assert np.max(np.abs(lhs - translation_op(a + b, K0))) < 1e-14


def test_reflection_at_zero():
    assert np.allclose(reflection_op(0.0, K0), [[0, 1], [1, 0]], atol=1e-15)


@pytest.mark.parametrize("a", [0.0, 0.3, -1.1, 4.0])
def test_reflection_is_involution(a):
    s = reflection_op(a, K0)
    assert np.max(np.abs(s @ s - np.eye(2))) < 1e-14


@pytest.mark.parametrize("a", [0.0, 0.4, -0.9])
def test_reflection_eigenkets(a):
    s = reflection_op(a, K0)
    ket_plus, ket_minus = reflection_eigenkets(a, K0)
    assert np.max(np.abs(s @ ket_plus - ket_plus)) < 1e-14
    assert np.max(np.abs(s @ ket_minus + ket_minus)) < 1e-14
    expected = np.array([np.exp(-1j * K0 * a), np.exp(1j * K0 * a)]) / np.sqrt(2)
    assert np.allclose(ket_plus, expected, atol=1e-15)


def test_beam_splitter_matrix():
    q = beam_splitter_op(K0)
    assert np.max(np.abs(q - np.array([[1, -1], [1, 1]]) / np.sqrt(2))) < 1e-14


def test_beam_splitter_sends_plus_to_balanced():
    q = beam_splitter_op(K0)
    out = q @ plus_ket()
    assert np.allclose(out, np.array([1, 1]) / np.sqrt(2), atol=1e-14)
    # that output is the +1 eigenket of the zero-offset reflection
    assert np.allclose(out, reflection_eigenkets(0.0, K0)[0], atol=1e-14)


def test_beam_splitter_unitary_roundtrip():
    q = beam_splitter_op(K0)
    assert np.max(np.abs(q @ q.conj().T - np.eye(2))) < 1e-14
    assert np.allclose(q.conj().T @ q @ plus_ket(), plus_ket(), atol=1e-14)


def test_bad_wavenumber_rejected():
    for k0 in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            translation_op(0.1, k0)


@pytest.mark.parametrize("k0", [5e307, 1e308, 1e-320, 4e-309])
def test_wavenumber_outside_the_splitters_range_is_rejected(k0):
    # 4 k0 or pi/(4 k0) overflows there: Q came out as (I - i sigma_x)/sqrt(2)
    # at 5e307 and with NaN entries at 1e308 and 1e-320
    for build in (beam_splitter_op, lambda k0: run_pipeline(
            elements("source", "bs", "detector"), k0), lambda k0: sweep_rows(k0, [0.1])):
        with pytest.raises(ValueError, match=f"wave number must lie between .* got {re.escape(str(k0))}$"):
            build(k0)


@pytest.mark.parametrize("k0", [4.4942328371557893e307, 4.36892230473808e-309])
def test_splitter_is_the_real_rotation_at_the_ends_of_its_range(k0):
    q = beam_splitter_op(k0)
    assert np.max(np.abs(q - np.array([[1, -1], [1, 1]]) / np.sqrt(2))) < 1e-15


@pytest.mark.parametrize("a,k0", [(math.nan, K0), (math.inf, K0), (-math.inf, K0),
                                  (1e308, 10.0), (np.float64(1e308), 10.0)],
                         ids=["nan", "inf", "-inf", "overflow", "numpy-overflow"])
@pytest.mark.parametrize("build", [
    translation_op,
    reflection_op,
    reflection_eigenkets,
    lambda a, k0: expectation_T(plus_ket(), a, k0),
], ids=["translation_op", "reflection_op", "reflection_eigenkets", "expectation_T"])
def test_operators_refuse_a_non_finite_phase(build, a, k0):
    # each of these returned NaN entries instead of raising
    with pytest.raises(ValueError, match=re.escape(f"a = {a} at wave number k0 = {k0}")):
        build(a, k0)


# ---------------------------------------------------------------- pipelines

def test_single_splitter_balances():
    result = run_pipeline(elements("source", "bs", "detector"), K0)
    assert np.allclose(result.ket, np.array([1, 1]) / np.sqrt(2), atol=1e-14)
    assert result.clicks.p_D1 == pytest.approx(0.5)
    assert result.clicks.p_D2 == pytest.approx(0.5)


def test_mirrors_alone_keep_balance():
    result = run_pipeline(elements("source", "bs", "mirrors", "detector"), K0)
    assert result.clicks.p_D1 == pytest.approx(0.5)
    assert result.clicks.p_D2 == pytest.approx(0.5)


def test_closed_interferometer_single_detector():
    result = run_pipeline(elements("source", "bs", "mirrors", "bs", "detector"), K0)
    assert np.allclose(result.ket, plus_ket(), atol=1e-14)
    assert result.clicks.p_D1 == pytest.approx(1.0)
    assert result.clicks.p_D2 == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("a", [0.0, 0.2, 0.9, -0.5, np.pi / (4 * K0)])
def test_phase_plate_interference(a):
    result = run_pipeline(
        elements("source", "bs", "mirrors", f"phase:{a}", "bs", "detector"), K0)
    expected = np.array([np.cos(K0 * a), 1j * np.sin(K0 * a)])
    assert np.max(np.abs(result.ket - expected)) < 1e-13
    assert result.clicks.p_D1 == pytest.approx(np.cos(K0 * a) ** 2)
    assert result.clicks.p_D2 == pytest.approx(np.sin(K0 * a) ** 2)


@pytest.mark.parametrize("k0", [0.5, 2.0, 9.9])
@pytest.mark.parametrize("a", [0.0, 0.37, -1.2])
def test_pipeline_stages_bit_identical_to_fresh_operators(k0, a):
    result = run_pipeline(
        elements("source", "bs", "mirrors", f"phase:{a}", "bs", "detector"), k0)
    q = beam_splitter_op(k0)
    want = [plus_ket()]
    for op in (q, reflection_op(0.0, k0), translation_op(a, k0), q.conj().T):
        want.append(op @ want[-1])
    want.append(want[-1])
    assert [label for label, _ in result.stages] == [
        "source", "bs1", "mirrors", f"phase({a:g})", "bs2", "detector"]
    for (label, ket), w in zip(result.stages, want):
        assert np.array_equal(ket, w), label
    assert result.clicks.p_D1 == float(abs(want[-1][0]) ** 2)


def test_cached_operators_are_read_only():
    for op in mzi._operators(K0):
        assert not op.flags.writeable
    fresh = beam_splitter_op(K0)
    fresh[:] = 0.0
    result = run_pipeline(elements("source", "bs", "mirrors", "bs", "detector"), K0)
    assert result.clicks.p_D1 == pytest.approx(1.0)


def test_stage_norms_preserved():
    result = run_pipeline(
        elements("source", "bs", "mirrors", "phase:0.7", "bs", "detector"), K0)
    for label, ket in result.stages:
        assert abs(np.vdot(ket, ket).real - 1.0) < 1e-12, label


def test_phase_arm_state_is_reflection_eigenket():
    # after the mirrors the phase-shifted arm state stays a +1 eigenket
    # of the shifted reflection
    a = 0.37
    partial = run_pipeline(
        elements("source", "bs", "mirrors", f"phase:{a}", "detector"), K0)
    s = reflection_op(a, K0)
    assert np.max(np.abs(s @ partial.ket - partial.ket)) < 1e-13


@pytest.mark.parametrize("tokens,fragment", [
    (("bs", "detector"), "begin with source"),
    (("source", "bs"), "end with detector"),
    (("source", "bs", "bs", "bs", "detector"), "two beam splitters"),
    (("source", "mirrors", "bs", "detector"), "after the first beam splitter"),
    (("source", "bs", "bs", "phase:0.1", "detector"), "before the second"),
    (("source", "bs", "mirrors", "mirrors", "bs", "detector"), "at most one"),
    (("source", "source", "bs", "detector"), "exactly one"),
])
def test_malformed_pipelines(tokens, fragment):
    with pytest.raises(MalformedPipeline, match=fragment):
        run_pipeline(elements(*tokens), K0)


def test_bad_layout_raises_on_every_call():
    # the layout check is cached on the element kinds; a raise is never cached
    bad = elements("source", "mirrors", "bs", "detector")
    for _ in range(3):
        with pytest.raises(MalformedPipeline, match="after the first beam splitter"):
            run_pipeline(bad, K0)


@pytest.mark.parametrize("a", [np.nan, np.inf, None])
def test_bad_phase_raises_after_its_layout_is_cached(a):
    layout = ("source", "bs", "mirrors", "phase", "bs", "detector")
    run_pipeline(elements(*layout[:3], "phase:0.3", *layout[4:]), K0)
    bad = [Element(kind, a if kind == "phase" else None) for kind in layout]
    for _ in range(2):
        with pytest.raises(MalformedPipeline, match="finite shift"):
            run_pipeline(bad, K0)


def test_shared_source_ket_is_read_only():
    tokens = ("source", "bs", "mirrors", "phase:0.4", "bs", "detector")
    first = run_pipeline(elements(*tokens), K0)
    source = first.stages[0][1]
    assert not source.flags.writeable
    with pytest.raises(ValueError):
        source[0] = 0.0
    again = run_pipeline(elements(*tokens), K0)
    assert np.array_equal(again.stages[0][1], plus_ket())
    assert np.array_equal(again.ket, first.ket)


def test_unknown_element_rejected():
    with pytest.raises(MalformedPipeline):
        run_pipeline([Element("source"), Element("prism"), Element("detector")], K0)


@pytest.mark.parametrize("k0,phase,needle", [
    (1e300, "phase:1e10", "gives a non-finite phase"),
    (1e308, "phase:0.3", "wave number must lie between"),
], ids=["1e+300-phase:1e10", "1e+308-phase:0.3"])
def test_overflowing_pipeline_fails_closed(k0, phase, needle):
    # k0 * a (or the beam splitter at k0 = 1e308) would overflow into a NaN
    # ket; the pipeline must refuse its inputs rather than report clicks
    with pytest.raises(ValueError, match=needle):
        run_pipeline(elements("source", "bs", phase, "bs", "detector"), k0)


# ------------------------------------------------------------- expectations

def test_expectation_on_plus_ket():
    a = 0.8
    assert expectation_T(plus_ket(), a, K0) == pytest.approx(np.exp(-1j * K0 * a))


def test_expectation_final_state_quarter():
    a = np.pi / (4 * K0)   # k0 a = pi/4
    result = run_pipeline(
        elements("source", "bs", "mirrors", f"phase:{a}", "bs", "detector"), K0)
    assert expectation_T(result.ket, a, K0) == pytest.approx(np.sqrt(2) / 2)


def test_expectation_zero_shift():
    result = run_pipeline(
        elements("source", "bs", "mirrors", "phase:0", "bs", "detector"), K0)
    assert expectation_T(result.ket, 0.0, K0) == pytest.approx(1.0)


@pytest.mark.parametrize("a", [0.1, 0.6, 1.4, -2.0])
def test_expectation_closed_form(a):
    result = run_pipeline(
        elements("source", "bs", "mirrors", f"phase:{a}", "bs", "detector"), K0)
    got = expectation_T(result.ket, a, K0)
    c2, s2 = np.cos(K0 * a) ** 2, np.sin(K0 * a) ** 2
    want = np.exp(-1j * K0 * a) * c2 + np.exp(1j * K0 * a) * s2
    assert got == pytest.approx(want)


def test_expectation_rejects_unnormalized():
    with pytest.raises(ValueError):
        expectation_T(np.array([1.0, 1.0]), 0.1, K0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expectation_rejects_non_finite_ket(bad):
    with pytest.raises(ValueError, match="norm"):
        expectation_T(np.array([bad, 0.0]), 0.1, K0)


# ------------------------------------------------------- sweep and tag-along

def test_density_sweep_endpoints():
    rhos = density_from_sweep(K0, [0.0, np.pi / (4 * K0), np.pi / (2 * K0)])
    assert np.allclose(rhos[0], np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(rhos[1], np.diag([0.5, 0.5]), atol=1e-15)
    assert np.allclose(rhos[2], np.diag([0.0, 1.0]), atol=1e-14)


def test_density_sweep_matches_scalar_loop():
    grid = np.linspace(-3.0, 3.0, 2001)
    rhos = density_from_sweep(K0, grid)
    assert rhos.shape == (2001, 2, 2) and rhos.dtype == complex
    want = []
    for a in grid:
        c, s = np.cos(K0 * a), np.sin(K0 * a)
        want.append(np.diag([c * c + 0j, s * s + 0j]))
    assert np.max(np.abs(rhos - np.array(want))) <= SWEEP_ATOL


def test_density_sweep_matches_pipeline_clicks():
    a_values = np.linspace(-1.0, 1.0, 9)
    for a, rho in zip(a_values, density_from_sweep(K0, a_values)):
        result = run_pipeline(
            elements("source", "bs", "mirrors", f"phase:{a}", "bs", "detector"), K0)
        assert rho[0, 0].real == pytest.approx(result.clicks.p_D1)
        assert rho[1, 1].real == pytest.approx(result.clicks.p_D2)


def test_outcomes_agree_with_symmetry_state_module():
    from rbw.symmetry_state import outcome_probabilities
    for a in (0.15, 0.75, 2.0):
        (rho,) = density_from_sweep(K0, [a])
        dist = outcome_probabilities(rho, translation_op(a, K0))
        by_eig = {complex(z): p for z, p in dist.pairs()}
        assert by_eig[complex(np.exp(-1j * K0 * a))] == pytest.approx(
            np.cos(K0 * a) ** 2, abs=1e-10)
        assert by_eig[complex(np.exp(1j * K0 * a))] == pytest.approx(
            np.sin(K0 * a) ** 2, abs=1e-10)


@pytest.mark.parametrize("rho,energy", [
    (np.diag([0.3, 0.7]), math.nan),
    (np.diag([0.3, 0.7]), math.inf),
    (np.eye(2), 1e308),
    (np.diag([math.nan, 0.5]), 1.0),
], ids=["nan-energy", "inf-energy", "overflow", "nan-state"])
def test_hamiltonian_refuses_a_non_finite_expectation(rho, energy):
    # these returned NaN or inf (and the overflow a RuntimeWarning)
    with pytest.raises(ValueError, match=re.escape(f"E = {energy} gives a non-finite")):
        hamiltonian_expectation(rho, energy)


def test_hamiltonian_rides_along():
    hbar, mass = 1.0545718e-34, 9.109e-31
    energy = hbar**2 * K0**2 / (2 * mass)
    values = [hamiltonian_expectation(rho, energy)
              for rho in density_from_sweep(K0, np.linspace(0, 3, 7))]
    assert all(v == pytest.approx(energy) for v in values)
    assert hamiltonian_expectation(np.diag([0.3, 0.7]), 0.0) == 0.0
    assert hamiltonian_expectation(np.diag([0.3, 0.7]), 1.0) == pytest.approx(1.0)


def test_identity_hamiltonian_commutes():
    h = 2.5 * np.eye(2)
    for op in (translation_op(0.4, K0), reflection_op(0.4, K0), beam_splitter_op(K0)):
        assert np.max(np.abs(h @ op - op @ h)) < 1e-14


def test_sample_clicks_deterministic():
    clicks = run_pipeline(
        elements("source", "bs", "mirrors", "phase:0.3", "bs", "detector"), K0).clicks
    first = sample_clicks(clicks, 1000, seed=7)
    second = sample_clicks(clicks, 1000, seed=7)
    assert first == second
    assert sum(first) == 1000


@pytest.mark.parametrize("shots", [-1, 2 ** 63, 2 ** 70])
def test_sample_clicks_rejects_counts_outside_int64(shots):
    with pytest.raises(ValueError, match="shots must be between 0 and 2\\*\\*63 - 1"):
        sample_clicks(ClickDistribution(0.5, 0.5), shots)


@pytest.mark.parametrize("seed", [-1, -2 ** 70, 0.5, "7", None])
def test_sample_clicks_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
        sample_clicks(ClickDistribution(0.5, 0.5), 10, seed)


@pytest.mark.parametrize("seed", [10 ** 29, 2 ** 64, np.int64(5)])
def test_sample_clicks_takes_any_non_negative_integer_seed(seed):
    first = sample_clicks(ClickDistribution(0.5, 0.5), 1000, seed)
    assert first == sample_clicks(ClickDistribution(0.5, 0.5), 1000, seed)
    assert sum(first) == 1000


def test_sweep_rows_frozen_point():
    a = np.pi / (3 * K0)   # k0 a = pi/3
    ((got_a, p1, p2, re_t, im_t),) = sweep_rows(K0, [a])
    assert got_a == pytest.approx(a)
    assert p1 == pytest.approx(0.25)
    assert p2 == pytest.approx(0.75)
    assert re_t == pytest.approx(0.5)
    assert im_t == pytest.approx(np.sqrt(3) / 4)


def reference_sweep_rows(k0, phase_values):
    """The per-point loop the batch kernel replaces."""
    rows = []
    for a in phase_values:
        a = float(a)
        result = run_pipeline([Element("source"), Element("bs"), Element("mirrors"),
                               Element("phase", a), Element("bs"),
                               Element("detector")], k0)
        t_avg = expectation_T(result.ket, a, k0)
        rows.append((a, result.clicks.p_D1, result.clicks.p_D2,
                     t_avg.real, t_avg.imag))
    return np.array(rows)


def assert_matches_reference(k0, grid):
    got = sweep_rows(k0, grid)
    assert got.shape == (len(grid), 5) and got.dtype == np.float64
    worst = np.max(np.abs(got - reference_sweep_rows(k0, grid)), axis=0)
    assert np.all(worst <= SWEEP_ATOL), worst


@pytest.mark.parametrize("k0", [0.5, 2.0, 6.2832, 9.9])
def test_sweep_rows_match_scalar_loop(k0):
    assert_matches_reference(k0, np.linspace(-1.5, 2.5, 2001))


@pytest.mark.parametrize("grid", [
    np.linspace(0.4, 0.4, 1),          # steps=1
    np.linspace(0.7, 0.7, 5),          # a_min == a_max
    np.linspace(-3.0, -0.5, 41),       # negative range
])
def test_sweep_rows_edge_grids_match_scalar_loop(grid):
    assert_matches_reference(K0, grid)


def test_sweep_rows_do_not_loop_over_pipelines(monkeypatch):
    def per_point(*args, **kwargs):
        raise AssertionError("sweep_rows called a per-point routine")
    monkeypatch.setattr(mzi, "run_pipeline", per_point)
    monkeypatch.setattr(mzi, "expectation_T", per_point)
    rows = mzi.sweep_rows(K0, np.linspace(-1.0, 1.0, 1000))
    assert rows.shape == (1000, 5)


def test_sweep_rows_read_any_one_dimensional_input_bit_for_bit(monkeypatch):
    grid = np.linspace(-1.5, 2.5, 301)
    want = sweep_rows(K0, grid)
    assert np.array_equal(sweep_rows(K0, (a for a in grid.tolist())), want)
    assert np.array_equal(sweep_rows(K0, iter(grid)), want)

    def walked(*args, **kwargs):
        raise AssertionError("an array or a sequence was walked element by element")
    monkeypatch.setattr(np, "fromiter", walked)
    for same in (grid.tolist(), tuple(grid.tolist()), np.repeat(grid, 2)[::2]):
        assert np.array_equal(sweep_rows(K0, same), want)
        assert np.array_equal(density_from_sweep(K0, same), density_from_sweep(K0, grid))


@pytest.mark.parametrize("bad", [np.zeros((2, 2)), [[0.0, 1.0]], np.array(0.5), 0.5,
                                 np.float64(0.5)])
def test_sweep_rejects_phases_that_are_not_one_dimensional(bad):
    with pytest.raises((ValueError, TypeError)):
        sweep_rows(K0, bad)
    with pytest.raises((ValueError, TypeError)):
        density_from_sweep(K0, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sweep_rejects_non_finite_phase(bad):
    with pytest.raises(MalformedPipeline, match="finite shift"):
        sweep_rows(K0, [0.0, bad])
    with pytest.raises(MalformedPipeline, match="finite shift"):
        density_from_sweep(K0, [bad])


def test_density_sweep_rejects_overflowing_phase():
    # returned a NaN slice for the second setting
    with pytest.raises(ValueError, match=r"a = 1e\+308 at wave number k0 = 2.0 gives a non-finite"):
        density_from_sweep(2.0, [0.1, 1e308])


def test_norm_check_still_catches_a_non_unitary_operator(monkeypatch):
    # checked inputs cannot reach the final norm check; a broken splitter can
    q, q_dag, s0 = mzi._operators(K0)
    monkeypatch.setattr(mzi, "_operators", lambda k0: (1.01 * q, q_dag, s0))
    needle = r"ket \|norm\^2 - 1\| = 0\.0201 exceeds the tolerance 1e-10"
    with pytest.raises(ValueError, match=needle):
        run_pipeline(elements("source", "bs", "mirrors", "phase:0.3", "bs", "detector"), K0)
    with pytest.raises(ValueError, match=needle):
        sweep_rows(K0, np.linspace(-1.0, 1.0, 5))


def test_sweep_rejects_overflowing_phase():
    # k0 a overflows to inf for the largest shift, which is named
    with pytest.raises(ValueError, match=r"a = 1e\+308 at wave number k0 = 2.0 gives a non-finite"):
        sweep_rows(K0, [0.0, 5e307, 1e308])


def test_sweep_csv_format():
    buf = io.StringIO()
    write_sweep_csv(sweep_rows(K0, [0.0, 0.5]), buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == "a,p_D1,p_D2,ReT,ImT"
    assert len(lines) == 4 and lines[-1] == ""
    assert "\r" not in text
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0)


def test_sweep_csv_streams_in_chunks(monkeypatch):
    monkeypatch.setattr(mzi, "_CSV_CHUNK_ROWS", 7)
    rows = sweep_rows(K0, np.linspace(-1.0, 1.0, 20))
    buf = io.StringIO()
    write_sweep_csv(rows, buf, precision=9)
    want = "a,p_D1,p_D2,ReT,ImT\n" + "".join(
        ",".join(f"{v:.9g}" for v in row) + "\n" for row in rows.tolist())
    assert buf.getvalue() == want


@pytest.mark.parametrize("shape", [(3, 10), (10,), (5,), (2, 5, 1), (4, 4), (0,)])
def test_sweep_csv_rejects_a_wrong_row_shape(shape):
    buf = io.StringIO()
    with pytest.raises(ValueError, match="shape"):
        write_sweep_csv(np.zeros(shape), buf)
    assert buf.getvalue() == ""


def test_sweep_csv_of_no_rows_is_the_header():
    buf = io.StringIO()
    write_sweep_csv(np.empty((0, 5)), buf)
    assert buf.getvalue() == "a,p_D1,p_D2,ReT,ImT\n"


CSV_PRECISIONS = list(range(1, 18)) + [40]


def reference_csv(rows, precision):
    """write_sweep_csv's bytes, one Python format call per value."""
    return "a,p_D1,p_D2,ReT,ImT\n" + "".join(
        ",".join(f"{v:.{precision}g}" for v in row) + "\n" for row in rows.tolist())


def adversarial_values():
    tiny = 1e-4
    values = [
        0.5, 2.5, 0.125, 0.375, 123456789012.5, 1234567890123.5,   # decimal ties
        9.9999999999995, 9.5, 99.5, 0.000995, 0.00099999999999995,
        999999999999.5, 99999999999999.9, 0.99999999999999989,   # exponent round-ups
        tiny, np.nextafter(tiny, 0), np.nextafter(tiny, 1),
        np.nextafter(np.nextafter(tiny, 0), 0), 9.99999999999995e-05,
        0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1.7976931348623157e308,
        5e-324, 2.2250738585072014e-308, 1e-310, 1 / 3, 2 / 3, np.pi, 0.1, 0.3,
    ]
    for k in range(-6, 19):
        power = 10.0 ** k
        values += [power, np.nextafter(power, 0), np.nextafter(power, np.inf)]
    values += [-v for v in values]
    values += [0.0] * (-len(values) % 5)
    return np.array(values).reshape(-1, 5)


@pytest.mark.parametrize("precision", CSV_PRECISIONS)
def test_sweep_csv_is_exactly_percent_g_on_adversarial_values(precision):
    rows = adversarial_values()
    buf = io.StringIO()
    write_sweep_csv(rows, buf, precision)
    assert buf.getvalue() == reference_csv(rows, precision)


@pytest.mark.parametrize("seed", range(40))
def test_sweep_csv_is_exactly_percent_g_on_seeded_sweeps(seed):
    rng = np.random.default_rng(seed)
    a_min = rng.uniform(-1.0, 1.0)
    grid = np.linspace(a_min, a_min + rng.uniform(0.5, 3.0), int(rng.integers(50, 400)))
    rows = sweep_rows(rng.uniform(0.5, 10.0), grid)
    precision = CSV_PRECISIONS[seed % len(CSV_PRECISIONS)]
    # a Fortran-ordered copy must come out in the same row order
    for layout in (rows, np.asfortranarray(rows)):
        buf = io.StringIO()
        write_sweep_csv(layout, buf, precision)
        assert buf.getvalue() == reference_csv(rows, precision)


# ---------------------------------------------------------------- documents

def test_pipeline_document_roundtrip():
    k0, els = load_pipeline(
        {"k0": 2.0, "elements": ["source", "bs", "mirrors", "phase:0.3",
                                 "bs", "detector"]})
    assert k0 == 2.0
    assert [e.kind for e in els] == ["source", "bs", "mirrors", "phase",
                                     "bs", "detector"]
    assert els[3].a == pytest.approx(0.3)
    doc = pipeline_document(k0, els)
    assert doc["elements"][3] == "phase:0.3"


@pytest.mark.parametrize("a", [0.123456789, 0.1 + 0.2, -1e-300, 2.5e17,
                               np.float64(0.3)])
def test_pipeline_document_roundtrip_is_lossless(a):
    els = elements("source", "bs", "mirrors", "bs", "detector")
    els.insert(3, Element("phase", a))
    k0, back = load_pipeline(pipeline_document(6.2832, els))
    assert k0 == 6.2832
    assert back[3].a == a
    assert run_pipeline(back, k0).stages[3][0] == f"phase({a:g})"


@pytest.mark.parametrize("doc", [
    {"elements": ["source", "detector"]},
    {"k0": -1.0, "elements": ["source", "detector"]},
    {"k0": 2.0, "elements": ["source", "phase:abc", "detector"]},
    {"k0": 2.0, "elements": ["source", 42, "detector"]},
    {"k0": True, "elements": ["source", "bs", "detector"]},
    {"k0": "2", "elements": ["source", "bs", "detector"]},
    {"k0": 10 ** 400, "elements": ["source", "bs", "detector"]},
])
def test_bad_pipeline_documents(doc):
    with pytest.raises((MalformedPipeline, ValueError)):
        load_pipeline(doc)


def test_minus_ket_orthogonal():
    assert np.vdot(plus_ket(), minus_ket()) == 0
