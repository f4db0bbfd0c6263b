"""Built-in verification suite.

Each check re-derives one of the reference results the library is
supposed to reproduce (interferometer states and click statistics,
boost coordinates, bracket tables, reconstruction identities) and
compares against the frozen expected value.  The command line front-end
prints one verdict line per check; everything here is also exercised by
the test suite, so the suite doubles as a quick field diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import catalog, contraction, mzi, relsim, symmetry_state
from .grouprep import load_group, orthogonality_residual, verify_irrep

__all__ = ["CheckFailed", "CheckResult", "all_checks", "run_checks"]

K0 = 2.0
A = 0.3          # phase-plate setting used by parameterized checks; k0*a = 0.6


class CheckFailed(AssertionError):
    pass


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    ok: bool
    detail: str


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got, want, tol=1e-12) -> None:
    got, want = np.asarray(got), np.asarray(want)
    worst = float(np.max(np.abs(got - want)))
    _need(worst <= tol, f"max deviation {worst:.3e} exceeds {tol:.1e}")


def _phase_pipeline_elements(a: float) -> list[mzi.Element]:
    return [mzi.Element("source"), mzi.Element("bs"), mzi.Element("mirrors"),
            mzi.Element("phase", a), mzi.Element("bs"), mzi.Element("detector")]


# ------------------------------------------------------------ state checks

def check_state_translation_average() -> str:
    rho = mzi.density_from_sweep(K0, [A])[0]
    got = complex(np.trace(rho @ mzi.translation_op(A, K0)))
    want = (np.exp(-1j * K0 * A) * np.cos(K0 * A) ** 2
            + np.exp(1j * K0 * A) * np.sin(K0 * A) ** 2)
    _close(got, want)
    return f"<T({A})> = {got:.6f}"


def check_state_eigenweights() -> str:
    rho = mzi.density_from_sweep(K0, [A])[0]
    pairs = symmetry_state.eigendecompose(rho)
    _close([w for w, _ in pairs],
           sorted([np.cos(K0 * A) ** 2, np.sin(K0 * A) ** 2], reverse=True))
    for _, ket in pairs:
        _need(min(np.linalg.norm(ket - mzi.plus_ket()),
                  np.linalg.norm(ket - mzi.minus_ket())) < 1e-12,
              "eigenbasis is not the translation eigenbasis")
    return "weights (cos^2, sin^2) on the translation eigenbasis"


def check_state_outcome_distribution() -> str:
    rho = mzi.density_from_sweep(K0, [A])[0]
    dist = symmetry_state.outcome_probabilities(rho, mzi.translation_op(A, K0))
    by_eig = {complex(z): p for z, p in dist.pairs()}
    _close(by_eig[complex(np.exp(-1j * K0 * A))], np.cos(K0 * A) ** 2, 1e-10)
    _close(by_eig[complex(np.exp(1j * K0 * A))], np.sin(K0 * A) ** 2, 1e-10)
    return "click statistics match the eigenvalue distribution"


def check_state_eigenket_expansion() -> str:
    ket = mzi.reflection_eigenkets(0.0, K0)[0]
    coeffs = symmetry_state.expand_eigenket(
        ket, [mzi.plus_ket(), mzi.minus_ket()])
    _close(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    return "balanced expansion (1/sqrt2, 1/sqrt2)"


# -------------------------------------------------------------- mzi checks

def check_mzi_reflection_zero() -> str:
    _close(mzi.reflection_op(0.0, K0), [[0, 1], [1, 0]])
    return "zero-offset reflection swaps the amplitudes"


def check_mzi_reflection_eigenkets() -> str:
    for a in (0.0, 0.4, -1.2):
        s = mzi.reflection_op(a, K0)
        plus, minus = mzi.reflection_eigenkets(a, K0)
        _close(s @ plus, plus)
        _close(s @ minus, -minus)
    return "eigenvalue +1 and -1 kets verified at three offsets"


def check_mzi_splitter_plus() -> str:
    out = mzi.beam_splitter_op(K0) @ mzi.plus_ket()
    _close(out, np.array([1, 1]) / np.sqrt(2))
    return "splitter sends |+> to the balanced ket"


def check_mzi_splitter_unitary() -> str:
    q = mzi.beam_splitter_op(K0)
    _close(q @ q.conj().T, np.eye(2))
    return "Q Qdag = I"


def check_mzi_open_pipeline() -> str:
    res = mzi.run_pipeline([mzi.Element("source"), mzi.Element("bs"),
                            mzi.Element("detector")], K0)
    _close([res.clicks.p_D1, res.clicks.p_D2], [0.5, 0.5])
    return "one splitter: both detectors at 1/2"


def check_mzi_closed_pipeline() -> str:
    res = mzi.run_pipeline([mzi.Element("source"), mzi.Element("bs"),
                            mzi.Element("mirrors"), mzi.Element("bs"),
                            mzi.Element("detector")], K0)
    _close(res.ket, mzi.plus_ket())
    _close([res.clicks.p_D1, res.clicks.p_D2], [1.0, 0.0])
    return "closed interferometer: only D1 clicks"


def check_mzi_phase_pipeline() -> str:
    for a in np.linspace(-1.5, 1.5, 7):
        res = mzi.run_pipeline(_phase_pipeline_elements(float(a)), K0)
        _close(res.ket, [np.cos(K0 * a), 1j * np.sin(K0 * a)])
        _close([res.clicks.p_D1, res.clicks.p_D2],
               [np.cos(K0 * a) ** 2, np.sin(K0 * a) ** 2])
    return "phase sweep gives (cos^2, sin^2) clicks"


def check_mzi_balanced_density() -> str:
    a = np.pi / (4 * K0)
    _close(mzi.density_from_sweep(K0, [a])[0], np.diag([0.5, 0.5]))
    return "eighth-wavelength shift balances the state"


def check_mzi_energy_tagalong() -> str:
    hbar, mass = 1.0545718e-34, 9.109e-31
    energy = hbar**2 * K0**2 / (2 * mass)
    values = [mzi.hamiltonian_expectation(rho, energy)
              for rho in mzi.density_from_sweep(K0, np.linspace(0, 3, 9))]
    _close(values, [energy] * 9, tol=1e-12 * abs(energy) + 1e-300)
    _close(mzi.hamiltonian_expectation(np.diag([0.4, 0.6]), 1.0), 1.0)
    return "energy average independent of the phase setting"


def check_mzi_sweep_columns() -> str:
    rows = mzi.sweep_rows(K0, np.linspace(0.0, 1.0, 21))
    for a, p1, p2, re_t, im_t in rows:
        _close(p1, np.cos(K0 * a) ** 2)
        _close(p1 + p2, 1.0)
        want = (np.exp(-1j * K0 * a) * np.cos(K0 * a) ** 2
                + np.exp(1j * K0 * a) * np.sin(K0 * a) ** 2)
        _close(complex(re_t, im_t), want)
    return "21-point sweep matches the closed forms"


# ----------------------------------------------------------- boost checks

def check_rel_gamma() -> str:
    got = relsim.gamma(relsim.Boost(v=0.6 * relsim.SPEED_OF_LIGHT))
    _close(got, 1.25, tol=1e-14)
    return "gamma(0.6c) = 1.25"


def check_rel_boost_past() -> str:
    out = relsim.boost_event(relsim.SpacetimeEvent(t=0.0, x=1000.0, frame="boys"),
                             relsim.Boost(v=0.6 * relsim.SPEED_OF_LIGHT))
    _close([out.t, out.x], [-0.0025, 1250.0], tol=1e-9)
    return f"(0 s, 1000 km) -> ({out.t:g} s, {out.x:g} km)"


def check_rel_boost_zero() -> str:
    out = relsim.boost_event(relsim.SpacetimeEvent(t=0.002, x=1000.0, frame="boys"),
                             relsim.Boost(v=0.6 * relsim.SPEED_OF_LIGHT))
    _close([out.t, out.x], [0.0, 800.0], tol=1e-9)
    return f"(0.002 s, 1000 km) -> ({out.t:g} s, {out.x:g} km)"


def _scenario_events():
    return [relsim.SpacetimeEvent(t=0.0, x=0.0, frame="boys", label="event1"),
            relsim.SpacetimeEvent(t=0.0, x=1000.0, frame="boys", label="event2"),
            relsim.SpacetimeEvent(t=0.002, x=1000.0, frame="boys", label="event3")]


def check_rel_simultaneity_rest() -> str:
    e1, e2, _ = _scenario_events()
    classes = relsim.simultaneity_classes([e1, e2], relsim.Boost(v=0.0))
    _need(len(classes) == 1, f"expected one class, got {len(classes)}")
    return "unboosted frame keeps the pair simultaneous"


def check_rel_simultaneity_split() -> str:
    e1, e2, _ = _scenario_events()
    classes = relsim.simultaneity_classes(
        [e1, e2], relsim.Boost(v=0.6 * relsim.SPEED_OF_LIGHT))
    _need(len(classes) == 2, f"expected two classes, got {len(classes)}")
    _close([c.time for c in classes], [-0.0025, 0.0], tol=1e-12)
    return "boost splits the pair to T = -0.0025 s and T = 0"


def check_rel_simultaneity_align() -> str:
    e1, _, e3 = _scenario_events()
    classes = relsim.simultaneity_classes(
        [e1, e3], relsim.Boost(v=0.6 * relsim.SPEED_OF_LIGHT))
    _need(len(classes) == 1, f"expected one class, got {len(classes)}")
    _close(classes[0].time, 0.0, tol=1e-12)
    return "distinct unprimed times land on the shared T = 0 slice"


def check_rel_scenario_meeting() -> str:
    report = relsim.corealness_chain()
    _close([report.events["event3"].t, report.boosted["event3"].t],
           [0.002, 0.0], tol=1e-12)
    _need(any("Bob passes Alice" in c for c in report.conclusions),
          "meeting line missing from the report")
    return "Bob passes Alice at t = 0.002 s, T = 0"


def check_rel_scenario_contraction() -> str:
    lengths = relsim.corealness_chain().lengths
    _close([lengths["joe_bob_boys"], lengths["joe_bob_girls"]], [1000.0, 800.0])
    return "1000 km separation contracts to 800 km"


def check_rel_scenario_separations() -> str:
    lengths = relsim.corealness_chain().lengths
    _close([lengths["kim_alice_girls"], lengths["kim_alice_boys"]],
           [450.0, 360.0], tol=1e-9)
    return "Kim to Alice: 450 km in their frame, 360 km in the boys'"


# ----------------------------------------------------------- algebra checks

def _ieps(degree=0):
    return contraction.EpsPoly.of(
        contraction.RationalComplex(Fraction(0), Fraction(1)), degree)


def check_algebra_rotations() -> str:
    table = contraction.poincare_table()
    _need(contraction.bracket("J1", "J2", table) == {"J3": _ieps()},
          "[J1,J2] != i J3")
    _need(contraction.bracket("J2", "J1", table) == {"J3": -_ieps()},
          "[J2,J1] != -i J3")
    return "[J1,J2] = i J3 with antisymmetry"


def check_algebra_translation_boost() -> str:
    table = contraction.poincare_table()
    _need(contraction.bracket("T1", "K1", table) == {"T0": _ieps(1)},
          "[T1,K1] is not (i/c^2) T0")
    _need(contraction.bracket("T1", "T2", table) == {}, "[T1,T2] != 0")
    _need(contraction.bracket("K1", "K2", table) == {"J3": -_ieps(1)},
          "[K1,K2] is not -(i/c^2) J3")
    return "suppressed brackets carry 1/c^2 with Jacobi-consistent signs"


def check_algebra_jacobi() -> str:
    for build in (contraction.poincare_table, contraction.galilean_table):
        result = contraction.jacobi_residual(build())
        _need(result.residual == 0.0,
              f"{build.__name__} residual {result.residual}")
    con = contraction.contract(contraction.poincare_table(), 1, 1)
    _need(contraction.jacobi_residual(con).residual == 0.0,
          "contracted table fails Jacobi")
    return "all three tables satisfy Jacobi exactly"


def check_algebra_contraction() -> str:
    con = contraction.contract(contraction.poincare_table(), 1, 1)
    _need(contraction.bracket("K1", "K2", con) == {}, "[K1,K2] != 0 after limit")
    _need(contraction.bracket("T1", "K1", con) == {"M": _ieps()},
          "[T1,K1] is not (i/hbar) M at hbar = 1")
    _need(contraction.bracket("J1", "J2", con) == {"J3": _ieps()},
          "rotations changed under the limit")
    return "limit zeroes the suppressed brackets and produces M"


def check_algebra_ccr() -> str:
    con = contraction.contract(contraction.poincare_table(), 1, 1)
    result = contraction.ccr_check(con, 1, 1)
    minus_i = contraction.EpsPoly.of(
        contraction.RationalComplex(Fraction(0), Fraction(-1)))
    _need(result.verdict == "CCR RECOVERED", f"verdict {result.verdict}")
    _need(result.pq[(1, 1)] == {"I": minus_i}, "[P1,Q1] != -i I")
    _need(result.pq[(1, 2)] == {}, "[P1,Q2] != 0")
    return "[P_i,Q_n] = -i hbar delta_in I at hbar = 1"


def check_algebra_galilean() -> str:
    table = contraction.galilean_table()
    _need(contraction.bracket("T1", "K1", table) == {}, "[T1,K1] != 0")
    _need(contraction.bracket("J1", "K2", table) == {"K3": _ieps()},
          "[J1,K2] != i K3")
    result = contraction.ccr_check(table, 1, 1)
    _need(result.verdict == "NO CCR", f"verdict {result.verdict}")
    return "absolute-time algebra yields no commutator pair"


# ------------------------------------------------------------- group checks

def check_group_orthogonality() -> str:
    worst = max(orthogonality_residual(irr)
                for irr in catalog.s3_irreps().values())
    _need(worst < 1e-10, f"orthogonality residual {worst:.3e}")
    return f"worst residual {worst:.2e} over three irreps"


def check_group_resolution() -> str:
    worst = verify_irrep(catalog.s3_irreps()["standard"]).resolution_residual
    _need(worst < 1e-10, f"resolution residual {worst:.3e}")
    return f"worst residual {worst:.2e} over all six elements"


def check_group_negative_control() -> str:
    try:
        load_group(catalog.corrupted_s3_document())
    except Exception as exc:
        return f"corrupted table rejected ({type(exc).__name__})"
    raise CheckFailed("corrupted multiplication table was accepted")


def check_group_reconstruction() -> str:
    irr = catalog.s3_irreps()["standard"]
    rng = np.random.default_rng(1234)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    rho = symmetry_state.reconstruct_density(
        symmetry_state.expectations_from_state(rho0, irr))
    _close(rho, rho0, tol=1e-10)
    return "random state recovered from its averages"


# ------------------------------------------------------------------ registry

_REGISTRY: dict[str, tuple[str, Callable[[], str]]] = {
    "state-translation-average":
        ("average of the translation operator in the swept state",
         check_state_translation_average),
    "state-eigenweights":
        ("eigenweights of the swept state are the click probabilities",
         check_state_eigenweights),
    "state-outcome-distribution":
        ("outcome distribution over translation eigenvalues",
         check_state_outcome_distribution),
    "state-eigenket-expansion":
        ("reflection eigenket expands evenly over the translation basis",
         check_state_eigenket_expansion),
    "mzi-reflection-zero":
        ("zero-offset reflection operator", check_mzi_reflection_zero),
    "mzi-reflection-eigenkets":
        ("reflection eigenkets at sampled offsets", check_mzi_reflection_eigenkets),
    "mzi-splitter-plus":
        ("splitter output for the |+> input", check_mzi_splitter_plus),
    "mzi-splitter-unitary":
        ("splitter unitarity", check_mzi_splitter_unitary),
    "mzi-open-pipeline":
        ("single-splitter pipeline click statistics", check_mzi_open_pipeline),
    "mzi-closed-pipeline":
        ("closed interferometer routes everything to D1", check_mzi_closed_pipeline),
    "mzi-phase-pipeline":
        ("phase-plate pipeline states and clicks", check_mzi_phase_pipeline),
    "mzi-balanced-density":
        ("balanced post-sweep state at the eighth-wavelength shift",
         check_mzi_balanced_density),
    "mzi-energy-tagalong":
        ("scalar energy rides along unchanged", check_mzi_energy_tagalong),
    "mzi-sweep-columns":
        ("sweep table columns match closed forms", check_mzi_sweep_columns),
    "rel-gamma":
        ("time-dilation factor at 0.6c", check_rel_gamma),
    "rel-boost-past":
        ("simultaneous distant event lands in the moving frame's past",
         check_rel_boost_past),
    "rel-boost-zero":
        ("later distant event lands on the moving frame's zero slice",
         check_rel_boost_zero),
    "rel-simultaneity-rest":
        ("rest frame keeps the event pair in one class",
         check_rel_simultaneity_rest),
    "rel-simultaneity-split":
        ("boost splits the simultaneous pair", check_rel_simultaneity_split),
    "rel-simultaneity-align":
        ("boost aligns events with different unprimed times",
         check_rel_simultaneity_align),
    "rel-scenario-meeting":
        ("five-observer scenario meeting line", check_rel_scenario_meeting),
    "rel-scenario-contraction":
        ("length contraction across frames", check_rel_scenario_contraction),
    "rel-scenario-separations":
        ("rider separations seen from both frames",
         check_rel_scenario_separations),
    "algebra-rotations":
        ("rotation brackets", check_algebra_rotations),
    "algebra-translation-boost":
        ("suppressed translation-boost brackets", check_algebra_translation_boost),
    "algebra-jacobi":
        ("Jacobi identity holds exactly on all three tables",
         check_algebra_jacobi),
    "algebra-contraction":
        ("infinite-speed limit of the bracket table", check_algebra_contraction),
    "algebra-ccr":
        ("momentum-position commutator closes on the identity",
         check_algebra_ccr),
    "algebra-galilean":
        ("absolute-time table has no commutator pair", check_algebra_galilean),
    "group-orthogonality":
        ("orthogonality residual over the permutation-group irreps",
         check_group_orthogonality),
    "group-resolution":
        ("resolution of group elements through the irrep sum",
         check_group_resolution),
    "group-reconstruction":
        ("state reconstruction roundtrip on the 2-dim irrep",
         check_group_reconstruction),
    "group-negative-control":
        ("corrupted multiplication table is rejected",
         check_group_negative_control),
}


def all_checks() -> dict[str, str]:
    """Check ids mapped to their descriptions, in run order."""
    return {check_id: desc for check_id, (desc, _) in _REGISTRY.items()}


def run_checks(only: list[str] | None = None) -> list[CheckResult]:
    if only:
        unknown = [c for c in only if c not in _REGISTRY]
        if unknown:
            raise ValueError(f"unknown check ids: {unknown}")
        ids = [c for c in _REGISTRY if c in set(only)]
    else:
        ids = list(_REGISTRY)

    results = []
    for check_id in ids:
        desc, fn = _REGISTRY[check_id]
        try:
            detail = fn()
            results.append(CheckResult(check_id, desc, True, detail))
        except Exception as exc:
            results.append(CheckResult(check_id, desc, False,
                                       f"{type(exc).__name__}: {exc}"))
    return results
