"""Built-in verification suite.

Each check re-derives one of the reference results the library is
supposed to reproduce (interferometer states and click statistics,
boost coordinates, bracket tables, reconstruction identities) and
compares against the frozen expected value.  The command line front-end
prints one verdict line per check; everything here is also exercised by
the test suite, so the suite doubles as a quick field diagnostic.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from . import catalog, contraction, mzi, relsim, symmetry_state
from .errors import GroupValidationError
from .grouprep import Irrep, load_group, orthogonality_residual, verify_irrep

__all__ = ["CheckFailed", "CheckResult", "all_checks", "run_checks"]

K0 = 2.0
A = 0.3          # phase-plate setting used by parameterized checks; k0*a = 0.6


class CheckFailed(AssertionError):
    pass


class CheckResult(NamedTuple):
    check_id: str
    description: str
    ok: bool
    detail: str


# check id -> (description, check); a check runs, and is listed, in the
# order of its definition below
_REGISTRY: dict[str, tuple[str, Callable[[], str]]] = {}


def _check(check_id: str, description: str):
    """Register the decorated function as the check check_id."""
    def register(fn: Callable[[], str]) -> Callable[[], str]:
        _REGISTRY[check_id] = (description, fn)
        return fn
    return register


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got, want, tol=1e-12) -> None:
    got, want = np.asarray(got), np.asarray(want)
    _need(got.shape == want.shape, f"shape {got.shape} where {want.shape} was expected")
    worst = float(np.max(np.abs(got - want)))
    _need(worst <= tol, f"max deviation {worst:.3e} exceeds {tol:.1e}")


def _phase_pipeline_elements(a: float) -> list[mzi.Element]:
    return [mzi.Element("source"), mzi.Element("bs"), mzi.Element("mirrors"),
            mzi.Element("phase", a), mzi.Element("bs"), mzi.Element("detector")]


# ------------------------------------------------------------ state checks

@_check("state-translation-average", "average of the translation operator in the swept state")
def check_state_translation_average() -> str:
    rho = mzi.density_from_sweep(K0, [A])[0]
    got = complex(np.trace(rho @ mzi.translation_op(A, K0)))
    want = (np.exp(-1j * K0 * A) * np.cos(K0 * A) ** 2
            + np.exp(1j * K0 * A) * np.sin(K0 * A) ** 2)
    _close(got, want)
    return f"<T({A})> = {got:.6f}"


@_check("state-eigenweights", "eigenweights of the swept state are the click probabilities")
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


@_check("state-outcome-distribution", "outcome distribution over translation eigenvalues")
def check_state_outcome_distribution() -> str:
    rho = mzi.density_from_sweep(K0, [A])[0]
    dist = symmetry_state.outcome_probabilities(rho, mzi.translation_op(A, K0))
    by_eig = {complex(z): p for z, p in dist.pairs()}
    _close(by_eig[complex(np.exp(-1j * K0 * A))], np.cos(K0 * A) ** 2, 1e-10)
    _close(by_eig[complex(np.exp(1j * K0 * A))], np.sin(K0 * A) ** 2, 1e-10)
    return "click statistics match the eigenvalue distribution"


@_check("state-eigenket-expansion",
        "reflection eigenket expands evenly over the translation basis")
def check_state_eigenket_expansion() -> str:
    ket = mzi.reflection_eigenkets(0.0, K0)[0]
    coeffs = symmetry_state.expand_eigenket(
        ket, [mzi.plus_ket(), mzi.minus_ket()])
    _close(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    return "balanced expansion (1/sqrt2, 1/sqrt2)"


# -------------------------------------------------------------- mzi checks

@_check("mzi-reflection-zero", "zero-offset reflection operator")
def check_mzi_reflection_zero() -> str:
    _close(mzi.reflection_op(0.0, K0), [[0, 1], [1, 0]])
    return "zero-offset reflection swaps the amplitudes"


@_check("mzi-reflection-eigenkets", "reflection eigenkets at sampled offsets")
def check_mzi_reflection_eigenkets() -> str:
    for a in (0.0, 0.4, -1.2):
        s = mzi.reflection_op(a, K0)
        plus, minus = mzi.reflection_eigenkets(a, K0)
        _close(s @ plus, plus)
        _close(s @ minus, -minus)
    return "eigenvalue +1 and -1 kets verified at three offsets"


@_check("mzi-splitter-plus", "splitter output for the |+> input")
def check_mzi_splitter_plus() -> str:
    out = mzi.beam_splitter_op(K0) @ mzi.plus_ket()
    _close(out, np.array([1, 1]) / np.sqrt(2))
    return "splitter sends |+> to the balanced ket"


@_check("mzi-splitter-unitary", "splitter unitarity")
def check_mzi_splitter_unitary() -> str:
    q = mzi.beam_splitter_op(K0)
    _close(q @ q.conj().T, np.eye(2))
    return "Q Qdag = I"


@_check("mzi-open-pipeline", "single-splitter pipeline click statistics")
def check_mzi_open_pipeline() -> str:
    res = mzi.run_pipeline([mzi.Element("source"), mzi.Element("bs"),
                            mzi.Element("detector")], K0)
    _close([res.clicks.p_D1, res.clicks.p_D2], [0.5, 0.5])
    return "one splitter: both detectors at 1/2"


@_check("mzi-closed-pipeline", "closed interferometer routes everything to D1")
def check_mzi_closed_pipeline() -> str:
    res = mzi.run_pipeline([mzi.Element("source"), mzi.Element("bs"),
                            mzi.Element("mirrors"), mzi.Element("bs"),
                            mzi.Element("detector")], K0)
    _close(res.ket, mzi.plus_ket())
    _close([res.clicks.p_D1, res.clicks.p_D2], [1.0, 0.0])
    return "closed interferometer: only D1 clicks"


@_check("mzi-phase-pipeline", "phase-plate pipeline states and clicks")
def check_mzi_phase_pipeline() -> str:
    for a in np.linspace(-1.5, 1.5, 7):
        res = mzi.run_pipeline(_phase_pipeline_elements(float(a)), K0)
        _close(res.ket, [np.cos(K0 * a), 1j * np.sin(K0 * a)])
        _close([res.clicks.p_D1, res.clicks.p_D2],
               [np.cos(K0 * a) ** 2, np.sin(K0 * a) ** 2])
    return "phase sweep gives (cos^2, sin^2) clicks"


@_check("mzi-balanced-density", "balanced post-sweep state at the eighth-wavelength shift")
def check_mzi_balanced_density() -> str:
    a = np.pi / (4 * K0)
    _close(mzi.density_from_sweep(K0, [a])[0], np.diag([0.5, 0.5]))
    return "eighth-wavelength shift balances the state"


@_check("mzi-energy-tagalong", "scalar energy rides along unchanged")
def check_mzi_energy_tagalong() -> str:
    hbar, mass = 1.0545718e-34, 9.109e-31
    energy = hbar**2 * K0**2 / (2 * mass)
    values = [mzi.hamiltonian_expectation(rho, energy)
              for rho in mzi.density_from_sweep(K0, np.linspace(0, 3, 9))]
    _close(values, [energy] * 9, tol=1e-12 * abs(energy) + 1e-300)
    _close(mzi.hamiltonian_expectation(np.diag([0.4, 0.6]), 1.0), 1.0)
    return "energy average independent of the phase setting"


@_check("mzi-sweep-columns", "sweep table columns match closed forms")
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

def _scenario() -> tuple[list[relsim.SpacetimeEvent], relsim.Boost]:
    """The scenario's three boys'-frame events and its 0.6c boost."""
    report = relsim.corealness_chain()
    return list(report.events.values()), report.boost


@_check("rel-gamma", "time-dilation factor at 0.6c")
def check_rel_gamma() -> str:
    got = relsim.gamma(_scenario()[1])
    _close(got, 1.25, tol=1e-14)
    return "gamma(0.6c) = 1.25"


@_check("rel-boost-past", "simultaneous distant event lands in the moving frame's past")
def check_rel_boost_past() -> str:
    (_, e2, _), boost = _scenario()
    out = relsim.boost_event(e2, boost)
    _close([out.t, out.x], [-0.0025, 1250.0], tol=1e-9)
    return f"(0 s, 1000 km) -> ({out.t:g} s, {out.x:g} km)"


@_check("rel-boost-zero", "later distant event lands on the moving frame's zero slice")
def check_rel_boost_zero() -> str:
    (_, _, e3), boost = _scenario()
    out = relsim.boost_event(e3, boost)
    _close([out.t, out.x], [0.0, 800.0], tol=1e-9)
    return f"(0.002 s, 1000 km) -> ({out.t:g} s, {out.x:g} km)"


@_check("rel-simultaneity-rest", "rest frame keeps the event pair in one class")
def check_rel_simultaneity_rest() -> str:
    e1, e2, _ = _scenario()[0]
    classes = relsim.simultaneity_classes([e1, e2], relsim.Boost(v=0.0))
    _need(len(classes) == 1, f"expected one class, got {len(classes)}")
    return "unboosted frame keeps the pair simultaneous"


@_check("rel-simultaneity-split", "boost splits the simultaneous pair")
def check_rel_simultaneity_split() -> str:
    (e1, e2, _), boost = _scenario()
    classes = relsim.simultaneity_classes([e1, e2], boost)
    _need(len(classes) == 2, f"expected two classes, got {len(classes)}")
    _close([c.time for c in classes], [-0.0025, 0.0], tol=1e-12)
    return "boost splits the pair to T = -0.0025 s and T = 0"


@_check("rel-simultaneity-align", "boost aligns events with different unprimed times")
def check_rel_simultaneity_align() -> str:
    (e1, _, e3), boost = _scenario()
    classes = relsim.simultaneity_classes([e1, e3], boost)
    _need(len(classes) == 1, f"expected one class, got {len(classes)}")
    _close(classes[0].time, 0.0, tol=1e-12)
    return "distinct unprimed times land on the shared T = 0 slice"


@_check("rel-scenario-meeting", "five-observer scenario meeting line")
def check_rel_scenario_meeting() -> str:
    report = relsim.corealness_chain()
    _close([report.events["event3"].t, report.boosted["event3"].t],
           [0.002, 0.0], tol=1e-12)
    _need(any("Bob passes Alice" in c for c in report.conclusions),
          "meeting line missing from the report")
    return "Bob passes Alice at t = 0.002 s, T = 0"


@_check("rel-scenario-contraction", "length contraction across frames")
def check_rel_scenario_contraction() -> str:
    lengths = relsim.corealness_chain().lengths
    _close([lengths["joe_bob_boys"], lengths["joe_bob_girls"]], [1000.0, 800.0])
    return "1000 km separation contracts to 800 km"


@_check("rel-scenario-separations", "rider separations seen from both frames")
def check_rel_scenario_separations() -> str:
    lengths = relsim.corealness_chain().lengths
    _close([lengths["kim_alice_girls"], lengths["kim_alice_boys"]],
           [450.0, 360.0], tol=1e-9)
    return "Kim to Alice: 450 km in their frame, 360 km in the boys'"


# ----------------------------------------------------------- algebra checks

@_check("algebra-rotations", "rotation brackets")
def check_algebra_rotations() -> str:
    table = contraction.poincare_table()
    _need(table.bracket("J1", "J2") == {"J3": {0: (0, 1)}},
          "[J1,J2] != i J3")
    _need(table.bracket("J2", "J1") == {"J3": {0: (0, -1)}},
          "[J2,J1] != -i J3")
    return "[J1,J2] = i J3 with antisymmetry"


@_check("algebra-translation-boost", "suppressed translation-boost brackets")
def check_algebra_translation_boost() -> str:
    table = contraction.poincare_table()
    _need(table.bracket("T1", "K1") == {"T0": {1: (0, 1)}},
          "[T1,K1] is not (i/c^2) T0")
    _need(table.bracket("T1", "T2") == {}, "[T1,T2] != 0")
    _need(table.bracket("K1", "K2") == {"J3": {1: (0, -1)}},
          "[K1,K2] is not -(i/c^2) J3")
    return "suppressed brackets carry 1/c^2 with Jacobi-consistent signs"


@_check("algebra-jacobi", "Jacobi identity holds exactly on all three tables")
def check_algebra_jacobi() -> str:
    for build in (contraction.poincare_table, contraction.galilean_table):
        result = contraction.jacobi_residual(build())
        _need(result.residual == 0.0,
              f"{build.__name__} residual {result.residual}")
    con = contraction.contract(contraction.poincare_table(), 1, 1)
    _need(contraction.jacobi_residual(con).residual == 0.0,
          "contracted table fails Jacobi")
    return "all three tables satisfy Jacobi exactly"


@_check("algebra-contraction", "infinite-speed limit of the bracket table")
def check_algebra_contraction() -> str:
    con = contraction.contract(contraction.poincare_table(), 1, 1)
    _need(con.bracket("K1", "K2") == {}, "[K1,K2] != 0 after limit")
    _need(con.bracket("T1", "K1") == {"M": {0: (0, 1)}},
          "[T1,K1] is not (i/hbar) M at hbar = 1")
    _need(con.bracket("J1", "J2") == {"J3": {0: (0, 1)}},
          "rotations changed under the limit")
    return "limit zeroes the suppressed brackets and produces M"


@_check("algebra-ccr", "momentum-position commutator closes on the identity")
def check_algebra_ccr() -> str:
    con = contraction.contract(contraction.poincare_table(), 1, 1)
    result = contraction.ccr_check(con, 1, 1)
    _need(result.verdict == "CCR RECOVERED", f"verdict {result.verdict}")
    _need(result.pq[(1, 1)] == {"I": {0: (0, -1)}}, "[P1,Q1] != -i I")
    _need(result.pq[(1, 2)] == {}, "[P1,Q2] != 0")
    return "[P_i,Q_n] = -i hbar delta_in I at hbar = 1"


@_check("algebra-galilean", "absolute-time table has no commutator pair")
def check_algebra_galilean() -> str:
    table = contraction.galilean_table()
    _need(table.bracket("T1", "K1") == {}, "[T1,K1] != 0")
    _need(table.bracket("J1", "K2") == {"K3": {0: (0, 1)}},
          "[J1,K2] != i K3")
    result = contraction.ccr_check(table, 1, 1)
    _need(result.verdict == "NO CCR", f"verdict {result.verdict}")
    return "absolute-time algebra yields no commutator pair"


# ------------------------------------------------------------- group checks

@functools.cache
def _s3_irreps() -> dict[str, Irrep]:
    """S3's irreps, built and parsed once per run: run_checks clears this."""
    return catalog.s3_irreps()


@_check("group-orthogonality", "orthogonality residual over the permutation-group irreps")
def check_group_orthogonality() -> str:
    worst = max(orthogonality_residual(irr)
                for irr in _s3_irreps().values())
    _need(worst < 1e-10, f"orthogonality residual {worst:.3e}")
    return f"worst residual {worst:.2e} over three irreps"


@_check("group-resolution", "resolution of group elements through the irrep sum")
def check_group_resolution() -> str:
    worst = verify_irrep(_s3_irreps()["standard"]).resolution_residual
    _need(worst < 1e-10, f"resolution residual {worst:.3e}")
    return f"worst residual {worst:.2e} over all six elements"


@_check("group-reconstruction", "state reconstruction roundtrip on the 2-dim irrep")
def check_group_reconstruction() -> str:
    irr = _s3_irreps()["standard"]
    # the first eight normal draws of np.random.default_rng(1234), written out
    # so that the check needs no numpy.random
    a = np.array([[-1.6038368053963015 + 0.8637438913233318j,
                   0.06409991400376411 + 2.913099222503971j],
                  [0.7408912958767259 - 1.4788233606644015j,
                   0.15261919356565307 + 0.9454729746458599j]])
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    rho = symmetry_state.reconstruct_density(
        symmetry_state.expectations_from_state(rho0, irr))
    _close(rho, rho0, tol=1e-10)
    return "random state recovered from its averages"


@_check("group-negative-control", "corrupted multiplication table is rejected")
def check_group_negative_control() -> str:
    try:
        load_group(catalog.corrupted_s3_document())
    except GroupValidationError as exc:
        return f"corrupted table rejected ({type(exc).__name__})"
    raise CheckFailed("corrupted multiplication table was accepted")


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

    _s3_irreps.cache_clear()
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
