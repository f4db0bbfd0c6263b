"""Acceptance gate: one test per contract criterion.

Run with `pytest -v tests/test_acceptance.py` to get exactly one
pass/fail line per criterion.  Tolerances and runtime budgets are
pinned here and are not read from configuration; loosening them is an
interface change, not a tweak.

Criteria:
  1  boost calculator reference values, 1e-12 relative, < 1 ms
  2  interferometer stage states and click statistics, 1e-12, < 10 ms
  3  translation average closed form 1e-12; scalar-energy average exact
  4  group-representation theorems and reconstruction roundtrips, < 1 s
  5  exact Jacobi and commutator results on all bracket tables, < 100 ms
  6  state-reconstruction outcome statistics match interferometer clicks
  7  1000 random boost roundtrips and interval invariance, 1e-9 relative
"""

import math
import time
from fractions import Fraction

import numpy as np

from rbw import catalog, contraction, mzi, relsim, symmetry_state


def best_time(fn, repeats: int = 5) -> float:
    """Smallest wall time over several runs, in seconds, after a warmup."""
    fn()
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def timing_report(best: float, budget: float) -> str:
    """Failure message for a timing assert: time, budget and margin."""
    return (f"best {best * 1e3:.3f} ms against a {budget * 1e3:g} ms budget "
            f"(margin {budget / best:.2f}x)")


# --------------------------------------------------------------- criterion 1

def test_criterion_1_boost_reference_values():
    c = relsim.SPEED_OF_LIGHT
    boost = relsim.Boost(v=0.6 * c)

    def compute():
        g = relsim.gamma(boost)
        first = relsim.boost_event(relsim.SpacetimeEvent(t=0.0, x=1000.0), boost)
        second = relsim.boost_event(relsim.SpacetimeEvent(t=0.002, x=1000.0), boost)
        return g, first, second

    g, first, second = compute()
    assert abs(g - 1.25) <= 1e-12 * 1.25

    # compare in common units (cT, X), relative to the event pair's norm
    for event, want in ((first, (-750.0, 1250.0)), (second, (0.0, 800.0))):
        got = (c * event.t, event.x)
        scale = math.hypot(*want)
        assert abs(got[0] - want[0]) <= 1e-12 * scale
        assert abs(got[1] - want[1]) <= 1e-12 * scale

    best = best_time(compute)
    assert best < 1e-3, timing_report(best, 1e-3)


# --------------------------------------------------------------- criterion 2

def _elements(tokens):
    out = []
    for tok in tokens:
        if tok.startswith("phase:"):
            out.append(mzi.Element("phase", float(tok.split(":")[1])))
        else:
            out.append(mzi.Element(tok))
    return out


def test_criterion_2_interferometer_states_and_clicks():
    k0 = 2.0
    rng = np.random.default_rng(20260819)
    samples = rng.uniform(-2.0, 2.0, size=120)
    balanced = np.array([1.0, 1.0]) / np.sqrt(2)

    def check():
        # single splitter, with and without mirrors: both detectors even
        for tokens in (["source", "bs", "detector"],
                       ["source", "bs", "mirrors", "detector"]):
            res = mzi.run_pipeline(_elements(tokens), k0)
            assert abs(res.clicks.p_D1 - 0.5) <= 1e-12
            assert abs(res.clicks.p_D2 - 0.5) <= 1e-12

        # closed interferometer: balanced between the splitters, then
        # everything back in the first output port
        res = mzi.run_pipeline(
            _elements(["source", "bs", "mirrors", "bs", "detector"]), k0)
        stages = dict(res.stages)
        assert np.max(np.abs(stages["bs1"] - balanced)) <= 1e-12
        assert np.max(np.abs(stages["mirrors"] - balanced)) <= 1e-12
        assert np.max(np.abs(res.ket - np.array([1.0, 0.0]))) <= 1e-12
        assert abs(res.clicks.p_D1 - 1.0) <= 1e-12
        assert abs(res.clicks.p_D2 - 0.0) <= 1e-12

        # phase plate: final ket cos|+> + i sin|->, clicks (cos^2, sin^2)
        for a in samples:
            res = mzi.run_pipeline(
                _elements(["source", "bs", "mirrors", f"phase:{float(a)!r}",
                           "bs", "detector"]), k0)
            want = np.array([np.cos(k0 * a), 1j * np.sin(k0 * a)])
            assert np.max(np.abs(res.ket - want)) <= 1e-12
            assert abs(res.clicks.p_D1 - np.cos(k0 * a) ** 2) <= 1e-12
            assert abs(res.clicks.p_D2 - np.sin(k0 * a) ** 2) <= 1e-12

    check()
    best = best_time(check, repeats=3)
    assert best < 10e-3, timing_report(best, 10e-3)


# --------------------------------------------------------------- criterion 3

def test_criterion_3_translation_average_and_scalar_energy():
    k0 = 2.0
    rng = np.random.default_rng(31415)
    samples = rng.uniform(-3.0, 3.0, size=150)

    for a in samples:
        res = mzi.run_pipeline(_elements(
            ["source", "bs", "mirrors", f"phase:{float(a)!r}", "bs", "detector"]), k0)
        got = mzi.expectation_T(res.ket, a, k0)
        want = (np.exp(-1j * k0 * a) * np.cos(k0 * a) ** 2
                + np.exp(1j * k0 * a) * np.sin(k0 * a) ** 2)
        assert abs(got - want) <= 1e-12

    # the scalar energy rides along exactly, for both of its expressions
    hbar, mass, c_m_s = 1.0545718e-34, 9.109e-31, 2.99792458e8
    kinetic = hbar**2 * k0**2 / (2 * mass)
    photonic = hbar * k0 * c_m_s
    for energy in (kinetic, photonic):
        for rho in mzi.density_from_sweep(k0, samples[:40]):
            got = mzi.hamiltonian_expectation(rho, energy)
            assert abs(got - energy) <= 4 * math.ulp(energy)


# --------------------------------------------------------------- criterion 4

def _all_builtin_irreps():
    trivial = catalog.trivial_group()
    from rbw.grouprep import Irrep, load_irreps
    out = [Irrep(group=trivial, n=1,
                 D={"e": np.eye(1, dtype=complex)}, name="trivial")]
    out.extend(load_irreps(catalog.builtin_document("z2")).values())
    out.extend(catalog.s3_irreps().values())
    return out


def _random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_criterion_4_representation_theorems():
    from rbw.grouprep import orthogonality_residual, resolution_identity

    def check():
        rng = np.random.default_rng(271828)
        for irr in _all_builtin_irreps():
            assert orthogonality_residual(irr) < 1e-10
            for g in irr.group.elements:
                resid = np.max(np.abs(resolution_identity(irr, g) - irr.matrix(g)))
                assert resid < 1e-10

            for _ in range(100):
                rho = _random_density(rng, irr.n)
                back = symmetry_state.reconstruct_density(
                    symmetry_state.expectations_from_state(rho, irr))
                assert np.linalg.norm(back - rho) < 1e-10
                assert np.max(np.abs(back - back.conj().T)) < 1e-12

            # weighted eigenket averages reproduce both the element
            # averages and the symmetry-outcome distribution
            rho = _random_density(rng, irr.n)
            pairs = symmetry_state.eigendecompose(rho)
            for g in irr.group.elements:
                d = irr.matrix(g)
                via_kets = sum(w * (ket.conj() @ d @ ket) for w, ket in pairs)
                direct = symmetry_state.expectations_from_state(rho, irr).values[g]
                assert abs(via_kets - direct) < 1e-10

                dist = symmetry_state.outcome_probabilities(rho, d)
                eigvals, vecs = np.linalg.eig(d)
                for lam, p in dist.pairs():
                    # whole eigenspace: repeated eigenvalues share one outcome
                    idx = np.where(np.abs(eigvals - lam) < 1e-8)[0]
                    basis = np.linalg.qr(vecs[:, idx])[0]
                    crossed = sum(
                        w * float(np.sum(np.abs(basis.conj().T @ ket) ** 2))
                        for w, ket in pairs)
                    assert abs(p - crossed) < 1e-10

    check()
    assert best_time(check, repeats=3) < 1.0


# --------------------------------------------------------------- criterion 5

def test_criterion_5_exact_bracket_identities():
    def check():
        table = contraction.poincare_table()
        galilean = contraction.galilean_table()
        for hbar in (Fraction(1), Fraction(3, 2)):
            contracted = contraction.contract(table, hbar, Fraction(2))

            for tb in (table, galilean, contracted):
                assert contraction.jacobi_residual(tb).residual == 0.0

            result = contraction.ccr_check(contracted, hbar, Fraction(2))
            assert result.verdict == "CCR RECOVERED"
            want = {0: (0, -hbar)}
            for i in (1, 2, 3):
                for n in (1, 2, 3):
                    combo = result.pq[(i, n)]
                    assert combo == ({"I": want} if i == n else {})

            flat = contraction.ccr_check(galilean, hbar, Fraction(2))
            assert flat.verdict == "NO CCR"
            assert all(combo == {} for combo in flat.pq.values())

    check()
    assert best_time(check, repeats=3) < 0.1


# --------------------------------------------------------------- criterion 6

def test_criterion_6_reconstructed_states_match_clicks():
    k0 = 2.0
    rng = np.random.default_rng(112358)
    samples = rng.uniform(0.05, 3.0, size=120)

    densities = mzi.density_from_sweep(k0, samples)
    for a, rho in zip(samples, densities):
        res = mzi.run_pipeline(_elements(
            ["source", "bs", "mirrors", f"phase:{float(a)!r}", "bs", "detector"]), k0)
        dist = symmetry_state.outcome_probabilities(rho, mzi.translation_op(a, k0))
        by_eig = {lam: p for lam, p in dist.pairs()}
        lam_plus = min(by_eig, key=lambda z: abs(z - np.exp(-1j * k0 * a)))
        lam_minus = min(by_eig, key=lambda z: abs(z - np.exp(1j * k0 * a)))
        assert abs(by_eig[lam_plus] - res.clicks.p_D1) < 1e-10
        assert abs(by_eig[lam_minus] - res.clicks.p_D2) < 1e-10


# --------------------------------------------------------------- criterion 7

def test_criterion_7_boost_roundtrip_and_interval_invariance():
    c = relsim.SPEED_OF_LIGHT
    rng = np.random.default_rng(1000003)

    for _ in range(1000):
        v = float(rng.uniform(-0.99, 0.99)) * c
        boost = relsim.Boost(v=v)
        t1, t2 = rng.uniform(-10.0, 10.0, size=2)
        x1, x2 = rng.uniform(-3e6, 3e6, size=2)
        e1 = relsim.SpacetimeEvent(t=float(t1), x=float(x1))
        e2 = relsim.SpacetimeEvent(t=float(t2), x=float(x2))

        moved = relsim.boost_event(e1, boost)
        back = relsim.boost_event(moved, boost.inverse(), target_frame=e1.frame)
        scale = math.hypot(c * e1.t, e1.x)
        assert math.hypot(c * (back.t - e1.t), back.x - e1.x) <= 1e-9 * scale

        s_before = relsim.interval(e1, e2)
        s_after = relsim.interval(relsim.boost_event(e1, boost),
                                  relsim.boost_event(e2, boost))
        pair_scale = (c * (e2.t - e1.t)) ** 2 + (e2.x - e1.x) ** 2
        assert abs(s_after - s_before) <= 1e-9 * pair_scale
