"""State reconstruction from symmetry averages."""

import re

import numpy as np
import pytest

from rbw import catalog, symmetry_state
from rbw.errors import (
    DimensionMismatch,
    InconsistentExpectations,
    NonOrthonormalBasis,
    NonPhysicalStateWarning,
    NotHermitian,
    NotUnitary,
)
from rbw.symmetry_state import (
    _GAP_PER_RESIDUAL,
    ExpectationSet,
    OutcomeDistribution,
    density_document,
    eigendecompose,
    expand_eigenket,
    expectation_document,
    expectations_from_state,
    load_expectations,
    outcome_probabilities,
    reconstruct_density,
)

RNG = np.random.default_rng(918273645)


def random_state(n, rng=RNG):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = a @ a.conj().T
    return h / np.trace(h).real


def random_unitary(n, rng=RNG):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------- forward map

def test_maximally_mixed_gives_characters():
    irr = catalog.s3_irreps()["standard"]
    es = expectations_from_state(np.eye(2) / 2, irr)
    for g in irr.group.elements:
        assert es.value(g) == pytest.approx(np.trace(irr.D[g]) / 2)


def test_projector_picks_out_matrix_element():
    irr = catalog.s3_irreps()["standard"]
    rho = np.diag([1.0, 0.0]).astype(complex)
    es = expectations_from_state(rho, irr)
    for g in irr.group.elements:
        assert es.value(g) == pytest.approx(irr.D[g][0, 0])


def test_phase_operator_average():
    # rho = diag(cos^2, sin^2) against diag(e^{-ika}, e^{ika})
    k0, a = 2.0, 0.3
    rho = np.diag([np.cos(k0 * a) ** 2, np.sin(k0 * a) ** 2]).astype(complex)
    t = np.diag([np.exp(-1j * k0 * a), np.exp(1j * k0 * a)])
    expected = (np.exp(-1j * k0 * a) * np.cos(k0 * a) ** 2
                + np.exp(1j * k0 * a) * np.sin(k0 * a) ** 2)
    assert complex(np.trace(rho @ t)) == pytest.approx(expected)


def test_forward_dimension_check():
    irr = catalog.s3_irreps()["standard"]
    with pytest.raises(DimensionMismatch):
        expectations_from_state(np.eye(3) / 3, irr)


# ----------------------------------------------------------- reconstruction

def test_trivial_group_reconstruction():
    from rbw.grouprep import load_irreps
    irr = load_irreps(catalog.builtin_document("trivial"))["trivial"]
    es = ExpectationSet(irrep=irr, values={"e": 1.0 + 0j})
    rho = reconstruct_density(es)
    assert np.allclose(rho, [[1.0]], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_roundtrip_s3_standard(seed):
    irr = catalog.s3_irreps()["standard"]
    rho0 = random_state(2, np.random.default_rng(seed))
    rho = reconstruct_density(expectations_from_state(rho0, irr))
    assert np.linalg.norm(rho - rho0) < 1e-10


@pytest.mark.parametrize("name", ["trivial", "sign"])
def test_roundtrip_one_dim_irreps(name):
    irr = catalog.s3_irreps()[name]
    rho0 = np.array([[1.0 + 0j]])
    rho = reconstruct_density(expectations_from_state(rho0, irr))
    assert np.allclose(rho, rho0, atol=1e-12)


def test_unrealizable_averages_rejected():
    sign = catalog.z2_irreps()["sign"]
    es = ExpectationSet(irrep=sign, values={"e": 1.0 + 0j, "r": 0.5 + 0j})
    with pytest.raises(InconsistentExpectations):
        reconstruct_density(es)
    # the raw group sum is still well defined
    v = np.array([es.values[g] for g in sign.group.elements])
    raw = sign.group_sum(v[sign.group.inverse])
    assert np.allclose(raw, [[0.25]], atol=1e-15)


def test_conjugation_inconsistency_rejected():
    sign = catalog.z2_irreps()["sign"]
    # r is its own inverse, so its average must be real
    es = ExpectationSet(irrep=sign, values={"e": 1.0 + 0j, "r": 0.5j})
    with pytest.raises(InconsistentExpectations):
        reconstruct_density(es)


def test_missing_average_rejected():
    sign = catalog.z2_irreps()["sign"]
    es = ExpectationSet(irrep=sign, values={"e": 1.0 + 0j})
    with pytest.raises(InconsistentExpectations):
        reconstruct_density(es)


def test_negative_weight_warns():
    sign = catalog.z2_irreps()["sign"]
    es = ExpectationSet(irrep=sign, values={"e": -0.2 + 0j, "r": 0.2 + 0j})
    with pytest.warns(NonPhysicalStateWarning):
        rho = reconstruct_density(es)
    assert np.allclose(rho, [[-0.2]], atol=1e-15)


def test_off_trace_warns():
    sign = catalog.z2_irreps()["sign"]
    es = ExpectationSet(irrep=sign, values={"e": 0.5 + 0j, "r": -0.5 + 0j})
    with pytest.warns(NonPhysicalStateWarning):
        reconstruct_density(es)


def test_hermitian_by_construction():
    # conjugation consistency alone forces a hermitian group sum, even
    # when the averages are not realizable by any state
    irr = catalog.s3_irreps()["standard"]
    group = irr.group
    rng = np.random.default_rng(42)
    values = {}
    for g in group.elements:
        if g in values:
            continue
        ginv = group.inv(g)
        if ginv == g:
            values[g] = complex(rng.normal())
        else:
            v = complex(rng.normal(), rng.normal())
            values[g], values[ginv] = v, np.conj(v)
    v = np.array([values[g] for g in group.elements])
    rho = irr.group_sum(v[group.inverse])
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


# ------------------------------------------------------------------ spectra

def test_eigendecompose_projector():
    pairs = eigendecompose(np.diag([1.0, 0.0]))
    assert [w for w, _ in pairs] == pytest.approx([1.0, 0.0])
    assert np.allclose(pairs[0][1], [1, 0])
    assert np.allclose(pairs[1][1], [0, 1])


def test_eigendecompose_rank_one():
    pairs = eigendecompose(np.ones((2, 2)) / 2)
    assert [w for w, _ in pairs] == pytest.approx([1.0, 0.0])
    assert np.allclose(pairs[0][1], np.array([1, 1]) / np.sqrt(2))


def test_eigendecompose_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_eigendecompose_reassembles(seed):
    rho = random_state(4, np.random.default_rng(seed))
    pairs = eigendecompose(rho)
    weights = [w for w, _ in pairs]
    assert weights == sorted(weights, reverse=True)
    rebuilt = sum(w * np.outer(ket, ket.conj()) for w, ket in pairs)
    assert np.max(np.abs(rebuilt - rho)) < 1e-12
    basis = np.column_stack([ket for _, ket in pairs])
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(4))) < 1e-12


def test_eigendecompose_deterministic_under_degeneracy():
    rho = np.eye(2) / 2
    first = eigendecompose(rho)
    second = eigendecompose(rho)
    for (w1, k1), (w2, k2) in zip(first, second):
        assert w1 == w2
        assert np.array_equal(k1, k2)


@pytest.mark.parametrize("first,second", [(-1e-15, 1e-15), (1e-15, -1e-15)])
def test_eigendecompose_weights_within_round_off_are_one_degenerate_weight(first, second):
    # weights 2e-15 apart across a 12-decimal rounding boundary are one
    # degenerate weight, whose kets come in lexicographic order either way
    w = 0.1234567890125
    pairs = eigendecompose(np.diag([w + first, w + second, 1 - 2 * w]))
    assert [weight for weight, _ in pairs][1:] == pytest.approx([w, w], abs=1e-14)
    assert np.array_equal(pairs[1][1], [0, 1, 0])
    assert np.array_equal(pairs[2][1], [1, 0, 0])


# ------------------------------------------------------------ distributions

def test_outcomes_projector_vs_sign_operator():
    dist = outcome_probabilities(np.diag([1.0, 0.0]), np.diag([1.0, -1.0]))
    by_eig = {round(z.real, 9): p for z, p in dist.pairs()}
    assert by_eig[1.0] == pytest.approx(1.0)
    assert by_eig[-1.0] == pytest.approx(0.0, abs=1e-12)


def test_outcomes_merge_degenerate():
    dist = outcome_probabilities(np.diag([0.25, 0.75]), np.eye(2))
    assert len(dist.eigenvalues) == 1
    assert dist.eigenvalues[0] == pytest.approx(1.0)
    assert dist.probabilities[0] == pytest.approx(1.0)


def test_outcomes_complex_eigenvalues_real_probabilities():
    k0, a = 2.0, 0.3
    rho = np.diag([np.cos(k0 * a) ** 2, np.sin(k0 * a) ** 2]).astype(complex)
    t = np.diag([np.exp(-1j * k0 * a), np.exp(1j * k0 * a)])
    dist = outcome_probabilities(rho, t)
    assert all(isinstance(p, float) for p in dist.probabilities)
    assert sum(dist.probabilities) == pytest.approx(1.0)
    by_phase = dict(dist.pairs())
    assert by_phase[complex(np.exp(-1j * k0 * a))] == pytest.approx(np.cos(k0 * a) ** 2)
    assert by_phase[complex(np.exp(1j * k0 * a))] == pytest.approx(np.sin(k0 * a) ** 2)


@pytest.mark.parametrize("seed", [20, 21, 22, 23])
def test_outcomes_match_trace(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(3, rng)
    u = random_unitary(3, rng)
    dist = outcome_probabilities(rho, u)
    mean = sum(z * p for z, p in dist.pairs())
    assert abs(mean - np.trace(rho @ u)) < 1e-10
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-10)
    assert all(p > -1e-10 for p in dist.probabilities)


def test_outcomes_reject_nonunitary():
    with pytest.raises(NotUnitary):
        outcome_probabilities(np.eye(2) / 2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_outcomes_dimension_check():
    with pytest.raises(DimensionMismatch):
        outcome_probabilities(np.eye(2) / 2, np.eye(3))


# --------------------------------------------------------------- expansions

def test_expand_basis_vector():
    basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    coeffs = expand_eigenket(np.array([1.0, 0.0]), basis)
    assert np.allclose(coeffs, [1.0, 0.0])


def test_expand_plus_ket():
    basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    coeffs = expand_eigenket(np.array([1.0, 1.0]) / np.sqrt(2), basis)
    assert np.allclose(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_expand_reassembles():
    rng = np.random.default_rng(7)
    u = random_unitary(3, rng)
    basis = [u[:, i] for i in range(3)]
    zeta = rng.normal(size=3) + 1j * rng.normal(size=3)
    zeta /= np.linalg.norm(zeta)
    coeffs = expand_eigenket(zeta, basis)
    rebuilt = sum(c * b for c, b in zip(coeffs, basis))
    assert np.max(np.abs(rebuilt - zeta)) < 1e-12


def test_expand_rejects_skewed_basis():
    basis = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)]
    with pytest.raises(NonOrthonormalBasis):
        expand_eigenket(np.array([1.0, 0.0]), basis)


def test_expand_dimension_check():
    with pytest.raises(DimensionMismatch):
        expand_eigenket(np.array([1.0, 0.0, 0.0]),
                        [np.array([1.0, 0.0]), np.array([0.0, 1.0])])


# ------------------------------------------------------ diagonal-form checks

@pytest.mark.parametrize("seed", [30, 31, 32])
def test_average_equals_weighted_diagonal(seed):
    # <D(g)> = sum_zeta w(zeta) <zeta|D(g)|zeta> in the state's eigenbasis
    irr = catalog.s3_irreps()["standard"]
    rho = random_state(2, np.random.default_rng(seed))
    es = expectations_from_state(rho, irr)
    pairs = eigendecompose(rho)
    for g in irr.group.elements:
        diag_sum = sum(w * (ket.conj() @ irr.D[g] @ ket) for w, ket in pairs)
        assert abs(diag_sum - es.value(g)) < 1e-10


@pytest.mark.parametrize("seed", [40, 41])
def test_crossed_distribution_matches_direct(seed):
    # p(lambda_j) = sum_zeta w(zeta) |<zeta|lambda_j>|^2
    rng = np.random.default_rng(seed)
    rho = random_state(3, rng)
    u = random_unitary(3, rng)
    dist = outcome_probabilities(rho, u)
    pairs = eigendecompose(rho)
    import scipy.linalg
    t, z = scipy.linalg.schur(u, output="complex")
    for j in range(3):
        lam = complex(t[j, j])
        crossed = sum(w * abs(np.vdot(ket, z[:, j])) ** 2 for w, ket in pairs)
        direct = float(np.real(z[:, j].conj() @ rho @ z[:, j]))
        assert crossed == pytest.approx(direct, abs=1e-10)
        matches = [p for lam2, p in dist.pairs() if abs(lam2 - lam) < 1e-9]
        assert sum(matches) >= crossed - 1e-10


def schur_outcomes(rho, u):
    """Reference split: scipy's complex Schur form, whose columns are
    orthonormal and, for a unitary, eigenvectors.  The one gap is
    max(1e-13, C r), with r = max|u u^dag - I| measured here.  Phases, a
    phase within the gap of -pi moved to the +pi side, are sorted and
    chained into one outcome while neighbours are at most the gap apart;
    when the first and last phases are that close across the seam, the
    first run joins the last.  Each outcome is labelled, like the
    library's, by the first of its eigenvalues in LAPACK's order."""
    import scipy.linalg
    t, z = scipy.linalg.schur(u, output="complex")
    n = len(u)
    r = float(np.abs(u @ u.conj().T - np.eye(n)).max())
    gap = max(1e-13, _GAP_PER_RESIDUAL * r)
    lams = [complex(t[j, j]) for j in range(n)]
    probs = [float(np.real(z[:, j].conj() @ rho @ z[:, j])) for j in range(n)]
    phases = [float(np.angle(lam)) for lam in lams]
    phases = [ph + 2 * np.pi if ph <= -np.pi + gap else ph for ph in phases]
    order = sorted(range(n), key=phases.__getitem__)
    runs = [[order[0]]]
    for i, j in zip(order, order[1:]):
        if phases[j] - phases[i] <= gap:
            runs[-1].append(j)
        else:
            runs.append([j])
    if len(runs) > 1 and phases[order[0]] + 2 * np.pi - phases[order[-1]] <= gap:
        runs[-1] += runs.pop(0)
    return [(lams[min(run)], sum(probs[j] for j in run)) for run in runs]


def unitary_with_phases(phases, rng):
    v = random_unitary(len(phases), rng)
    return v @ np.diag(np.exp(1j * np.asarray(phases))) @ v.conj().T


def repeated_phases(rng, n):
    phases = rng.choice([0.0, np.pi, -np.pi, np.pi / 2], size=n)
    phases[1] = phases[0]
    return phases


def seam_phases(rng, n):
    return np.r_[[np.pi, -np.pi + 1e-14], rng.choice([0.0, np.pi / 2, -np.pi], size=n - 2)]


def close_phases(rng, n):
    # eig's columns for phases 1e-10 apart are orthogonal only to ~1e-6
    return np.r_[[1.0, 1.0 + 1e-10], rng.uniform(-3.0, 0.0, size=n - 2)]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("spectrum", [repeated_phases, seam_phases, close_phases])
@pytest.mark.parametrize("noise", [0.0, 1e-12, 1e-11])
def test_outcomes_match_schur_oracle(spectrum, noise, seed):
    # noise 1e-11 leaves U unitary only to within the default tolerance, which
    # splits a repeated eigenvalue into close ones with skewed eig columns
    rng = np.random.default_rng(seed)
    n = 2 + seed % 5
    u = unitary_with_phases(spectrum(rng, n), rng)
    u = u + noise * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
    rho = random_state(n, rng)
    dist = outcome_probabilities(rho, u)
    expected = schur_outcomes(rho, u)
    assert len(dist.eigenvalues) == len(expected)
    for (lam, p), (lam_ref, p_ref) in zip(dist.pairs(), expected):
        assert abs(lam - lam_ref) <= 1e-12
        assert abs(p - p_ref) <= 1e-12
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)


def mass_at(pairs, phase):
    return sum(p for lam, p in pairs if abs(lam - np.exp(1j * phase)) < 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_outcomes_stay_a_distribution_on_a_rounding_boundary(seed):
    # the phase sits on a 12-decimal rounding boundary, which eig's two
    # phases for the one eigenvalue often straddle; they are still one
    # outcome, carrying the mass of the oracle's
    rng = np.random.default_rng(seed)
    phase = 0.1234567890125
    u = unitary_with_phases([phase, phase, 2.0], rng)
    rho = random_state(3, rng)
    dist = outcome_probabilities(rho, u)
    expected = schur_outcomes(rho, u)
    assert mass_at(dist.pairs(), phase) == pytest.approx(mass_at(expected, phase), abs=1e-12)
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
    assert all(-1e-12 <= p <= 1 + 1e-12 for p in dist.probabilities)
    assert len(dist.eigenvalues) == len(expected) == 2


@pytest.mark.parametrize("center", [0.1234567890125, -np.pi + 1e-13],
                         ids=["rounding-boundary", "seam-shift-edge"])
def test_phases_within_round_off_are_one_outcome(center):
    # two eigenphases 2e-15 apart, on either side of a 12-decimal rounding
    # boundary or of the edge where -pi phases move to +pi (the 1e-13 gap of
    # an exactly unitary U), are one outcome
    u = np.diag(np.exp(1j * np.array([center - 1e-15, center + 1e-15, 2.0])))
    rho = random_state(3, np.random.default_rng(0))
    dist = outcome_probabilities(rho, u)
    assert len(dist.eigenvalues) == 2
    merged, = (p for lam, p in dist.pairs() if abs(lam - np.exp(1j * center)) < 1e-9)
    assert merged == pytest.approx((rho[0, 0] + rho[1, 1]).real, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("theta", [0.1234567890125, 0.123456789012],
                         ids=["rounding-boundary", "bin-centre"])
@pytest.mark.parametrize("noise", [1e-13, 1e-12, 1e-11])
def test_noisy_degenerate_phase_is_one_outcome(noise, theta, seed):
    # noise within the unitarity tolerance spreads eig's two phases for the
    # one eigenvalue by about U's residual r, further than 1e-13 and across
    # 12-decimal boundaries; the gap of 3 r still makes them one outcome
    rng = np.random.default_rng(seed)
    u = unitary_with_phases([theta, theta, 2.0], rng)
    u = u + noise * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rho = random_state(3, rng)
    dist = outcome_probabilities(rho, u)
    assert len(dist.eigenvalues) == 2
    assert mass_at(dist.pairs(), theta) == pytest.approx(
        mass_at(schur_outcomes(rho, u), theta), abs=1e-12)


@pytest.mark.parametrize("excess", [1e-12, 1e-11, 3e-11])
@pytest.mark.parametrize("factor,outcomes", [(2.0, 3), (0.5, 2)], ids=["apart", "closer"])
def test_resolution_limit_is_the_gap(excess, factor, outcomes):
    # U = V diag((1 + excess) e^{i}, e^{i(1 + delta)}, e^{2i}) V^dag is normal,
    # with a unitarity residual r set by excess: phases further apart than
    # C r are two outcomes, closer ones one
    v = random_unitary(3, np.random.default_rng(7))

    def u_with(delta):
        d = np.exp(1j * np.array([1.0, 1.0 + delta, 2.0])) * [1 + excess, 1.0, 1.0]
        return v @ np.diag(d) @ v.conj().T

    def residual(u):
        return float(np.abs(u @ u.conj().T - np.eye(3)).max())

    r = residual(u_with(0.0))
    assert _GAP_PER_RESIDUAL * r > 1e-13        # the gap is C r, not its floor
    u = u_with(factor * _GAP_PER_RESIDUAL * r)
    assert residual(u) == pytest.approx(r, rel=1e-3)
    rho = random_state(3, np.random.default_rng(8))
    dist = outcome_probabilities(rho, u)
    assert len(dist.eigenvalues) == len(schur_outcomes(rho, u)) == outcomes
    pair = v[:, :2]
    assert mass_at(dist.pairs(), 1.0) == pytest.approx(
        np.trace(pair.conj().T @ rho @ pair).real, abs=1e-9)


# ---------------------------------------------------------------- documents

def test_expectation_document_roundtrip():
    irr = catalog.s3_irreps()["standard"]
    es = expectations_from_state(random_state(2, np.random.default_rng(5)), irr)
    doc = expectation_document(es)
    again = load_expectations(doc, irr)
    for g in irr.group.elements:
        assert again.value(g) == pytest.approx(es.value(g))


def test_expectation_document_name_check():
    irr = catalog.s3_irreps()["standard"]
    with pytest.raises(ValueError):
        load_expectations({"irrep": "other", "values": {}}, irr)


def test_density_document_shape():
    doc = density_document(np.diag([0.75, 0.25]))
    assert doc["n"] == 2
    assert doc["eigenvalues"] == pytest.approx([0.75, 0.25])
    assert doc["matrix"][0][0] == pytest.approx([0.75, 0.0])


# ------------------------------------------------------- fail closed on NaN

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_averages_rejected(bad):
    sign = catalog.z2_irreps()["sign"]
    for values in ({"e": 1.0 + 0j, "r": complex(bad)}, {"e": complex(bad), "r": 1.0 + 0j}):
        with pytest.raises(InconsistentExpectations):
            reconstruct_density(ExpectationSet(irrep=sign, values=values))


def test_unrealizable_names_the_worst_element():
    irr = catalog.s3_irreps()["standard"]
    values = dict(expectations_from_state(np.eye(2) / 2, irr).values)
    values["e"] += 0.1
    values["(12)"] += 0.3
    es = ExpectationSet(irrep=irr, values=values)
    v = np.array([values[g] for g in irr.group.elements])
    rho = irr.group_sum(v[irr.group.inverse])
    # the first element with the largest forward-map deviation, as a loop
    worst, worst_g = 0.0, None
    for g in irr.group.elements:
        r = abs(np.trace(rho @ irr.matrix(g)) - values[g])
        if r > worst:
            worst, worst_g = r, g
    assert worst_g == "(13)"
    with pytest.raises(InconsistentExpectations, match=rf"<D\({re.escape(worst_g)}\)> is off by {worst:.3e}"):
        reconstruct_density(es)


def test_conjugation_names_the_first_element():
    irr = catalog.s3_irreps()["standard"]
    values = dict(expectations_from_state(np.eye(2) / 2, irr).values)
    values["(123)"] += 0.2j
    with pytest.raises(InconsistentExpectations,
                       match=r"<D\(\(132\)\)> = .* is not the conjugate of <D\(\(123\)\)>"):
        reconstruct_density(ExpectationSet(irrep=irr, values=values))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_fail_the_spectral_guards(bad):
    poisoned = np.array([[0.5, 0.0], [0.0, bad]], dtype=complex)
    with pytest.raises(NotHermitian):
        eigendecompose(poisoned)
    with pytest.raises(NotHermitian):
        outcome_probabilities(poisoned, np.eye(2))
    with pytest.raises(NotUnitary):
        outcome_probabilities(np.eye(2) / 2, poisoned)
    with pytest.raises(NonOrthonormalBasis):
        expand_eigenket([1, 0], [poisoned[0], poisoned[1]])
    with pytest.raises(ValueError, match="state has a non-finite entry"):
        expectations_from_state(poisoned, catalog.s3_irreps()["standard"])
    with pytest.raises(ValueError, match="ket has a non-finite entry"):
        expand_eigenket([1, bad], [np.array([1, 0]), np.array([0, 1])])


@pytest.mark.parametrize("document,match", [
    ([], "must be a JSON object"),
    ({"irrep": "sign"}, "missing field 'values'"),
    ({"irrep": "sign", "values": [[1, 0], [-1, 0]]}, "'values' must be a JSON object"),
    ({"irrep": "sign", "values": {"e": [1, 0], "r": ["NaN", 0]}}, "finite"),
    ({"irrep": "sign", "values": {"e": [1, 0], "r": [None, 0]}}, "pair"),
    ({"irrep": "sign", "values": {"e": [True, 0], "r": [-1, 0]}}, "finite number"),
    ({"irrep": "sign", "values": {"e": ["1", 0], "r": [-1, 0]}}, "finite number"),
    ({"irrep": "sign", "values": {"e": [10 ** 400, 0], "r": [-1, 0]}}, "finite number"),
])
def test_malformed_expectation_documents(document, match):
    with pytest.raises(ValueError, match=match):
        load_expectations(document, catalog.z2_irreps()["sign"])


def test_state_records_are_named_tuples():
    assert ExpectationSet._fields == ("irrep", "values")
    assert ExpectationSet._field_defaults == {}
    assert OutcomeDistribution._fields == ("eigenvalues", "probabilities")
    assert OutcomeDistribution._field_defaults == {}
    dist = outcome_probabilities(np.diag([0.75, 0.25]), np.diag([1.0, -1.0]))
    assert dist == ((1, -1), (0.75, 0.25)) and dist.pairs() == ((1, 0.75), (-1, 0.25))
    es = expectations_from_state(np.eye(2) / 2, catalog.s3_irreps()["standard"])
    with pytest.raises(AttributeError):
        es.values = {}


# ------------------------------------------------ one split per operator

def uncached_outcomes(rho, u):
    """outcome_probabilities in one pass that keeps nothing: the residual,
    eig with its QR fallback, the phase runs and the merge, on every call."""
    n = len(u)
    r = float(np.abs(u @ u.conj().T - np.eye(n)).max())
    lam, vecs = np.linalg.eig(u)
    if not np.abs(vecs.conj().T @ vecs - np.eye(n)).max() <= 1e-13:
        vecs = np.linalg.qr(vecs)[0]
    probs = (vecs.conj() * (rho @ vecs)).sum(axis=0).real.tolist()
    gap = max(1e-13, _GAP_PER_RESIDUAL * r)
    phases = np.angle(lam)
    phases[phases <= -np.pi + gap] += 2 * np.pi
    phases = phases.tolist()
    order = sorted(range(n), key=phases.__getitem__)
    run = [0] * n
    for i, j in zip(order, order[1:]):
        run[j] = run[i] + (phases[j] - phases[i] > gap)
    if phases[order[0]] + 2 * np.pi - phases[order[-1]] <= gap:
        run = [k or run[order[-1]] for k in run]
    merged = {}
    for lam_j, key, p in zip(lam.tolist(), run, probs):
        lam0, p0 = merged.get(key, (lam_j, 0.0))
        merged[key] = (lam0, p0 + p)
    return OutcomeDistribution(tuple(merged[k][0] for k in sorted(merged)),
                               tuple(merged[k][1] for k in sorted(merged)))


def bits(dist):
    """A distribution's floats as hex strings, so equality means equal bits."""
    return ([(z.real.hex(), z.imag.hex()) for z in map(complex, dist.eigenvalues)],
            [float(p).hex() for p in dist.probabilities])


def seeded_operators():
    rng = np.random.default_rng(27)
    for spectrum in (repeated_phases, seam_phases, close_phases):
        for n in (2, 3, 5):
            for noise in (0.0, 1e-12, 1e-11):
                u = unitary_with_phases(spectrum(rng, n), rng)
                yield u + noise * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
    for irr in catalog.s3_irreps().values():
        yield from (irr.matrix(g) for g in irr.group.elements)


@pytest.fixture
def eig_calls(monkeypatch):
    """Clear the kept splits and count np.linalg.eig calls from here on."""
    symmetry_state._spectral_split.cache_clear()
    calls = []
    eig = np.linalg.eig

    def counting(a):
        calls.append(a)
        return eig(a)
    monkeypatch.setattr(np.linalg, "eig", counting)
    return calls


def test_kept_splits_give_the_bits_of_a_fresh_computation(eig_calls):
    rng = np.random.default_rng(2027)
    operators = list(seeded_operators())
    for u in operators:
        states = [random_state(len(u), rng) for _ in range(3)]
        symmetry_state._spectral_split.cache_clear()
        first = outcome_probabilities(states[0], u)             # computes the split
        for rho in states:                                      # reuses it
            assert bits(outcome_probabilities(rho, u)) == bits(uncached_outcomes(rho, u))
        assert bits(first) == bits(uncached_outcomes(states[0], u))
    # one eig per operator here, and one in each of the oracle's four calls
    assert len(eig_calls) == len(operators) * 5


def test_twenty_states_over_three_operators_make_three_eig_calls(eig_calls):
    irr = catalog.s3_irreps()["standard"]
    operators = [irr.matrix(g) for g in irr.group.elements[:3]]
    rng = np.random.default_rng(5)
    for k in range(20):
        outcome_probabilities(random_state(2, rng), operators[k % 3])
    assert len(eig_calls) == 3


def test_a_kept_split_meets_the_current_tolerance(monkeypatch, eig_calls):
    rng = np.random.default_rng(11)
    u = random_unitary(3, rng) + 1e-9 * np.eye(3)           # unitary to about 2e-9
    rho = random_state(3, rng)
    monkeypatch.setenv("RBW_TOLERANCE", "1e-7")
    loose = outcome_probabilities(rho, u)
    monkeypatch.delenv("RBW_TOLERANCE")
    with pytest.raises(NotUnitary, match=r"^max \|U U\^dag - I\| = .* exceeds the "
                                         r"tolerance 1e-10$"):
        outcome_probabilities(rho, u)
    monkeypatch.setenv("RBW_TOLERANCE", "1e-7")
    assert bits(outcome_probabilities(rho, u)) == bits(loose)
    monkeypatch.setenv("RBW_TOLERANCE", "0")
    with pytest.raises(ValueError, match="RBW_TOLERANCE"):
        outcome_probabilities(rho, u)
    assert len(eig_calls) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300, 2.0, 1 + 1e-9])
def test_an_operator_over_the_tolerance_is_refused_before_eig(eig_calls, bad):
    # finite or not, it fails the unitarity guard before it is split or kept
    poisoned = np.array([[1.0, 0.0], [0.0, bad]], dtype=complex)
    for _ in range(2):
        with pytest.raises(NotUnitary):
            outcome_probabilities(np.eye(2) / 2, poisoned)
    assert eig_calls == [] and symmetry_state._spectral_split.cache_info().currsize == 0


def test_a_state_error_comes_before_the_operator_is_split(eig_calls):
    with pytest.raises(NotHermitian):
        outcome_probabilities(np.array([[1, 1], [0, 0]]), 2 * np.eye(2))
    with pytest.raises(DimensionMismatch):
        outcome_probabilities(np.eye(2), np.eye(3))
    assert eig_calls == [] and symmetry_state._spectral_split.cache_info().currsize == 0
