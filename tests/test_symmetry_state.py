"""State reconstruction from symmetry averages."""

import re

import numpy as np
import pytest

from rbw import catalog
from rbw.errors import (
    DimensionMismatch,
    InconsistentExpectations,
    NonOrthonormalBasis,
    NonPhysicalStateWarning,
    NotHermitian,
    NotUnitary,
)
from rbw.symmetry_state import (
    ExpectationSet,
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
    docs = catalog.builtin_documents()
    from rbw.grouprep import load_irreps
    irr = load_irreps(docs["trivial"])["trivial"]
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
    raw = reconstruct_density(es, validate=False)
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
    rho = reconstruct_density(ExpectationSet(irrep=irr, values=values),
                              validate=False)
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
    rho = reconstruct_density(es, validate=False)
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
    with pytest.raises(NotUnitary):
        outcome_probabilities(np.eye(2) / 2, poisoned)
    with pytest.raises(NonOrthonormalBasis):
        expand_eigenket([1, 0], [poisoned[0], poisoned[1]])


@pytest.mark.parametrize("document,match", [
    ([], "must be a JSON object"),
    ({"irrep": "sign"}, "missing field 'values'"),
    ({"irrep": "sign", "values": [[1, 0], [-1, 0]]}, "'values' must be a JSON object"),
    ({"irrep": "sign", "values": {"e": [1, 0], "r": ["NaN", 0]}}, "finite"),
    ({"irrep": "sign", "values": {"e": [1, 0], "r": [None, 0]}}, "pair"),
])
def test_malformed_expectation_documents(document, match):
    with pytest.raises(ValueError, match=match):
        load_expectations(document, catalog.z2_irreps()["sign"])
