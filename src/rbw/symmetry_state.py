"""Density matrices built purely from symmetry-operator averages.

Given a unitary irrep D over a finite group and the measured averages
⟨D(g)⟩ for every element, the state is fixed by the group sum

    rho = (n/N) * sum_g D(g^-1) <D(g)>

with no reference to position, momentum, or any other observable.  The
rest of the module unpacks that state: eigenvalue weights, outcome
distributions over a symmetry operator's (generally complex) unit-circle
eigenvalues, and expansions between eigenbases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    InconsistentExpectations,
    NonOrthonormalBasis,
    NonPhysicalStateWarning,
    NotHermitian,
    NotUnitary,
)
from .grouprep import Irrep, _checked, complex_from_pair, pair_from_complex, pairs_from_matrix
from .tolerance import PHYSICALITY_THRESHOLD, resolve

__all__ = [
    "ExpectationSet",
    "OutcomeDistribution",
    "expectations_from_state",
    "reconstruct_density",
    "eigendecompose",
    "outcome_probabilities",
    "expand_eigenket",
    "load_expectations",
    "expectation_document",
    "density_document",
]


@dataclass(frozen=True)
class ExpectationSet:
    """Averages ⟨D(g)⟩ for every element of an irrep's group."""

    irrep: Irrep
    values: Mapping[str, complex]

    def value(self, g: str) -> complex:
        return self.values[g]

    def missing_elements(self) -> tuple[str, ...]:
        return tuple(g for g in self.irrep.group.elements if g not in self.values)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over a symmetry operator's eigenvalues, degenerate
    eigenvalues merged, ordered by phase."""

    eigenvalues: tuple[complex, ...]
    probabilities: tuple[float, ...]

    def pairs(self) -> tuple[tuple[complex, float], ...]:
        return tuple(zip(self.eigenvalues, self.probabilities))


# ------------------------------------------------------------- expectations

def expectations_from_state(rho: np.ndarray, irrep: Irrep) -> ExpectationSet:
    """⟨D(g)⟩ = Tr{rho D(g)} for every group element."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (irrep.n, irrep.n):
        raise DimensionMismatch(
            f"state is {rho.shape}, irrep {irrep.name!r} is {(irrep.n, irrep.n)}")
    traces = np.trace(rho @ irrep.stacked(), axis1=1, axis2=2)
    return ExpectationSet(irrep=irrep, values=dict(zip(irrep.group.elements, traces.tolist())))


def reconstruct_density(expectations: ExpectationSet,
                        tol: float | None = None,
                        validate: bool = True) -> np.ndarray:
    """Rebuild the density matrix from the group sum over averages.

    With validate on (the default) the input must be conjugation
    consistent and must reproduce its own averages under the forward
    trace map; either failure raises InconsistentExpectations.  A
    consistent but non-positive or non-unit-trace result only warns,
    since slightly noisy measured averages land there routinely.
    """
    tol = resolve(tol)
    irrep = expectations.irrep
    group, n = irrep.group, irrep.n

    missing = expectations.missing_elements()
    if missing:
        raise InconsistentExpectations(f"missing averages for {list(missing)}")
    v = np.array([expectations.values[g] for g in group.elements], dtype=complex)
    if validate:
        # <D(g^-1)> must be the conjugate of <D(g)>; name the first g that is not
        bad = np.flatnonzero(~(np.abs(v[group.inverse] - v.conj()) <= tol))
        if len(bad):
            g = group.elements[bad[0]]
            raise InconsistentExpectations(
                f"<D({group.inv(g)})> = {expectations.values[group.inv(g)]} is not the "
                f"conjugate of <D({g})> = {expectations.values[g]}")

    d = irrep.stacked()
    rho = (d[group.inverse] * v[:, None, None]).sum(axis=0) * (n / group.N)

    if validate:
        # argmax names the first worst element, or the first NaN
        off = np.abs(np.trace(rho @ d, axis1=1, axis2=2) - v)
        worst_i = int(np.argmax(off))
        worst = float(off[worst_i])
        if not worst <= tol:
            raise InconsistentExpectations(
                f"averages are not realizable by any {n}x{n} state: "
                f"reconstructed <D({group.elements[worst_i]})> is off by {worst:.3e}")

        eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        trace = float(np.trace(rho).real)
        if eigs.min() < -PHYSICALITY_THRESHOLD:
            warnings.warn(
                f"reconstructed state has negative weight {eigs.min():.3e}",
                NonPhysicalStateWarning, stacklevel=2)
        elif abs(trace - 1.0) > PHYSICALITY_THRESHOLD:
            warnings.warn(
                f"reconstructed state has trace {trace:.12g}, not 1",
                NonPhysicalStateWarning, stacklevel=2)
    return rho


# ----------------------------------------------------------------- spectral

def eigendecompose(rho: np.ndarray,
                   tol: float | None = None) -> list[tuple[float, np.ndarray]]:
    """Weights and kets of a hermitian matrix, weights descending.

    Within a degenerate eigenvalue the [gauge-fixed] kets are ordered
    lexicographically by the real parts of their entries, so the output
    is deterministic.
    """
    tol = resolve(tol)
    rho = np.asarray(rho, dtype=complex)
    herm_residual = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm_residual <= tol:
        raise NotHermitian(f"max |rho - rho^dag| = {herm_residual:.3e}")

    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    kets = []
    for i in range(len(w)):
        ket = v[:, i].copy()
        for c in ket:
            if abs(c) > 1e-12:
                ket *= np.conj(c) / abs(c)   # first sizable entry real positive
                break
        kets.append(ket)

    def sort_key(item):
        weight, ket = item
        return (-round(weight, 12), tuple(np.round(ket.real, 12)))

    return sorted(zip(w.tolist(), kets), key=sort_key)


def outcome_probabilities(rho: np.ndarray, symmetry: np.ndarray,
                          tol: float | None = None) -> OutcomeDistribution:
    """Distribution of a symmetry operator's eigenvalues in a state.

    Eigenvalues sit on the unit circle and may be complex; only the
    click statistics they label need to be real.  Degenerate eigenvalues
    (phases equal to 12 decimals) are merged with summed probability,
    and outcomes come out ordered by phase.
    """
    tol = resolve(tol)
    rho = np.asarray(rho, dtype=complex)
    symmetry = np.asarray(symmetry, dtype=complex)
    if rho.shape != symmetry.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(
            f"state {rho.shape} vs operator {symmetry.shape}")
    n = rho.shape[0]
    unit_residual = float(np.max(np.abs(symmetry @ symmetry.conj().T - np.eye(n))))
    if not unit_residual <= tol:
        raise NotUnitary(f"max |U U^dag - I| = {unit_residual:.3e}")

    # complex Schur form of a unitary is diagonal with orthonormal columns,
    # which stays orthonormal across degenerate eigenvalues
    t, z = scipy.linalg.schur(symmetry, output="complex")
    merged: dict[float, tuple[complex, float]] = {}
    for j in range(n):
        lam = complex(t[j, j])
        phase = float(np.angle(lam))
        if phase < -np.pi + 5e-13:   # keep the +pi/-pi seam on one side
            phase += 2 * np.pi
        key = round(phase, 12)
        p = float(np.real(z[:, j].conj() @ rho @ z[:, j]))
        if key in merged:
            lam0, p0 = merged[key]
            merged[key] = (lam0, p0 + p)
        else:
            merged[key] = (lam, p)

    keys = sorted(merged)
    return OutcomeDistribution(
        eigenvalues=tuple(merged[k][0] for k in keys),
        probabilities=tuple(merged[k][1] for k in keys),
    )


def expand_eigenket(zeta_ket: np.ndarray, symmetry_basis: Sequence[np.ndarray],
                    tol: float | None = None) -> np.ndarray:
    """Coefficients ⟨basis_i|zeta⟩ of a ket in an orthonormal basis."""
    tol = resolve(tol)
    zeta = np.asarray(zeta_ket, dtype=complex).reshape(-1)
    basis = np.column_stack([np.asarray(b, dtype=complex).reshape(-1)
                             for b in symmetry_basis])
    if basis.shape[0] != zeta.shape[0]:
        raise DimensionMismatch(
            f"ket has dimension {zeta.shape[0]}, basis vectors {basis.shape[0]}")
    gram_residual = float(np.max(np.abs(basis.conj().T @ basis
                                        - np.eye(basis.shape[1]))))
    if not gram_residual <= tol:
        raise NonOrthonormalBasis(f"max |<b_i|b_j> - delta_ij| = {gram_residual:.3e}")
    return basis.conj().T @ zeta


# ---------------------------------------------------------------- documents

def load_expectations(document: Mapping, irrep: Irrep) -> ExpectationSet:
    """Parse `{irrep: name, values: {g: [re, im]}}` against a known irrep."""
    _checked(document, dict, "expectation document")
    name = document.get("irrep")
    if name != irrep.name:
        raise ValueError(f"document is for irrep {name!r}, not {irrep.name!r}")
    if "values" not in document:
        raise ValueError("expectation document is missing field 'values'")
    values = {g: complex_from_pair(pair) for g, pair in
              _checked(document["values"], dict, "expectation document field 'values'").items()}
    es = ExpectationSet(irrep=irrep, values=values)
    missing = es.missing_elements()
    if missing:
        raise InconsistentExpectations(f"missing averages for {list(missing)}")
    unknown = [g for g in values if g not in irrep.group]
    if unknown:
        raise InconsistentExpectations(f"averages for unknown elements {unknown}")
    return es


def expectation_document(expectations: ExpectationSet) -> dict:
    return {
        "irrep": expectations.irrep.name,
        "values": {g: pair_from_complex(v) for g, v in expectations.values.items()},
    }


def density_document(rho: np.ndarray, tol: float | None = None) -> dict:
    rho = np.asarray(rho, dtype=complex)
    pairs = eigendecompose(rho, tol)
    return {
        "n": rho.shape[0],
        "matrix": pairs_from_matrix(rho),
        "eigenvalues": [w for w, _ in pairs],
        "eigenvectors": [[pair_from_complex(c) for c in ket] for _, ket in pairs],
    }
