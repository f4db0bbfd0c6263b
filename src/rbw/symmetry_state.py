"""Density matrices built purely from symmetry-operator averages.

Given a unitary irrep D over a finite group and the measured averages
⟨D(g)⟩ for every element, the state is fixed by the group sum

    rho = (n/N) * sum_g D(g^-1) <D(g)>

with no reference to position, momentum, or any other observable:
`Irrep.group_sum` is that sum, `Irrep.traces` its forward map rho ->
Tr{D(g) rho}.  The rest of the module unpacks that state: eigenvalue
weights, outcome distributions over a symmetry operator's (generally
complex) unit-circle eigenvalues, and expansions between eigenbases.
"""

from __future__ import annotations

import functools
import warnings
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import documents
from .errors import (
    DimensionMismatch,
    InconsistentExpectations,
    NonOrthonormalBasis,
    NonPhysicalStateWarning,
    NotHermitian,
    NotUnitary,
)
from .grouprep import Irrep, complex_from_pair, pair_from_complex, pairs_from_matrix
from .tolerance import PHYSICALITY_THRESHOLD, default_tolerance, require

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

# eig's round-off on a unitary: Gram skew of its eigenvectors, and the spread
# of the phases it returns for one eigenvalue
_EIG_ROUND_OFF = 1e-13

# Bauer-Fike: a perturbation E of a normal matrix moves each eigenvalue by at
# most ||E||_2, so noise that leaves U unitary to r = max|U U^dag - I| spreads
# one eigenvalue's phases by a few r (at most 2.3 r over 1200 seeded noisy
# degenerate pairs); phases within this many r are one outcome
_GAP_PER_RESIDUAL = 3


class ExpectationSet(NamedTuple):
    """Averages ⟨D(g)⟩ for every element of an irrep's group."""

    irrep: Irrep
    values: Mapping[str, complex]

    def value(self, g: str) -> complex:
        return self.values[g]

    def missing_elements(self) -> tuple[str, ...]:
        return tuple(g for g in self.irrep.group.elements if g not in self.values)


class OutcomeDistribution(NamedTuple):
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
    if not np.isfinite(rho).all():
        raise ValueError("state has a non-finite entry")
    return ExpectationSet(irrep=irrep, values=dict(zip(irrep.group.elements,
                                                       irrep.traces(rho).tolist())))


def reconstruct_density(expectations: ExpectationSet) -> np.ndarray:
    """Rebuild the density matrix from the group sum over averages.

    The input must be conjugation consistent and must reproduce its own
    averages under the forward trace map; either failure raises
    InconsistentExpectations.  A consistent but non-positive or
    non-unit-trace result only warns, since slightly noisy measured
    averages land there routinely.  The unchecked sum is
    ``irrep.group_sum(v[group.inverse])`` over the averages v in element order.
    """
    tol = default_tolerance()
    irrep = expectations.irrep
    group, n = irrep.group, irrep.n

    missing = expectations.missing_elements()
    if missing:
        raise InconsistentExpectations(f"missing averages for {list(missing)}")
    v = np.array([expectations.values[g] for g in group.elements], dtype=complex)
    # <D(g^-1)> must be the conjugate of <D(g)>; name the first g that is not
    bad = np.flatnonzero(~(np.abs(v[group.inverse] - v.conj()) <= tol))
    if len(bad):
        g = group.elements[bad[0]]
        raise InconsistentExpectations(
            f"<D({group.inv(g)})> = {expectations.values[group.inv(g)]} is not the "
            f"conjugate of <D({g})> = {expectations.values[g]}")

    rho = irrep.group_sum(v[group.inverse])

    # argmax names the first worst element, or the first NaN
    off = np.abs(irrep.traces(rho) - v)
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

def _require_hermitian(rho: np.ndarray) -> None:
    require(float(np.abs(rho - rho.conj().T).max()), "max |rho - rho^dag|", NotHermitian)


def _minus_identity(m: np.ndarray) -> np.ndarray:
    """m - np.eye(len(m)), bit for bit, in place on a fresh square product m."""
    m.flat[::len(m) + 1] -= 1
    return m


@functools.cmp_to_key
def _lexicographic(a: Sequence[float], b: Sequence[float]) -> int:
    """Sort key: the first pair of entries further apart than eig's
    round-off decides the order."""
    for x, y in zip(a, b):
        if abs(x - y) > _EIG_ROUND_OFF:
            return -1 if x < y else 1
    return 0


def eigendecompose(rho: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Weights and kets of a hermitian matrix, weights descending.

    Weights chain into one degenerate weight while each step is at most
    1e-13 (eig's round-off).  Within a degenerate weight the [gauge-fixed]
    kets are ordered lexicographically by the real parts of their entries,
    entries within 1e-13 counting as equal, so the output is deterministic.
    """
    rho = np.asarray(rho, dtype=complex)
    _require_hermitian(rho)
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    weights = w.tolist()
    level, keyed = 0, []
    for i in reversed(range(len(weights))):      # eigh's weights ascend
        if i + 1 < len(weights) and weights[i + 1] - weights[i] > _EIG_ROUND_OFF:
            level += 1                           # not degenerate with the last
        ket = v[:, i].copy()
        for c in ket:
            if abs(c) > 1e-12:
                ket *= np.conj(c) / abs(c)   # first sizable entry real positive
                break
        keyed.append(([level, *ket.real.tolist()], (weights[i], ket)))
    keyed.sort(key=lambda item: _lexicographic(item[0]))
    return [pair for _, pair in keyed]


class _Split(NamedTuple):
    """What outcome_probabilities needs of an operator U, whatever the state."""

    vecs: np.ndarray                     # orthonormal eigenvectors as columns, read-only
    run: tuple[int, ...]                 # outcome index of each eigenvalue, in eig's order
    eigenvalues: tuple[complex, ...]     # each outcome's first eigenvalue, by phase


@functools.lru_cache(maxsize=256)       # bounded: operators come from documents
def _spectral_split(data: bytes, n: int, residual: float) -> _Split:
    """The split of the n x n operator whose complex entries, in C order, are
    data, and whose unitarity residual, already within the tolerance, is
    residual: a function of U's bits alone, so one computation serves every
    state."""
    u = np.frombuffer(data, dtype=complex).reshape(n, n)

    # A unitary is normal: eig's columns span its orthogonal eigenspaces but
    # can be skewed within a degenerate one, or between close eigenvalues of a
    # U unitary only to tol.  V = QR then makes U Q = Q (R diag(lam) R^-1) a
    # Schur form whose column j belongs to lam[j]; skew < 1e-13 shifts p < 1e-12.
    lam, vecs = np.linalg.eig(u)
    if not np.abs(_minus_identity(vecs.conj().T @ vecs)).max() <= _EIG_ROUND_OFF:
        vecs = np.linalg.qr(vecs)[0]
    vecs.setflags(write=False)
    gap = max(_EIG_ROUND_OFF, _GAP_PER_RESIDUAL * residual)
    phases = np.angle(lam)
    phases[phases <= -np.pi + gap] += 2 * np.pi   # keep the +pi/-pi seam on one side
    phases = phases.tolist()
    order = sorted(range(n), key=phases.__getitem__)
    run = [0] * n                                 # outcome index of each eigenvalue
    for i, j in zip(order, order[1:]):
        run[j] = run[i] + (phases[j] - phases[i] > gap)
    if phases[order[0]] + 2 * np.pi - phases[order[-1]] <= gap:
        run = [r or run[order[-1]] for r in run]  # the seam closes the circle
    keys, lam = sorted(set(run)), lam.tolist()    # an outcome is named by its first eigenvalue
    return _Split(vecs, tuple(keys.index(key) for key in run),
                  tuple(lam[run.index(key)] for key in keys))


def outcome_probabilities(rho: np.ndarray, symmetry: np.ndarray) -> OutcomeDistribution:
    """Distribution of a symmetry operator's eigenvalues in a state.

    Eigenvalues sit on the unit circle and may be complex; only the
    click statistics they label need to be real.  Outcomes are ordered by
    phase, and one gap, max(1e-13, 3 r) with r = max|U U^dag - I| U's
    measured residual, merges degenerate eigenvalues, probabilities summed:
    sorted phases chain while each step is at most the gap, the circle
    closes across +-pi under it, and a phase within it of -pi counts as +pi.
    So phases closer than 3 r are one outcome: the resolution limit.

    Every call checks the state and meets U's residual against the current
    tolerance; the operator's eigenvectors and grouping are then computed
    once per distinct operator and kept, up to 256 of them.
    """
    rho = np.asarray(rho, dtype=complex)
    symmetry = np.asarray(symmetry, dtype=complex)
    if rho.shape != symmetry.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(
            f"state {rho.shape} vs operator {symmetry.shape}")
    _require_hermitian(rho)
    unit_residual = float(np.abs(_minus_identity(symmetry @ symmetry.conj().T)).max())
    require(unit_residual, "max |U U^dag - I|", NotUnitary)
    split = _spectral_split(symmetry.tobytes(), rho.shape[0], unit_residual)

    probs = (split.vecs.conj() * (rho @ split.vecs)).sum(axis=0).real.tolist()
    totals = [0.0] * len(split.eigenvalues)
    for i, p in zip(split.run, probs):
        totals[i] += p
    return OutcomeDistribution(eigenvalues=split.eigenvalues, probabilities=tuple(totals))


def expand_eigenket(zeta_ket: np.ndarray, symmetry_basis: Sequence[np.ndarray]) -> np.ndarray:
    """Coefficients ⟨basis_i|zeta⟩ of a ket in an orthonormal basis."""
    zeta = np.asarray(zeta_ket, dtype=complex).reshape(-1)
    basis = np.column_stack([np.asarray(b, dtype=complex).reshape(-1)
                             for b in symmetry_basis])
    if basis.shape[0] != zeta.shape[0]:
        raise DimensionMismatch(
            f"ket has dimension {zeta.shape[0]}, basis vectors {basis.shape[0]}")
    if not np.isfinite(zeta).all():
        raise ValueError("ket has a non-finite entry")
    gram = _minus_identity(basis.conj().T @ basis)
    require(float(np.abs(gram).max()), "max |<b_i|b_j> - delta_ij|", NonOrthonormalBasis)
    return basis.conj().T @ zeta


# ---------------------------------------------------------------- documents

def load_expectations(document: Mapping, irrep: Irrep) -> ExpectationSet:
    """Parse `{irrep: name, values: {g: [re, im]}}` against a known irrep."""
    what = "expectation document"
    doc = documents.checked(document, dict, what)
    name = documents.field(doc, "irrep", what, default=None)
    if name != irrep.name:
        raise ValueError(f"document is for irrep {name!r}, not {irrep.name!r}")
    values = {g: complex_from_pair(pair)
              for g, pair in documents.field(doc, "values", what, dict).items()}
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


def density_document(rho: np.ndarray) -> dict:
    rho = np.asarray(rho, dtype=complex)
    pairs = eigendecompose(rho)
    return {
        "n": rho.shape[0],
        "matrix": pairs_from_matrix(rho),
        "eigenvalues": [w for w, _ in pairs],
        "eigenvectors": [[pair_from_complex(c) for c in ket] for _, ket in pairs],
    }
