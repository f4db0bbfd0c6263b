"""Finite groups given by explicit multiplication tables, and unitary
irreducible representations over them.

A group document is JSON-style structured text::

    {
      "elements": ["e", "r"],
      "mul": {"e,e": "e", "e,r": "r", "r,e": "r", "r,r": "e"},
      "irreps": {
        "sign": {"n": 1, "matrices": {"e": [[[1, 0]]], "r": [[[-1, 0]]]}}
      }
    }

Complex numbers are always two-element ``[re, im]`` arrays of finite
numbers.  Element labels must not contain a comma, since ``mul`` keys
are ``"g,h"`` pairs.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    NonClosed,
    UnknownElement,
)
from .tolerance import resolve

__all__ = [
    "GroupSpec",
    "Irrep",
    "ValidationReport",
    "load_group",
    "load_irrep",
    "load_irreps",
    "verify_irrep",
    "orthogonality_residual",
    "resolution_identity",
    "complex_from_pair",
    "pair_from_complex",
    "matrix_from_pairs",
    "pairs_from_matrix",
]


# ------------------------------------------------------------------ types

@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A finite group: ordered element labels plus a closed, associative
    multiplication table with identity and inverses.

    ``table[i, j]`` is the index of ``elements[i] * elements[j]`` and
    ``inverse[i]`` the index of the inverse of ``elements[i]``; both are
    read-only integer arrays.  ``index`` maps each label to its position.
    Groups compare by identity, since the array fields have no single
    truth value under ``==``.

    Construct through :func:`load_group`, which validates the axioms;
    direct construction skips validation.
    """

    elements: tuple[str, ...]
    table: np.ndarray
    identity: str
    inverse: np.ndarray
    index: Mapping[str, int]

    @property
    def N(self) -> int:
        return len(self.elements)

    def product(self, g: str, h: str) -> str:
        try:
            return self.elements[self.table[self.index[g], self.index[h]]]
        except KeyError:
            missing = g if g not in self.index else h
            raise UnknownElement(missing) from None

    def inv(self, g: str) -> str:
        try:
            return self.elements[self.inverse[self.index[g]]]
        except KeyError:
            raise UnknownElement(g) from None

    def __contains__(self, g: str) -> bool:
        return g in self.index


@dataclass(frozen=True)
class Irrep:
    """A matrix-valued map on group elements, expected to be a unitary
    irreducible representation (checked by :func:`verify_irrep`)."""

    group: GroupSpec
    n: int
    D: Mapping[str, np.ndarray]
    name: str = "irrep"

    def matrix(self, g: str) -> np.ndarray:
        try:
            return self.D[g]
        except KeyError:
            raise UnknownElement(g) from None

    def matrix_inv(self, g: str) -> np.ndarray:
        """Matrix of the inverse element."""
        return self.matrix(self.group.inv(g))

    def stacked(self) -> np.ndarray:
        """All matrices as one (N, n, n) array, in the group's element order."""
        mats = [np.asarray(self.matrix(g)) for g in self.group.elements]
        for g, m in zip(self.group.elements, mats):
            if m.shape != (self.n, self.n):
                raise DimensionMismatch(
                    f"matrix for {g!r} has shape {m.shape}, expected {(self.n, self.n)}")
        return np.array(mats)


@dataclass(frozen=True)
class ValidationReport:
    """Residuals collected by :func:`verify_irrep`.

    ``irreducibility_indicator`` is the character norm
    (1/N) * sum_g |tr D(g)|^2, which equals 1 exactly when the
    representation is irreducible.  ``resolution_residual`` is the worst
    entry of ``resolution_identity(irrep, g) - D(g)`` over all elements g.
    """

    name: str
    n: int
    N: int
    max_unitarity_residual: float
    max_homomorphism_residual: float
    irreducibility_indicator: float
    orthogonality_residual: float
    resolution_residual: float
    tolerance: float
    failures: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures


# ------------------------------------------------------------- documents

def complex_from_pair(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(isinstance(x, (int, float, str)) for x in pair)):
        raise ValueError(f"complex number must be a [re, im] pair, got {pair!r}")
    z = complex(float(pair[0]), float(pair[1]))
    if not np.isfinite(z):
        raise ValueError(f"complex number must be finite, got {pair!r}")
    return z


def pair_from_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_from_pairs(rows) -> np.ndarray:
    return np.array([[complex_from_pair(entry) for entry in _checked(row, list, "matrix row")]
                     for row in _checked(rows, list, "matrix")], dtype=complex)


def pairs_from_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [[pair_from_complex(z) for z in row] for row in np.asarray(m)]


def _checked(value, kind: type, what: str):
    """Return value if it is a JSON array (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        json_name = "array" if kind is list else "object"
        raise ValueError(f"{what} must be a JSON {json_name}, got {type(value).__name__}")
    return value


def _as_document(document) -> dict:
    if isinstance(document, str):
        document = json.loads(document)
    return _checked(document, dict, "group document")


def _irrep_entries(doc: dict) -> dict:
    return _checked(doc.get("irreps", {}), dict, "group document field 'irreps'")


def load_group(document) -> GroupSpec:
    """Parse and validate a group document (dict or JSON text).

    Raises NonClosed, MissingIdentity, MissingInverse or NonAssociative,
    naming the first offending element(s) in element order.
    """
    doc = _as_document(document)
    try:
        labels = _checked(doc["elements"], list, "group document field 'elements'")
        mul_doc = _checked(doc["mul"], dict, "group document field 'mul'")
    except KeyError as exc:
        raise ValueError(f"group document is missing field {exc}") from None

    if not labels:
        raise ValueError("group document lists no elements")
    for g in labels:
        if not isinstance(g, str) or "," in g or not g:
            raise ValueError(f"bad element label {g!r} (labels are nonempty, comma-free strings)")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate element labels in group document")

    elements = tuple(labels)
    index = {g: i for i, g in enumerate(elements)}
    table = np.full((len(elements),) * 2, -1, dtype=np.intp)
    for key, gh in mul_doc.items():
        parts = key.split(",") if isinstance(key, str) else ()
        if len(parts) != 2:
            raise ValueError(f"bad mul key {key!r} (expected 'g,h')")
        g, h = parts[0].strip(), parts[1].strip()
        if g not in index or h not in index:
            raise NonClosed(f"mul key ({g},{h}) uses unknown element")
        if not isinstance(gh, str) or gh not in index:
            raise NonClosed(f"mul({g},{h}) = {gh!r} is not an element of the group")
        table[index[g], index[h]] = index[gh]

    # totality; argwhere lists offenders in C order, as nested loops meet them
    holes = np.argwhere(table < 0)
    if len(holes):
        g, h = (elements[i] for i in holes[0])
        raise NonClosed(f"mul({g},{h}) is missing from the table")

    # two-sided identity: row e and column e both read 0..N-1.  It is
    # unique when it exists (e1 = e1*e2 = e2), so only its absence fails.
    ordinal = np.arange(len(elements))
    candidates = np.flatnonzero((table == ordinal).all(axis=1)
                                & (table.T == ordinal).all(axis=1))
    if not len(candidates):
        raise MissingIdentity("no two-sided identity")
    e = int(candidates[0])

    # unique two-sided inverses: pairs with g*h = h*g = e
    inverts = (table == e) & (table.T == e)
    bad = np.flatnonzero(inverts.sum(axis=1) != 1)
    if len(bad):
        invs = [elements[i] for i in np.flatnonzero(inverts[bad[0]])]
        raise MissingInverse(
            f"element {elements[bad[0]]!r} has "
            + ("no two-sided inverse" if not invs else f"multiple inverses {invs}"))
    inverse = inverts.argmax(axis=1)

    # associativity, exhaustively: table[table][a, b, c] = (ab)c and
    # table[:, table][a, b, c] = a(bc)  (desk scale: N <= a few dozen)
    triples = np.argwhere(table[table] != table[:, table])
    if len(triples):
        a, b, c = (elements[i] for i in triples[0])
        raise NonAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")

    table.setflags(write=False)
    inverse.setflags(write=False)
    return GroupSpec(elements=elements, table=table, identity=elements[e],
                     inverse=inverse, index=index)


def load_irrep(document, name: str, group: GroupSpec | None = None) -> Irrep:
    """Parse one named irrep from a group document."""
    doc = _as_document(document)
    if group is None:
        group = load_group(doc)
    try:
        entry = _checked(_irrep_entries(doc)[name], dict, f"irrep {name!r}")
    except KeyError:
        raise ValueError(f"document has no irrep named {name!r}") from None
    try:
        n = entry["n"]
        matrices_doc = _checked(entry["matrices"], dict, f"irrep {name!r} field 'matrices'")
    except KeyError as exc:
        raise ValueError(f"irrep {name!r} is missing field {exc}") from None
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"irrep {name!r}: n must be a positive integer, got {n!r}")

    matrices = {}
    for g, rows in matrices_doc.items():
        if g not in group:
            raise UnknownElement(g)
        m = matrix_from_pairs(rows)
        if m.shape != (n, n):
            raise DimensionMismatch(
                f"irrep {name!r}: matrix for {g!r} has shape {m.shape}, expected {(n, n)}")
        m.setflags(write=False)
        matrices[g] = m
    missing = [g for g in group.elements if g not in matrices]
    if missing:
        raise ValueError(f"irrep {name!r} is missing matrices for {missing}")
    return Irrep(group=group, n=n, D=matrices, name=name)


def load_irreps(document, group: GroupSpec | None = None) -> dict[str, Irrep]:
    """Parse every irrep in a group document."""
    doc = _as_document(document)
    if group is None:
        group = load_group(doc)
    return {name: load_irrep(doc, name, group) for name in _irrep_entries(doc)}


def group_document(group: GroupSpec,
                   irreps: Iterable[Irrep] = ()) -> dict:
    """Serialize back to the document grammar (round-trips load_group)."""
    labels = sorted(group.elements)
    doc: dict = {
        "elements": list(group.elements),
        "mul": {f"{g},{h}": group.product(g, h) for g in labels for h in labels},
    }
    irreps = list(irreps)
    if irreps:
        doc["irreps"] = {
            irr.name: {
                "n": irr.n,
                "matrices": {g: pairs_from_matrix(irr.D[g]) for g in group.elements},
            }
            for irr in irreps
        }
    return doc


# ------------------------------------------------------------ operations

def verify_irrep(irrep: Irrep, tol: float | None = None) -> ValidationReport:
    """Check unitarity, the homomorphism property, irreducibility, the
    orthogonality relation and the resolution identity.

    Raises DimensionMismatch if any matrix is not n x n; numerical
    failures, NaN included, are collected in the report rather than raised.
    """
    tol = resolve(tol)
    group, n = irrep.group, irrep.n
    d = irrep.stacked()

    unit = float(np.max(np.abs(d @ d.conj().swapaxes(1, 2) - np.eye(n))))
    homo = float(np.max(np.abs(d[:, None] @ d[None, :] - d[group.table])))
    indicator = float(np.sum(np.abs(np.trace(d, axis1=1, axis2=2)) ** 2) / group.N)
    ortho = orthogonality_residual(irrep)
    resol = float(np.max(np.abs(_resolve_all(irrep) - d)))

    failures = []
    if not unit <= tol:
        failures.append(f"unitarity residual {unit:.3e} exceeds {tol:.1e}")
    if not homo <= tol:
        failures.append(f"homomorphism residual {homo:.3e} exceeds {tol:.1e}")
    if not abs(indicator - 1.0) <= tol:
        failures.append(f"character norm {indicator:.6f} != 1 (not irreducible)")
    if not ortho <= tol:
        failures.append(f"orthogonality residual {ortho:.3e} exceeds {tol:.1e}")
    if not resol <= tol:
        failures.append(f"resolution residual {resol:.3e} exceeds {tol:.1e}")

    return ValidationReport(
        name=irrep.name, n=n, N=group.N,
        max_unitarity_residual=unit,
        max_homomorphism_residual=homo,
        irreducibility_indicator=indicator,
        orthogonality_residual=ortho,
        resolution_residual=resol,
        tolerance=tol,
        failures=tuple(failures),
    )


def orthogonality_residual(irrep: Irrep) -> float:
    """Worst-case deviation of the irrep from the orthogonality relation

        (n/N) * sum_g D(g^-1)[k,j] D(g)[l,m]  =  delta_jl delta_km

    taken over all index tuples (k, j, l, m).
    """
    group, n = irrep.group, irrep.n
    d = irrep.stacked()
    lhs = np.einsum("gkj,glm->kjlm", d[group.inverse], d) * (n / group.N)
    eye = np.eye(n)
    target = np.einsum("jl,km->kjlm", eye, eye)
    return float(np.max(np.abs(lhs - target)))


def _resolve_all(irrep: Irrep) -> np.ndarray:
    """resolution_identity for every element, as an (N, n, n) stack."""
    group = irrep.group
    d = irrep.stacked()
    traces = np.trace(d[group.inverse] @ d[:, None], axis1=2, axis2=3)   # [g', g]
    return (traces[:, :, None, None] * d).sum(axis=1) * (irrep.n / group.N)


def resolution_identity(irrep: Irrep, gprime: str) -> np.ndarray:
    """Resolve D(gprime) through the group sum

        (n/N) * sum_g D(g) * tr{D(g^-1) D(gprime)}

    which must reproduce D(gprime) for a unitary irrep.
    """
    if gprime not in irrep.group:
        raise UnknownElement(gprime)
    return _resolve_all(irrep)[irrep.group.index[gprime]]
