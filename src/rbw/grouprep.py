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

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import documents
from .cayley import CayleyTable, check_table
from .errors import DimensionMismatch, UnknownElement
from .tolerance import default_tolerance, exceeds

__all__ = [
    "GroupSpec",
    "Irrep",
    "ValidationReport",
    "load_group",
    "load_irrep",
    "load_irreps",
    "group_document",
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

    Construct through :func:`load_group`, whose table has passed the
    axioms; direct construction skips them.
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
            raise UnknownElement(f"{missing!r} is not an element of the group") from None

    def inv(self, g: str) -> str:
        try:
            return self.elements[self.inverse[self.index[g]]]
        except KeyError:
            raise UnknownElement(f"{g!r} is not an element of the group") from None

    def __contains__(self, g: str) -> bool:
        return g in self.index


@dataclass(frozen=True)
class Irrep:
    """A matrix-valued map on group elements, expected to be a unitary
    irreducible representation (checked by :func:`verify_irrep`).

    The matrices are stacked once, in the group's element order, when the
    irrep is made, and `D` then maps each element to its read-only row of
    that stack; a matrix that is not n x n raises DimensionMismatch.
    """

    group: GroupSpec
    n: int
    D: Mapping[str, np.ndarray]
    name: str = "irrep"
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = [np.asarray(self.matrix(g)) for g in self.group.elements]
        for g, m in zip(self.group.elements, mats):
            if m.shape != (self.n, self.n):
                raise DimensionMismatch(f"irrep {self.name!r} matrix for {g!r} has shape "
                                        f"{m.shape}, expected {(self.n, self.n)}")
        stack = np.array(mats)
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "D", dict(zip(self.group.elements, stack)))

    def matrix(self, g: str) -> np.ndarray:
        try:
            return self.D[g]
        except KeyError:
            raise UnknownElement(f"irrep {self.name!r} has no matrix for {g!r}") from None

    def matrix_inv(self, g: str) -> np.ndarray:
        """Matrix of the inverse element."""
        return self.matrix(self.group.inv(g))

    def stacked(self) -> np.ndarray:
        """All matrices as one read-only (N, n, n) array, in the group's
        element order."""
        return self._stack

    def traces(self, x: np.ndarray) -> np.ndarray:
        """tr{D(g) x} for every g, in element order: the forward map of
        rho = (n/N) * sum_g D(g^-1) <D(g)>."""
        return np.trace(self._stack @ x, axis1=-2, axis2=-1)

    def group_sum(self, w: np.ndarray) -> np.ndarray:
        """(n/N) * sum_g w[..., g] D(g), the terms added in element order.
        For a unitary irrep group_sum(traces(x)[group.inverse]) returns x."""
        return (w[..., None, None] * self._stack).sum(axis=-3) * (self.n / self.group.N)


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
    if len(documents.checked(pair, list, "complex number")) != 2:
        raise ValueError(f"complex number must be a [re, im] pair, got {pair!r}")
    re, im = (documents.number(x, "[re, im] pair entry") for x in pair)
    return complex(re, im)


def pair_from_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_from_pairs(rows) -> np.ndarray:
    rows = [[complex_from_pair(z) for z in documents.checked(row, list, "matrix row")]
            for row in documents.checked(rows, list, "matrix")]
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"matrix rows have lengths {[len(row) for row in rows]}")
    return np.array(rows, dtype=complex)


def pairs_from_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [[pair_from_complex(z) for z in row] for row in np.asarray(m)]


def _irrep_entries(doc: dict) -> dict:
    return documents.field(doc, "irreps", "group document", dict, {})


def load_group(document) -> GroupSpec:
    """Parse and validate a group document (dict or JSON text).

    The axioms are checked on plain index rows by
    :func:`rbw.cayley.check_table`, associativity by Light's test over a
    greedy generating set in O(N^2 log N).  Raises NonClosed,
    MissingIdentity, MissingInverse or NonAssociative, naming the first
    offending element(s) in element order.
    """
    return group_from_table(check_table(document))


def group_from_table(checked: CayleyTable) -> GroupSpec:
    """The group of a table that :func:`rbw.cayley.check_table` passed."""
    table = np.array(checked.rows, dtype=np.intp)
    inverse = np.array(checked.inverse, dtype=np.intp)
    table.setflags(write=False)
    inverse.setflags(write=False)
    return GroupSpec(elements=checked.elements, table=table,
                     identity=checked.elements[checked.identity],
                     inverse=inverse, index=checked.index)


def load_irrep(document, name: str, group: GroupSpec | None = None) -> Irrep:
    """Parse one named irrep from a group document."""
    doc = documents.parse(document, "group document")
    if group is None:
        group = load_group(doc)
    irreps = _irrep_entries(doc)
    if name not in irreps:
        raise ValueError(f"document has no irrep {name!r}; have {sorted(irreps)}")
    what = f"irrep {name!r}"
    entry = documents.checked(irreps[name], dict, what)
    n = documents.count(documents.field(entry, "n", what), f"{what}: n")
    matrices_doc = documents.field(entry, "matrices", what, dict)

    matrices = {}
    for g, rows in matrices_doc.items():
        if g not in group:
            raise UnknownElement(f"{what} has a matrix for {g!r}, which is not a group element")
        try:
            matrices[g] = matrix_from_pairs(rows)
        except ValueError as exc:
            raise ValueError(f"{what} matrix for {g!r}: {exc}") from None
    missing = [g for g in group.elements if g not in matrices]
    if missing:
        raise ValueError(f"irrep {name!r} is missing matrices for {missing}")
    return Irrep(group=group, n=n, D=matrices, name=name)


def load_irreps(document, group: GroupSpec | None = None) -> dict[str, Irrep]:
    """Parse every irrep in a group document."""
    doc = documents.parse(document, "group document")
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

def verify_irrep(irrep: Irrep) -> ValidationReport:
    """Check unitarity, the homomorphism property, irreducibility, the
    orthogonality relation and the resolution identity.

    Numerical failures, NaN included, are collected in the report rather
    than raised; matrix shapes were checked when the irrep was made.
    """
    group, n = irrep.group, irrep.n
    d = irrep.stacked()

    # huge entries overflow into inf and NaN residuals, which fail below
    with np.errstate(over="ignore", invalid="ignore"):
        unit = float(np.max(np.abs(d @ d.conj().swapaxes(1, 2) - np.eye(n))))
        prod = d[:, None] @ d[None, :]          # [a, b] = D(a) D(b)
        homo = float(np.max(np.abs(prod - d[group.table])))
        indicator = float(np.sum(np.abs(np.trace(d, axis1=1, axis2=2)) ** 2) / group.N)
        ortho = orthogonality_residual(irrep)
        resol = float(np.max(np.abs(_resolve_all(irrep, prod) - d)))

    notes = (exceeds(unit, "unitarity residual"),
             exceeds(homo, "homomorphism residual"),
             exceeds(abs(indicator - 1.0), "|character norm - 1|"),
             exceeds(ortho, "orthogonality residual"),
             exceeds(resol, "resolution residual"))

    return ValidationReport(
        name=irrep.name, n=n, N=group.N,
        max_unitarity_residual=unit,
        max_homomorphism_residual=homo,
        irreducibility_indicator=indicator,
        orthogonality_residual=ortho,
        resolution_residual=resol,
        tolerance=default_tolerance(),
        failures=tuple(note for note in notes if note is not None),
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


def _resolve_all(irrep: Irrep, prod: np.ndarray) -> np.ndarray:
    """resolution_identity for every element, as an (N, n, n) stack, with
    the traces read from the products prod[a, b] = D(a) D(b)."""
    traces = np.trace(prod[irrep.group.inverse], axis1=2, axis2=3)      # [g, g']
    # [g', g] in C order: the layout fixes the order of the sum over g, so
    # each row keeps resolution_identity's bits
    return irrep.group_sum(np.ascontiguousarray(traces.T))


def resolution_identity(irrep: Irrep, gprime: str) -> np.ndarray:
    """Resolve D(gprime) through the group sum

        (n/N) * sum_g D(g) * tr{D(g^-1) D(gprime)}

    which must reproduce D(gprime) for a unitary irrep.  It costs N
    matrix products, one per g.
    """
    return irrep.group_sum(irrep.traces(irrep.matrix(gprime))[irrep.group.inverse])
