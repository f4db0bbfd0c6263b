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

Arrays here are read-only, result records are tuples, and the attributes
of a `GroupSpec` or `Irrep` are not to be rebound once it is made; all
operations are pure functions, so values can be shared freely between
threads.
"""

from __future__ import annotations

from math import isfinite as _isfinite
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import documents
from .cayley import CayleyTable, check_table
from .errors import DimensionMismatch, UnknownElement
from .tolerance import default_tolerance, exceeds

__all__ = ["GroupSpec", "Irrep", "ValidationReport", "load_group", "load_irrep",
           "load_irreps", "group_document", "verify_irrep", "orthogonality_residual",
           "resolution_identity", "complex_from_pair", "pair_from_complex",
           "matrix_from_pairs", "pairs_from_matrix"]


# ------------------------------------------------------------------ types

class GroupSpec:
    """A finite group: ordered element labels plus a closed, associative
    multiplication table with identity and inverses.

    ``table[i, j]`` is the index of ``elements[i] * elements[j]`` and
    ``inverse[i]`` the index of the inverse of ``elements[i]``; both are
    read-only integer arrays.  ``index`` maps each label to its position.
    Groups compare by identity, since the array fields have no single
    truth value under ``==``.

    Its one constructor takes a table that :func:`rbw.cayley.check_table`
    passed; :func:`load_group` parses and checks a document into one.
    """

    __slots__ = ("elements", "table", "identity", "inverse", "index")

    def __init__(self, checked: CayleyTable):
        self.elements = checked.elements
        self.table = np.array(checked.rows, dtype=np.intp)
        self.inverse = np.array(checked.inverse, dtype=np.intp)
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)
        self.identity = checked.elements[checked.identity]
        self.index = checked.index

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


class Irrep:
    """A matrix-valued map on group elements, expected to be a unitary
    irreducible representation (checked by :func:`verify_irrep`).

    The matrices are stacked once, in the group's element order, when the
    irrep is made, and `D` then maps each element to its read-only row of
    that stack; a matrix that is not n x n raises DimensionMismatch.
    Irreps compare by identity, as groups do.
    """

    __slots__ = ("group", "n", "D", "name", "_stack")

    def __init__(self, group: GroupSpec, n: int, D: Mapping[str, np.ndarray],
                 name: str = "irrep"):
        self.group, self.n, self.D, self.name = group, n, D, name
        mats = [np.asarray(self.matrix(g)) for g in group.elements]
        for g, m in zip(group.elements, mats):
            _require_square(name, g, m.shape, n)
        self._stack = np.array(mats)
        self._stack.setflags(write=False)
        self.D = dict(zip(group.elements, self._stack))

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
        """tr{D(g) x} for every g, in element order, for one n x n matrix x:
        the forward map of rho = (n/N) * sum_g D(g^-1) <D(g)>.  One (N*n, n)
        @ (n, n) product, its diagonals read at stride n + 1, per-g bits."""
        n = self.n
        return (self._stack.reshape(-1, n) @ x).reshape(-1, n * n)[:, ::n + 1].sum(axis=1)

    def group_sum(self, w: np.ndarray) -> np.ndarray:
        """(n/N) * sum_g w[..., g] D(g), the terms added in element order.
        For a unitary irrep group_sum(traces(x)[group.inverse]) returns x."""
        return (w[..., None, None] * self._stack).sum(axis=-3) * (self.n / self.group.N)


def _require_square(name: str, g: str, shape: tuple, n: int) -> None:
    if shape != (n, n):
        raise DimensionMismatch(f"irrep {name!r} matrix for {g!r} has shape {shape}, "
                                f"expected {(n, n)}")


class ValidationReport(NamedTuple):
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
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


# ------------------------------------------------------------- documents

def complex_from_pair(pair) -> complex:
    return complex(*_matrix_floats([[pair]])[0])


def pair_from_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_from_pairs(rows) -> np.ndarray:
    floats, shape = _matrix_floats(rows)
    return np.array(floats, dtype=float).view(complex).reshape(shape)


def _matrix_floats(rows, where: str = "") -> tuple[list[float], tuple[int, ...]]:
    """A matrix of [re, im] pairs as its floats, in row-major order, and its
    shape; a refusal's ValueError is led by where."""
    out, lengths = [], []
    if not isinstance(rows, list):
        documents.checked(rows, list, f"{where}matrix")
    for row in rows:
        if not isinstance(row, list):
            documents.checked(row, list, f"{where}matrix row")
        for pair in row:
            if not (isinstance(pair, list) and len(pair) == 2):
                documents.checked(pair, list, f"{where}complex number")
                raise ValueError(f"{where}complex number must be a [re, im] pair, got {pair!r}")
            for x in pair:
                if not (isinstance(x, float) and _isfinite(x)):   # ints, refusals
                    x = documents.number(x, f"{where}[re, im] pair entry")
                out.append(x)
        lengths.append(len(row))
    if len(set(lengths)) > 1:
        raise ValueError(f"{where}matrix rows have lengths {lengths}")
    return out, (len(lengths), lengths[0]) if lengths else (0,)


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
    return GroupSpec(check_table(document))


def load_irrep(document, name: str, group: GroupSpec | None = None) -> Irrep:
    """Parse one named irrep from a group document: one walk over its
    matrices collects their floats, then one array is the (N, n, n) stack."""
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

    floats, shapes = {}, {}
    for g, rows in matrices_doc.items():
        if g not in group:
            raise UnknownElement(f"{what} has a matrix for {g!r}, which is not a group element")
        floats[g], shapes[g] = _matrix_floats(rows, f"{what} matrix for {g!r}: ")
    missing = [g for g in group.elements if g not in floats]
    if missing:
        raise ValueError(f"irrep {name!r} is missing matrices for {missing}")
    for g in group.elements:
        _require_square(name, g, shapes[g], n)
    stack = np.array([x for g in group.elements for x in floats[g]]).view(complex)
    return Irrep(group=group, n=n, D=dict(zip(group.elements, stack.reshape(-1, n, n))),
                 name=name)


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
        prod = _pair_products(d)
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


def _pair_products(d: np.ndarray) -> np.ndarray:
    """[a, b] = D(a) D(b), one (N*n, n) @ (n, n) product per b with the bits of
    each D(a) @ D(b); one (N*n, n) @ (n, N*n) product would round otherwise."""
    big_n, n = d.shape[:2]
    return (d.reshape(-1, n) @ d).reshape(big_n, big_n, n, n).swapaxes(0, 1)


# huge entries overflow into inf and NaN, which exceeds refuses
@np.errstate(over="ignore", invalid="ignore")
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


@np.errstate(over="ignore", invalid="ignore")
def resolution_identity(irrep: Irrep, gprime: str) -> np.ndarray:
    """Resolve D(gprime) through the group sum

        (n/N) * sum_g D(g) * tr{D(g^-1) D(gprime)}

    which must reproduce D(gprime) for a unitary irrep.  It costs one
    (N*n, n) @ (n, n) product, through `Irrep.traces`.
    """
    return irrep.group_sum(irrep.traces(irrep.matrix(gprime))[irrep.group.inverse])
