"""Built-in group documents used by the command line tool, the tests
and the self-test suite.

Each builtin is a group document, built on request and loaded exactly
like a file.  The symmetric group on three letters is generated here from
honest permutation composition rather than a hardcoded table, and its
2-dim irrep from the permutation action restricted to the sum-zero plane,
so the catalog can serve as an independent oracle for the table-driven
machinery in :mod:`rbw.grouprep`.
"""

from __future__ import annotations

import numpy as np

from .grouprep import GroupSpec, Irrep, load_group, load_irreps

__all__ = [
    "trivial_group",
    "z2_group",
    "z2_irreps",
    "s3_group",
    "s3_irreps",
    "s3_document",
    "corrupted_s3_document",
    "builtin_document",
]


# ------------------------------------------------------------ trivial, Z2

def _trivial_document() -> dict:
    return {
        "elements": ["e"],
        "mul": {"e,e": "e"},
        "irreps": {"trivial": {"n": 1, "matrices": {"e": [[[1, 0]]]}}},
    }


def _z2_document() -> dict:
    return {
        "elements": ["e", "r"],
        "mul": {"e,e": "e", "e,r": "r", "r,e": "r", "r,r": "e"},
        "irreps": {
            "trivial": {"n": 1, "matrices": {"e": [[[1, 0]]], "r": [[[1, 0]]]}},
            "sign": {"n": 1, "matrices": {"e": [[[1, 0]]], "r": [[[-1, 0]]]}},
        },
    }


def trivial_group() -> GroupSpec:
    return load_group(_trivial_document())


def z2_group() -> GroupSpec:
    return load_group(_z2_document())


def z2_irreps() -> dict[str, Irrep]:
    return load_irreps(_z2_document())


# ----------------------------------------------------------------------- S3

# Permutations as maps on {0,1,2}; labels use 1-based cycle notation
# without commas so they stay legal document element labels.
_S3_PERMS: dict[str, tuple[int, int, int]] = {
    "e": (0, 1, 2),
    "(12)": (1, 0, 2),
    "(13)": (2, 1, 0),
    "(23)": (0, 2, 1),
    "(123)": (1, 2, 0),   # 1->2, 2->3, 3->1
    "(132)": (2, 0, 1),
}

_S3_PARITY = {"e": 1, "(12)": -1, "(13)": -1, "(23)": -1, "(123)": 1, "(132)": 1}


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p*q)(i) = p(q(i)), matching matrix-product order."""
    return tuple(p[i] for i in q)


def _perm_matrix(p: tuple[int, ...]) -> np.ndarray:
    """The matrix with a 1 at (p(j), j) for each column j."""
    return np.eye(3)[:, list(p)]


def s3_document() -> dict:
    """S3 with its trivial, sign and standard irreps; `mul` keys run in
    sorted-label order, as :func:`rbw.grouprep.group_document` writes them."""
    labels = list(_S3_PERMS)
    by_perm = {perm: name for name, perm in _S3_PERMS.items()}
    # Orthonormal basis of the plane x+y+z = 0; conjugating the 3x3
    # permutation matrices into it gives the faithful 2-dim irrep.
    b = np.array([
        [1 / np.sqrt(2), 1 / np.sqrt(6)],
        [-1 / np.sqrt(2), 1 / np.sqrt(6)],
        [0.0, -2 / np.sqrt(6)],
    ])
    standard = {g: (b.T @ _perm_matrix(p) @ b).tolist() for g, p in _S3_PERMS.items()}
    return {
        "elements": labels,
        "mul": {f"{g},{h}": by_perm[_compose(_S3_PERMS[g], _S3_PERMS[h])]
                for g in sorted(labels) for h in sorted(labels)},
        "irreps": {
            "trivial": {"n": 1, "matrices": {g: [[[1.0, 0.0]]] for g in labels}},
            "sign": {"n": 1, "matrices": {g: [[[float(_S3_PARITY[g]), 0.0]]] for g in labels}},
            "standard": {"n": 2, "matrices": {
                g: [[[x, 0.0] for x in row] for row in standard[g]] for g in labels}},
        },
    }


def s3_group() -> GroupSpec:
    return load_group(s3_document())


def s3_irreps(group: GroupSpec | None = None) -> dict[str, Irrep]:
    return load_irreps(s3_document(), group)


def corrupted_s3_document() -> dict:
    """S3 document with one table entry overwritten, breaking the axioms.

    Useful as a negative control: load_group must reject it.
    """
    doc = s3_document()
    doc["mul"]["(12),(12)"] = "(123)"   # should be "e"
    return doc


_BUILTINS = {"trivial": _trivial_document, "z2": _z2_document, "s3": s3_document}


def builtin_document(name: str) -> dict:
    """The document for the command line tool's --group builtin:<name>,
    built fresh on each call."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin group {name!r}; have {sorted(_BUILTINS)}")
    return _BUILTINS[name]()
