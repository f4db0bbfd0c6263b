"""Group multiplication tables checked against the axioms, without numpy.

`check_table` reads the ``elements`` and ``mul`` fields of a group
document (see :mod:`rbw.grouprep`) into plain index rows and checks, in
this order, the labels, the mul keys, totality, a two-sided identity,
unique two-sided inverses and associativity.  The first failure raises
ValueError, NonClosed, MissingIdentity, MissingInverse or NonAssociative
and names the first offender in element order.  The command line checks
a document here before it imports numpy, so a document that is not a
group is refused without it.

Associativity is checked by Light's test (Clifford & Preston, *The
Algebraic Theory of Semigroups* I, §1.2).  The elements a with
(a*b)*c = a*(b*c) for all b, c hold the identity and are closed under the
product, so it is enough to test a generating set.  The set is picked
greedily in element order, each generator the first element that is not a
product of those before it.  In a group each one at least doubles the
subgroup they generate, so there are at most log2(N) generators and
O(N^2 log N) steps, each a whole row compared at C speed.  The same walk
names the first offending triple in C order when there is one.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from . import documents
from .errors import MissingIdentity, MissingInverse, NonAssociative, NonClosed

__all__ = ["CayleyTable", "check_table"]


class CayleyTable(NamedTuple):
    """A table that passed every axiom.  ``rows[i][j]`` is the index of
    ``elements[i] * elements[j]``; ``identity`` and ``inverse[i]`` are
    indices too, and ``index`` maps each label to its position."""

    elements: tuple[str, ...]
    index: dict[str, int]
    rows: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]


def check_table(document) -> CayleyTable:
    """Parse a group document (dict or JSON text) and check the group axioms."""
    doc = documents.parse(document, "group document")
    labels = documents.field(doc, "elements", "group document", list)
    mul_doc = documents.field(doc, "mul", "group document", dict)

    if not labels:
        raise ValueError("group document lists no elements")
    for g in labels:
        if "," in documents.checked(g, str, f"bad element label {g!r}") or not g:
            raise ValueError(f"bad element label {g!r} (labels are nonempty, comma-free strings)")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate element labels in group document")

    elements = tuple(labels)
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    table = [[-1] * n for _ in range(n)]
    # documents.checked raises for a key or value that is not a string;
    # N^2 entries are strings, so they skip the call
    for key, gh in mul_doc.items():
        if not isinstance(key, str):
            documents.checked(key, str, "each mul key")
        parts = key.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad mul key {key!r} (expected 'g,h')")
        g, h = parts[0].strip(), parts[1].strip()
        i, j = index.get(g), index.get(h)
        if i is None or j is None:
            raise NonClosed(f"mul key ({g},{h}) uses unknown element")
        if not isinstance(gh, str):
            documents.checked(gh, str, "each mul value")
        if gh not in index:
            raise NonClosed(f"mul({g},{h}) = {gh!r} is not an element of the group")
        table[i][j] = index[gh]

    # totality, the first hole in C order
    for g, row in zip(elements, table):
        if -1 in row:
            raise NonClosed(f"mul({g},{elements[row.index(-1)]}) is missing from the table")
    rows = tuple(map(tuple, table))

    # two-sided identity: row e and column e both read 0..N-1.  It is
    # unique when it exists (e1 = e1*e2 = e2), so only its absence fails.
    ordinal = tuple(range(n))
    e = next((i for i in range(n)
              if rows[i] == ordinal and tuple(map(itemgetter(i), rows)) == ordinal), None)
    if e is None:
        raise MissingIdentity("no two-sided identity")

    # unique two-sided inverses: h with g*h = h*g = e
    inverse = []
    for g, row in enumerate(rows):
        invs = [h for h in _positions(row, e) if rows[h][g] == e]
        if len(invs) != 1:
            raise MissingInverse(
                f"element {elements[g]!r} has "
                + ("no two-sided inverse" if not invs
                   else f"multiple inverses {[elements[h] for h in invs]}"))
        inverse.append(invs[0])

    triple = _first_nonassociative(rows, e)
    if triple is not None:
        a, b, c = (elements[i] for i in triple)
        raise NonAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")

    return CayleyTable(elements=elements, index=index, rows=rows, identity=e,
                       inverse=tuple(inverse))


def _positions(row: tuple[int, ...], value: int):
    """The indices of value in row, ascending."""
    at = -1
    for _ in range(row.count(value)):
        at = row.index(value, at + 1)
        yield at


def _generators(rows, e: int):
    """A greedy generating set of the table, in element order.

    Each generator is the first element not yet reached as a product of
    e and the generators before it.  The caller checks each one before it
    asks for the next, so a property that products keep holds for every
    element once the caller has taken them all.
    """
    reached = [False] * len(rows)
    reached[e] = True
    gens: list[int] = []
    for s in range(len(rows)):
        if reached[s]:
            continue
        yield s
        gens.append(s)
        # s times each product of the generators: in a finite group that
        # is the whole subgroup they generate, since it holds s
        reached[s] = True
        new = [s]
        for x in new:                 # the list grows while it is walked
            row = rows[x]
            for t in gens:
                y = row[t]
                if not reached[y]:
                    reached[y] = True
                    new.append(y)


def _first_nonassociative(rows, e: int) -> tuple[int, int, int] | None:
    """(a, b, c) of the first triple in C order with (a*b)*c != a*(b*c),
    or None when the table is associative.

    Light's test over the generating set of `_generators`: row a passes
    when (a*b)*c = a*(b*c) for all b, c, and rows that pass are closed
    under the product, so every row that is not a generator passes once
    the generators before it have.  The generators come in element order,
    so the first one that fails holds the first offender.
    """
    # row a*b against row a read through row b; only N >= 2 has a
    # generator, so each getter takes two or more items and returns a tuple
    through = [itemgetter(*row) for row in rows]
    for a in _generators(rows, e):
        ra = rows[a]
        for b, through_b in enumerate(through):
            left, right = rows[ra[b]], through_b(ra)
            if left != right:
                return a, b, next(c for c, (x, y) in enumerate(zip(left, right)) if x != y)
    return None
