"""Structure-constant engine for the boost-translation algebra and its
nonrelativistic limit.

A table holds only its nonzero terms, (a, b) -> {(deg, c): (re, im)}: plain-int
Gaussian-integer coefficients of eps**deg e_c in [e_a, e_b], eps = 1/c^2, with
[e_b, e_a] stored as the negative.  Generator a is scale[a] * e_a for an exact
Fraction scale, applied only when a coefficient leaves the engine, so the Jacobi
identity and the limit c to infinity are exact integer operations.  A bracket
value leaves as a Combo of plain exact data, generator -> {eps degree: (re, im)}
with Fraction parts and no zero term, so [K1, K2] == {"J3": {1: (0, -1)}}.

The limit is an Inonu-Wigner contraction: T0 is rescaled into the mass
generator M = hbar*eps*T0 and the degree-0 slice is kept.  Momentum
P_i = hbar*T_i against position Q_n = -(hbar/m)*K_n then closes on the
central element, [P_i, Q_n] = -i*hbar*delta_in*I (the Bargmann extension),
while the algebra with the 1/c^2 terms deleted up front gives no such pair.

Note on signs: with [T0,K_n] = i T_n and [K_i,K_n] = -(i/c^2) J_k, the
Jacobi identity on (T_i, K_i, K_n) forces [T_i, K_n] = +(i/c^2)
delta_in T0, and the contracted [T_i, K_n] = +(i/hbar) delta_in M is
exactly what the -i*hbar*delta_in*I commutator requires.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from numbers import Integral
from typing import Mapping, NamedTuple, Union

from .errors import MNotCentral, UnknownGenerator

__all__ = ["BracketTable", "JacobiResult", "CCRResult", "poincare_table", "galilean_table",
           "contract", "jacobi_residual", "ccr_check", "with_flipped_sign",
           "format_poly", "format_combo", "format_table"]

Scalar = Union[int, str, Fraction, float]
# A bracket's terms (eps degree, c) -> (re, im) in ints, a table's (a, b) -> the
# terms of [e_a, e_b], and a combination label -> {eps degree: (re, im)} in Fractions.
Terms = dict[tuple[int, int], tuple[int, int]]
Table = dict[tuple[int, int], Terms]
Combo = dict[str, dict[int, tuple[Fraction, Fraction]]]


def _positive_fraction(value: Scalar, name: str) -> Fraction:
    try:
        out = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{name} must be rational, got {value!r}") from exc
    if out <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return out


def _combo(table: "BracketTable", terms: Terms, k: Fraction,
           eps: Fraction | None = None, mass: Fraction | None = None) -> Combo:
    """k * sum terms[deg, c] eps**deg e_c over generators g_c = scale[c] e_c, exactly;
    evaluated at eps when given, and with M read as m I when mass is given."""
    acc: Combo = {}
    for (d, c), (re, im) in terms.items():
        g, w = table.generators[c], k / table.scale[c]
        if mass is not None and g == "M":
            g, w = "I", w * mass
        w, at = (w, d) if eps is None else (w * eps ** d, 0)
        old_re, old_im = acc.setdefault(g, {}).get(at, (0, 0))
        acc[g][at] = (old_re + w * re, old_im + w * im)
    return {g: p for g, poly in acc.items() if (p := {d: z for d, z in poly.items() if any(z)})}


# -------------------------------------------------------------------- table

def _dense_terms(f, n: int) -> tuple[Table, int]:
    """The nonzero terms of a dense f[deg][a][b][c] = (re, im), and its
    number of degrees; bools and floats are refused, not rounded."""
    f = f.tolist() if hasattr(f, "tolist") else f
    flat, degrees = [f], (len(f) if isinstance(f, Sequence) else 0)
    for size in (degrees, n, n, n, 2):
        if not size or not all(isinstance(x, Sequence) and len(x) == size for x in flat):
            raise ValueError(f"structure constants must have shape (degrees, {n}, {n}, {n}, 2)")
        flat = [v for x in flat for v in x]
    if bad := [v for v in flat if isinstance(v, bool) or not isinstance(v, Integral)]:
        raise ValueError(f"structure constants must be integers, got {bad[0]!r}")
    table: Table = {}
    cells = itertools.product(range(degrees), *[range(n)] * 3)
    for (d, a, b, c), re, im in zip(cells, flat[::2], flat[1::2]):
        if re or im:
            table.setdefault((a, b), {})[d, c] = (int(re), int(im))
    return table, degrees


class BracketTable:
    """Antisymmetric bracket over named generators, `generators[a]` = `scale[a]` e_a
    (scale 1 unless given).  `f` holds the terms densely, f[deg, a, b, c] = (re, im),
    as an int64 array or nested sequence of ints, antisymmetric and small enough for
    every Jacobi sum to fit int64; `table.f` gives it back as a read-only int64 array."""

    def __new__(cls, name: str, generators: Sequence[str], f, scale: Sequence[Scalar] = ()):
        table = cls._of(name, generators, *_dense_terms(f, len(generators)), scale)
        if any(table._terms.get((b, a)) != {k: (-re, -im) for k, (re, im) in t.items()}
               for (a, b), t in table._terms.items()):
            raise ValueError("structure constants are not antisymmetric")
        return table

    @classmethod
    def _of(cls, name: str, generators: Sequence[str], terms: Table, degrees: int,
            scale: Sequence[Scalar] = ()) -> "BracketTable":
        """A table straight from antisymmetric terms, with no dense pass."""
        n = len(generators)
        if len(set(generators)) != n:
            raise ValueError(f"generator names repeat: {generators}")
        exact = tuple(Fraction(s) for s in scale) or (Fraction(1),) * n
        if len(exact) != n or not all(exact):
            raise ValueError(f"need {n} nonzero generator scales, got {scale}")
        # a Jacobi sum adds 3 x degrees x n two-term products; keep it inside int64
        bound = math.isqrt((2 ** 63 - 1) // (6 * n * degrees))
        if any(abs(v) > bound for t in terms.values() for z in t.values() for v in z):
            raise ValueError(f"structure constants exceed {bound}, past which "
                             "the Jacobi sums would not stay exact in int64")
        table = super().__new__(cls)
        table.name, table.generators, table.scale = name, tuple(generators), exact
        table._terms, table._degrees = {k: t for k, t in terms.items() if t}, degrees
        return table

    def __reduce__(self):             # copy and pickle rebuild from the terms
        return self._of, (self.name, self.generators, self._terms, self._degrees, self.scale)

    @cached_property
    def f(self):
        """The terms as a read-only int64 array f[deg, a, b, c] = (re, im)."""
        import numpy as np
        f = np.zeros((self._degrees, *[len(self.generators)] * 3, 2), np.int64)
        for (a, b), terms in self._terms.items():
            for (d, c), z in terms.items():
                f[d, a, b, c] = z
        f.setflags(write=False)
        return f

    def index(self, g: str) -> int:
        try:
            return self.generators.index(g)
        except ValueError:
            raise UnknownGenerator(f"{g!r} is not a generator of the {self.name} table") from None

    def bracket(self, x: str, y: str) -> Combo:
        """[x, y] as a linear combination of the table's generators."""
        a, b = self.index(x), self.index(y)
        return _combo(self, self._terms.get((a, b), {}), self.scale[a] * self.scale[b])


_LEVI = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
         (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1}
GENERATORS = ("J1", "J2", "J3", "K1", "K2", "K3", "T1", "T2", "T3", "T0")


def poincare_table() -> BracketTable:
    """Rotations J, boosts K, space translations T, time translation T0,
    with every 1/c^2 dependence kept symbolic."""
    at = {g: i for i, g in enumerate(GENERATORS)}
    terms: Table = {}

    def put(deg: int, a: str, b: str, c: str, im: int) -> None:
        """[a, b] = i * im * eps**deg c, and [b, a] its negative."""
        terms.setdefault((at[a], at[b]), {})[deg, at[c]] = (0, im)
        terms.setdefault((at[b], at[a]), {})[deg, at[c]] = (0, -im)

    for (i, n, k), sign in _LEVI.items():
        put(0, f"J{i}", f"J{n}", f"J{k}", sign)
        put(0, f"J{i}", f"K{n}", f"K{k}", sign)
        put(0, f"J{i}", f"T{n}", f"T{k}", sign)
        put(1, f"K{i}", f"K{n}", f"J{k}", -sign)
    for n in (1, 2, 3):
        put(0, "T0", f"K{n}", f"T{n}", 1)
        put(1, f"T{n}", f"K{n}", "T0", 1)
    return BracketTable._of("poincare", GENERATORS, terms, 2)


def galilean_table() -> BracketTable:
    """The same algebra with every 1/c^2-suppressed term deleted up front (its
    degree-0 slice): boosts commute with each other and with space translations."""
    terms = {key: {dc: z for dc, z in t.items() if dc[0] == 0}
             for key, t in poincare_table()._terms.items()}
    return BracketTable._of("galilean", GENERATORS, terms, 1)


def with_flipped_sign(table: BracketTable, x: str, y: str) -> BracketTable:
    """Copy of the table with one bracket negated, so its two antisymmetric entries
    swap places; breaks Jacobi, which makes it a negative control for the residual check."""
    a, b = table.index(x), table.index(y)
    if (a, b) not in table._terms:
        x, y = (y, x) if a > b else (x, y)
        raise UnknownGenerator(f"no stored bracket for ({x}, {y})")
    terms = {**table._terms, (a, b): table._terms[b, a], (b, a): table._terms[a, b]}
    return BracketTable._of(f"{table.name}-flipped", table.generators, terms,
                            table._degrees, table.scale)


# -------------------------------------------------------------- contraction

def contract(table: BracketTable, hbar: Scalar, m: Scalar) -> BracketTable:
    """Nonrelativistic limit: rescale T0 into M = hbar*eps*T0, which moves the coefficient
    of e_c in [e_a, e_b] by eps**(p_a + p_b - p_c) with p = 1 on T0 only, and keep the
    degree-0 slice (a negative degree diverges).  M comes out central; the central element
    I rides along as an explicit generator so later products stay inside the algebra."""
    hb = _positive_fraction(hbar, "hbar")
    _positive_fraction(m, "m")
    t0 = table.index("T0")
    p = [int(i == t0) for i in range(len(table.generators))]
    diverging = [(d, a, b, c) for (a, b), terms in table._terms.items()
                 for d, c in terms if d + p[a] + p[b] - p[c] < 0]
    if diverging:
        a, b, c = (table.generators[i] for i in min(diverging)[1:])
        raise ValueError(f"[{a},{b}] diverges as eps -> 0 through its {c} term")
    generators = tuple("M" if g == "T0" else g for g in table.generators) + ("I",)
    scale = tuple(s * hb if g == "T0" else s
                  for g, s in zip(table.generators, table.scale)) + (Fraction(1),)
    terms = {(a, b): {(0, c): z for (d, c), z in t.items() if d + p[a] + p[b] - p[c] == 0}
             for (a, b), t in table._terms.items()}
    return BracketTable._of("contracted", generators, terms, 1, scale)


# -------------------------------------------------------------------- checks

class JacobiResult(NamedTuple):
    residual: float
    worst_triple: tuple[str, str, str] | None
    worst_combo: Combo


def jacobi_residual(table: BracketTable) -> JacobiResult:
    """Largest coefficient magnitude of [x,[y,z]] + [y,[z,x]] + [z,[x,y]] over all
    generator triples, first in combinations order, computed exactly; 0 means Lie
    algebra.  Each nested [u,[v,w]] sums the stored products f[v,w,b] f[u,b,a]."""
    terms, s, worst = table._terms, table.scale, JacobiResult(0.0, None, {})
    partners: dict[int, list[int]] = {}             # b -> each u with [u, b] stored
    for u, b in terms:
        partners.setdefault(b, []).append(u)
    sums: dict[tuple[int, int, int], Terms] = {}
    for (v, w), inner in terms.items():
        for (d1, b), (re1, im1) in inner.items():
            for u in partners.get(b, ()):
                if u < v < w or v < w < u or w < u < v:     # a cyclic turn of x < y < z
                    jac = sums.setdefault(tuple(sorted((u, v, w))), {})
                    for (d2, a), (re2, im2) in terms[u, b].items():
                        re, im = jac.get((d1 + d2, a), (0, 0))
                        jac[d1 + d2, a] = (re + re1 * re2 - im1 * im2, im + re1 * im2 + im1 * re2)
    for x, y, z in sorted(sums):
        if jac := {key: val for key, val in sums[x, y, z].items() if any(val)}:
            combo = _combo(table, jac, s[x] * s[y] * s[z])
            mag = max(math.hypot(*coeff) for poly in combo.values() for coeff in poly.values())
            if mag > worst.residual:
                worst = JacobiResult(mag, tuple(table.generators[i] for i in (x, y, z)), combo)
    return worst


class CCRResult(NamedTuple):
    """Brackets of P_i = hbar T_i and Q_n = -(hbar/m) K_n, with any
    mass generator already rewritten as m I."""

    pq: Mapping[tuple[int, int], Combo]
    pp: Mapping[tuple[int, int], Combo]
    qq: Mapping[tuple[int, int], Combo]
    hbar: Fraction
    mass: Fraction
    verdict: str                      # "CCR RECOVERED" | "NO CCR" | "ANOMALOUS"


def ccr_check(table: BracketTable, hbar: Scalar = 1, m: Scalar = 1) -> CCRResult:
    """Test whether momentum against position closes on the identity.

    Works on any table holding T and K generators.  If a mass generator
    M is present it must be central (else MNotCentral) and is replaced
    by m I in the results.
    """
    hb = _positive_fraction(hbar, "hbar")
    mass = _positive_fraction(m, "m")
    mi = table.index("M") if "M" in table.generators else None
    if moving := sorted(b for a, b in table._terms if a == mi):
        g = table.generators[moving[0]]
        raise MNotCentral(f"[M, {g}] = {format_combo(table.bracket('M', g))}")

    def block(x: str, y: str, k: Fraction) -> dict[tuple[int, int], Combo]:
        """[k x_i, y_n] for i, n in 1..3, with M read as m I."""
        at = {(i, n): (table.index(f"{x}{i}"), table.index(f"{y}{n}"))
              for i in (1, 2, 3) for n in (1, 2, 3)}
        s = table.scale
        return {key: _combo(table, table._terms.get((a, b), {}), k * s[a] * s[b], mass=mass)
                for key, (a, b) in at.items()}

    pq = block("T", "K", -hb * hb / mass)
    pp = block("T", "T", hb * hb)
    qq = block("K", "K", hb * hb / (mass * mass))

    target = {"I": {0: (0, -hb)}}
    if (pq == {(i, n): target if i == n else {} for i, n in pq}
            and not any(pp.values()) and not any(qq.values())):
        verdict = "CCR RECOVERED"
    elif all(not pq[k] and not pp[k] and not qq[k] for k in pq):
        verdict = "NO CCR"
    else:
        verdict = "ANOMALOUS"
    return CCRResult(pq=pq, pp=pp, qq=qq, hbar=hb, mass=mass, verdict=verdict)


# ---------------------------------------------------------------- rendering

def _format_coeff(re: Fraction, im: Fraction) -> str:
    """An exact complex number: 3/4, -i, -3i, (1/4)i, (1+(1/4)i)."""
    if im == 0:
        return str(re)
    if im == 1:
        imag = "i"
    elif im == -1:
        imag = "-i"
    elif im.denominator == 1:
        imag = f"{im}i"
    else:
        imag = f"({im})i"
    if re == 0:
        return imag
    sign = "+" if im > 0 else ""
    return f"({re}{sign}{imag})"


def format_poly(poly: Mapping[int, tuple[Fraction, Fraction]]) -> str:
    """One generator's coefficient polynomial in eps = 1/c^2, e.g. 1 + i/c^2."""
    parts = [_format_coeff(*z) if d == 0 else f"{_format_coeff(*z)}/c^{2 * d}"
             for d, z in sorted(poly.items())]
    return " + ".join(parts) or "0"


def format_combo(combo: Combo) -> str:
    parts = [f"({format_poly(p)}) {g}" if len(p) > 1 else f"{format_poly(p)} {g}"
             for g, p in sorted(combo.items())]
    return " + ".join(parts) or "0"


def format_table(table: BracketTable, c: Scalar | None = None) -> str:
    """Human-readable nonzero brackets; pass c to evaluate eps = 1/c^2."""
    lines = [f"# {table.name} ({len(table.generators)} generators)"]
    eps = None if c is None else 1 / _positive_fraction(c, "c") ** 2
    for a, b in sorted(key for key in table._terms if key[0] < key[1]):
        combo = _combo(table, table._terms[a, b], table.scale[a] * table.scale[b], eps)
        lines.append(f"[{table.generators[a]},{table.generators[b]}] = {format_combo(combo)}")
    return "\n".join(lines)
