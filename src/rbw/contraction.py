"""Structure-constant engine for the boost-translation algebra and its
nonrelativistic limit.

A table is one antisymmetric int64 array f[deg, a, b, c] = (re, im), the
Gaussian-integer coefficient of eps**deg e_c in [e_a, e_b], eps = 1/c^2.
Generator a is scale[a] * e_a for an exact Fraction scale, applied only
when a coefficient leaves the engine, so the Jacobi identity and the
limit c to infinity are exact integer operations, never float checks.
A bracket value leaves the engine as a Combo of plain exact data, generator ->
{eps degree: (re, im)} with Fraction parts and no zero term or empty generator,
so [K1, K2] == {"J3": {1: (0, -1)}}: builtin dicts and tuples compare by value.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from .errors import MNotCentral, UnknownGenerator

__all__ = [
    "BracketTable",
    "JacobiResult",
    "CCRResult",
    "poincare_table",
    "galilean_table",
    "contract",
    "jacobi_residual",
    "ccr_check",
    "with_flipped_sign",
    "format_poly",
    "format_combo",
    "format_table",
]

Scalar = Union[int, str, Fraction, float]


def _positive_fraction(value: Scalar, name: str) -> Fraction:
    try:
        out = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} must be rational, got {value!r}") from exc
    if out <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return out


# ---------------------------------------------------------- result values

# Linear combinations of generators: label -> {eps degree: (re, im)}.
Combo = dict[str, dict[int, tuple[Fraction, Fraction]]]


def _combo(table: "BracketTable", row: np.ndarray, k: Fraction,
           eps: Fraction | None = None, mass: Fraction | None = None) -> Combo:
    """k * sum_c row[deg, c] eps**deg e_c over generators g_c = scale[c] e_c,
    exactly; evaluated at eps when given, and with M read as m I when
    mass is given."""
    acc: Combo = {}
    for d, column in enumerate(row.tolist()):
        for c, (re, im) in enumerate(column):
            if re or im:
                g, w = table.generators[c], k / table.scale[c]
                if mass is not None and g == "M":
                    g, w = "I", w * mass
                w, at = (w, d) if eps is None else (w * eps ** d, 0)
                old_re, old_im = acc.setdefault(g, {}).get(at, (0, 0))
                acc[g][at] = (old_re + w * re, old_im + w * im)
    polys = {g: {d: z for d, z in terms.items() if any(z)} for g, terms in acc.items()}
    return {g: p for g, p in polys.items() if p}


# -------------------------------------------------------------------- table

@dataclass(frozen=True, eq=False)
class BracketTable:
    """Antisymmetric bracket over named generators: `f` as in the module
    docstring, `generators[a]` = `scale[a]` e_a (scale 1 unless given).
    The array is copied read-only and must be antisymmetric and small
    enough for every Jacobi sum to stay exact in int64."""

    name: str
    generators: tuple[str, ...]
    f: np.ndarray
    scale: tuple[Fraction, ...] = ()

    def __post_init__(self):
        n = len(self.generators)
        f = np.array(self.f)
        if f.dtype != np.int64 or f.ndim != 5 or f.shape[1:] != (n, n, n, 2) or not f.size:
            raise ValueError(f"structure constants must be int64 of shape "
                             f"(degrees, {n}, {n}, {n}, 2), got {f.dtype} {f.shape}")
        if len(set(self.generators)) != n:
            raise ValueError(f"generator names repeat: {self.generators}")
        scale = tuple(Fraction(s) for s in self.scale) or (Fraction(1),) * n
        if len(scale) != n or not all(scale):
            raise ValueError(f"need {n} nonzero generator scales, got {self.scale}")
        if not np.array_equal(f, -f.swapaxes(1, 2)):
            raise ValueError("structure constants are not antisymmetric")
        # a Jacobi sum adds 3 cyclic terms x len(f) degree pairs x n
        # two-term Gaussian products
        bound = math.isqrt((2 ** 63 - 1) // (6 * n * len(f)))
        if ((f > bound) | (f < -bound)).any():
            raise ValueError(f"structure constants exceed {bound}, past which "
                             "the Jacobi sums would not stay exact in int64")
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "scale", scale)

    def index(self, g: str) -> int:
        try:
            return self.generators.index(g)
        except ValueError:
            raise UnknownGenerator(g) from None

    def bracket(self, x: str, y: str) -> Combo:
        """[x, y] as a linear combination of the table's generators."""
        a, b = self.index(x), self.index(y)
        return _combo(self, self.f[:, a, b], self.scale[a] * self.scale[b])


_LEVI = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
         (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1}

GENERATORS = ("J1", "J2", "J3", "K1", "K2", "K3", "T1", "T2", "T3", "T0")


def poincare_table() -> BracketTable:
    """Rotations J, boosts K, space translations T, time translation T0,
    with every 1/c^2 dependence kept symbolic."""
    at = {g: i for i, g in enumerate(GENERATORS)}
    f = np.zeros((2, 10, 10, 10, 2), np.int64)

    def put(deg: int, a: str, b: str, c: str, im: int) -> None:
        """[a, b] = i * im * eps**deg c, and [b, a] its negative."""
        f[deg, at[a], at[b], at[c], 1] = im
        f[deg, at[b], at[a], at[c], 1] = -im

    for (i, n, k), sign in _LEVI.items():
        put(0, f"J{i}", f"J{n}", f"J{k}", sign)
        put(0, f"J{i}", f"K{n}", f"K{k}", sign)
        put(0, f"J{i}", f"T{n}", f"T{k}", sign)
        put(1, f"K{i}", f"K{n}", f"J{k}", -sign)
    for n in (1, 2, 3):
        put(0, "T0", f"K{n}", f"T{n}", 1)
        put(1, f"T{n}", f"K{n}", "T0", 1)
    return BracketTable("poincare", GENERATORS, f)


def galilean_table() -> BracketTable:
    """The same algebra with every 1/c^2-suppressed term deleted up front
    (its degree-0 slice): boosts commute with each other and with space
    translations."""
    base = poincare_table()
    return BracketTable("galilean", base.generators, base.f[:1])


def with_flipped_sign(table: BracketTable, x: str, y: str) -> BracketTable:
    """Copy of the table with one bracket negated; breaks Jacobi, which
    makes it a negative control for the residual check."""
    a, b = table.index(x), table.index(y)
    if not table.f[:, a, b].any():
        x, y = (y, x) if a > b else (x, y)
        raise UnknownGenerator(f"no stored bracket for ({x}, {y})")
    f = table.f.copy()
    f[:, [a, b], [b, a]] *= -1
    return BracketTable(f"{table.name}-flipped", table.generators, f, table.scale)


# -------------------------------------------------------------- contraction

def contract(table: BracketTable, hbar: Scalar, m: Scalar) -> BracketTable:
    """Nonrelativistic limit: rescale T0 into M = hbar*eps*T0, which moves
    the coefficient of e_c in [e_a, e_b] by eps**(p_a + p_b - p_c) with
    p = 1 on T0 only, and keep the degree-0 slice (a negative degree
    diverges).  M comes out central; the central element I rides along as
    an explicit generator so later products stay inside the algebra."""
    hb = _positive_fraction(hbar, "hbar")
    _positive_fraction(m, "m")
    n = len(table.generators)
    p = (np.arange(n) == table.index("T0")).astype(np.int64)
    shift = p[:, None, None] + p[None, :, None] - p[None, None, :]
    degree = np.arange(len(table.f))[:, None, None, None] + shift
    diverging = np.argwhere(table.f.any(axis=-1) & (degree < 0))
    if len(diverging):
        a, b, c = (table.generators[i] for i in diverging[0][1:])
        raise ValueError(f"[{a},{b}] diverges as eps -> 0 through its {c} term")

    f = np.zeros((1, n + 1, n + 1, n + 1, 2), np.int64)
    f[0, :n, :n, :n] = np.where((degree == 0)[..., None], table.f, 0).sum(axis=0)
    generators = tuple("M" if g == "T0" else g for g in table.generators) + ("I",)
    scale = tuple(s * hb if g == "T0" else s
                  for g, s in zip(table.generators, table.scale)) + (Fraction(1),)
    return BracketTable("contracted", generators, f, scale)


# -------------------------------------------------------------------- checks

@dataclass(frozen=True)
class JacobiResult:
    residual: float
    worst_triple: tuple[str, str, str] | None = None
    worst_combo: Combo = field(default_factory=dict)


def jacobi_residual(table: BracketTable) -> JacobiResult:
    """Largest coefficient magnitude of [x,[y,z]] + [y,[z,x]] + [z,[x,y]]
    over all generator triples, computed exactly; 0 means Lie algebra.
    One batched product gives sum_b f[y,z,b] f[x,b,a] = [x,[y,z]]; its
    three cyclic rotations are gathered per ordered triple and summed over
    degree pairs."""
    f, n, nd = table.f, len(table.generators), len(table.f)
    # each f[d2, x, b, a] as the 2x2 integer block that multiplies (re, im)
    re, im = f[..., 0], f[..., 1]
    block = np.stack([np.stack([re, -im], -1), np.stack([im, re], -1)], -2)
    left = f.reshape(nd * n * n, 2 * n)                            # (d1 y z) x (b l)
    right = block.transpose(2, 5, 0, 1, 3, 4).reshape(2 * n, -1)   # (b l) x (d2 x a k)
    rows, cols = np.flatnonzero(left.any(axis=1)), np.flatnonzero(right.any(axis=0))
    nested = np.zeros((len(left), right.shape[1]), np.int64)       # f is sparse
    nested[np.ix_(rows, cols)] = left[rows] @ right[:, cols]
    nested = nested.reshape(nd, n, n, nd, n, n, 2)      # [x,[y,z]] at [d1, y, z, d2, x]

    triples = list(itertools.combinations(range(n), 3))
    x, y, z = np.array(triples, dtype=np.intp).reshape(-1, 3).T
    jac = np.zeros((2 * nd - 1, len(triples), n, 2), np.int64)
    for d1, d2 in itertools.product(range(nd), repeat=2):
        jac[d1 + d2] += (nested[d1, y, z, d2, x] + nested[d1, z, x, d2, y]
                         + nested[d1, x, y, d2, z])

    s, worst = table.scale, JacobiResult(residual=0.0)
    for t in np.flatnonzero(jac.any(axis=(0, 2, 3))).tolist():
        x, y, z = triples[t]
        combo = _combo(table, jac[:, t], s[x] * s[y] * s[z])
        mag = max(math.hypot(re, im) for p in combo.values() for re, im in p.values())
        if mag > worst.residual:
            names = (table.generators[x], table.generators[y], table.generators[z])
            worst = JacobiResult(mag, names, combo)
    return worst


@dataclass(frozen=True)
class CCRResult:
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

    if "M" in table.generators:
        moving = np.flatnonzero(table.f[:, table.index("M")].any(axis=(0, 2, 3)))
        if len(moving):
            g = table.generators[moving[0]]
            raise MNotCentral(f"[M, {g}] = {format_combo(table.bracket('M', g))}")

    def block(x: str, y: str, k: Fraction) -> dict[tuple[int, int], Combo]:
        """[k x_i, y_n] for i, n in 1..3, with M read as m I."""
        at = {(i, n): (table.index(f"{x}{i}"), table.index(f"{y}{n}"))
              for i in (1, 2, 3) for n in (1, 2, 3)}
        s = table.scale
        return {key: _combo(table, table.f[:, a, b], k * s[a] * s[b], mass=mass)
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
    for a, b in np.argwhere(np.triu(table.f.any(axis=(0, 3, 4)))).tolist():
        combo = _combo(table, table.f[:, a, b], table.scale[a] * table.scale[b], eps)
        lines.append(f"[{table.generators[a]},{table.generators[b]}] = {format_combo(combo)}")
    return "\n".join(lines)
