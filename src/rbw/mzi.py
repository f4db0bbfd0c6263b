"""A Mach-Zehnder interferometer built from spacetime-symmetry operators.

The two-dimensional state space is spanned by the translation eigenkets
|+> and |->.  Every optical element acts as a fixed unitary on that
space:

    translation (phase plate)   T(a) = diag(e^{-i k0 a}, e^{i k0 a})
    reflection (mirror pair)    S(a) with antidiagonal phases e^{-+2i k0 a}
    beam splitter               Q = (I - i S(a0)) / sqrt(2),  a0 = pi/(4 k0)

so an interferometer run is nothing but a product of symmetry operators
applied to |+>.  Detector D1 collects the |+> amplitude and D2 the |->
amplitude throughout; the mirror reflection is tracked as an explicit
operator rather than by relabeling the detectors.

Every entry point checks its inputs before computing anything: k0 must
keep 4 k0 and pi/(4 k0) finite (about 4.37e-309 to 4.49e307, where Q is
the real rotation), and each phase k0 a (2 k0 a for S) must be finite.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import documents
from .errors import MalformedPipeline, NotUnitary
from .tolerance import require

__all__ = [
    "Element",
    "ClickDistribution",
    "PipelineResult",
    "plus_ket",
    "minus_ket",
    "translation_op",
    "reflection_op",
    "reflection_eigenkets",
    "beam_splitter_op",
    "run_pipeline",
    "expectation_T",
    "density_from_sweep",
    "hamiltonian_expectation",
    "sample_clicks",
    "sweep_rows",
    "write_sweep_csv",
    "load_pipeline",
    "pipeline_document",
]

SWEEP_COLUMNS = ("a", "p_D1", "p_D2", "ReT", "ImT")

# the interferometer that sweep_rows walks; a detector would apply nothing
_SWEEP_LAYOUT = ("source", "bs", "mirrors", "phase", "bs")

# rows formatted per write: bounds the memory alive while streaming.  At
# 4096 rows (160 KB per float temporary) the CSV stage ran about 1.5x
# slower than at 2048 on a 2-vCPU x86-64 VM with numpy 2.4.
_CSV_CHUNK_ROWS = 2048

# write_sweep_csv's exact vectorized path: below 10^15 < 2^53 a scaled
# value's spacing is at most 1/8, so its tie margin can hold
_FAST_PRECISIONS = range(1, 16)


class Element(NamedTuple):
    """One optical element; only phase plates carry a parameter."""

    kind: str                  # source | bs | mirrors | phase | detector
    a: float | None = None

    def token(self) -> str:
        return f"phase:{float(self.a)!r}" if self.kind == "phase" else self.kind


class ClickDistribution(NamedTuple):
    p_D1: float
    p_D2: float


class PipelineResult(NamedTuple):
    ket: np.ndarray
    clicks: ClickDistribution
    stages: tuple[tuple[str, np.ndarray], ...]


def _require_wavenumber(k0: float) -> float:
    k0 = float(k0)
    if not (k0 > 0) or not math.isfinite(k0):
        raise ValueError(f"wave number must be finite and positive, got {k0}")
    if not (math.isfinite(4 * k0) and math.isfinite(math.pi / (4 * k0))):
        raise ValueError(f"wave number must lie between about 4.37e-309 and 4.49e307, got {k0}")
    return k0


def plus_ket() -> np.ndarray:
    return np.array([1.0 + 0j, 0.0 + 0j])


# the source ket of every pipeline run, shared and so read-only
_PLUS = plus_ket()
_PLUS.setflags(write=False)


def minus_ket() -> np.ndarray:
    return np.array([0.0 + 0j, 1.0 + 0j])


# ---------------------------------------------------------------- operators

def _translation_phases(a: float | np.ndarray, k0: float) -> np.ndarray:
    """The diagonal (e^{-i k0 a}, e^{i k0 a}) of T(a), for a validated k0:
    shape (2,) for one shift, (2, n) for n of them."""
    return np.array([np.exp(-1j * k0 * a), np.exp(1j * k0 * a)])


def _require_finite_phase(a: float, k0: float, factor: float = 1.0) -> None:
    """Refuse a shift whose phase factor * k0 * a is NaN or infinite, by a
    non-finite a or an overflowing product: its operator would be NaN.  The
    product is a float's, which overflows to inf without a numpy warning."""
    if not math.isfinite(factor * k0 * float(a)):
        raise ValueError(f"phase shift a = {a} at wave number k0 = {k0} "
                         "gives a non-finite phase")


def translation_op(a: float, k0: float) -> np.ndarray:
    k0 = _require_wavenumber(k0)
    _require_finite_phase(a, k0)
    return np.diag(_translation_phases(a, k0))


def reflection_op(a: float, k0: float) -> np.ndarray:
    k0 = _require_wavenumber(k0)
    _require_finite_phase(a, k0, 2.0)
    return np.array([[0.0, np.exp(-2j * k0 * a)],
                     [np.exp(2j * k0 * a), 0.0]])


def reflection_eigenkets(a: float, k0: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenkets of S(a) for eigenvalues +1 and -1, in that order."""
    k0 = _require_wavenumber(k0)
    _require_finite_phase(a, k0)
    up, dn = _translation_phases(a, k0) / np.sqrt(2)
    return np.array([up, dn]), np.array([up, -dn])


def beam_splitter_op(k0: float) -> np.ndarray:
    """Q = (I - i S(a0))/sqrt(2) at the eighth-wavelength offset
    a0 = pi/(4 k0), which collapses to the real rotation
    [[1, -1], [1, 1]]/sqrt(2)."""
    k0 = _require_wavenumber(k0)
    a0 = np.pi / (4 * k0)
    return (np.eye(2) - 1j * reflection_op(a0, k0)) / np.sqrt(2)


@functools.lru_cache(maxsize=8)
def _operators(k0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q, Q^dagger and S(0) for a validated wave number, built once and
    frozen so that every caller can share them."""
    q = beam_splitter_op(k0)
    ops = (q, q.conj().T, reflection_op(0.0, k0))
    for op in ops:
        op.setflags(write=False)
    return ops


def _phase_array(phase_values: Iterable[float], k0: float) -> np.ndarray:
    """The settings as a 1-D float array: an array or a sequence converts in
    one call, and only another iterable is walked element by element."""
    if isinstance(phase_values, (np.ndarray, Sequence)):
        a = np.asarray(phase_values, dtype=float)
        if a.ndim != 1:
            raise ValueError(f"phase settings must be 1-D, got shape {a.shape}")
    else:
        a = np.fromiter(phase_values, dtype=float)
    if not np.isfinite(a).all():
        raise MalformedPipeline("phase plate needs a finite shift, e.g. phase:0.3")
    if a.size:
        # |k0 a| grows with |a|: the largest shift decides for every phase
        _require_finite_phase(a[np.abs(a).argmax()], k0)
    return a


# ----------------------------------------------------------------- pipeline

@functools.lru_cache(maxsize=64)
def _layout(kinds: tuple[str, ...]) -> tuple[int | None, tuple[str, ...]]:
    """Check the order of a pipeline's element kinds; return its phase
    plate's index, or None, and its stage labels, the plate's without its
    shift.  Cached on the kinds: a bad layout raises on every call."""
    known = {"source", "bs", "mirrors", "phase", "detector"}
    for kind in kinds:
        if kind not in known:
            raise MalformedPipeline(f"unknown element {kind!r}")
    if not kinds or kinds[0] != "source":
        raise MalformedPipeline("pipeline must begin with source")
    if kinds[-1] != "detector":
        raise MalformedPipeline("pipeline must end with detector")
    if kinds.count("source") != 1 or kinds.count("detector") != 1:
        raise MalformedPipeline("exactly one source and one detector allowed")
    if kinds.count("bs") > 2:
        raise MalformedPipeline("at most two beam splitters allowed")
    if kinds.count("mirrors") > 1 or kinds.count("phase") > 1:
        raise MalformedPipeline("at most one mirror pair and one phase plate allowed")

    bs_idx = [i for i, k in enumerate(kinds) if k == "bs"]
    for name in ("mirrors", "phase"):
        if name in kinds:
            i = kinds.index(name)
            if not bs_idx or i < bs_idx[0]:
                raise MalformedPipeline(f"{name} must come after the first beam splitter")
            if len(bs_idx) == 2 and i > bs_idx[1]:
                raise MalformedPipeline(f"{name} must come before the second beam splitter")
    labels = tuple(f"bs{bs_idx.index(i) + 1}" if k == "bs" else k for i, k in enumerate(kinds))
    return (kinds.index("phase") if "phase" in kinds else None), labels


def _walk(kinds: Sequence[str], source: np.ndarray, t_diag: np.ndarray | None,
          k0: float) -> list[np.ndarray]:
    """The ket after each element of a checked layout, applied in order to
    source; the phase plate multiplies by t_diag, the diagonal of T(a).  A
    (2, 1) source column with an (n, 2, 1) stack of diagonals makes n runs:
    each element before the plate acts once on the one column, and every
    product rounds as in a run of a (2,) ket."""
    q, q_dag, s0 = _operators(k0)
    ket, kets = source, []
    for kind in kinds:
        if kind == "bs":
            ket = q @ ket
            q = q_dag           # the second splitter closes the interferometer
        elif kind == "mirrors":
            ket = s0 @ ket
        elif kind == "phase":
            # the same bits as translation_op(a, k0) @ ket: its zeros add nothing
            ket = t_diag * ket
        # no copy: every element makes a new ket and none is written in place
        kets.append(ket)
    return kets


def run_pipeline(elements: Sequence[Element], k0: float) -> PipelineResult:
    """Apply the elements in order to |+> and read the detectors.

    The first beam splitter applies Q and the second applies its
    adjoint, closing the interferometer.  Detector probabilities are the
    squared moduli of the final amplitudes, D1 on the |+> component.
    """
    k0 = _require_wavenumber(k0)
    kinds = tuple(e.kind for e in elements)
    phase, labels = _layout(kinds)
    t_diag = None
    # phase values change from call to call, so they are checked outside the cache
    if phase is not None:
        a = elements[phase].a
        if a is None or not math.isfinite(a):
            raise MalformedPipeline("phase plate needs a finite shift, e.g. phase:0.3")
        _require_finite_phase(a, k0)
        t_diag = _translation_phases(a, k0)
        labels = (*labels[:phase], f"phase({a:g})", *labels[phase + 1:])

    kets = _walk(kinds, _PLUS, t_diag, k0)
    ket = kets[-1]
    clicks = ClickDistribution(p_D1=float(abs(ket[0]) ** 2),
                               p_D2=float(abs(ket[1]) ** 2))
    require(abs(clicks.p_D1 + clicks.p_D2 - 1.0), "ket |norm^2 - 1|", NotUnitary)
    return PipelineResult(ket=ket, clicks=clicks, stages=tuple(zip(labels, kets)))


def expectation_T(ket: np.ndarray, a: float, k0: float) -> complex:
    """<ket| T(a) |ket> for a normalized two-component ket."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    if ket.shape != (2,):
        raise ValueError(f"ket must have two components, got {ket.shape}")
    require(abs(np.vdot(ket, ket).real - 1.0), "ket |norm^2 - 1|")
    return complex(np.vdot(ket, translation_op(a, k0) @ ket))


def density_from_sweep(k0: float, phase_values: Iterable[float]) -> np.ndarray:
    """Post-interferometer states diag(cos^2(k0 a), sin^2(k0 a)), stacked
    as an (n, 2, 2) complex array, one per phase-plate setting."""
    k0 = _require_wavenumber(k0)
    ka = k0 * _phase_array(phase_values, k0)
    c, s = np.cos(ka), np.sin(ka)
    rho = np.zeros((ka.size, 2, 2), dtype=complex)
    rho[:, 0, 0] = c * c
    rho[:, 1, 1] = s * s
    return rho


def hamiltonian_expectation(rho: np.ndarray, energy: float) -> float:
    """Tr{rho . E I} = E for any unit-trace state: the energy rides along
    without constraining the interference statistics."""
    # a huge entry makes the trace inf or NaN, and a float product's overflow
    # gives inf with no numpy warning; either fails below
    with np.errstate(over="ignore", invalid="ignore"):
        trace = float(np.trace(np.asarray(rho, dtype=complex)).real)
    value = float(energy) * trace
    if not math.isfinite(value):
        raise ValueError(f"energy E = {energy} gives a non-finite Tr(rho E) = {value}")
    return value


def sample_clicks(clicks: ClickDistribution, shots: int, seed: int = 0) -> tuple[int, int]:
    """Draw Bernoulli detector counts for demonstration output."""
    # the binomial draw takes a 64-bit count
    if not 0 <= shots <= np.iinfo(np.int64).max:
        raise ValueError(f"shots must be between 0 and 2**63 - 1, got {shots}")
    # any size works: the generator hashes the seed's 32-bit words
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    d1 = int(rng.binomial(shots, min(max(clicks.p_D1, 0.0), 1.0)))
    return d1, shots - d1


# -------------------------------------------------------------------- sweep

def sweep_rows(k0: float, phase_values: Iterable[float]) -> np.ndarray:
    """Full-interferometer response per phase setting: detector
    probabilities and the complex translation average at that setting,
    as an (n, 5) float array with columns SWEEP_COLUMNS."""
    k0 = _require_wavenumber(k0)
    a = _phase_array(phase_values, k0)
    t_diag = _translation_phases(a, k0).T[:, :, None]
    ket = _walk(_SWEEP_LAYOUT, _PLUS[:, None], t_diag, k0)[-1]
    clicks = np.abs(ket[:, :, 0]) ** 2
    norm_residual = float(np.abs(clicks.sum(axis=1) - 1.0).max(initial=0.0))
    require(norm_residual, "ket |norm^2 - 1|", NotUnitary)
    t_avg = (ket.conj().swapaxes(1, 2) @ (t_diag * ket))[:, 0, 0]

    return np.column_stack([a, clicks, t_avg.real, t_avg.imag])


def write_sweep_csv(rows, stream, precision: int = 12) -> None:
    """Header plus one line per row, each value as %.{precision}g.

    rows must be an (n, 5) array with columns SWEEP_COLUMNS.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(SWEEP_COLUMNS):
        raise ValueError(
            f"sweep rows must have shape (n, {len(SWEEP_COLUMNS)}), got {rows.shape}")
    line = ",".join([f"%.{precision}g"] * len(SWEEP_COLUMNS)) + "\n"
    stream.write(",".join(SWEEP_COLUMNS) + "\n")
    for start in range(0, len(rows), _CSV_CHUNK_ROWS):
        chunk = rows[start:start + _CSV_CHUNK_ROWS]
        if precision in _FAST_PRECISIONS:
            stream.write(_render_chunk(chunk, precision))
        else:
            stream.write("".join([line % tuple(row) for row in chunk.tolist()]))


# slots are assembled in little-endian words, whatever the machine's order
_WORD = np.dtype("<u8")


@functools.cache
def _render_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables for _render_chunk, built on first use.

    powers    10^0 .. 10^18 as exact floats
    quads     the ASCII digits of 0..9999, zero-padded to four, as words
    trailing  the trailing zero digits of 0..9999 written with four
    keep      keep[k]: the lowest k of 16 bytes set, as two word columns
    dots      dots[k]: "." in byte k-1 of 16 (none for k = 0), likewise
    heads     separator, sign and "0.000" prefix, one word each, indexed
              10 * (not first in row) + 5 * (negative) + leading zeros
    """
    powers = np.array([float(10 ** k) for k in range(19)])
    v = np.arange(10000)[:, None]
    quads = np.zeros((10000, 8), np.uint8)
    quads[:, :4] = v // [1000, 100, 10, 1] % 10 + ord("0")
    trailing = (v % [10, 100, 1000, 10000] == 0).sum(axis=1)
    k = np.arange(17)[:, None]
    keep = np.where(np.arange(16) < k, 0xFF, 0).astype(np.uint8)
    dots = np.where(np.arange(16) == k - 1, ord("."), 0).astype(np.uint8)
    heads = b"".join((sep + sign + zeros).ljust(8, b"\0")
                     for sep in (b"\n", b",") for sign in (b"", b"-")
                     for zeros in (b"", b"0.", b"0.0", b"0.00", b"0.000"))
    return (powers, quads.view(_WORD)[:, 0], trailing,
            keep.view(_WORD).T.copy(), dots.view(_WORD).T.copy(),
            np.frombuffer(heads, _WORD))


def _split(a: np.ndarray, base: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact quotient and remainder of whole floats below 2^53 by base =
    10^k: a quotient that is not whole lies at least 10^-k from the next
    integer, farther than its rounding error, so floor never rounds up."""
    high = np.floor(a / base)
    return high, a - high * base


def _render_chunk(chunk: np.ndarray, p: int) -> str:
    """The CSV lines of an (n, 5) chunk, each value exactly as `%.{p}g`
    formats it, for p in _FAST_PRECISIONS.

    A value x with decimal exponent e and 1e-4 <= |x| < 10^p prints in
    fixed notation: the p digits of m = round(|x| 10^k), k = p-1-e, with
    a point after digit e and trailing fractional zeros dropped.  10^k is
    exact (k <= p+3 <= 18), so y = fl(|x| 10^k) is off by at most
    spacing(y)/2, and m = rint(y) is certified when y lies farther than
    spacing(10^p) >= spacing(y) from a half-integer, so that no tie can
    round the other way.  10^(p-1) <= y and m < 10^p confirm the exponent
    whatever log10 said; m alone would not, as log10 may round up to e+1
    for an x just below 10^(e+1).  Every other value goes to Python's
    formatter: about 0.3% of a sweep's at p = 12, a third at p = 15.

    Each value fills a 24-byte slot: a word of separator, sign and "0."
    prefix, then m's digits zero-padded to 16 bytes, with the point put
    in by shifting the integer digits down one byte into the padding.
    Unused bytes stay NUL and are dropped at the end.
    """
    powers, quads, trailing, keep, dots, heads = _render_tables()
    x = chunk.reshape(-1)
    ax = np.abs(x)
    ok = (ax >= 1e-4) & (ax < powers[p])
    scaled = np.where(ok, ax, 1.0)
    e = np.clip(np.floor(np.log10(scaled)), -4, p - 1).astype(np.intp)
    y = scaled * powers[p - 1 - e]
    m = np.rint(y)
    ok &= (y >= powers[p - 1]) & (m < powers[p])
    ok &= np.abs(y - m) < 0.5 - np.spacing(powers[p])

    # m's 16 zero-padded digits in four-digit groups, most significant first
    groups = []
    for part in _split(np.where(ok, m, powers[p - 1]), powers[8]):
        groups += [g.astype(np.intp) for g in _split(part, powers[4])]
    w1 = quads[groups[0]] | quads[groups[1]] << 32
    w2 = quads[groups[2]] | quads[groups[3]] << 32

    # m's last nonzero digit; a group of four zeros sends the count higher
    zeros = trailing[groups[3]]
    rest = np.flatnonzero(groups[3] == 0)
    for group in groups[2::-1]:
        digits = group[rest]
        zeros[rest] += trailing[digits]
        rest = rest[digits == 0]
    last = p - 1 - zeros
    # digit j sits in byte 16-p+j: drop the padding and trailing fraction zeros
    end = 16 - p + np.maximum(e, last) + 1
    w1 &= keep[0][end] ^ keep[0][16 - p]
    w2 &= keep[1][end] ^ keep[1][16 - p]
    # a point after digit e: bytes up to 16-p+e move down one, "." takes its place
    at = np.where((e >= 0) & (e < last), 16 - p + e + 1, 0)
    low1 = w1 & keep[0][at]
    low2 = w2 & keep[1][at]
    w1 ^= low1 ^ ((low1 >> 8) | (low2 << 56)) ^ dots[0][at]
    w2 ^= low2 ^ (low2 >> 8) ^ dots[1][at]

    slots = np.empty((x.size, 3), _WORD)
    first = np.tile((0,) + (10,) * (chunk.shape[1] - 1), len(chunk))
    slots[:, 0] = heads[first + 5 * (x < 0) + np.clip(-e, 0, 4)]
    slots[:, 1] = w1
    slots[:, 2] = w2
    # byte 0 keeps the separator; the longest fallback, -1.23456789012345e-300, is p+7
    raw = slots.view(np.uint8)
    bad = np.flatnonzero(~ok)
    fmt = f"%.{p}g"
    texts = b"".join([(fmt % v).encode().ljust(raw.shape[1] - 1, b"\0")
                      for v in x[bad].tolist()])
    raw[bad, 1:] = np.frombuffer(texts, np.uint8).reshape(-1, raw.shape[1] - 1)
    # the first separator is a newline that belongs after the last value
    return (raw.tobytes().translate(None, b"\0")[1:] + b"\n").decode("ascii")


# ---------------------------------------------------------------- documents

def load_pipeline(document: Mapping) -> tuple[float, list[Element]]:
    """Parse `{k0: real, elements: ["source","bs","phase:0.3",...]}`."""
    what = "pipeline document"
    doc = documents.checked(document, dict, what)
    k0 = _require_wavenumber(documents.field(doc, "k0", what, float))
    elements = []
    for tok in documents.field(doc, "elements", what, list):
        if documents.checked(tok, str, "element token").startswith("phase:"):
            try:
                elements.append(Element("phase", float(tok.split(":", 1)[1])))
            except ValueError:
                raise MalformedPipeline(f"bad phase token {tok!r}") from None
        else:
            elements.append(Element(tok))
    return k0, elements


def pipeline_document(k0: float, elements: Sequence[Element]) -> dict:
    return {"k0": float(k0), "elements": [e.token() for e in elements]}
