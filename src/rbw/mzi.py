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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import documents
from .errors import MalformedPipeline
from .tolerance import resolve

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

# rows formatted per write: bounds the Python objects alive while streaming
_CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class Element:
    """One optical element; only phase plates carry a parameter."""

    kind: str                  # source | bs | mirrors | phase | detector
    a: float | None = None

    def token(self) -> str:
        return f"phase:{float(self.a)!r}" if self.kind == "phase" else self.kind


@dataclass(frozen=True)
class ClickDistribution:
    p_D1: float
    p_D2: float


@dataclass(frozen=True)
class PipelineResult:
    ket: np.ndarray
    clicks: ClickDistribution
    stages: tuple[tuple[str, np.ndarray], ...]


def _require_wavenumber(k0: float) -> float:
    k0 = float(k0)
    if not (k0 > 0) or not math.isfinite(k0):
        raise ValueError(f"wave number must be finite and positive, got {k0}")
    return k0


def plus_ket() -> np.ndarray:
    return np.array([1.0 + 0j, 0.0 + 0j])


# the source ket of every pipeline run, shared and so read-only
_PLUS = plus_ket()
_PLUS.setflags(write=False)


def minus_ket() -> np.ndarray:
    return np.array([0.0 + 0j, 1.0 + 0j])


# ---------------------------------------------------------------- operators

def _translation_phases(a: float, k0: float) -> np.ndarray:
    """The diagonal (e^{-i k0 a}, e^{i k0 a}) of T(a), for a validated k0."""
    return np.array([np.exp(-1j * k0 * a), np.exp(1j * k0 * a)])


def translation_op(a: float, k0: float) -> np.ndarray:
    k0 = _require_wavenumber(k0)
    return np.diag(_translation_phases(a, k0))


def reflection_op(a: float, k0: float) -> np.ndarray:
    k0 = _require_wavenumber(k0)
    return np.array([[0.0, np.exp(-2j * k0 * a)],
                     [np.exp(2j * k0 * a), 0.0]])


def reflection_eigenkets(a: float, k0: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenkets of S(a) for eigenvalues +1 and -1, in that order."""
    k0 = _require_wavenumber(k0)
    up = np.exp(-1j * k0 * a) / np.sqrt(2)
    dn = np.exp(1j * k0 * a) / np.sqrt(2)
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


def _phase_array(phase_values: Iterable[float]) -> np.ndarray:
    a = np.fromiter(phase_values, dtype=float)
    if not np.isfinite(a).all():
        raise MalformedPipeline("phase plate needs a finite shift, e.g. phase:0.3")
    return a


def _require_unit_norm(norm2: np.ndarray, tol: float | None) -> None:
    """Fail unless every squared norm is within tol of one; NaN fails."""
    bad = ~(np.abs(norm2 - 1.0) <= resolve(tol))
    if bad.any():
        raise ValueError(f"ket norm^2 = {float(norm2[bad][0]):.6g}, expected 1")


# ----------------------------------------------------------------- pipeline

@functools.lru_cache(maxsize=64)
def _layout(kinds: tuple[str, ...]) -> int | None:
    """Check the order of a pipeline's element kinds; return the index of
    its phase plate, or None.  Cached on the kinds: a bad layout raises and
    is never cached, so it raises on every call."""
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
    return kinds.index("phase") if "phase" in kinds else None


def _validate_pipeline(elements: Sequence[Element]) -> None:
    phase = _layout(tuple(e.kind for e in elements))
    # phase values change from call to call, so they are checked outside the cache
    if phase is not None:
        a = elements[phase].a
        if a is None or not math.isfinite(a):
            raise MalformedPipeline("phase plate needs a finite shift, e.g. phase:0.3")


def run_pipeline(elements: Sequence[Element], k0: float) -> PipelineResult:
    """Apply the elements in order to |+> and read the detectors.

    The first beam splitter applies Q and the second applies its
    adjoint, closing the interferometer.  Detector probabilities are the
    squared moduli of the final amplitudes, D1 on the |+> component.
    """
    k0 = _require_wavenumber(k0)
    _validate_pipeline(elements)

    q, q_dag, s0 = _operators(k0)
    stages: list[tuple[str, np.ndarray]] = []
    bs_seen = 0
    for e in elements:
        if e.kind == "source":
            ket = _PLUS
            label = "source"
        elif e.kind == "bs":
            bs_seen += 1
            ket = (q if bs_seen == 1 else q_dag) @ ket
            label = f"bs{bs_seen}"
        elif e.kind == "mirrors":
            ket = s0 @ ket
            label = "mirrors"
        elif e.kind == "phase":
            # the same bits as translation_op(e.a, k0) @ ket: its zeros add nothing
            ket = _translation_phases(e.a, k0) * ket
            label = f"phase({e.a:g})"
        else:
            label = "detector"
        # no copy: every stage makes a new ket and none is written in place
        stages.append((label, ket))

    clicks = ClickDistribution(p_D1=float(abs(ket[0]) ** 2),
                               p_D2=float(abs(ket[1]) ** 2))
    # scalar twin of _require_unit_norm: k0 * a may overflow into a NaN ket
    norm2 = clicks.p_D1 + clicks.p_D2
    if not (abs(norm2 - 1.0) <= resolve(None)):
        raise ValueError(f"ket norm^2 = {norm2:.6g}, expected 1")
    return PipelineResult(ket=ket, clicks=clicks, stages=tuple(stages))


def expectation_T(ket: np.ndarray, a: float, k0: float,
                  tol: float | None = None) -> complex:
    """<ket| T(a) |ket> for a normalized two-component ket."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    if ket.shape != (2,):
        raise ValueError(f"ket must have two components, got {ket.shape}")
    _require_unit_norm(np.array([np.vdot(ket, ket).real]), tol)
    return complex(np.vdot(ket, translation_op(a, k0) @ ket))


def density_from_sweep(k0: float, phase_values: Iterable[float]) -> np.ndarray:
    """Post-interferometer states diag(cos^2(k0 a), sin^2(k0 a)), stacked
    as an (n, 2, 2) complex array, one per phase-plate setting."""
    k0 = _require_wavenumber(k0)
    a = _phase_array(phase_values)
    c, s = np.cos(k0 * a), np.sin(k0 * a)
    rho = np.zeros((a.size, 2, 2), dtype=complex)
    rho[:, 0, 0] = c * c
    rho[:, 1, 1] = s * s
    return rho


def hamiltonian_expectation(rho: np.ndarray, energy: float) -> float:
    """Tr{rho . E I} = E for any unit-trace state: the energy rides along
    without constraining the interference statistics."""
    rho = np.asarray(rho, dtype=complex)
    return float(energy * np.trace(rho).real)


def sample_clicks(clicks: ClickDistribution, shots: int, seed: int = 0) -> tuple[int, int]:
    """Draw Bernoulli detector counts for demonstration output."""
    # the binomial draw takes a 64-bit count
    if not 0 <= shots <= np.iinfo(np.int64).max:
        raise ValueError(f"shots must be between 0 and 2**63 - 1, got {shots}")
    rng = np.random.default_rng(seed)
    d1 = int(rng.binomial(shots, min(max(clicks.p_D1, 0.0), 1.0)))
    return d1, shots - d1


# -------------------------------------------------------------------- sweep

def sweep_rows(k0: float, phase_values: Iterable[float]) -> np.ndarray:
    """Full-interferometer response per phase setting: detector
    probabilities and the complex translation average at that setting.

    Returns an (n, 5) float array with columns SWEEP_COLUMNS.  Only T(a)
    depends on the phase, so S(0) Q |+> is formed once and every setting
    costs one diagonal product and one Q^dagger product.
    """
    k0 = _require_wavenumber(k0)
    a = _phase_array(phase_values)
    q, q_dag, s0 = _operators(k0)
    arm = s0 @ (q @ plus_ket())
    # k0 a may overflow; the norm check below rejects the non-finite kets
    with np.errstate(over="ignore", invalid="ignore"):
        # (n, 2, 1) column kets: each stacked product rounds as in run_pipeline
        t_diag = np.stack([np.exp(-1j * k0 * a), np.exp(1j * k0 * a)],
                          axis=1)[:, :, None]
        ket = q_dag @ (t_diag * arm[:, None])
    clicks = np.abs(ket[:, :, 0]) ** 2
    _require_unit_norm(clicks.sum(axis=1), None)
    t_avg = (ket.conj().swapaxes(1, 2) @ (t_diag * ket))[:, 0, 0]

    rows = np.empty((a.size, len(SWEEP_COLUMNS)))
    rows[:, 0] = a
    rows[:, 1:3] = clicks
    rows[:, 3] = t_avg.real
    rows[:, 4] = t_avg.imag
    return rows


def write_sweep_csv(rows, stream, precision: int = 12) -> None:
    """Header plus one line per row, each value as %.{precision}g."""
    rows = np.asarray(rows, dtype=float).reshape(-1, len(SWEEP_COLUMNS))
    line = ",".join([f"%.{precision}g"] * len(SWEEP_COLUMNS)) + "\n"
    stream.write(",".join(SWEEP_COLUMNS) + "\n")
    for start in range(0, len(rows), _CSV_CHUNK_ROWS):
        chunk = rows[start:start + _CSV_CHUNK_ROWS].tolist()
        stream.write("".join([line % tuple(row) for row in chunk]))


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
