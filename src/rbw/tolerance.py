"""Global numerical tolerance.

Every scalar residual guard goes through :func:`exceeds` or :func:`require`,
which compare against :func:`default_tolerance`, read afresh at each
check.  The default is 1e-10 absolute (all computations here are short
products of unit-modulus entries), overridden by ``RBW_TOLERANCE``.  A
tolerance must be a finite positive number: zero, a negative value, inf
or NaN raises ValueError, so no check can pass or fail by default.
"""

import math
import os

DEFAULT_TOLERANCE = 1e-10

#: Eigenvalues of a reconstructed density matrix below this value (or a
#: trace further than this from one) trigger a non-physicality warning.
PHYSICALITY_THRESHOLD = 1e-8


def default_tolerance() -> float:
    """Return the active tolerance (env override included)."""
    raw = os.environ.get("RBW_TOLERANCE")
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"RBW_TOLERANCE is not a number: {raw!r}") from exc
    # inf would pass every residual check and NaN fail every one
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"RBW_TOLERANCE must be a finite positive number, got {value}")
    return value


def exceeds(residual: float, what: str) -> str | None:
    """The note for a residual over the tolerance, or None; NaN and inf never pass."""
    tol = default_tolerance()
    if abs(residual) <= tol:
        return None
    shown = f"{residual:.6g}"
    if float(shown) <= tol:         # six digits rounded it onto the tolerance
        shown = repr(float(residual))
    return f"{what} = {shown} exceeds the tolerance {tol:g}"


def require(residual: float, what: str, error: type[Exception] = ValueError) -> None:
    """Raise error with the note of :func:`exceeds` if there is one."""
    if note := exceeds(residual, what):
        raise error(note)
