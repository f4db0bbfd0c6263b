"""Global numerical tolerance.

Every residual check in the package compares against
:func:`default_tolerance`, read afresh at each check.  The default is
1e-10 absolute (all computations here are short products of unit-modulus
entries) and can be overridden through the ``RBW_TOLERANCE`` environment
variable.  A tolerance must be a finite positive number: zero, a negative
value, inf or NaN raises ValueError, so no check can pass or fail by default.
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
