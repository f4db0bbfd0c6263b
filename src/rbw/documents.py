"""What a value in an input document may be.

Every loader reads its JSON document through these helpers, so one rule
decides the types: an object, array or string must be one, and a number
is a finite int or float that is not a bool.  Bools, numeric strings such
as "0.5" and integers too large for a float are not numbers.  A value
that breaks the rule raises ValueError naming its field.
"""

from __future__ import annotations

import math

__all__ = ["checked", "count", "field", "number", "parse"]

_KIND_NAMES = {dict: "a JSON object", list: "a JSON array", str: "a string"}
_REQUIRED = object()


def number(value, what: str) -> float:
    """value as a float, if it is a finite JSON number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:   # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def count(value, what: str) -> int:
    """value, if it is a positive JSON integer."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    raise ValueError(f"{what} must be a positive integer, got {value!r}")


def checked(value, kind: type, what: str):
    """value, if it is of kind: dict, list, str, or float for a number."""
    if kind is float:
        return number(value, what)
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_KIND_NAMES[kind]}, got {type(value).__name__}")
    return value


def field(document: dict, key: str, what: str, kind: type | None = None,
          default=_REQUIRED):
    """document[key], checked against kind when one is given.  A missing
    key gives default, or fails when there is none."""
    if key not in document:
        if default is _REQUIRED:
            raise ValueError(f"{what} is missing field {key!r}")
        return default
    value = document[key]
    return value if kind is None else checked(value, kind, f"{what} field {key!r}")


def parse(document, what: str) -> dict:
    """A JSON object, given as a dict or as JSON text."""
    if isinstance(document, str):
        import json
        document = json.loads(document)
    return checked(document, dict, what)
