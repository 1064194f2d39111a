"""Scalar helpers: exact rationals with a floating-point fallback.

Weights and distances are ``Fraction`` when every input was exact (integers
or p/q literals) and ``float`` otherwise.  Decimal literals are treated as
rounded measurements and parsed as floats unless ``exact=True`` forces a
Fraction reading.  The rule holds per object, applied where values enter:
``PhyloNetwork.build``, ``WeightedSplitSystem.of`` and, for the kernels that
read a distance vector, ``metrics._scaled_values``.

Rationals compare exactly.  Floats compare within one relative tolerance,
REL_TOL times the largest magnitude in play, so that no verdict depends on
the units of the weights; this module is the only place that sets it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import ValidationError

Value = Union[Fraction, float]

#: floats that differ by at most this share of the largest |value| compared
#: count as equal
REL_TOL = 1e-9


def parse_value(text: str, exact: bool = False) -> Value:
    """Parse an integer, p/q, or decimal literal.

    A p/q of ASCII digits, with an optional sign on p, is built from the
    two ints; any other p/q goes to ``Fraction(text)``, which accepts and
    refuses the same texts and raises the same errors, only slower.
    """
    text = text.strip()
    if "/" in text:
        p, _, q = text.partition("/")
        digits = p[1:] if p[:1] in ("+", "-") else p
        if text.isascii() and digits.isdigit() and q.isdigit():
            return Fraction(int(p), int(q))
        return Fraction(text)
    try:
        return Fraction(int(text))
    except ValueError:
        pass
    if exact:
        return Fraction(text)
    return float(text)


def tolerance(values: Iterable[Value]) -> float:
    """REL_TOL times the largest |value|, the slack of a float comparison
    among ``values``.  A NaN or infinite value would pass or fail every
    comparison, so the first one raises ValidationError."""
    values = tuple(values)
    for k, v in enumerate(values):
        if not math.isfinite(v):
            raise ValidationError(f"non-finite value {v} at index {k}")
    return REL_TOL * float(max(map(abs, values), default=0))


def values_close(a: Value, b: Value, tol: float | None = None) -> bool:
    """Exact equality when both sides are rational; otherwise |a - b| <= tol,
    by default ``tolerance((a, b))``."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    if tol is None:
        tol = tolerance((a, b))
    return abs(float(a) - float(b)) <= tol


def format_value(value: Value, precision: int = 6) -> str:
    """Render p/q for rationals, fixed significant digits for floats."""
    if type(value) is float:
        return f"{value:.{precision}g}"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return f"{float(value):.{precision}g}"
