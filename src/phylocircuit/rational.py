"""Scalar helpers: exact rationals with a floating-point fallback.

Weights and distances are ``Fraction`` when every input was exact (integers
or p/q literals) and ``float`` otherwise.  Decimal literals are treated as
rounded measurements and parsed as floats unless ``exact=True`` forces a
Fraction reading.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Value = Union[Fraction, float]

#: default absolute tolerance for float-mode comparisons
FLOAT_TOL = 1e-9


def parse_value(text: str, exact: bool = False) -> Value:
    """Parse an integer, p/q, or decimal literal."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return Fraction(int(text))
    except ValueError:
        pass
    if exact:
        return Fraction(text)
    return float(text)


def values_close(a: Value, b: Value, tol: float = FLOAT_TOL) -> bool:
    """Exact equality when both sides are rational, tolerance otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
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
