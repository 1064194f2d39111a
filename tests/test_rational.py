"""Reading and writing one value: rationals stay exact, decimals are floats
unless an exact reading is asked for."""

from fractions import Fraction

import pytest

from phylocircuit.rational import format_value, parse_value

F = Fraction


@pytest.mark.parametrize(
    "text, exact, value",
    [
        ("3", False, F(3)),
        (" -2/6 ", False, F(-1, 3)),
        ("0.25", False, 0.25),
        ("0.25", True, F(1, 4)),
        ("2.5e2", True, F(250)),
    ],
)
def test_parse_value(text, exact, value):
    got = parse_value(text, exact)
    assert (type(got), got) == (type(value), value)


@pytest.mark.parametrize(
    "value, precision, text",
    [
        (F(3), 6, "3"),
        (F(-7, 2), 6, "-7/2"),
        (0.1, 6, "0.1"),
        (2 / 3, 3, "0.667"),
        # any other number is written like a float
        (1234567, 3, "1.23e+06"),
        (12, 6, "12"),
    ],
)
def test_format_value(value, precision, text):
    assert format_value(value, precision) == text
