import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylocircuit.errors import DomainError
from phylocircuit.genetics import (
    jukes_cantor_distance,
    jukes_cantor_parallel_sites,
    kimura_distance,
)


def bisect_half_distance(c1: float, m: float, tol: float = 1e-13) -> float:
    """Independent oracle: solve D(c) = D(c1)/2 by bisection."""
    target = jukes_cantor_distance(c1, m) / 2.0
    lo, hi = m / 4.0 + 1e-9, float(m)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if jukes_cantor_distance(mid, m) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2.0


def test_identical_sequences_zero_distance():
    assert jukes_cantor_distance(100, 100) == 0.0
    assert jukes_cantor_distance(7, 7) == 0.0


def test_worked_example():
    # m=100, c=26: (3/4) ln(300/4)
    got = jukes_cantor_distance(26, 100)
    assert got == pytest.approx(0.75 * math.log(75), abs=1e-12)
    # against the mismatch-proportion form with p = 0.74
    assert got == pytest.approx(-0.75 * math.log(1 - 4 * 0.74 / 3), abs=1e-12)


def test_domain_error_at_quarter():
    with pytest.raises(DomainError):
        jukes_cantor_distance(25, 100)
    with pytest.raises(DomainError):
        jukes_cantor_distance(10, 100)


def test_distance_strictly_decreasing_in_matches():
    values = [jukes_cantor_distance(c, 100) for c in range(26, 101)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_kimura_zero_and_worked_example():
    assert kimura_distance(0.0, 0.0) == 0.0
    got = kimura_distance(0.1, 0.05)
    assert got == pytest.approx(-0.5 * math.log(0.75 * math.sqrt(0.9)), abs=1e-12)


def test_kimura_domain():
    with pytest.raises(DomainError):
        kimura_distance(0.5, 0.0)
    with pytest.raises(DomainError):
        kimura_distance(0.1, 0.5)


@pytest.mark.parametrize(
    "formula, args, name",
    [
        (jukes_cantor_distance, (math.nan, 100.0), "c"),
        (jukes_cantor_distance, (26.0, math.nan), "m"),
        (kimura_distance, (math.nan, 0.1), "p"),
        (kimura_distance, (0.1, math.nan), "q"),
        (jukes_cantor_parallel_sites, (math.nan, 100.0), "c1"),
        (jukes_cantor_parallel_sites, (62.5, math.nan), "m"),
    ],
)
def test_nan_argument_is_a_domain_error(formula, args, name):
    with pytest.raises(DomainError, match=f"^{name} is NaN$"):
        formula(*args)


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
def test_infinite_arguments_are_domain_errors(inf):
    for formula, args in (
        (jukes_cantor_distance, (inf, 100.0)),
        (jukes_cantor_distance, (26.0, inf)),
        (kimura_distance, (inf, 0.1)),
        (kimura_distance, (0.1, inf)),
        (jukes_cantor_parallel_sites, (inf, 100.0)),
        (jukes_cantor_parallel_sites, (62.5, inf)),
        (jukes_cantor_distance, (inf, inf)),
        (jukes_cantor_parallel_sites, (inf, inf)),
    ):
        with pytest.raises(DomainError):
            formula(*args)


def test_parallel_sites_endpoints_fixed():
    assert jukes_cantor_parallel_sites(100, 100) == pytest.approx(100.0)
    assert jukes_cantor_parallel_sites(25, 100) == pytest.approx(25.0)


def test_parallel_sites_worked_example():
    got = jukes_cantor_parallel_sites(62.5, 100)
    assert got == pytest.approx(25 + math.sqrt(3 * (1562.5 - 625)), abs=1e-12)
    assert got == pytest.approx(78.0330085, abs=1e-6)


def test_parallel_sites_against_bisection_oracle():
    rng = random.Random(2026)
    m = 100.0
    for _ in range(100):
        c1 = rng.uniform(m / 4 + 0.5, m - 0.5)
        closed = jukes_cantor_parallel_sites(c1, m)
        assert abs(closed - bisect_half_distance(c1, m)) <= 1e-6


def test_half_distance_identity():
    rng = random.Random(4099)
    m = 100.0
    for _ in range(100):
        c1 = rng.uniform(m / 4 + 0.5, m - 0.5)
        c = jukes_cantor_parallel_sites(c1, m)
        assert abs(
            jukes_cantor_distance(c, m) - jukes_cantor_distance(c1, m) / 2
        ) < 1e-9


@given(st.floats(min_value=25.2, max_value=99.8))
@settings(max_examples=60, deadline=None)
def test_parallel_sites_monotone(c1):
    m = 100.0
    a = jukes_cantor_parallel_sites(c1, m)
    b = jukes_cantor_parallel_sites(c1 + 0.1, m)
    assert b > a


def test_answers_do_not_depend_on_units():
    # 3m, 4c and (m/4) c1 overflowed near the float maximum (D: nan at
    # m = 1e308) and lost every digit at subnormal sizes; the ratio c/m
    # of two scaled values is the unscaled one, bit for bit
    distance = jukes_cantor_distance(26.0, 100.0)
    parallel = jukes_cantor_parallel_sites(62.5, 100.0)
    for k in range(-1070, 1017):
        m = math.ldexp(100.0, k)
        assert jukes_cantor_distance(math.ldexp(26.0, k), m) == distance, k
        assert jukes_cantor_parallel_sites(math.ldexp(62.5, k), m) == math.ldexp(
            parallel, k
        ), k


_BIG = 1.7976931348623157e308


@given(
    st.floats(min_value=5e-324, max_value=_BIG),
    st.floats(min_value=0.25, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_no_finite_input_in_the_domain_gives_nan(m, share):
    c = m * share
    for formula in (jukes_cantor_distance, jukes_cantor_parallel_sites):
        try:
            value = formula(c, m)
        except DomainError:
            continue
        assert math.isfinite(value), (formula, c, m)


def test_extreme_units_keep_the_answer():
    assert jukes_cantor_distance(9e307, 1e308) == jukes_cantor_distance(9, 10)
    assert jukes_cantor_distance(_BIG, _BIG) == 0
    assert jukes_cantor_parallel_sites(_BIG, _BIG) == _BIG
    assert jukes_cantor_parallel_sites(3e307, 4e307) == pytest.approx(3.449489743e307)
    # the least answer is m/4 = 1e-320; the old form gave 9.9999e-321
    low = jukes_cantor_parallel_sites(3e-320, 4e-320)
    assert low == pytest.approx(3.449e-320, rel=1e-3)
