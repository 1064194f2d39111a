"""Sequence-disagreement distance formulas and the parallel-branch check.

Distances are expected mutation counts from aligned sequences of length m
with c matching sites.  The single-parameter model gives
D(c) = (3/4) ln(3m / (4c - m)); the two-parameter model uses transition
and transversion proportions.  ``jukes_cantor_parallel_sites`` answers:
if two equally distant branches recombine and distances combine like
parallel resistances (total D/2), how many sites match afterwards?
"""

from __future__ import annotations

import math

from .errors import DomainError


def _require_numbers(**args: float) -> None:
    """Every comparison with NaN is false, so the bounds below would let it
    through; name the first NaN argument instead."""
    for name, value in args.items():
        if math.isnan(value):
            raise DomainError(f"{name} is NaN")


def jukes_cantor_distance(c: float, m: float) -> float:
    """Expected mutations for c matching sites out of m; needs c > m/4."""
    _require_numbers(c=c, m=m)
    if m <= 0:
        raise DomainError("sequence length must be positive")
    r = c / m  # the units cancel, so no product overflows or goes subnormal
    if r > 1:
        raise DomainError(f"matching sites c={c} exceed length m={m}")
    if not r > 0.25:  # also when r is NaN, from c = m = inf
        raise DomainError(
            f"c={c} at or below m/4={m / 4}: distance diverges"
        )
    return 0.75 * math.log(3 / (4 * r - 1))


def kimura_distance(p: float, q: float) -> float:
    """Two-parameter distance from transition (p) and transversion (q)
    proportions; needs 1 - 2p - q > 0 and 1 - 2q > 0."""
    _require_numbers(p=p, q=q)
    if p < 0 or q < 0:
        raise DomainError("proportions must be nonnegative")
    a = 1 - 2 * p - q
    b = 1 - 2 * q
    if a <= 0 or b <= 0:
        raise DomainError(f"arguments outside the model domain: p={p}, q={q}")
    return -0.5 * math.log(a * math.sqrt(b))


def jukes_cantor_parallel_sites(c1: float, m: float) -> float:
    """Matching sites after recombining two branches with c1 matches each.

    Solves D(c) = D(c1)/2 in closed form:
    c = m/4 + sqrt(3 (m c1 / 4 - (m/4)^2)) = m (1/4 + sqrt(3 (r/4 - 1/16))),
    r = c1/m.  Fixed points: c1 = m gives m, c1 = m/4 gives m/4.
    """
    _require_numbers(c1=c1, m=m)
    if m <= 0:
        raise DomainError("sequence length must be positive")
    r = c1 / m  # as in jukes_cantor_distance
    if not 0.25 <= r <= 1:
        raise DomainError(f"c1={c1} outside [m/4, m]")
    return m * (0.25 + math.sqrt(3 * (r / 4 - 1 / 16)))
