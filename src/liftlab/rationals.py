"""Exact rational arithmetic helpers.

All algebra in this package is exact, in the stdlib fractions.Fraction
(exported as Q) and Python ints. The hot loops clear denominators once
and run on ints. The simplex and the PSD elimination keep integer rows,
each over its own positive denominator; the dense membership checks
scale the point and the capacity constraint by their common
denominators (`integer_row`).
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction
ZERO = Q(0)
ONE = Q(1)


def rat(value) -> Fraction:
    """Coerce ints, Fractions or strings ("3/2", "1.5") to a Fraction."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r}; pass a string or rational")
    if isinstance(value, bool):
        raise TypeError(f"refusing to coerce bool {value!r}; pass a string or rational")
    return Fraction(value)


def rat_str(value) -> str:
    """Serialize a rational as "p" or "p/q"."""
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def integer_row(values):
    """Rationals as (integer numerators, their lcm denominator), in order."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den
