"""Exact rational arithmetic helpers.

All algebra in this package is exact. gmpy2.mpq is used when available
(roughly an order of magnitude faster than fractions.Fraction in the
PSD hot loops; the simplex works on integer rows and does not depend
on it); otherwise we fall back to the stdlib type. Both types
interoperate and compare equal, so callers may pass either.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    Q = Fraction

ZERO = Q(0)
ONE = Q(1)


def rat(value) -> "Q":
    """Coerce ints, Fractions, mpqs or strings ("3/2", "1.5") to an exact rational."""
    if isinstance(value, str):
        return Q(Fraction(value))
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r}; pass a string or rational")
    if isinstance(value, bool):
        raise TypeError(f"refusing to coerce bool {value!r}; pass a string or rational")
    return Q(value)


def rat_str(value) -> str:
    """Serialize a rational as "p" or "p/q"."""
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"
