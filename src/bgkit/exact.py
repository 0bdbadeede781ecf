"""Exact rational arithmetic helpers and the three-way inequality verdict policy.

All distances, radii and masses in this package are `fractions.Fraction`
values wherever a caller sees them; only transcendental bound formulas
(exp, log, powers) are evaluated in double precision.  Inside a
`measures.DistanceProfile` they are kept as ints scaled by one common
denominator, which is exact too, and the critical-radius scans compare
those ints: a ratio is an int (num, den) pair, and a Fraction is built
only for what a report prints.
Comparing an exact left-hand side against a float right-hand side
therefore needs an explicit safety margin: we only certify "verified"
when lhs <= rhs*(1-MARGIN) and only certify "violated" when
lhs >= rhs*(1+MARGIN); anything in between is "inconclusive".  `band`
computes the two edges and `verdict` applies that rule: concentric pair
checks and bound cross-checks call `verdict`, and certificate scans, which
compare the two rows of each critical radius with one rhs, take the edges
from `band` once per radius and compare by the same rule.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isfinite, log
from typing import Union

Rational = Union[int, Fraction]

VERIFIED = "verified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

# Relative band inside which an exact-vs-float comparison refuses to decide.
MARGIN = 1e-9


class DomainError(ValueError):
    """Invalid argument for an operation (out of the stated domain)."""


class WindowError(RuntimeError):
    """A lazy enumeration was asked to go beyond its safe radius/window."""

    def __init__(self, message, required=None, available=None):
        super().__init__(message)
        self.required = required
        self.available = available


def band(rhs: float) -> tuple[float, float]:
    """The edges (rhs*(1-MARGIN), rhs*(1+MARGIN)) of the margin band around
    rhs: `verdict` calls an lhs VERIFIED at or below the first, VIOLATED at
    or above the second, and INCONCLUSIVE strictly between them.

    A caller comparing many lhs against one rhs computes the edges once and
    compares each float lhs with the same `<=` / `>=` rule.
    """
    return rhs * (1.0 - MARGIN), rhs * (1.0 + MARGIN)


def verdict(lhs, rhs: float) -> str:
    """Three-way verdict on lhs <= rhs against the edges of `band(rhs)`.

    `lhs` is read as its nearest double, so an exact rational and its float
    get the same verdict; so does num / den of two ints, which Python
    rounds correctly, as it does `float(Fraction(num, den))`.
    """
    lhs = float(lhs)
    verified, violated = band(rhs)
    if lhs >= violated:
        return VIOLATED
    if lhs > verified:
        return INCONCLUSIVE
    return VERIFIED


def rational(value) -> Fraction:
    """Coerce ints, Fractions, floats and 'p/q' strings to an exact Fraction.

    Finite floats convert exactly, so callers may pass literals like 0.5
    without losing exactness.  NaN, infinities and strings that are no
    rational, zero denominators included, raise DomainError, as does a
    decimal exponent above `sys.int_info.default_max_str_digits` in
    magnitude (CPython's digit limit for int strings), before any power of
    ten is built.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) or isinstance(value, float) and isfinite(value):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        _mantissa, e, exponent = text.lower().partition("e")
        limit = sys.int_info.default_max_str_digits
        try:
            if not e or abs(int(exponent)) <= limit:
                return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"cannot interpret {value!r} as a rational")


def fmt_rational(q: Rational) -> str:
    """Serialize a rational as 'p/q' (or 'p' when integral)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def decimal12(q: Rational) -> str:
    """Decimal rendering with 12 significant digits (CSV convenience column)."""
    return f"{float(Fraction(q)):.12g}"


def log_of_rational(q: Rational) -> float:
    """ln of a positive rational, safe for numerators beyond float range."""
    q = Fraction(q)
    if q <= 0:
        raise DomainError("log of nonpositive rational")
    return log(q.numerator) - log(q.denominator)
