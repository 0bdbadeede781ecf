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

The result records of every module are `record` classes, which behave as
the standard library's data classes do without importing them: that
import loads `inspect`, about 10 ms of a cold CLI process.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isfinite, log

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


def fmt_rational(q: int | Fraction) -> str:
    """Serialize a rational as 'p/q' (or 'p' when integral); DomainError
    past `sys.int_info.default_max_str_digits`, CPython's int string limit."""
    q = Fraction(q)
    try:
        return (str(q.numerator) if q.denominator == 1
                else f"{q.numerator}/{q.denominator}")
    except ValueError:
        raise DomainError(
            "rational too long to print: its numerator or denominator passes "
            f"CPython's limit of {sys.int_info.default_max_str_digits} digits "
            "for int strings") from None


def decimal12(q: int | Fraction) -> str:
    """Decimal rendering with 12 significant digits (CSV convenience column)."""
    return f"{float(Fraction(q)):.12g}"


def log_of_rational(q: int | Fraction) -> float:
    """ln of a positive rational, safe for numerators beyond float range."""
    q = Fraction(q)
    if q <= 0:
        raise DomainError("log of nonpositive rational")
    return log(q.numerator) - log(q.denominator)


def check_range(ints):
    """OverflowError when an int's magnitude passes 2**40, beyond which the
    int64 kernels of `_kernels` could overflow: the one home of that bound,
    kept here so that a caller refuses a matrix without importing numpy."""
    if max(map(abs, ints), default=0) > 2 ** 40:
        raise OverflowError("scaled distances too large for the int64 kernels")


# -- records -------------------------------------------------------------------


class field:
    """The default of a record field made by calling `default_factory()`
    once per instance, so that no two records share a mutable default."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def _values(self):
    return tuple([getattr(self, name) for name in self._fields])


def _repr(self):
    return "{}({})".format(type(self).__qualname__, ", ".join(
        f"{name}={getattr(self, name)!r}" for name in self._fields))


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self):
    return hash(_values(self))


def _refuse_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, *, frozen=False):
    """Class decorator for a plain result record, made as the standard
    library's data class decorator makes one with `eq=True`: the fields are
    the class's own annotations in declaration order (`_fields`), with a
    class attribute as a plain default or a `field(default_factory=...)`.

    The `__init__` takes the fields in that order and runs `__post_init__`
    last, if the class has one; it is generated once per class with one
    `exec`, as `collections.namedtuple` does, since a generic
    `__init__(*args, **kw)` is slower per instance.  `__repr__` prints
    `Name(a=..., b=...)` and `__eq__` compares the field tuples of two
    instances of the same class.  A frozen record hashes its field tuple
    and refuses assignment and deletion; any other is unhashable.  There
    are no `__slots__`: a `functools.cached_property` needs the instance
    `__dict__`.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    scope = {"_set": object.__setattr__}
    params, body = ["self"], []
    for name in names:
        value = name
        if name not in cls.__dict__:
            params.append(name)
        else:
            default = scope[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
            if isinstance(default, field):
                scope[f"_f_{name}"] = default.default_factory
                value = f"_f_{name}() if {name} is _d_{name} else {name}"
                delattr(cls, name)
        body.append(f"_set(self, {name!r}, {value})" if frozen
                    else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = (f"def __init__({', '.join(params)}):\n    "
              + "\n    ".join(body) + "\n")
    exec(source, scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls._fields = names
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    if frozen:
        cls.__hash__ = _hash
        cls.__setattr__ = _refuse_setattr
        cls.__delattr__ = _refuse_delattr
    else:
        cls.__hash__ = None
    return cls
