"""Explicit bound formulas of the comparison theory, and instance
cross-checks of a measured quantity against one of them.

Each formula is evaluated in double precision from its named parameters,
and a value past the double range or outside the formula's domain is
refused, never printed as infinity or as a complex number; kinds that
need the non-explicit function C -> nu(C) read it from a user-supplied
`NuOracle` step table.  A cross-check applies the one margin rule of
`exact.verdict`.  This module needs only `math` and `exact`, so the
`bounds` and `check` subcommands load nothing else of the package.
"""

from __future__ import annotations

import json
import math

from .exact import (DomainError, INCONCLUSIVE, VERIFIED, field, rational,
                    record, verdict)


class NuOracle:
    """User-supplied monotone step table C -> nu(C); required because the
    underlying approximate-group constant has no explicit published form."""

    def __init__(self, table):
        rows = sorted((float(c), int(n)) for c, n in table)
        if not rows:
            raise DomainError("empty nu table")
        last = 0
        for c, n in rows:
            if n < 1:
                raise DomainError("nu values must be positive integers")
            if n < last:
                raise DomainError("nu table must be monotone nondecreasing")
            last = n
        self.rows = rows

    def __call__(self, C: float, formula: str = "C", /, **params) -> int:
        """nu(C).  A caller that asks at a formula of its own parameters
        names the formula and the parameters, and a refusal names them."""
        for c, n in self.rows:
            if C <= c:
                return n
        at = ", ".join(f"{name} = {value:.6g}"
                       for name, value in params.items())
        raise DomainError(
            f"nu oracle table does not cover {formula} = {C:.6g}"
            + (f" for {at}" if at else "")
            + f" (max covered {self.rows[-1][0]:.6g})")


def evaluate_bound(kind: str, params: dict, nu: NuOracle | None = None) -> float:
    """Double-precision value of one of the explicit bound formulas.

    Floors are applied exactly where the source statements bracket the
    quantity.  Kinds needing the non-explicit nu function raise unless an
    oracle is configured.  A value past the double range, whether a power
    or `exp` raised OverflowError or a product rounded to infinity, raises
    DomainError naming the bound.  So does a formula that is undefined at
    the parameters: a math domain error, a division by zero, or a negative
    base under a fractional power, which Python answers with a complex.
    """
    try:
        value = _formula(kind, dict(params), nu)
    except OverflowError:
        value = math.inf
    except DomainError:
        raise
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or isinstance(value, complex):
        raise DomainError(f"bound {kind!r} is undefined at these parameters")
    if value in (math.inf, -math.inf):
        raise DomainError(f"bound {kind!r} overflows double precision")
    return value


def _formula(kind: str, p: dict, nu: NuOracle | None) -> float:
    def need(*names):
        missing = [n for n in names if n not in p]
        if missing:
            raise DomainError(f"bound {kind!r} needs parameters {missing}")
        # a "p/q" string is read as every other input reads it
        values = [float(rational(p[n]) if isinstance(p[n], str) else p[n])
                  for n in names]
        if not all(map(math.isfinite, values)):
            raise DomainError(f"bound {kind!r} needs finite parameters {values}")
        return values

    def need_nu():
        if nu is None:
            raise DomainError(
                "nu oracle required (the function C -> nu(C) is not explicit)")
        return nu

    if kind == "generators" or kind == "betti_simply_connected":
        N, K, D = need("N", "K", "D")
        return float(math.floor(121.0 ** N * math.exp(3.0 * K * D)))
    if kind == "generator_count":
        C, D, K, eps = need("C", "D", "K", "eps0")
        return (C * (1.0 + 4.0 * D / eps) ** (math.log(C) / math.log(2.0))
                * math.exp(K * (2.0 * D + eps / 2.0)))
    if kind == "betti_hyperbolic":
        K, D, delta = need("K", "D", "delta")
        return 3.0 ** 6 * math.exp(13.0 * K * (16.0 * D + 15.0 * delta))
    if kind == "systole_lower":
        D, C, K, r0 = need("D", "C", "K", "r0")
        return ((D / C) * (1.0 + 6.0 * D / r0) ** (-math.log(C) / math.log(2.0))
                * math.exp(-K * (3.0 * D + r0 / 2.0)))
    if kind == "systole_lower_eps1":
        D, C, K = need("D", "C", "K")
        eps1 = D / need_nu()(C ** 3 * math.exp(15.0 * K * D) + 1.0,
                             "C^3 exp(15 K D) + 1", C=C, K=K, D=D)
        return ((D / C) * (1.0 + 3.0 * D / eps1) ** (-math.log(C) / math.log(2.0))
                * math.exp(-K * (3.0 * D + eps1)))
    if kind == "margulis_scale":
        if "N" in p and "C" not in p:
            (N,) = need("N")
            return 0.5 * need_nu()(300.0 ** (3.0 * N), "300^(3 N)", N=N)
        C, K, r0 = need("C", "K", "r0")
        return 0.5 * need_nu()(C ** 3 * math.exp(15.0 * K * r0) + 1.0,
                               "C^3 exp(15 K r0) + 1", C=C, K=K, r0=r0)
    if kind == "systole_busemann":
        D, C, K, r0 = need("D", "C", "K", "r0")
        N0 = 0.5 * need_nu()(C ** 3 * math.exp(15.0 * K * r0) + 1.0,
                             "C^3 exp(15 K r0) + 1", C=C, K=K, r0=r0)
        expo = math.log(C) / math.log(2.0)
        blow = 1.0 + 4.0 * N0 * D / r0
        return (C ** (-2.6) * D * ((1.0 + D / r0) * blow) ** (-expo)
                * math.exp(-3.0 * K * (D + r0) * blow))
    if kind == "doubling_to_bg":
        C0, r0, r = need("C0", "r0", "r")
        if not C0 > 1:
            raise DomainError("doubling constant must be finite and > 1")
        if not r0 > 0:
            raise DomainError("doubling scale must be positive")
        if r < r0 / 2:
            raise DomainError("bound valid only for r >= r0/2")
        return C0 ** 5 * math.exp(4.5 * (r / r0) * math.log(C0))
    raise DomainError(f"unknown bound kind {kind!r}")


@record
class CrossCheckReport:
    kind: str
    measured: float
    bound: float
    direction: str          # "measured<=bound" or "measured>=bound"
    holds: bool | None      # None inside the margin band, noted in details
    slack: float
    assumptions: list
    details: dict = field(default_factory=dict)


def bound_cross_check(kind: str, measured, bound_params: dict,
                      nu: NuOracle | None = None,
                      assumptions=()) -> CrossCheckReport:
    """Assert one measured quantity against its bound formula on an instance.

    This is instance consistency, not a proof: the report carries the list
    of hypotheses that were established upstream vs merely assumed.
    """
    bound = evaluate_bound(kind, bound_params, nu=nu)
    lower_bounds = {"systole_lower", "systole_lower_eps1", "systole_busemann",
                    "margulis_scale"}
    measured_f = float(measured)
    if not math.isfinite(measured_f):
        raise DomainError(f"measured value must be finite, got {measured_f}")
    if kind in lower_bounds:
        status = verdict(bound, measured_f)
        direction = "measured>=bound"
        slack = measured_f - bound
    else:
        status = verdict(measured_f, bound)
        direction = "measured<=bound"
        slack = bound - measured_f
    holds = None if status == INCONCLUSIVE else status == VERIFIED
    rep = CrossCheckReport(kind=kind, measured=measured_f, bound=bound,
                           direction=direction, holds=holds, slack=slack,
                           assumptions=list(assumptions))
    if holds is None:
        rep.details["note"] = "inside the float margin band"
    return rep


# -- the bounds and check subcommands -------------------------------------------

# the parameter flags of the bounds subcommand, as `cli._BOUND_PARAMS` adds them
_PARAMS = ("N", "K", "D", "C", "r0", "delta", "eps0", "C0", "r")


def _nu_oracle(args):
    raw = getattr(args, "nu_table", None)
    if not raw:
        return None
    if raw.strip().startswith("["):
        table = json.loads(raw)
    else:
        with open(raw) as fh:
            table = json.load(fh)
        if isinstance(table, dict):
            table = table["nu_table"]
    return NuOracle(table)


def _bounds(args, _inp):
    from .reports import Report
    params = {}
    for name in _PARAMS:
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    value = evaluate_bound(args.kind, params, nu=_nu_oracle(args))
    return Report(params={"kind": args.kind, **params},
                  result={"value": value},
                  summary=f"bounds {args.kind}: {value:.9g}")


def _check(args, _inp):
    from .reports import Report
    params = json.loads(args.params)
    rep_c = bound_cross_check(args.kind, args.measured, params,
                              nu=_nu_oracle(args),
                              assumptions=args.assume or [])
    status = {True: "holds", False: "violated"}.get(rep_c.holds,
                                                    "inconclusive")
    return Report(params={"kind": args.kind, "measured": args.measured,
                          **params},
                  result={"bound": rep_c.bound, "slack": rep_c.slack,
                          "direction": rep_c.direction},
                  summary=(f"check {args.kind}: {status} "
                           f"(slack {rep_c.slack:.6g})"),
                  status=status, assumptions=rep_c.assumptions)
