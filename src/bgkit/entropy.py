"""Volume-entropy estimation from ball growth profiles.

The asymptotic growth exponent is the lower limit of ln(mass)/R, which no
finite scan can reach: at desk scale the level statistic ln(mass(R))/R
still carries an O(ln R / R) bias (polynomial factors, lattice constants).
The estimator therefore works on the discrete log-derivative

    slope_i = (ln mass(R_i) - ln mass(R_{i-1})) / (R_i - R_{i-1}),

whose bias decays like the mass ratio itself, and takes the minimum slope
over the tail window as the lower-limit proxy.  Reports always carry the
tail window so a finite-range figure is never presented as a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import DomainError, log_of_rational, rational
from .measures import Measure

MIN_SAMPLES = 10
_TOLERANCE = 0.05


@dataclass
class GrowthSample:
    R: Fraction
    mass: Fraction
    h: float          # level statistic ln(mass)/R, kept for reporting


@dataclass
class GrowthProfile:
    center: object
    samples: list

    def radii(self):
        return [s.R for s in self.samples]

    def masses(self):
        return [s.mass for s in self.samples]

    def slopes(self):
        """Per-step log-derivative of the mass curve."""
        out = []
        for prev, cur in zip(self.samples, self.samples[1:]):
            dlog = log_of_rational(Fraction(cur.mass) / Fraction(prev.mass))
            out.append(dlog / float(cur.R - prev.R))
        return out


@dataclass
class EntropyEstimate:
    estimate: float
    window_low: float
    window_high: float
    r_max: Fraction
    tail_samples: int
    converged: bool
    notes: list = field(default_factory=list)


def growth_profile(space, measure: Measure, center, r_max, step) -> GrowthProfile:
    """Closed-ball masses at R = step, 2 step, ..., r_max.

    Closed balls avoid an empty first sample on integer-distance spaces.
    """
    r_max, step = rational(r_max), rational(step)
    if step <= 0:
        raise DomainError("step must be positive")
    if r_max < step:
        raise DomainError("r_max below the first step")
    profile = measure.profile(space, center, r_max)
    samples = []
    k = 1
    while step * k <= r_max:
        R = step * k
        mass = profile.mass_le(R)
        if mass <= 0:
            raise DomainError(f"empty ball at R = {R}; enlarge step")
        samples.append(GrowthSample(R=R, mass=mass,
                                    h=log_of_rational(mass) / float(R)))
        k += 1
    return GrowthProfile(center=center, samples=samples)


def entropy_estimate(profile: GrowthProfile,
                     tail_fraction=0.3) -> EntropyEstimate:
    """Tail-minimum of the growth slopes, with the tail spread as a window.

    `tail_fraction` of the slope samples (at least two) form the tail; a
    spread above 0.1 flags nonconvergence.
    """
    if not 0 < tail_fraction <= 1:
        raise DomainError("tail fraction must be in (0, 1]")
    if len(profile.samples) < MIN_SAMPLES:
        raise DomainError(
            f"profile has {len(profile.samples)} samples, need {MIN_SAMPLES}")
    slopes = profile.slopes()
    tail_len = max(2, math.ceil(len(slopes) * tail_fraction))
    tail = slopes[-tail_len:]
    low, high = min(tail), max(tail)
    converged = (high - low) <= 0.1
    notes = [] if converged else [
        f"tail spread {high - low:.4g} exceeds 0.1: estimate not settled"]
    return EntropyEstimate(estimate=low, window_low=low, window_high=high,
                           r_max=profile.samples[-1].R,
                           tail_samples=tail_len, converged=converged,
                           notes=notes)


@dataclass
class ConsistencyReport:
    entropy: float
    bound: float
    holds: bool
    tolerance: float
    converse: tuple | None    # (r0, C) found for the target exponent, or None
    notes: list = field(default_factory=list)


def entropy_bg_consistency(space, measure: Measure, center, certificate,
                           profile: GrowthProfile, converse_target=None,
                           r_max=None) -> ConsistencyReport:
    """Entropy estimate against a verified certificate's exponent.

    Asserts estimate <= K + 0.05, the estimate taken with the default tail
    of `entropy_estimate`.  When `converse_target` K' above the estimate is
    given, searches scales r0 (over the profile radii) and the matching
    factor C for which the weak inequality verifies up to r_max, returning
    the first hit.
    """
    if certificate is not None:
        if not certificate.verified:
            raise DomainError("consistency check needs a verified certificate")
        if certificate.center != center and certificate.center != "all sampled":
            raise DomainError("certificate centered elsewhere")
        if profile.samples[-1].R < certificate.r_max:
            raise DomainError("profile shorter than the certificate range")
    est = entropy_estimate(profile)
    bound = certificate.params.K if certificate is not None else float("inf")
    holds = est.estimate <= bound + _TOLERANCE
    converse = None
    notes = list(est.notes)
    if converse_target is not None:
        if r_max is None:
            r_max = profile.samples[-1].R
        if converse_target <= est.estimate:
            notes.append("converse target below the estimate; search skipped")
        else:
            converse = _search_weak_params(space, measure, center,
                                           converse_target, r_max)
            if converse is None:
                notes.append("no (r0, C) certificate found up to r_max")
    return ConsistencyReport(entropy=est.estimate, bound=bound, holds=holds,
                             tolerance=_TOLERANCE, converse=converse,
                             notes=notes)


def _search_weak_params(space, measure, center, K, r_max):
    from . import curvature
    r_max = rational(r_max)
    scales = [r0 for r0 in (Fraction(1, 2), Fraction(1), Fraction(2),
                            Fraction(3)) if r0 <= r_max]
    if not scales:
        return None
    profile = measure.profile(space, center, 2 * r_max)
    for r0 in scales:
        needed = 1.0
        feasible = True
        step, rows = curvature._critical_checks(profile, r0, r_max)
        for a, num, den, _form in rows:
            if not den:
                feasible = False
                break
            needed = max(needed, num / den / math.exp(K * (a / step)))
        if not feasible:
            continue
        C = needed * (1 + 1e-6) + 1e-9
        cert = curvature.check_weak_bg(space, measure, center,
                                       curvature.BGParams(r0, C, K), r_max)
        if cert.verified:
            return (r0, C)
    return None
