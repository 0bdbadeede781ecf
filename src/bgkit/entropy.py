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
from fractions import Fraction

from .exact import DomainError, field, log_of_rational, rational, record
from .measures import Measure

MIN_SAMPLES = 10


@record
class GrowthSample:
    R: Fraction
    mass: Fraction
    h: float          # level statistic ln(mass)/R, kept for reporting


@record
class GrowthProfile:
    center: object
    samples: list

    def slopes(self):
        """Per-step log-derivative of the mass curve."""
        out = []
        for prev, cur in zip(self.samples, self.samples[1:]):
            dlog = log_of_rational(Fraction(cur.mass) / Fraction(prev.mass))
            out.append(dlog / float(cur.R - prev.R))
        return out


@record
class EntropyEstimate:
    estimate: float
    window_low: float
    window_high: float
    r_max: Fraction
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
                           converged=converged, notes=notes)
