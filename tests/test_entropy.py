import math
from fractions import Fraction

import pytest

from bgkit.actions import (GluedLineShiftAction, LatticeTranslationAction,
                           LeftTranslationAction)
from bgkit.curvature import BGParams, check_weak_bg
from bgkit.entropy import (GrowthProfile, GrowthSample, entropy_estimate,
                           growth_profile)
from bgkit.exact import DomainError
from bgkit.groups import FreeAbelianFamily, FreeFamily, TrivialFamily
from bgkit.measures import counting_measure
from bgkit.spaces import GluedLineSpace


def free_setup():
    act = LeftTranslationAction(FreeFamily(2))
    return act.space, counting_measure(act, ())


def lattice_setup():
    act = LeftTranslationAction(FreeAbelianFamily(2))
    return act.space, counting_measure(act, (0, 0))


def test_growth_profile_free_group_masses():
    space, mu = free_setup()
    prof = growth_profile(space, mu, (), 10, 1)
    assert [s.mass for s in prof.samples] == [2 * 3 ** r - 1 for r in range(1, 11)]


def test_growth_profile_lattice_masses():
    space, mu = lattice_setup()
    prof = growth_profile(space, mu, (0, 0), 50, 1)
    assert [s.mass for s in prof.samples] == [2 * r * r + 2 * r + 1 for r in range(1, 51)]


def test_growth_profile_atom():
    act = LeftTranslationAction(TrivialFamily())
    mu = counting_measure(act, ())
    prof = growth_profile(act.space, mu, (), 12, 1)
    assert all(s.mass == 1 for s in prof.samples)
    assert all(s.h == 0.0 for s in prof.samples)
    est = entropy_estimate(prof)
    assert est.estimate == 0.0


def test_entropy_free_group_near_log3():
    space, mu = free_setup()
    prof = growth_profile(space, mu, (), 12, 1)
    est = entropy_estimate(prof)
    assert abs(est.estimate - math.log(3)) < 0.02
    assert est.window_low <= est.estimate <= est.window_high
    assert est.converged


def test_entropy_lattice_small():
    space, mu = lattice_setup()
    prof = growth_profile(space, mu, (0, 0), 200, 1)
    est = entropy_estimate(prof)
    assert est.estimate <= 0.05
    assert est.estimate >= 0.0


def test_entropy_glued_line_trivial():
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 400)
    act = GluedLineShiftAction(gl)
    mu = counting_measure(act, gl.tip(0))
    prof = growth_profile(gl, mu, gl.tip(0), 30, 1)
    est = entropy_estimate(prof)
    assert est.estimate <= 0.05


def test_entropy_needs_enough_samples():
    space, mu = free_setup()
    prof = growth_profile(space, mu, (), 5, 1)
    with pytest.raises(DomainError):
        entropy_estimate(prof)


def test_homothety_covariance():
    # scaling all radii by lambda divides slopes (hence the estimate) by it
    space, mu = free_setup()
    prof = growth_profile(space, mu, (), 12, 1)
    lam = Fraction(7, 3)
    scaled = GrowthProfile(center=(), samples=[
        GrowthSample(R=s.R * lam, mass=s.mass, h=s.h / float(lam))
        for s in prof.samples])
    est = entropy_estimate(prof)
    est_scaled = entropy_estimate(scaled)
    assert math.isclose(est_scaled.estimate, est.estimate / float(lam),
                        rel_tol=1e-12)


def test_entropy_measure_independence_cocompact():
    # full-lattice counting vs sublattice-orbit counting on Z^2
    space, mu_full = lattice_setup()
    act5 = LatticeTranslationAction(space, [[5, 0], [0, 5]])
    mu_sub = counting_measure(act5, (0, 0))
    est_full = entropy_estimate(growth_profile(space, mu_full, (0, 0), 120, 1))
    est_sub = entropy_estimate(growth_profile(space, mu_sub, (0, 0), 120, 1))
    assert abs(est_full.estimate - est_sub.estimate) <= 0.05
    # free group: counting measures around two different basepoints
    fspace, fmu = free_setup()
    factf = LeftTranslationAction(fspace.family, fspace)
    mu_shift = counting_measure(factf, (1, 2))
    est_a = entropy_estimate(growth_profile(fspace, fmu, (), 12, 1))
    est_b = entropy_estimate(growth_profile(fspace, mu_shift, (1, 2), 12, 1))
    assert abs(est_a.estimate - est_b.estimate) <= 0.05


def test_consistency_with_certificate():
    space, mu = free_setup()
    params = BGParams(1, 81.0, 1.2)
    cert = check_weak_bg(space, mu, (), params, 12)
    prof = growth_profile(space, mu, (), 12, 1)
    assert cert.verified
    assert entropy_estimate(prof).estimate <= cert.params.K + 0.05
