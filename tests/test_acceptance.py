"""End-to-end verification suite.

Each test is one release gate, pinned to its stated tolerance and runtime
budget; the conftest hook prints one line per criterion at the end of the
run.  Expected values tagged as derived were computed by the independent
oracles that live alongside the assertions (breadth-first counts, subset
DFS packing, closed-form ball sizes re-verified against enumeration).
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from bgkit import (cli, covers, curvature, entropy, hyperbolicity, packing,
                   presets, probes)
from bgkit.actions import LeftTranslationAction
from bgkit.bounds import bound_cross_check
from bgkit.curvature import (BGParams, SyntheticParams, check_bg_synthetic,
                             check_weak_bg, check_classic_bound, min_exponent,
                             synthetic_to_weak, weak_to_synthetic)
from bgkit.groups import FreeAbelianFamily
from bgkit.measures import (PullbackMeasure, VertexMeasure, ball_mass,
                            counting_measure)
from bgkit.spaces import (CayleySpace, TripodSpace, WeightedGraph,
                          enumerate_ball)

DET_ENV = {**os.environ, "SOURCE_DATE_EPOCH": "0"}


class budget:
    """Assert the criterion stays within its stated runtime budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, \
                f"runtime {elapsed:.1f}s exceeds the {self.seconds}s budget"


def test_criterion_01_glued_line_reproduction(capsys):
    """Hairy-line counterexample: exact masses and the CLI violation exit."""
    with budget(1.0):
        space, action, measure = presets.glued_line_instance("1", "1/10")
        tip = space.tip(0)
        r = Fraction(11, 10)
        assert ball_mass(measure, space, tip, r, closed=False) == 1
        assert ball_mass(measure, space, tip, 2 * r, closed=False) == 23
        assert 23 == 2 * (1 * 10) + 3          # 2*floor(r0/eps) + 3
        code = cli.run(["reproduce", "glued-line", "--r0", "1", "--eps",
                        "1/10", "--C", "4", "--K", "1"])
        out = capsys.readouterr().out
        assert code == 2
        report = json.loads(out)
        worst = next(w for w in report["witnesses"] if w["kind"] == "worst")
        assert worst["lhs"] == "23"
        assert math.isclose(worst["rhs"], 4 * math.exp(1.1), rel_tol=1e-12)


def test_criterion_02_conversion_round_trip():
    """200 random parameter triples: weak<->synthetic conversions agree."""
    with budget(60.0):
        instances = [presets.lattice_instance(), presets.free_instance(),
                     presets.atom_instance(),
                     (CayleySpace(FreeAbelianFamily(1)),) + (None,) + (None,)]
        line_act = LeftTranslationAction(FreeAbelianFamily(1))
        instances[3] = (line_act.space, line_act,
                        counting_measure(line_act, (0,)))
        rng = random.Random(20260809)
        r_max = Fraction(12)
        checked = violations = 0
        for _ in range(200):
            r0 = Fraction(rng.randint(50, 300), 100)
            C = 1.5 + 10.5 * rng.random()
            K = 0.4 + 1.6 * rng.random()
            for space, _act, measure in instances:
                center_default = space.identity() if hasattr(space, "identity") \
                    else space.support()[0]
                weak = check_weak_bg(space, measure, center_default,
                                     BGParams(r0, C, K), r_max)
                if weak.verified:
                    syn = weak_to_synthetic(BGParams(r0, C, K))
                    again = check_bg_synthetic(space, measure, center_default,
                                               syn, r_max)
                    checked += 1
                    if not again.verified:
                        violations += 1
                syn_params = SyntheticParams(N=0.5 + 5.0 * rng.random(), K=K)
                if syn_params.scale <= r_max:
                    direct = check_bg_synthetic(space, measure, center_default,
                                                syn_params, r_max)
                    if direct.verified:
                        back = synthetic_to_weak(syn_params)
                        weak2 = check_weak_bg(space, measure, center_default,
                                              back, r_max)
                        checked += 1
                        if not weak2.verified:
                            violations += 1
        assert checked > 100
        assert violations == 0


def test_criterion_03_classic_form_bound():
    """Measured certificates imply the (R/r)-power growth bound exactly."""
    with budget(60.0):
        space, _act, mu = presets.lattice_instance()
        k_star = min_exponent(space, mu, (0, 0), 1, 8.0, 20)
        params = BGParams(1, 8.0, k_star + 1e-6)
        cert = check_weak_bg(space, mu, (0, 0), params, 20)
        assert cert.verified
        pairs = [(r, R) for r in (1, 2, 3, 4)
                 for R in (2, 3, 5, 8, 12, 16, 20) if R > r]
        checks = check_classic_bound(space, mu, (0, 0), params, cert, pairs)
        assert all(c.holds for c in checks)

        fspace, _fact, fmu = presets.free_instance()
        k_free = min_exponent(fspace, fmu, (), 1, 81.0, 10)
        fparams = BGParams(1, 81.0, k_free + 1e-6)
        fcert = check_weak_bg(fspace, fmu, (), fparams, 10)
        assert fcert.verified
        fpairs = [(r, R) for r in (1, 2, 3) for R in (2, 4, 7, 10) if R > r]
        fchecks = check_classic_bound(fspace, fmu, (), fparams, fcert, fpairs)
        assert all(c.holds for c in fchecks)


def test_criterion_04_entropy_estimates():
    """Lattice entropy -> 0, free-group entropy -> ln 3 at stated tolerances."""
    with budget(60.0):
        # independent oracle first: breadth-first counts match 2*3^r - 1
        fspace, _fact, fmu = presets.free_instance()
        for r in range(0, 8):
            assert len(enumerate_ball(fspace, (), r, closed=True)) \
                == 2 * 3 ** r - 1
        prof_f = entropy.growth_profile(fspace, fmu, (), 12, 1)
        est_f = entropy.entropy_estimate(prof_f)
        assert abs(est_f.estimate - math.log(3)) < 0.02

        space, _act, mu = presets.lattice_instance()
        prof_z = entropy.growth_profile(space, mu, (0, 0), 200, 1)
        est_z = entropy.entropy_estimate(prof_z)
        assert 0.0 <= est_z.estimate <= 0.05


def test_criterion_05_sandwich_inequalities():
    """Packing sandwich, exhaustively on the line-10 and torus-5 setups."""
    with budget(300.0):
        line_space, line_act, _ = presets.line_translation_instance(10)
        mu_line = VertexMeasure()
        torus_space, torus_act, _ = presets.torus_instance(5)
        mu_torus = VertexMeasure()
        line_sample = [(i,) for i in range(10)]
        torus_sample = [(i, j) for i in range(5) for j in range(5)]
        failures = []
        for r in (1, 2, 3, 4):
            for R in range(2 * r, 9):
                rep = packing.sandwich_check(line_act, mu_line, (0,), r, R,
                                             sup_sample=line_sample, cap=1000)
                if not rep.chain_holds:
                    failures.append(("line", r, R))
                rep = packing.sandwich_check(torus_act, mu_torus, (0, 0), r, R,
                                             sup_sample=torus_sample, cap=1000)
                if not rep.chain_holds:
                    failures.append(("torus", r, R))
        assert failures == []


def test_criterion_06_hyperbolicity_constants():
    """Exact four-point and thin-triangle values on the bundled instances."""
    with budget(60.0):
        tripod = TripodSpace(3, 2, 1)
        assert hyperbolicity.four_point_delta(tripod).delta == 0
        star = WeightedGraph(["c", "a", "b", "d", "e"],
                             [("c", "a", 1), ("c", "b", 2), ("c", "d", 3),
                              ("c", "e", Fraction(1, 2))])
        assert hyperbolicity.four_point_delta(star).delta == 0
        path = WeightedGraph(list(range(7)),
                             [(i, i + 1, 1) for i in range(6)])
        assert hyperbolicity.four_point_delta(path).delta == 0
        fspace = presets.free_instance()[0]
        ball = [p for p, _ in fspace.ball((), 3, closed=True)]
        assert hyperbolicity.four_point_delta(fspace, points=ball).delta == 0
        c4 = WeightedGraph(list(range(4)),
                           [(i, (i + 1) % 4, 1) for i in range(4)])
        assert hyperbolicity.four_point_delta(c4).delta == 1
        for tree in (star, path):
            assert hyperbolicity.thin_triangle_delta(tree).delta == 0


def test_criterion_07_cocompact_bound_free_group():
    """Orbit-counting doubling bound on the rank-2 tree, r = 1..10."""
    with budget(10.0):
        _space, act, _mu = presets.free_instance()
        pairs = [(r, 2 * r) for r in range(1, 11)]
        rows = probes.cocompact_bg_check(act, (), delta=0, D=0,
                                         K=math.log(3), pairs=pairs)
        doubling = [row for row in rows
                    if row.formula == "counting-doubling(ii)"]
        assert len(doubling) == 10
        assert all(row.holds for row in doubling)
        # spot exactness of the conservative ratio at r = 3
        row3 = next(row for row in doubling if row.r == 3)
        assert row3.lhs == Fraction(2 * 3 ** 6 - 1, 2 * 3 ** 2 - 1)


def test_criterion_08_generator_bound_torus6():
    """#Sigma_2D on the 6-torus setup against floor(121^N e^{3KD})."""
    with budget(60.0):
        space, act, _mu = presets.torus_instance(6)
        mu = counting_measure(LeftTranslationAction(space.family, space),
                              (0, 0))
        D = act.quotient_diameter()
        assert D == 6
        k_star = min_exponent(space, mu, (0, 0), 1, 4.5, 14)
        assert k_star > 0
        params = BGParams(1, 4.5, k_star + 1e-6)
        cert = check_weak_bg(space, mu, (0, 0), params, 14)
        assert cert.verified
        syn = weak_to_synthetic(params)
        sigma = probes.sigma_r(act, (0, 0), 2 * D)
        measured = len(sigma.elements)
        assert measured == 13
        rep = bound_cross_check(
            "generators", measured,
            {"N": syn.N, "K": syn.K, "D": float(D)},
            assumptions=["certificate measured for the full lattice counting "
                         "measure, invariant under the sublattice"])
        assert rep.holds


def test_criterion_09_betti_bound_random_graphs(monkeypatch):
    """b1 <= 3^6 e^{13 K * 16 D} with measured cover entropy, 100 graphs."""
    # each cover stays within 180 000 vertices, below the module's budget
    monkeypatch.setattr(covers, "COVER_BUDGET", 180_000)
    with budget(300.0):
        rng = random.Random(90817)
        failures = []
        for trial in range(100):
            n = rng.randint(8, 40)
            vertices = list(range(n))
            edges = [(rng.randrange(i), i, 1) for i in range(1, n)]
            extras = rng.randint(0, 3)
            present = {(min(u, v), max(u, v)) for u, v, _ in edges}
            while extras > 0:
                u, v = rng.sample(vertices, 2)
                key = (min(u, v), max(u, v))
                if key not in present:
                    present.add(key)
                    edges.append((u, v, 1))
                    extras -= 1
            graph = WeightedGraph(vertices, edges)
            b1 = covers.graph_betti(graph)
            diameter = graph.diameter()
            cover = covers.universal_cover(graph, 0, 10)
            assert cover.betti() == b1
            mu = PullbackMeasure(cover, VertexMeasure())
            prof = entropy.growth_profile(cover.space, mu, (), 10, 1)
            est = entropy.entropy_estimate(prof)
            K = max(est.estimate, 0.0)
            rep = bound_cross_check("betti_hyperbolic", b1,
                                    {"K": K, "D": float(diameter), "delta": 0.0})
            if not rep.holds:
                failures.append((trial, b1, K, float(diameter)))
        assert failures == []


def test_criterion_10_systole_lower_bound():
    """Torus family m = 4..8: evaluated lower bound stays below systole m."""
    with budget(120.0):
        for m in range(4, 9):
            space, act, _mu = presets.torus_instance(m)
            mu = counting_measure(LeftTranslationAction(space.family, space),
                                  (0, 0))
            rep_sys = probes.systole(act, [(0, 0), (1, 2)])
            assert rep_sys.systole == m
            D = act.quotient_diameter()
            r0 = Fraction(m)
            r_max = 3 * D + r0
            sup = Fraction(0)
            profile = mu.profile(space, (0, 0), 2 * r_max)
            _step, rows = curvature._critical_checks(profile, r0 / 2, r_max)
            for _a, num, den, _form in rows:
                sup = max(sup, Fraction(num, den))
            C = float(sup) * (1 + 1e-9)
            cert = check_weak_bg(space, mu, (0, 0), BGParams(r0 / 2, C, 0.0),
                                 r_max)
            assert cert.verified
            rep = bound_cross_check(
                "systole_lower", float(m),
                {"D": float(D), "C": C, "K": 0.0, "r0": float(r0)},
                assumptions=[f"sys at the basepoint measured as {m} >= r0"])
            assert rep.holds


def test_criterion_11_strengthened_bounds_torus5():
    """Convexity-backed strengthened bounds on the 5-torus setup."""
    with budget(300.0):
        space, act, _mu = presets.torus_instance(5)
        mu = VertexMeasure()     # (5Z)^2-invariant measure on the full lattice
        r_max = Fraction(16)
        profile = mu.profile(space, (0, 0), 2 * r_max)
        sup = Fraction(0)
        _step, rows = curvature._critical_checks(profile, 1, r_max)
        for _a, num, den, _form in rows:
            sup = max(sup, Fraction(num, den))
        cert = check_weak_bg(space, mu, (0, 0),
                             BGParams(1, float(sup) * (1 + 1e-9), 0.0), r_max)
        assert cert.verified
        pairs = [(1, 4), (1, 6), (1, 8), (Fraction(3, 2), 6), (2, 6), (2, 8),
                 (2, 12), (3, 8), (3, 12), (4, 10), (4, 12), (4, 16)]
        rows = probes.strengthened_bg_check(act, (0, 0), cert, D=4,
                                            pairs=pairs)
        bad = [row for row in rows if row.holds is False]
        assert bad == []
        assert sum(1 for row in rows if row.holds) >= 12

        # supporting evidence: scaling-direction pairs realize only the
        # half-edge discretization slack; free-form pairs also recorded
        grid_graph = _lattice_window_graph(5)
        radial = [((0, 0), d, (2 * d[0], 2 * d[1]))
                  for d in [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (1, -2)]]
        rep_radial = hyperbolicity.convexity_defect(grid_graph,
                                                    triples=radial, grid=8)
        assert rep_radial.defect <= Fraction(1, 2)
        ends = [v for v in grid_graph.vertices
                if 0 < abs(v[0]) + abs(v[1]) <= 2]
        free_form = [((0, 0), a, b)
                     for a, b in itertools.combinations(ends, 2)]
        rep_free = hyperbolicity.convexity_defect(grid_graph,
                                                  triples=free_form, grid=8)
        assert rep_free.defect <= Fraction(3, 2)   # recorded, selection-driven


def _lattice_window_graph(n):
    verts = [(i, j) for i in range(-n, n + 1) for j in range(-n, n + 1)]
    edges = []
    for i, j in verts:
        if i + 1 <= n:
            edges.append(((i, j), (i + 1, j), 1))
        if j + 1 <= n:
            edges.append(((i, j), (i, j + 1), 1))
    return WeightedGraph(verts, edges)


def test_criterion_12_determinism():
    """Byte-identical reports across repeated seeded runs."""
    with budget(120.0):
        commands = [
            ["reproduce", "glued-line", "--r0", "1", "--eps", "1/10",
             "--C", "4", "--K", "1", "--seed", "11"],
            ["certify-bg", "--preset", "lattice2", "--r0", "1", "--C", "8",
             "--K", "1", "--rmax", "10", "--seed", "11"],
            ["entropy", "--preset", "free2", "--rmax", "12", "--seed", "11"],
            ["pack", "--preset", "lattice2", "--r", "1", "--R", "5",
             "--exact", "--seed", "11"],
            ["bounds", "generators", "--N", "2", "--K", "0", "--D", "5",
             "--seed", "11"],
            ["delta", "--preset", "free2", "--radius", "3", "--exhaustive",
             "--seed", "11"],
        ]
        for cmd in commands:
            argv = [sys.executable, "-m", "bgkit.cli"] + cmd
            first = subprocess.run(argv, capture_output=True, env=DET_ENV)
            second = subprocess.run(argv, capture_output=True, env=DET_ENV)
            assert first.stdout, f"no report from {cmd}"
            assert first.stdout == second.stdout, f"nondeterministic: {cmd}"
