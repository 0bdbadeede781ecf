"""The four workloads: the timed pieces of one op, and the output checks.

Every op of a workload repeats the same batch of work on the same seeded
inputs, so the median is taken over like samples.  Ops call bgkit through
module attributes at call time, so the tracer's wrappers see every call.
The checks run after the timed phase and compare against ``oracles``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
from fractions import Fraction

import gauge
import inputs
import oracles
from bgkit import cli, curvature, hyperbolicity, packing


# -- cli-cold ---------------------------------------------------------------------


def _checked(name, code, out, rss):
    """A command that exits with another code than expected fails its op;
    `reproduce` finds the glued-line counterexample and exits with 2."""
    want = 2 if name == "reproduce" else 0
    if code != want:
        raise RuntimeError(f"{name}: exit code {code}, expected {want}")
    return code, out, rss


def cli_cold_pieces(commands, env):
    """One fresh `python -m bgkit.cli` process per command; each piece
    returns (exit code, stdout bytes, child's peak RSS in MB)."""
    def piece(name, argv):
        _wall, code, out, rss = gauge.run_child(
            [sys.executable, "-m", "bgkit.cli"] + argv, env=env,
            capture="stdout")
        return _checked(name, code, out, rss)
    return [functools.partial(piece, name, argv) for name, argv in commands]


def cli_inprocess_pieces(commands):
    """The same commands through cli.run in this process, imports done."""
    def piece(name, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return _checked(name, code, buf.getvalue().encode(), 0.0)
    return [functools.partial(piece, name, argv) for name, argv in commands]


def check_cli(commands, cycles):
    """Checks on the (exit code, stdout, RSS) results of every cycle; the
    pieces have already checked the exit codes."""
    errors = []
    names = [name for name, _argv in commands]
    for i, name in enumerate(names):
        if any(other[i][1] != cycles[0][i][1] for other in cycles[1:]):
            errors.append(f"{name}: stdout differs between cycles")
    try:
        rep = {name: json.loads(result[1])
               for name, result in zip(names, cycles[0])}
    except ValueError as exc:
        return errors + [f"a command's stdout is not JSON: {exc}"]

    worst = [w for w in rep["reproduce"]["witnesses"] if w["kind"] == "worst"]
    r0, eps = Fraction(1), Fraction(1, 10)
    if not worst or worst[0]["lhs"] != str(2 * math.floor(r0 / eps) + 3):
        errors.append("reproduce: worst lhs is not 2 floor(r0/eps) + 3")
    elif not math.isclose(worst[0]["rhs"], 4 * math.exp(1.1), rel_tol=1e-12):
        errors.append("reproduce: worst rhs is not 4 e^1.1")

    if rep["bounds"]["result"]["value"] != math.floor(121 ** 2):
        errors.append("bounds generators: value is not floor(121^2)")

    growth = rep["entropy"]["result"]["growth_profile"]
    if [int(m) for _R, m, _h in growth] != [oracles.free_count(R)
                                            for R in range(1, 13)]:
        errors.append("entropy: growth masses are not 2 3^R - 1")
    if abs(rep["entropy"]["result"]["estimate"] - math.log(3)) >= 0.02:
        errors.append("entropy: estimate not within 0.02 of ln 3")

    want = oracles.scan_status(oracles.lattice_count, Fraction(1),
                               Fraction(10), 8.0, 1.0)
    if rep["certify-bg"]["status"] != want:
        errors.append(f"certify-bg: status {rep['certify-bg']['status']}, "
                      f"closed-form counts give {want}")

    pack = rep["pack"]["result"]
    candidates = [(x, y) for x in range(-4, 5) for y in range(-4, 5)
                  if abs(x) + abs(y) <= 4]
    if pack["count"] != oracles.max_grid_packing(candidates):
        errors.append("pack: count differs from the independent solver")
    centres = [tuple(c) for c in pack["centers"]]
    if len(centres) != pack["count"] or any(
            oracles.l1(a, b) < 2 for i, a in enumerate(centres)
            for b in centres[i + 1:]) or any(
            oracles.l1(c, (0, 0)) > 4 for c in centres):
        errors.append("pack: centres are not a packing of B(0, 5) by r = 1")

    if rep["delta"]["result"]["delta"] != "0":
        errors.append("delta free2: not 0 on a tree")
    if rep["validate"]["status"] != "ok" or not rep["validate"]["result"]["ok"]:
        errors.append("validate: not ok")
    return errors


# -- certify-scan -------------------------------------------------------------------


def certify_pieces(data):
    """Pieces of SCAN_PIECE triples; each returns one row per (triple,
    instance)."""
    triples = data["triples"]
    step = inputs.SCAN_PIECE
    return [functools.partial(_certify_rows, data["instances"],
                              triples[i:i + step])
            for i in range(0, len(triples), step)]


def _certify_rows(instances, triples):
    r_max = inputs.SCAN_R_MAX
    out = []
    for r0, C, K, N in triples:
        params = curvature.BGParams(r0, C, K)
        syn = curvature.SyntheticParams(N, K)
        for _name, space, _act, mu in instances:
            x = space.identity()
            weak = curvature.check_weak_bg(space, mu, x, params, r_max)
            conv = curvature.weak_to_synthetic(params)
            again = curvature.check_bg_synthetic(space, mu, x, conv, r_max)
            direct = curvature.check_bg_synthetic(space, mu, x, syn, r_max)
            back = curvature.synthetic_to_weak(syn)
            weak2 = curvature.check_weak_bg(space, mu, x, back, r_max)
            k_star = curvature.min_exponent(space, mu, x, r0, C, r_max)
            out.append((weak.status, conv.N, again.status, direct.status,
                        (back.r0, back.C), weak2.status, k_star))
    return out


def check_certify(data, results):
    errors = []
    r_max = inputs.SCAN_R_MAX
    rows = (row for piece in results for row in piece)
    trips = 0
    for r0, C, K, N in data["triples"]:
        n_conv = oracles.weak_to_synthetic(r0, C, K)
        for name, _space, _act, _mu in data["instances"]:
            count = oracles.COUNTS[name]
            weak, conv_n, again, direct, back, weak2, k_star = next(rows)
            scale = Fraction(N) / Fraction(K)
            want = (oracles.scan_status(count, r0, r_max, C, K),
                    oracles.scan_status(count, Fraction(n_conv) / Fraction(K),
                                        r_max, 2.0 ** n_conv, K),
                    oracles.scan_status(count, scale, r_max, 2.0 ** N, K),
                    oracles.scan_status(count, scale, r_max, 2.0 ** N, K))
            if (weak, again, direct, weak2) != want:
                errors.append(f"{name} at {(r0, C, K, N)}: verdicts "
                              f"{(weak, again, direct, weak2)}, "
                              f"closed-form counts give {want}")
            if not math.isclose(conv_n, n_conv, rel_tol=1e-12) or \
                    back != (scale, 2.0 ** N):
                errors.append(f"{name} at {(r0, C, K, N)}: conversion differs")
            k_want = oracles.min_exponent(count, r0, r_max, C)
            if not math.isclose(k_star, k_want, rel_tol=1e-9, abs_tol=1e-12):
                errors.append(f"{name} at {(r0, C, K, N)}: min_exponent "
                              f"{k_star}, closed-form counts give {k_want}")
            if weak == "verified":
                trips += 1
                if again != "verified":
                    errors.append(f"{name}: weak to synthetic round trip fails")
            if direct == "verified":
                trips += 1
                if weak2 != "verified":
                    errors.append(f"{name}: synthetic to weak round trip fails")
    if trips == 0:
        errors.append("no verified certificate: the round trips were not tried")
    return errors


# -- sandwich -------------------------------------------------------------------------


def sandwich_pieces(data):
    """One piece per (r, R) pair; each returns one row per setup."""
    return [functools.partial(_sandwich_rows, data, r, R)
            for r, R in inputs.SANDWICH_PAIRS]


def _sandwich_rows(data, r, R):
    out = []
    for label, action, x, sample in data["setups"]:
        rep = packing.sandwich_check(action, data["measure"], x, r, R,
                                     sup_sample=sample, cap=inputs.SANDWICH_CAP)
        out.append((label, r, R, rep.counting_lower, rep.pack_orbit,
                    rep.invariant_ratio, rep.pack_all, rep.sup_ratio,
                    rep.chain_holds, rep.lemma_pack_vs_orbit))
    return out


def sandwich_expected(label, r, R):
    """Closed-form and subset-search values of one sandwich instance."""
    m, k = (10, 1) if label == "line" else (5, 2)

    def ball(n):
        return oracles.lattice_count(n, k)

    lower = Fraction(ball((R - r) // m), ball(math.ceil(Fraction(2 * r, m)) - 1))
    steps = range(-((R - r) // m), (R - r) // m + 1)
    if k == 1:
        orbit = [(a * m,) for a in steps]
    else:
        orbit = [(a * m, b * m) for a in steps for b in steps
                 if (abs(a) + abs(b)) * m <= R - r]
    pack_orbit = oracles.subset_pack(orbit, 2 * r)
    inv_ratio = Fraction(ball(R - 1), ball(r - 1))
    pack_all = oracles.lattice_pack(r, R, k)
    sup_ratio = Fraction(ball(2 * R - 1), ball(r - 1))
    chain = lower <= pack_orbit <= inv_ratio and pack_all <= sup_ratio
    return (label, r, R, lower, pack_orbit, inv_ratio, pack_all, sup_ratio,
            chain, None)


def check_sandwich(data, results):
    errors = []
    outputs = [row for piece in results for row in piece]
    want = [sandwich_expected(label, r, R) for r, R in inputs.SANDWICH_PAIRS
            for label, _a, _x, _s in data["setups"]]
    for got, exp in zip(outputs, want):
        if tuple(got) != exp:
            errors.append(f"sandwich {exp[:3]}: got {got[3:]}, "
                          f"independent values {exp[3:]}")
        if not got[8]:
            errors.append(f"sandwich {exp[:3]}: chain does not hold")
    if len(outputs) != len(want):
        errors.append("sandwich: wrong number of reports")
    return errors


# -- four-point ---------------------------------------------------------------------


def four_point_pieces(data):
    """One piece per point set; each returns (delta, witness, points used)."""
    space = data["free_space"]
    pieces = [functools.partial(_four_point, space, ball, inputs.FREE_BALL_CAP)
              for _radius, ball in data["balls"]]
    pieces += [functools.partial(_four_point, graph, None,
                                 hyperbolicity.FOUR_POINT_CAP)
               for _n, _edges, graph in data["graphs"]]
    return pieces


def _four_point(space, points, cap):
    rep = hyperbolicity.four_point_delta(space, points=points, cap=cap)
    return rep.delta, rep.witness, rep.points_used


def four_point_expected(data):
    """(delta, scale, integer distance matrix) per graph, computed once."""
    out = []
    for n, edges, _graph in data["graphs"]:
        scale, int_edges = oracles.integer_weights(edges)
        dist = oracles.all_pairs(n, int_edges)
        out.append((Fraction(oracles.four_point_twice(dist), 2 * scale),
                    scale, dist))
    return out


def check_four_point(data, outputs, expected):
    errors = []
    n_balls = len(data["balls"])
    for (radius, ball), (delta, witness, used) in zip(data["balls"], outputs):
        if used != oracles.free_count(radius) or len(ball) != used:
            errors.append(f"free2 ball {radius}: {used} points used")
        if delta != 0:
            errors.append(f"free2 ball {radius}: delta {delta} on a tree")
        if oracles.four_point_value(oracles.free_distance, *witness) != 0:
            errors.append(f"free2 ball {radius}: witness does not attain 0")
    for (n, _e, _g), (want, scale, dist), (delta, witness, used) in zip(
            data["graphs"], expected, outputs[n_balls:]):
        if used != n or delta != want:
            errors.append(f"graph n={n}: delta {delta}, independent {want}")
        value = oracles.four_point_value(lambda a, b: int(dist[a, b]), *witness)
        if Fraction(value, 2 * scale) != want:
            errors.append(f"graph n={n}: witness does not attain delta")
    return errors
