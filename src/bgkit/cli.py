"""Command-line entry point.

Every subcommand reads inputs (space/action JSON files or a preset), runs
one toolkit operation, prints the JSON report on stdout and a one-line
human summary on stderr.  Exit codes: 0 success/verified, 2 a mathematical
violation was found (so harnesses can assert expected violations), 1
operational errors.  --dry-run validates inputs and prints the plan only.

Each subcommand imports the modules it runs when it runs them, and `run`
adds the arguments of the subcommand named by argv[0] alone (of all 18 only
for top-level --help, no subcommand or an unknown one), so a process loads
and builds only what its one subcommand needs.  At import this module loads
`bgkit.exact` and `bgkit.reports`, and from the standard library
`argparse`, `json` and `fractions` (which loads `decimal` and `numbers`)
beyond what the interpreter has loaded at start; not `dataclasses`,
`inspect` or `datetime`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import reports
from .exact import DomainError, WindowError, field, rational, record

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _inputs(args, whole=False):
    """The `presets.Instance` of a --space file or a preset: its space is
    built at once, its action and measure when first read.  An explicit
    --measure is applied at once, so every subcommand reads it; `whole`
    builds the action and measure at once as well, so that every input the
    builder refuses is refused."""
    from . import presets
    if args.preset:
        if args.space:
            raise DomainError("--preset and --space are exclusive: "
                              "a preset brings its own space")
        if args.action:
            raise DomainError("--action needs a --space file: "
                              "a preset brings its own action")
        spec = presets.spec(args.preset)
    elif args.space:
        spec = _load_json(args.space)
        if args.action:
            spec["action"] = _load_json(args.action)
    else:
        raise DomainError("no --space file and no --preset given")
    inp = presets.Instance(spec)
    if whole:
        inp.build()
    if args.measure:
        from . import measures
        inp.measure = measures.measure_from_spec(
            {"measure": args.measure}, inp.space, action=inp.action)
    return inp


def _emit(args, report: reports.Report, summary: str):
    if getattr(args, "format", "json") == "csv":
        reports.write_csv(report, sys.stdout)
    else:
        sys.stdout.write(report.to_json())
    print(summary, file=sys.stderr)
    if getattr(args, "csv", None):
        reports.export_csv(report, args.csv)


def _status_exit(status: str) -> int:
    if status in ("verified", "ok", "holds", "computed", "success"):
        return EXIT_OK
    if status == "violated":
        return EXIT_VIOLATION
    return EXIT_ERROR


# -- options ------------------------------------------------------------------
# Each subcommand's options are (flags, add_argument keywords) pairs, in the
# order its --help lists them.


def _real(text) -> float:
    """The type of every float flag: a finite decimal or p/q, as the nearest
    double.  A decimal goes straight to `float`, which rounds it as its
    rational would round, without building a power of ten for its exponent."""
    try:
        value = float(rational(text) if "/" in text else text)
    except (ValueError, OverflowError):      # DomainError is a ValueError
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite decimal or p/q")
    return value


def _arg(*flags, **kwargs):
    return flags, kwargs


_SEED_DRY_RUN = (_arg("--seed", type=int, default=0),
                 _arg("--dry-run", action="store_true"))
# the options of every subcommand that reads a space
_SPACE = (_arg("--space", help="space description JSON file"),
          _arg("--action", help="action description JSON file"),
          _arg("--measure", help="override: counting_orbit or vertex_uniform"),
          _arg("--preset", help="bundled instance "
               "(lattice2, free2, atom, torusM, lineM, glued-line)"),
          *_SEED_DRY_RUN)
_CENTER = _SPACE + (_arg("--center", help="center point (JSON)"),)
# the output flags of a subcommand whose report has a tabular payload
_TABULAR = (_arg("--format", choices=["json", "csv"], default="json"),
            _arg("--csv", help="also write the tabular payload to CSV"))
# systole and diastole
_SAMPLED = _SPACE + (_arg("--sample", help="semicolon-separated point list"),
                     _arg("--ceiling"))
_BOUND_PARAMS = ("N", "K", "D", "C", "r0", "delta", "eps0", "C0", "r")


# -- operations ---------------------------------------------------------------
# Each computes one subcommand's report content; run() does the shared steps.


@record
class _Outcome:
    params: dict
    result: object
    summary: str
    status: str = "computed"
    witnesses: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)


_OPERATIONS = {}


def _operation(name, summary, plan, options, inputs=True, action=False,
               whole=False):
    """Register subcommand `name` and its compute function in
    `_OPERATIONS`, the one table of subcommands, in the order --help lists
    them.  `summary` is its line in --help, `plan` the --dry-run text,
    formatted with the parsed arguments, and `options` its arguments;
    `inputs` says whether it reads a space (--space/--preset), `action`
    whether it also needs a group action on it, and `whole` whether it
    builds the action and measure of every input, read or not."""
    def register(compute):
        _OPERATIONS[name] = (summary, options, plan, inputs, action, whole,
                             compute)
        return compute
    return register


# validate refuses every input that the builder refuses
@_operation("validate", "metric diagnostics for a space",
            "validate the space description", _SPACE, whole=True)
def _validate(args, inp):
    diag = inp.space.validate()
    status = "ok" if diag.get("ok") else "violated"
    return _Outcome(params={}, result=diag, summary=f"validate: {status}",
                    status=status)


@_operation("balls", "enumerate a ball and its mass",
            "enumerate ball of radius {r}",
            _CENTER + (_arg("--r", required=True),
                       _arg("--closed", action="store_true")))
def _balls(args, inp):
    from . import measures, spaces
    x = inp.point(args.center)
    r = rational(args.r)
    ball = spaces.enumerate_ball(inp.space, x, r, closed=args.closed)
    mass = None
    if inp.measure is not None:
        mass = measures.ball_mass(inp.measure, inp.space, x, r,
                                  closed=args.closed)
    return _Outcome(
        params={"center": x, "r": r, "closed": args.closed},
        result={"count": len(ball), "mass": mass,
                "points": [p for p, _ in ball[:200]]},
        summary=f"ball: {len(ball)} support points, mass {mass}")


def _certificate_outcome(cert, params, label):
    payload = {
        "status": cert.status,
        "r_min": cert.r_min, "r_max": cert.r_max,
        "critical_radii_checked": cert.critical_radii_checked,
        "violations": cert.violations,
        "center": cert.center,
        "notes": cert.notes,
        "ratio_scan": list(cert.scan_rows),
    }
    witnesses = [{"kind": kind, "radius": w.radius, "lhs": w.lhs,
                  "rhs": w.rhs, "form": w.form}
                 for kind, w in (("worst", cert.witness),
                                 ("first", cert.first_violation))
                 if w is not None]
    return _Outcome(params=params, result=payload,
                    summary=f"{label}: {cert.status}", status=cert.status,
                    witnesses=witnesses)


@_operation("certify-bg", "weak concentric-ball certificate",
            "scan the weak concentric-ball inequality",
            _CENTER + _TABULAR + (
                _arg("--r0", required=True),
                _arg("--C", type=_real, required=True),
                _arg("--K", type=_real, required=True),
                _arg("--rmax", required=True),
                _arg("--all-centers", dest="all_centers",
                     help="semicolon-separated center list")))
def _certify_bg(args, inp):
    from . import curvature
    params = curvature.BGParams(rational(args.r0), args.C, args.K)
    if args.all_centers is None:
        centers = inp.point(args.center)
    elif args.center is not None:
        raise DomainError("--center and --all-centers both name the centers "
                          "to scan; give one of them")
    else:
        centers = [inp.point(raw) for raw in args.all_centers.split(";")]
    cert = curvature.check_weak_bg(inp.space, inp.measure, centers, params,
                                   rational(args.rmax))
    return _certificate_outcome(
        cert, {"r0": params.r0, "C": params.C, "K": params.K,
               "rmax": rational(args.rmax)}, "certify-bg")


@_operation("synthetic", "dimension-style growth certificate",
            "scan the dimension-style growth condition",
            _CENTER + _TABULAR + (_arg("--N", type=_real, required=True),
                                  _arg("--K", type=_real, required=True),
                                  _arg("--rmax", required=True)))
def _synthetic(args, inp):
    from . import curvature
    params = curvature.SyntheticParams(args.N, args.K)
    cert = curvature.check_bg_synthetic(inp.space, inp.measure,
                                        inp.point(args.center), params,
                                        rational(args.rmax))
    return _certificate_outcome(
        cert, {"N": args.N, "K": args.K, "rmax": rational(args.rmax)},
        "synthetic")


@_operation("doubling", "doubling constant on [r0/2, 5r0/2]",
            "compute the doubling constant on [r0/2, 5r0/2]",
            _CENTER + (_arg("--r0", required=True),))
def _doubling(args, inp):
    from . import curvature
    sup, where = curvature.doubling_constant(inp.space, inp.measure,
                                             inp.point(args.center),
                                             rational(args.r0))
    return _Outcome(params={"r0": rational(args.r0)},
                    result={"C0": sup, "C0_float": float(sup),
                            "attained_at": where},
                    summary=f"doubling: C0 = {float(sup):.6g} at r = {where}")


@_operation("entropy", "growth profile and entropy estimate",
            "sample the growth profile and estimate entropy",
            _CENTER + _TABULAR + (_arg("--rmax", required=True),
                                  _arg("--step", default="1"),
                                  _arg("--tail", type=_real, default=0.3)))
def _entropy(args, inp):
    from . import entropy
    x = inp.point(args.center)
    prof = entropy.growth_profile(inp.space, inp.measure, x,
                                  rational(args.rmax), rational(args.step))
    est = entropy.entropy_estimate(prof, tail_fraction=args.tail)
    return _Outcome(
        params={"rmax": rational(args.rmax), "step": rational(args.step),
                "tail": args.tail},
        result={"estimate": est.estimate, "window_low": est.window_low,
                "window_high": est.window_high, "converged": est.converged,
                "growth_profile": [(s.R, s.mass, s.h) for s in prof.samples]},
        summary=(f"entropy: {est.estimate:.6g} "
                 f"window [{est.window_low:.6g}, {est.window_high:.6g}]"),
        assumptions=est.notes)


@_operation("delta", "hyperbolicity constants",
            "estimate the hyperbolicity constant",
            _CENTER + (
                _arg("--exhaustive", action="store_true"),
                _arg("--samples", type=int),
                _arg("--thin", action="store_true",
                     help="thin-triangle constant along graph geodesics"),
                _arg("--radius", default="3",
                     help="ball radius supplying points on infinite spaces")))
def _delta(args, inp):
    from . import hyperbolicity, spaces
    # the points are the whole support of a finite space, and a ball around
    # --center on any other
    whole = isinstance(inp.space, (spaces.WeightedGraph,
                                   spaces.FiniteMetricSpace,
                                   spaces.TripodSpace))
    if whole and args.center is not None:
        raise DomainError(f"--center: delta reads every point of this "
                          f"{inp.space.kind} space, not a ball")
    if args.thin:
        if not isinstance(inp.space, spaces.WeightedGraph):
            raise DomainError("--thin needs a graph space")
        count = {} if args.samples is None else {"count": args.samples}
        rep_h = hyperbolicity.thin_triangle_delta(inp.space,
                                                  seed=args.seed or 0, **count)
    else:
        mode = "exhaustive" if args.exhaustive or not args.samples else "sampled"
        points = None
        if not whole:
            x = inp.point(args.center)
            points = [p for p, _ in spaces.enumerate_ball(
                inp.space, x, rational(args.radius), closed=True)]
        rep_h = hyperbolicity.four_point_delta(
            inp.space, points=points, mode=mode,
            count=args.samples or 2000, seed=args.seed or 0)
    return _Outcome(params={"method": rep_h.method},
                    result={"delta": rep_h.delta,
                            "delta_float": float(rep_h.delta),
                            "points_used": rep_h.points_used},
                    summary=f"delta: {float(rep_h.delta):.6g} by {rep_h.method}",
                    witnesses=[rep_h.witness])


@_operation("convexity", "geodesic convexity defect",
            "scan the geodesic convexity defect",
            _CENTER + (_arg("--grid", type=int, default=8),))
def _convexity(args, inp):
    from . import hyperbolicity
    # without --center the origin is the repr-first vertex, not inp.point's
    # first vertex
    origin = None if args.center is None else inp.point(args.center)
    rep_c = hyperbolicity.convexity_defect(inp.space, grid=args.grid,
                                           origin=origin)
    return _Outcome(params={"grid": args.grid},
                    result={"defect": rep_c.defect,
                            "defect_float": float(rep_c.defect),
                            "samples": rep_c.samples},
                    summary=f"convexity defect: {float(rep_c.defect):.6g}",
                    witnesses=[rep_c.witness])


@_operation("pack", "packing counts", "compute a packing count",
            _CENTER + (
                _arg("--r", required=True), _arg("--R", required=True),
                _arg("--exact", action="store_true"),
                _arg("--orbit", action="store_true",
                     help="restrict centers to the orbit of the center point"),
                _arg("--cap", type=int)))
def _pack(args, inp):
    from . import packing
    x = inp.point(args.center)
    mode = "exact" if args.exact else "greedy"
    cap = packing.EXACT_CAP if args.cap is None else args.cap
    if args.orbit:
        if inp.action is None:
            raise DomainError("--orbit needs an action")
        res = packing.gamma_packing_count(inp.action, x, rational(args.r),
                                          rational(args.R), mode=mode,
                                          cap=cap)
    else:
        res = packing.packing_count(inp.space, x, rational(args.r),
                                    rational(args.R), mode=mode, cap=cap)
    return _Outcome(params={"r": rational(args.r), "R": rational(args.R),
                            "mode": mode, "orbit": bool(args.orbit)},
                    result={"count": res.count, "method": res.method,
                            "candidates": res.candidates,
                            "centers": res.centers[:100]},
                    summary=f"pack: {res.count} ({res.method})")


# registered bottom-up: systole first, as --help lists them
@_operation("diastole", "diastole over a sampled domain",
            "compute diastole over the sampled domain", _SAMPLED, action=True)
@_operation("systole", "systole over a sampled domain",
            "compute systole over the sampled domain", _SAMPLED, action=True)
def _systole(args, inp):
    from . import probes
    want = args.command
    sample = [inp.point(raw) for raw in (args.sample.split(";")
                                         if args.sample else [None])]
    rep_s = probes.systole(inp.action, sample, ceiling=args.ceiling)
    headline = rep_s.systole if want == "systole" else rep_s.diastole
    return _Outcome(
        params={"sample_size": len(sample)},
        result={"systole": rep_s.systole, "diastole": rep_s.diastole,
                "torsion_free_systole": rep_s.torsion_free_systole,
                "torsion_free_diastole": rep_s.torsion_free_diastole,
                "per_point": [(p.point, p.systole, p.torsion_free_systole)
                              for p in rep_s.per_point]},
        summary=f"{want}: {headline}",
        assumptions=(["sample-based statistics over the listed points"]
                     + rep_s.warnings))


@_operation("thin-set", "thin-set membership and connectivity",
            "classify the sampled thin set",
            _SPACE + (
                _arg("--r", required=True), _arg("--sample", required=True),
                _arg("--adjacency", default="1",
                     help="sample points within this distance are adjacent"),
                _arg("--ceiling")), action=True)
def _thin_set(args, inp):
    from . import probes
    sample = [inp.point(raw) for raw in args.sample.split(";")]
    adjacency = {p: [] for p in sample}
    for i, p in enumerate(sample):
        for q in sample[i + 1:]:
            if inp.space.distance(p, q) <= rational(args.adjacency):
                adjacency[p].append(q)
                adjacency[q].append(p)
    rep_t = probes.thin_set(inp.action, rational(args.r), sample, adjacency,
                             ceiling=args.ceiling)
    return _Outcome(
        params={"r": rational(args.r), "adjacency": rational(args.adjacency)},
        result={"verdict": rep_t.verdict,
                "torsion_free_verdict": rep_t.torsion_free_verdict,
                "membership": [(p, m) for p, m in rep_t.membership.items()]},
        summary=f"thin-set: {rep_t.verdict}")


@_operation("margulis", "nilpotency flip radii",
            "scan displacement radii for nilpotency flips",
            _SPACE + (_arg("--sample"), _arg("--ceiling", required=True)),
            action=True)
def _margulis(args, inp):
    from . import probes
    sample = [inp.point(raw) for raw in (args.sample.split(";")
                                         if args.sample else [None])]
    pts = probes.margulis_estimate(inp.action, sample,
                                    ceiling=rational(args.ceiling))
    return _Outcome(
        params={"ceiling": rational(args.ceiling)},
        result={"per_point": [(p.point, p.estimate, p.attained,
                               p.provenance) for p in pts],
                "entropy_margulis_constant": "alpha0(delta0,H0)"},
        summary=(f"margulis: min estimate "
                 f"{min(float(p.estimate) for p in pts):.6g}"),
        assumptions=["the entropy-Margulis constant alpha0(delta0,H0) has no "
                     "published value and is reported symbolically only"])


@_operation("short-gens", "short generating family",
            "greedy short generating family",
            _CENTER + (_arg("--R", required=True),), action=True)
def _short_gens(args, inp):
    from . import probes
    res = probes.short_generators(inp.action, inp.point(args.center),
                                   rational(args.R))
    status = "ok" if (res.reach_ok and res.separation_ok) else "violated"
    return _Outcome(
        params={"R": rational(args.R)},
        result={"count": len(res.elements),
                "codiameter": res.codiameter,
                "index_verdict": res.index_verdict, "index": res.index,
                "orbit_points": res.orbit_points[:100]},
        summary=(f"short-gens: {len(res.elements)} generators, "
                 f"index {res.index or res.index_verdict}"),
        status=status)


def _nu_oracle(args):
    raw = getattr(args, "nu_table", None)
    if not raw:
        return None
    from . import bounds
    if raw.strip().startswith("["):
        table = json.loads(raw)
    else:
        table = _load_json(raw)
        if isinstance(table, dict):
            table = table["nu_table"]
    return bounds.NuOracle(table)


@_operation("bounds", "evaluate an explicit bound formula",
            "evaluate bound formula {kind}",
            (_arg("kind"),
             *(_arg(f"--{name}", type=_real) for name in _BOUND_PARAMS),
             _arg("--nu-table", dest="nu_table",
                  help='step table as JSON, e.g. "[[10,3],[1e6,7]]"'),
             *_SEED_DRY_RUN), inputs=False)
def _bounds(args, _inp):
    from . import bounds
    params = {}
    for name in _BOUND_PARAMS:
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    value = bounds.evaluate_bound(args.kind, params, nu=_nu_oracle(args))
    return _Outcome(params={"kind": args.kind, **params},
                    result={"value": value},
                    summary=f"bounds {args.kind}: {value:.9g}")


@_operation("check", "measured quantity vs bound formula",
            "cross-check measured value against {kind}",
            (_arg("kind"), _arg("--measured", type=_real, required=True),
             _arg("--params", required=True, help="bound parameters as JSON"),
             _arg("--assume", action="append"),
             _arg("--nu-table", dest="nu_table"), *_SEED_DRY_RUN),
            inputs=False)
def _check(args, _inp):
    from . import bounds
    params = json.loads(args.params)
    rep_c = bounds.bound_cross_check(args.kind, args.measured, params,
                                     nu=_nu_oracle(args),
                                     assumptions=args.assume or [])
    status = {True: "holds", False: "violated"}.get(rep_c.holds,
                                                    "inconclusive")
    return _Outcome(params={"kind": args.kind, "measured": args.measured,
                            **params},
                    result={"bound": rep_c.bound, "slack": rep_c.slack,
                            "direction": rep_c.direction},
                    summary=(f"check {args.kind}: {status} "
                             f"(slack {rep_c.slack:.6g})"),
                    status=status, assumptions=rep_c.assumptions)


@_operation("reproduce", "rebuild a bundled counterexample scenario",
            "reproduce scenario {scenario}",
            (_arg("scenario", help="glued-line"), _arg("--r0", default="1"),
             _arg("--eps", default="1/10"),
             _arg("--C", type=_real, default=4.0),
             _arg("--K", type=_real, default=1.0), *_SEED_DRY_RUN,
             _arg("--csv")), inputs=False)
def _reproduce(args, _inp):
    from . import curvature, presets
    if args.scenario != "glued-line":
        raise DomainError(f"unknown scenario {args.scenario!r}")
    space, action, measure = presets.glued_line_instance(args.r0, args.eps)
    r0 = rational(args.r0)
    params = curvature.BGParams(r0, args.C, args.K)
    r_max = r0 + 4 * space.eps
    cert = curvature.check_weak_bg(space, measure, space.tip(0), params, r_max)
    out = _certificate_outcome(
        cert, {"scenario": args.scenario, "r0": r0, "eps": rational(args.eps),
               "C": args.C, "K": args.K}, f"reproduce {args.scenario}")
    # the scan's own profile, to 2 r_max, holds both balls
    profile = measure.profile(space, space.tip(0), 2 * r_max)
    radius = r0 + space.eps
    out.result["ball_at_r0_plus_eps"] = profile.mass_lt(radius)
    out.result["ball_at_doubled"] = profile.mass_lt(2 * radius)
    return out


@_operation("cover", "universal cover window summary",
            "materialize the universal cover window",
            _CENTER + (_arg("--window", required=True),))
def _cover(args, inp):
    from . import covers, spaces
    if not isinstance(inp.space, spaces.WeightedGraph):
        raise DomainError("cover needs a graph space")
    base = inp.point(args.center, default=sorted(
        inp.space.vertices, key=spaces.point_key)[0])
    cover = covers.universal_cover(inp.space, base, rational(args.window))
    return _Outcome(params={"window": rational(args.window)},
                    result={"betti": cover.betti(),
                            "vertices_materialized": len(cover.vertices),
                            "deck_rank": len(cover.generator_words)},
                    summary=(f"cover: b1 = {cover.betti()}, "
                             f"{len(cover.vertices)} vertices in window"))


# -- parser -------------------------------------------------------------------


def build_parser(command=None):
    """The `bgkit` parser.  When `command` names a subcommand it holds that
    subparser alone; otherwise (top-level --help, no subcommand or an
    unknown one) it holds all of them, so that --help and the error list
    every subcommand."""
    parser = argparse.ArgumentParser(
        prog="bgkit",
        description="exact growth/curvature/packing checks on discrete "
                    "metric measure spaces")
    every = command not in _OPERATIONS
    # a lone subparser still shows every choice in the top-level usage;
    # the full build keeps the default, as an "invalid choice" error names
    # the metavar in place of the dest
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if every else "{" + ",".join(_OPERATIONS) + "}")
    for name, (summary, options, *_run) in _OPERATIONS.items():
        if every or name == command:
            sub = subs.add_parser(name, help=summary)
            for flags, kwargs in options:
                sub.add_argument(*flags, **kwargs)
    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    (_summary, _options, plan, takes_inputs, needs_action, whole,
     compute) = _OPERATIONS[args.command]
    try:
        # a dry run validates every input, as validate does
        inp = (_inputs(args, whole=whole or args.dry_run) if takes_inputs
               else None)
        if args.dry_run:
            print(f"dry-run: {plan.format_map(vars(args))}", file=sys.stderr)
            return EXIT_OK
        if needs_action and inp.action is None:
            raise DomainError(f"{args.command} needs an action")
        out = compute(args, inp)
        rep = reports.Report(operation=args.command, params=out.params,
                             status=out.status, result=out.result,
                             witnesses=out.witnesses,
                             assumptions=out.assumptions, seed=args.seed)
        _emit(args, rep, out.summary)
        return _status_exit(out.status)
    except KeyError as exc:
        print(f"error: missing input field {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (DomainError, WindowError, FileNotFoundError, OverflowError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
