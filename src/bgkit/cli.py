"""Command-line entry point.

Every subcommand reads inputs (space/action JSON files or a preset), runs
one toolkit operation, prints the JSON report on stdout and a one-line
human summary on stderr.  Exit codes: 0 success/verified, 2 a mathematical
violation was found (so harnesses can assert expected violations), 1
operational errors.  --dry-run validates inputs and prints the plan only.

This module holds the option tables, `_OPERATIONS`, `build_parser` and
`run`, and no compute code: each subcommand's compute function lives in
the library module it runs, which `_OPERATIONS` names and `run` imports
when the subcommand runs, and returns the `reports.Report` it builds, to
which `run` adds the operation and the seed.  `run` adds the arguments of
the subcommand named by argv[0] alone (of all 18 only for top-level
--help, no subcommand or an unknown one), so a process loads, compiles and
builds only what its one subcommand needs.  No compute function imports this module: under
`python -m bgkit.cli` it runs as `__main__`, and an import of `bgkit.cli`
would compile it a second time.  At import this module loads
`bgkit.exact` and `bgkit.reports`, and from the standard library
`argparse`, `json` and `fractions` (which loads `decimal` and `numbers`)
beyond what the interpreter has loaded at start; not `dataclasses`,
`inspect` or `datetime`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys

from . import reports
from .exact import DomainError, WindowError, rational

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


def _emit(args, report: reports.Report):
    if getattr(args, "format", "json") == "csv":
        reports.write_csv(report, sys.stdout)
    else:
        sys.stdout.write(report.to_json())
    print(report.summary, file=sys.stderr)
    if getattr(args, "csv", None):
        reports.export_csv(report, args.csv)


def _status_exit(status: str) -> int:
    if status in ("verified", "ok", "holds", "computed"):
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
# the parameter flags of bounds, which `bounds._bounds` reads as `_PARAMS`
_BOUND_PARAMS = ("N", "K", "D", "C", "r0", "delta", "eps0", "C0", "r")


# -- operations ---------------------------------------------------------------
# run() imports the one module a subcommand names, calls its compute
# function with the parsed arguments and the inputs, sets the operation and
# seed of the `reports.Report` it returns and emits it.


_OPERATIONS = {}


def _operation(name, summary, plan, options, compute, inputs=True,
               action=False, whole=False):
    """Register subcommand `name` in `_OPERATIONS`, the one table of
    subcommands, in the order --help lists them.  `summary` is its line in
    --help, `plan` the --dry-run text, formatted with the parsed arguments,
    `options` its arguments and `compute` its compute function, as
    "module._function" of bgkit; `inputs` says whether it reads a space
    (--space/--preset), `action` whether it also needs a group action on
    it, and `whole` whether it builds the action and measure of every
    input, read or not."""
    _OPERATIONS[name] = (summary, options, plan, inputs, action, whole,
                         compute)


# validate refuses every input that the builder refuses
_operation("validate", "metric diagnostics for a space",
           "validate the space description", _SPACE, "spaces._validate",
           whole=True)
_operation("balls", "enumerate a ball and its mass",
           "enumerate ball of radius {r}",
           _CENTER + (_arg("--r", required=True),
                      _arg("--closed", action="store_true")),
           "measures._balls")
_operation("certify-bg", "weak concentric-ball certificate",
           "scan the weak concentric-ball inequality",
           _CENTER + _TABULAR + (
               _arg("--r0", required=True),
               _arg("--C", type=_real, required=True),
               _arg("--K", type=_real, required=True),
               _arg("--rmax", required=True),
               _arg("--all-centers", dest="all_centers",
                    help="semicolon-separated center list")),
           "curvature._certify_bg")
_operation("synthetic", "dimension-style growth certificate",
           "scan the dimension-style growth condition",
           _CENTER + _TABULAR + (_arg("--N", type=_real, required=True),
                                 _arg("--K", type=_real, required=True),
                                 _arg("--rmax", required=True)),
           "curvature._synthetic")
_operation("doubling", "doubling constant on [r0/2, 5r0/2]",
           "compute the doubling constant on [r0/2, 5r0/2]",
           _CENTER + (_arg("--r0", required=True),), "curvature._doubling")
_operation("entropy", "growth profile and entropy estimate",
           "sample the growth profile and estimate entropy",
           _CENTER + _TABULAR + (_arg("--rmax", required=True),
                                 _arg("--step", default="1"),
                                 _arg("--tail", type=_real, default=0.3)),
           "entropy._entropy")
_operation("delta", "hyperbolicity constants",
           "estimate the hyperbolicity constant",
           _CENTER + (
               _arg("--exhaustive", action="store_true"),
               _arg("--samples", type=int),
               _arg("--thin", action="store_true",
                    help="thin-triangle constant along graph geodesics"),
               _arg("--radius", default="3",
                    help="ball radius supplying points on infinite spaces")),
           "hyperbolicity._delta")
_operation("convexity", "geodesic convexity defect",
           "scan the geodesic convexity defect",
           _CENTER + (_arg("--grid", type=int, default=8),),
           "hyperbolicity._convexity")
_operation("pack", "packing counts", "compute a packing count",
           _CENTER + (
               _arg("--r", required=True), _arg("--R", required=True),
               _arg("--exact", action="store_true"),
               _arg("--orbit", action="store_true",
                    help="restrict centers to the orbit of the center point"),
               _arg("--cap", type=int)),
           "packing._pack")
_operation("systole", "systole over a sampled domain",
           "compute systole over the sampled domain", _SAMPLED,
           "probes._systole", action=True)
_operation("diastole", "diastole over a sampled domain",
           "compute diastole over the sampled domain", _SAMPLED,
           "probes._systole", action=True)
_operation("thin-set", "thin-set membership and connectivity",
           "classify the sampled thin set",
           _SPACE + (
               _arg("--r", required=True), _arg("--sample", required=True),
               _arg("--adjacency", default="1",
                    help="sample points within this distance are adjacent"),
               _arg("--ceiling")),
           "probes._thin_set", action=True)
_operation("margulis", "nilpotency flip radii",
           "scan displacement radii for nilpotency flips",
           _SPACE + (_arg("--sample"), _arg("--ceiling", required=True)),
           "probes._margulis", action=True)
_operation("short-gens", "short generating family",
           "greedy short generating family",
           _CENTER + (_arg("--R", required=True),), "probes._short_gens",
           action=True)
_operation("bounds", "evaluate an explicit bound formula",
           "evaluate bound formula {kind}",
           (_arg("kind"),
            *(_arg(f"--{name}", type=_real) for name in _BOUND_PARAMS),
            _arg("--nu-table", dest="nu_table",
                 help='step table as JSON, e.g. "[[10,3],[1e6,7]]"'),
            *_SEED_DRY_RUN),
           "bounds._bounds", inputs=False)
_operation("check", "measured quantity vs bound formula",
           "cross-check measured value against {kind}",
           (_arg("kind"), _arg("--measured", type=_real, required=True),
            _arg("--params", required=True, help="bound parameters as JSON"),
            _arg("--assume", action="append"),
            _arg("--nu-table", dest="nu_table"), *_SEED_DRY_RUN),
           "bounds._check", inputs=False)
_operation("reproduce", "rebuild a bundled counterexample scenario",
           "reproduce scenario {scenario}",
           (_arg("scenario", help="glued-line"), _arg("--r0", default="1"),
            _arg("--eps", default="1/10"),
            _arg("--C", type=_real, default=4.0),
            _arg("--K", type=_real, default=1.0), *_SEED_DRY_RUN,
            _arg("--csv")),
           "curvature._reproduce", inputs=False)
_operation("cover", "universal cover window summary",
           "materialize the universal cover window",
           _CENTER + (_arg("--window", required=True),), "covers._cover")


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
    module, _, function = compute.rpartition(".")
    try:
        # a dry run validates every input, as validate does
        inp = (_inputs(args, whole=whole or args.dry_run) if takes_inputs
               else None)
        if args.dry_run:
            print(f"dry-run: {plan.format_map(vars(args))}", file=sys.stderr)
            return EXIT_OK
        if needs_action and inp.action is None:
            raise DomainError(f"{args.command} needs an action")
        # never `bgkit.cli` itself: under -m this module is __main__, and
        # importing it would compile it a second time
        rep = getattr(importlib.import_module(f"bgkit.{module}"),
                      function)(args, inp)
        rep.operation, rep.seed = args.command, args.seed
        _emit(args, rep)
        return _status_exit(rep.status)
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
