import argparse
import datetime
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from test_report_bytes import CASES, SPACE_FILES, write_space_files

from bgkit import cli, presets, reports
from bgkit.actions import (GluedLineShiftAction, LatticeTranslationAction,
                           LeftTranslationAction)
from bgkit.cli import run
from bgkit.exact import DomainError, fmt_rational, rational
from bgkit.groups import FreeAbelianFamily, FreeFamily, TrivialFamily
from bgkit.measures import counting_measure
from bgkit.spaces import CayleySpace, GluedLineSpace

ENV = {**os.environ, "SOURCE_DATE_EPOCH": "0"}


def invoke(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_reproduce_glued_line_violation(capsys):
    code, report, err = invoke(
        ["reproduce", "glued-line", "--r0", "1", "--eps", "1/10",
         "--C", "4", "--K", "1"], capsys)
    assert code == 2
    assert report["status"] == "violated"
    worst = next(w for w in report["witnesses"] if w["kind"] == "worst")
    assert worst["lhs"] == "23"
    assert math.isclose(worst["rhs"], 4 * math.exp(1.1), rel_tol=1e-12)
    assert report["result"]["ball_at_r0_plus_eps"] == "1"
    assert report["result"]["ball_at_doubled"] == "23"


def test_bounds_generators(capsys):
    code, report, err = invoke(
        ["bounds", "generators", "--N", "2", "--K", "0", "--D", "5"], capsys)
    assert code == 0
    assert report["result"]["value"] == 14641


REAL_FLAG_CALLS = [
    ["certify-bg", "--preset", "lattice2", "--r0", "1", "--rmax", "4",
     "--C", "8", "--K={}"],
    ["synthetic", "--preset", "lattice2", "--rmax", "4", "--K", "1",
     "--N={}"],
    ["entropy", "--preset", "lattice2", "--rmax", "12", "--tail={}"],
    ["bounds", "generators", "--N", "2", "--D", "5", "--K={}"],
    ["check", "generators", "--params", '{{"N": 2, "K": 0, "D": 5}}',
     "--measured={}"],
    ["reproduce", "glued-line", "--K={}"],
]


@pytest.mark.parametrize("argv", REAL_FLAG_CALLS,
                         ids=[argv[0] for argv in REAL_FLAG_CALLS])
def test_float_flags_read_p_over_q_and_refuse_non_finite(argv, capsys,
                                                         monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")

    def call(value):
        code = run([a.format(value) for a in argv])
        return code, capsys.readouterr()

    # p/q is read as its nearest double, the same value as its decimal;
    # "=" keeps argparse from reading "-inf" as an option
    quarter = call("1/4")
    assert quarter == call("0.25") and quarter[1][0]
    for bad in ("nan", "inf", "-inf", "1e400", "1/0", "1/3e2", "x"):
        code, (out, err) = call(bad)
        assert (code, out) == (1, ""), bad
        assert f"{bad!r} is not a finite decimal or p/q" in err, bad


@pytest.mark.parametrize("argv", [
    ["balls", "--preset", "free2", "--r", "20000"],
    ["balls", "--preset", "free2", "--r", "1e30"],
    ["balls", "--preset", "torus5", "--r", "1e30"],
    ["pack", "--preset", "free2", "--r", "1", "--R", "1e30"],
    ["balls", "--preset", "line1", "--r", "1e30"]],
    ids=["free2-20000", "free2-1e30", "torus5-1e30", "pack-free2-1e30",
         "line1-1e30"])
def test_cayley_balls_past_the_budget_are_refused_at_once(argv, capsys):
    # the refusal comes at the first doubled length past the budget, with
    # its count as a lower bound, not after every sphere to the radius; a
    # word radius past the budget in a family with a generator of infinite
    # order is refused before any read, rank 1's linear growth included
    start = time.perf_counter()
    code, report, err = invoke(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 1 and report is None
    assert err.startswith("error: ball of radius ") and err.endswith(
        " elements, over the enumeration budget 2000000\n")
    assert " holds at least " in err


def test_rational_refuses_huge_decimal_exponents(capsys):
    # CPython's int string limit bounds the exponent, before any power of
    # ten is built: 10**100000000 alone would take minutes
    limit = sys.int_info.default_max_str_digits
    assert rational(f"1e{limit}") == 10 ** limit
    assert rational(f"-2.5e-{limit}") == Fraction(-5, 2 * 10 ** limit)
    for text in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e100000000",
                 "7E" + "9" * (limit + 1)):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="cannot interpret .* as a rat"):
            rational(text)
        assert time.perf_counter() - start < 0.05
    code = run(["balls", "--preset", "free2", "--r", "1e100000000"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: cannot interpret '1e100000000' as a rational\n"


def test_rational_too_long_to_print_is_refused(capsys):
    # CPython's int string limit bounds what fmt_rational prints: a count,
    # a radius or a mass past it is an input error, not a traceback
    limit = sys.int_info.default_max_str_digits
    assert fmt_rational(Fraction(-1, 10 ** (limit - 1))) == \
        "-1/1" + "0" * (limit - 1)
    refusal = ("rational too long to print: its numerator or denominator "
               f"passes CPython's limit of {limit} digits for int strings")
    for q in (10 ** limit, Fraction(1, 10 ** limit), Fraction(10 ** limit, 3)):
        with pytest.raises(DomainError, match=f"^{refusal}$"):
            fmt_rational(q)
    for argv in (["balls", "--preset", "free2", "--r", f"1e{limit}"],
                 ["balls", "--preset", "free2", "--r", f"1e-{limit}"],
                 ["entropy", "--preset", "free2", "--rmax", "9100"]):
        code, report, err = invoke(argv, capsys)
        assert (code, report, err) == (1, None, f"error: {refusal}\n"), argv


def test_left_translation_file_on_a_graph_is_refused(tmp_path, capsys):
    # the action file names a free group, the space file a 4-cycle: every
    # command refuses the pair when it builds the action, validate too
    write_space_files(tmp_path)
    action = tmp_path / "free2.json"
    action.write_text(json.dumps({"action": "left_translation",
                                  "group": {"family": "free", "params": 2}}))
    files = ["--space", str(tmp_path / "c4.json"), "--action", str(action)]
    for argv in (["validate"], ["systole"], ["short-gens", "--R", "1"],
                 ["margulis", "--ceiling", "3"]):
        assert invoke(argv + files, capsys) == (
            1, None, "error: left_translation acts on a Cayley space, "
                     "not on a graph space\n"), argv


def test_lattice_and_glued_line_files_off_their_space_are_refused(tmp_path,
                                                                  capsys):
    # a lattice_translation file on a 4-cycle ended in an AttributeError
    # traceback, and a glued_line_shift file passed validate and failed
    # at systole; each is refused when the action is built
    write_space_files(tmp_path)
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"action": "lattice_translation",
                                   "matrix": [[2, 0], [0, 2]]}))
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps({"action": "glued_line_shift"}))
    cayley = tmp_path / "free2.json"
    cayley.write_text(json.dumps({"kind": "cayley",
                                  "group": {"family": "free", "params": 2}}))
    for space, action, message in (
            ("c4.json", lattice, "lattice_translation acts on a Cayley "
                                 "space, not on a graph space"),
            ("c4.json", shift, "glued_line_shift acts on a glued_line "
                               "space, not on a graph space"),
            (cayley, shift, "glued_line_shift acts on a glued_line space, "
                            "not on a cayley space")):
        files = ["--space", str(tmp_path / space), "--action", str(action)]
        for argv in (["validate"], ["systole"]):
            assert invoke(argv + files, capsys) == (
                1, None, f"error: {message}\n"), (argv, space, action)


# each exits at once: an infinite family past the sphere limit, a free
# group whose ball masses could not be printed, a finite group at any
# radius, and a growth profile of too many samples
HUGE_RADII = [
    (["certify-bg", "--preset", "free2", "--r0", "1", "--C", "2", "--K", "1",
      "--rmax", "1e30"], 1, "error: a profile of free(2) to word length "
     f"{2 * 10 ** 30} reads more than 16777216 sphere sizes"),
    (["entropy", "--preset", "free2", "--rmax", "1e30"], 1,
     f"error: {10 ** 30} growth samples, over the limit 16777216; "
     "enlarge step"),
    (["entropy", "--preset", "free2", "--rmax", "1e30", "--step", "1e29"], 1,
     f"error: a profile of free(2) to word length {10 ** 30} reads more "
     "than 16777216 sphere sizes"),
    (["entropy", "--preset", "lattice2", "--rmax", "1e30", "--step", "1e29"],
     1, f"error: a profile of free_abelian(2) to word length {10 ** 30} "
     "reads more than 16777216 sphere sizes"),
    (["entropy", "--preset", "free2", "--rmax", "40000", "--step", "4000"], 1,
     "error: the ball of word length 34272 in free(2) holds 10^8600 "
     "elements or more, so no ball mass from half that length on can be "
     "printed"),
    (["balls", "--preset", "atom", "--r", "1e30"], 0,
     "ball: 1 support points, mass 1"),
    (["certify-bg", "--preset", "atom", "--r0", "1", "--C", "2", "--K", "1",
      "--rmax", "1e30"], 0, "certify-bg: verified"),
    (["entropy", "--preset", "atom", "--rmax", "1e30", "--step", "1e29"], 0,
     "entropy: 0 window [0, 0]"),
    (["entropy", "--preset", "atom", "--rmax", "1e30"], 1,
     f"error: {10 ** 30} growth samples, over the limit 16777216; "
     "enlarge step"),
]


@pytest.mark.parametrize("argv, code, err", HUGE_RADII,
                         ids=[f"{i}-{a[0]}-{a[2]}"
                              for i, (a, _c, _e) in enumerate(HUGE_RADII)])
def test_displacement_profile_at_a_huge_radius(argv, code, err):
    # these ended in a MemoryError, ran for seconds or printed "cannot fit
    # 'int' into an index-sized integer"
    proc = subprocess.run([sys.executable, "-m", "bgkit.cli"] + argv,
                          capture_output=True, env=ENV, timeout=30)
    assert (proc.returncode, proc.stderr.decode()) == (code, err + "\n")
    assert bool(proc.stdout) == (code == 0)


def test_unknown_subcommand(capsys):
    code = run(["frobnicate"])
    capsys.readouterr()
    assert code == 1


def test_certify_preset_lattice(capsys):
    code, report, err = invoke(
        ["certify-bg", "--preset", "lattice2", "--r0", "1", "--C", "8",
         "--K", "1", "--rmax", "12"], capsys)
    assert code == 0
    assert report["status"] == "verified"
    # a center list on the free group is scanned in one pass, and its JSON
    # and CSV list every center's rows
    argv = ["certify-bg", "--preset", "free2", "--r0", "1", "--C", "4",
            "--K", "1.2", "--rmax", "6", "--all-centers", "[1];[2,1]"]
    code, report, err = invoke(argv, capsys)
    assert code == 0
    result = report["result"]
    assert result["center"] == "all sampled"
    assert len(result["ratio_scan"]) == result["critical_radii_checked"] > 0
    assert run(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.split("\r\n")
    assert lines[0] == "r,lhs_exact,rhs,slack" and lines[-1] == ""
    assert [line.split(",")[:2] for line in lines[1:-1]] == \
        [row[:2] for row in result["ratio_scan"]]


@pytest.mark.parametrize("center, listed", [
    ("[1,1]", "[0,0];[1,0]"), ("[9,9,9]", "[0,0];[1,0]"),
    ("[0,0]", "[0,0];[1,0]"), ("[1,1]", "")])
def test_certify_refuses_center_with_all_centers(center, listed, capsys):
    # a --center that is a point, one that is not, one in the list, and an
    # empty list, which is given too
    assert run(["certify-bg", "--preset", "lattice2", "--r0", "1", "--C", "8",
                "--K", "1", "--rmax", "4", "--all-centers", listed,
                "--center", center]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: --center and --all-centers both name the centers "
                   "to scan; give one of them\n")


def test_synthetic_preset(capsys):
    code, report, err = invoke(
        ["synthetic", "--preset", "lattice2", "--N", "2", "--K", "1",
         "--rmax", "12"], capsys)
    assert code == 0


def test_balls_and_dry_run(tmp_path, capsys):
    code, report, err = invoke(
        ["balls", "--preset", "free2", "--r", "3", "--closed"], capsys)
    assert code == 0
    assert report["result"]["count"] == 53
    code2 = run(["balls", "--preset", "free2", "--r", "3", "--dry-run"])
    captured = capsys.readouterr()
    assert code2 == 0
    assert captured.out == ""
    assert "dry-run" in captured.err
    # input errors come before --dry-run, operation checks after it
    assert run(["balls", "--preset", "nosuch", "--r", "3", "--dry-run"]) == 1
    assert "unknown preset" in capsys.readouterr().err
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"kind": "graph", "vertices": [0, 1],
                                "edges": [[0, 1, "1"]]}))
    assert run(["systole", "--space", str(path), "--dry-run"]) == 0
    assert capsys.readouterr().err == \
        "dry-run: compute systole over the sampled domain\n"
    assert run(["systole", "--space", str(path)]) == 1
    assert "systole needs an action" in capsys.readouterr().err


def test_entropy_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "profile.csv"
    code, report, err = invoke(
        ["entropy", "--preset", "free2", "--rmax", "12", "--step", "1",
         "--csv", str(csv_path)], capsys)
    assert code == 0
    text = csv_path.read_bytes().decode()
    assert text.startswith("R,mass_exact,mass_decimal,h\r\n")
    assert text.count("\r\n") == 13
    assert abs(report["result"]["estimate"] - math.log(3)) < 0.02


def test_delta_and_pack_and_doubling(capsys):
    code, report, _ = invoke(
        ["delta", "--preset", "free2", "--radius", "3", "--exhaustive"], capsys)
    assert code == 0
    assert report["result"]["delta"] == "0"
    code, report, _ = invoke(
        ["pack", "--preset", "lattice2", "--r", "1", "--R", "4", "--exact"],
        capsys)
    assert code == 0
    code, report, _ = invoke(
        ["doubling", "--preset", "free2", "--r0", "2"], capsys)
    assert code == 0
    assert report["result"]["C0"] == f"{2 * 3 ** 9 - 1}/{2 * 3 ** 4 - 1}"


def test_systole_margulis_shortgens(capsys):
    code, report, _ = invoke(
        ["systole", "--preset", "torus5", "--sample", "[0,0];[1,1]"], capsys)
    assert code == 0
    assert report["result"]["systole"] == "5"
    code, report, _ = invoke(
        ["margulis", "--preset", "free2", "--ceiling", "4"], capsys)
    assert code == 0
    code, report, _ = invoke(
        ["short-gens", "--preset", "lattice2", "--R", "2"], capsys)
    assert code == 0
    assert report["result"]["index"] == 2


def test_check_command(capsys):
    code, report, _ = invoke(
        ["check", "generators", "--measured", "13",
         "--params", '{"N": 2, "K": 0, "D": 6}'], capsys)
    assert code == 0
    assert report["status"] == "holds"
    code, report, _ = invoke(
        ["check", "generators", "--measured", "1e9",
         "--params", '{"N": 1, "K": 0, "D": 0}'], capsys)
    assert code == 2


def test_space_file_roundtrip(tmp_path, capsys):
    spec = {
        "kind": "graph",
        "vertices": [0, 1, 2, 3],
        "edges": [[0, 1, "1"], [1, 2, "1"], [2, 3, "1"], [3, 0, "1"]],
    }
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(spec))
    code, report, _ = invoke(["validate", "--space", str(path)], capsys)
    assert code == 0
    code, report, _ = invoke(
        ["delta", "--space", str(path), "--exhaustive"], capsys)
    assert code == 0
    assert report["result"]["delta"] == "1"
    code, report, _ = invoke(
        ["cover", "--space", str(path), "--window", "6"], capsys)
    assert code == 0
    assert report["result"]["betti"] == 1


def test_weights_keys_name_points(tmp_path, capsys):
    # JSON object keys are strings; the int vertex 0 gets the weight of the
    # key "0", on a plain graph and on the base graph of a pull-back
    write_space_files(tmp_path)
    code, report, _ = invoke(["balls", "--space", str(tmp_path / "w.json"),
                              "--center", "0", "--r", "2", "--closed"], capsys)
    assert code == 0
    assert report["result"]["mass"] == "5"
    # string vertices are points as they are written
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({
        "kind": "graph", "vertices": ["0", "1"],
        "edges": [["0", "0", "1"], ["0", "1", "1"]], "measure": "pullback",
        "weights": {"0": "3", "1": "1/2"}, "cover": {"window": 3}}))
    code, report, _ = invoke(["balls", "--space", str(path), "--r", "1"],
                             capsys)
    assert code == 0
    assert report["result"]["mass"] == "3"
    path.write_text(json.dumps({**SPACE_FILES["w.json"], "weights": {"4": "1"}}))
    code, report, err = invoke(["balls", "--space", str(path), "--r", "1"],
                               capsys)
    assert code == 1
    assert err == "error: 4 is not a point of this graph space\n"


def test_space_file_group_and_list_vertices(tmp_path, monkeypatch, capsys):
    write_space_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    # an action declaring another group than its Cayley space is refused,
    # not run as the space's group (the free-group ball has mass 17)
    code, report, err = invoke(["balls", "--space", "f.json", "--r", "2",
                                "--closed"], capsys)
    assert (code, report) == (1, None)
    assert err == ("error: left_translation group free_abelian(2) is not "
                   "the group free(2) of the Cayley space it acts on\n")
    # JSON lists as graph vertices are points, as on the command line
    code, report, _ = invoke(["validate", "--space", "pts.json"], capsys)
    assert code == 0 and report["result"]["ok"]
    code, report, _ = invoke(["balls", "--space", "pts.json", "--center",
                              "[0,0]", "--r", "3/2", "--closed"], capsys)
    assert code == 0
    assert report["result"]["points"] == [[0, 0], [0, 1], [1, 1]]
    assert report["result"]["mass"] == "3"


def _direct_action(name):
    """Each preset's action built from its classes, apart from any spec."""
    lattice = CayleySpace(FreeAbelianFamily(2))
    line = CayleySpace(FreeAbelianFamily(1))
    return {
        "lattice2": LeftTranslationAction(FreeAbelianFamily(2)),
        "free2": LeftTranslationAction(FreeFamily(2)),
        "atom": LeftTranslationAction(TrivialFamily()),
        "torus": LatticeTranslationAction(lattice, [[5, 0], [0, 5]]),
        "torus5": LatticeTranslationAction(lattice, [[5, 0], [0, 5]]),
        "torus7": LatticeTranslationAction(lattice, [[7, 0], [0, 7]]),
        "line": LatticeTranslationAction(line, [[1]]),
        "line10": LatticeTranslationAction(line, [[10]]),
        "glued-line": GluedLineShiftAction(
            GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 44)),
    }[name]


def _assert_same_instance(got, action):
    space, got_action, measure = got
    basepoint = (action.space.tip(0)
                 if isinstance(action, GluedLineShiftAction)
                 else action.family.identity())
    want = (action.space, action, counting_measure(action, basepoint))
    assert [type(o) for o in got] == [type(o) for o in want]
    assert got_action.space is space and measure.action is got_action
    assert got_action.family.name == action.family.name
    assert space.validate() == action.space.validate()
    assert getattr(got_action, "matrix", None) == getattr(action, "matrix", None)
    assert measure.basepoint == basepoint
    # the window of the glued line ends before radius 6 at the tip
    upto = min(6, space.safe_radius(basepoint) or 6)
    got_profile = measure.profile(space, basepoint, upto)
    want_profile = want[2].profile(action.space, basepoint, upto)
    assert vars(got_profile) == vars(want_profile)


@pytest.mark.parametrize("name", ["lattice2", "free2", "atom", "torus",
                                  "torus5", "torus7", "line", "line10",
                                  "glued-line"])
def test_preset_spec_builds_the_direct_instance(name):
    _assert_same_instance(presets.instance(presets.spec(name)),
                          _direct_action(name))


def test_instance_functions_build_the_direct_instances():
    for got, name in [(presets.lattice_instance(), "lattice2"),
                      (presets.free_instance(), "free2"),
                      (presets.atom_instance(), "atom"),
                      (presets.torus_instance(7), "torus7"),
                      (presets.line_translation_instance(10), "line10"),
                      (presets.glued_line_instance(), "glued-line")]:
        _assert_same_instance(got, _direct_action(name))
    # other scales keep the window rule int(4 r0 / eps) + 4
    space = presets.glued_line_instance("3/2", "1/4")[0]
    assert (space.eps, space.hair, space.window) == (Fraction(1, 4),
                                                     Fraction(3, 4), 28)


@pytest.mark.parametrize("name, argv", [
    ("lattice2", ["balls", "--r", "3", "--closed"]),
    ("free2", ["certify-bg", "--r0", "1", "--C", "4", "--K", "1.2",
               "--rmax", "5"]),
    ("atom", ["synthetic", "--N", "2", "--K", "1", "--rmax", "8"]),
    ("torus5", ["pack", "--r", "1", "--R", "12", "--orbit"]),
    ("line10", ["balls", "--r", "25", "--center", "[3]"]),
    ("glued-line", ["balls", "--r", "2", "--closed"]),
])
def test_preset_spec_as_space_file(name, argv, tmp_path, monkeypatch,
                                   capsys):
    # a preset is a space-file spec: written to a file, it reads the same
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")   # fixes the timestamp
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(presets.spec(name)))
    by_preset = run(argv + ["--preset", name]), capsys.readouterr()
    assert (run(argv + ["--space", str(path)]),
            capsys.readouterr()) == by_preset
    assert by_preset[1].out


def test_determinism_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "bgkit.cli", "reproduce", "glued-line",
           "--r0", "1", "--eps", "1/10", "--C", "4", "--K", "1",
           "--seed", "7"]
    runs = [subprocess.run(cmd, capture_output=True, env=ENV) for _ in range(2)]
    assert runs[0].returncode == 2
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout  # nonempty

    cmd2 = [sys.executable, "-m", "bgkit.cli", "entropy", "--preset", "free2",
            "--rmax", "12", "--seed", "3"]
    runs2 = [subprocess.run(cmd2, capture_output=True, env=ENV)
             for _ in range(2)]
    assert runs2[0].returncode == 0
    assert runs2[0].stdout == runs2[1].stdout


BASE_MODULES = {"bgkit", "bgkit.cli", "bgkit.exact", "bgkit.reports"}
# the builder and the space it builds at once; the action and measure are
# built, and their modules loaded, only when a subcommand reads them
SPACE_MODULES = BASE_MODULES | {"bgkit.presets", "bgkit.spaces",
                                "bgkit.groups"}
PRESET_MODULES = SPACE_MODULES | {"bgkit.actions", "bgkit.measures"}
GRAPH_MODULES = SPACE_MODULES | {"bgkit.finite_spaces"}
# a Cayley space of a finite permutation group with its left translation,
# and one of a product family, for the module cases below
PERMUTATIONS = {"family": "finite_permutation",
                "params": [[1, 2, 0], [1, 0, 2]]}
FAMILY_FILES = {
    "perm.json": {"kind": "cayley", "group": PERMUTATIONS,
                  "measure": "counting_orbit",
                  "action": {"action": "left_translation",
                             "group": PERMUTATIONS}},
    "product.json": {"kind": "cayley", "group": {
        "family": "product",
        "params": [{"family": "free_abelian", "params": 1}, PERMUTATIONS]}},
}
# (argv, bgkit modules the process ends with, whether numpy is loaded);
# argv None is a bare `import bgkit.cli`
LOADED_MODULES = [
    (None, BASE_MODULES, False),
    (["bounds", "generators", "--N", "2", "--K", "0", "--D", "5"],
     BASE_MODULES | {"bgkit.bounds"}, False),
    (["check", "generators", "--measured", "13", "--params",
      '{"N": 2, "K": 0, "D": 5}'], BASE_MODULES | {"bgkit.bounds"}, False),
    (["validate", "--preset", "lattice2"], PRESET_MODULES, False),
    (["certify-bg", "--preset", "lattice2", "--r0", "1", "--C", "8", "--K",
      "1", "--rmax", "10"], PRESET_MODULES | {"bgkit.curvature"}, False),
    (["reproduce", "glued-line", "--r0", "1", "--eps", "1/10", "--C", "4",
      "--K", "1"], PRESET_MODULES | {"bgkit.curvature"}, False),
    (["entropy", "--preset", "free2", "--rmax", "12"],
     PRESET_MODULES | {"bgkit.entropy"}, False),
    (["entropy", "--preset", "free2", "--rmax", "12", "--format", "csv"],
     PRESET_MODULES | {"bgkit.entropy"}, False),
    (["pack", "--preset", "lattice2", "--r", "1", "--R", "5", "--exact"],
     SPACE_MODULES | {"bgkit.measures", "bgkit.packing"}, False),
    (["pack", "--preset", "torus5", "--r", "1", "--R", "12", "--orbit"],
     PRESET_MODULES | {"bgkit.packing"}, False),
    # a free-group ball is settled by the basepoint certificate, without
    # numpy; the 4-cycle of c4.json runs the scan
    (["delta", "--preset", "free2", "--radius", "3", "--exhaustive"],
     SPACE_MODULES | {"bgkit.hyperbolicity"}, False),
    # a space file goes through the same builder as a preset; c4.json
    # declares no action, so none is built.  Only a graph, finite-metric or
    # tripod space loads bgkit.finite_spaces, and only a permutation or
    # product family bgkit.permutations: the sets above are exact, so no
    # preset loads either
    (["validate", "--space", "c4.json"],
     GRAPH_MODULES | {"bgkit.measures"}, False),
    (["delta", "--space", "c4.json", "--exhaustive"],
     GRAPH_MODULES | {"bgkit.hyperbolicity", "bgkit._kernels"}, True),
    (["cover", "--space", "c4.json", "--window", "3"],
     GRAPH_MODULES | {"bgkit.actions", "bgkit.covers", "bgkit.measures"},
     False),
    (["validate", "--space", "perm.json"],
     PRESET_MODULES | {"bgkit.permutations"}, False),
    (["balls", "--space", "product.json", "--r", "2"],
     SPACE_MODULES | {"bgkit.measures", "bgkit.permutations"}, False),
    # only the probe subcommands load bgkit.probes; the module sets above
    # are exact, so no other subcommand does
    (["systole", "--preset", "torus5", "--sample", "[0,0];[1,1]"],
     PRESET_MODULES | {"bgkit.probes"}, False),
]


@pytest.mark.parametrize(
    "argv, modules, numpy", LOADED_MODULES,
    ids=["import"] + [argv[0] + "-space" * ("--space" in argv)
                      + "-orbit" * ("--orbit" in argv)
                      + "-csv" * ("csv" in argv)
                      + "".join(f"-{name[:-5]}" for name in FAMILY_FILES
                                if name in argv)
                      for argv, _m, _n in LOADED_MODULES[1:]])
def test_subcommand_loads_only_what_it_runs(argv, modules, numpy, tmp_path):
    # each subcommand imports its modules when it runs them, numpy is paid
    # for only when a kernel runs, and csv only when a report is written as
    # CSV: a fresh process ends with exactly these bgkit modules loaded.
    # Records and timestamps load neither dataclasses (which imports
    # inspect) nor datetime; numpy imports inspect and datetime itself
    argv = _with_files(argv, tmp_path)
    script = ("import io, json, sys\n"
              "from contextlib import redirect_stderr, redirect_stdout\n"
              "from bgkit import cli\n"
              f"argv = {argv!r}\n"
              "if argv is not None:\n"
              "    with redirect_stdout(io.StringIO()), "
              "redirect_stderr(io.StringIO()):\n"
              "        assert cli.run(argv) in (0, 2)\n"
              "print(json.dumps([sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'bgkit'), 'numpy' in sys.modules,"
              " 'csv' in sys.modules, [m for m in"
              " ('dataclasses', 'datetime', 'inspect') if m in sys.modules]]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    csv = argv is not None and "csv" in argv
    bgkit_modules, loads_numpy, loads_csv, stdlib = json.loads(proc.stdout)
    assert [bgkit_modules, loads_numpy, loads_csv] == [sorted(modules), numpy,
                                                       csv]
    assert "dataclasses" not in stdlib
    if not numpy:
        assert stdlib == []


def _with_files(argv, directory):
    """argv with each space file it names written to `directory` and named
    by its path there."""
    write_space_files(directory)
    for name, spec in FAMILY_FILES.items():
        (directory / name).write_text(json.dumps(spec))
    if argv is None:
        return None
    return [str(directory / a) if a in {**SPACE_FILES, **FAMILY_FILES} else a
            for a in argv]


# the seven commands of the benchmark's cli-cold workload
CLI_COLD = [
    ["reproduce", "glued-line", "--r0", "1", "--eps", "1/10", "--C", "4",
     "--K", "1"],
    ["certify-bg", "--preset", "lattice2", "--r0", "1", "--C", "8", "--K",
     "1", "--rmax", "10"],
    ["entropy", "--preset", "free2", "--rmax", "12"],
    ["pack", "--preset", "lattice2", "--r", "1", "--R", "5", "--exact"],
    ["bounds", "generators", "--N", "2", "--K", "0", "--D", "5"],
    ["delta", "--preset", "free2", "--radius", "3", "--exhaustive"],
    ["validate", "--preset", "lattice2"],
]


@pytest.mark.parametrize("argv", CLI_COLD, ids=[a[0] for a in CLI_COLD])
def test_main_module_loads_only_what_it_runs(argv):
    # `python -m bgkit.cli` runs cli.py as __main__, so a compute function
    # that imported bgkit.cli would compile the file a second time; the
    # process never imports it and ends with the bgkit modules of the
    # command's LOADED_MODULES case, bgkit.cli aside
    modules = {tuple(a): m for a, m, _n in LOADED_MODULES[1:]}[tuple(argv)]
    script = ("import io, json, runpy, sys\n"
              "from contextlib import redirect_stderr, redirect_stdout\n"
              f"sys.argv = ['bgkit'] + {argv!r}\n"
              "with redirect_stdout(io.StringIO()), "
              "redirect_stderr(io.StringIO()):\n"
              "    try:\n"
              "        runpy.run_module('bgkit.cli', run_name='__main__')\n"
              "    except SystemExit as exc:\n"
              "        code = exc.code\n"
              "print(json.dumps([code, sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'bgkit')]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, bgkit_modules = json.loads(proc.stdout)
    assert code == (2 if argv[0] == "reproduce" else 0)
    assert bgkit_modules == sorted(modules - {"bgkit.cli"})


def test_cold_process_never_loads_typing():
    # `typing` costs about 5 ms of a cold process, and no bgkit module needs
    # it; -S keeps out the .pth files of site-packages, which may load it
    script = ("import io, runpy, sys\n"
              "from contextlib import redirect_stderr, redirect_stdout\n"
              "sys.argv = ['bgkit', 'validate', '--preset', 'lattice2']\n"
              "with redirect_stdout(io.StringIO()), "
              "redirect_stderr(io.StringIO()):\n"
              "    try:\n"
              "        runpy.run_module('bgkit.cli', run_name='__main__')\n"
              "    except SystemExit as exc:\n"
              "        assert exc.code == 0\n"
              "print('typing' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env={**ENV, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


HELP_CASES = json.loads(
    Path(__file__).with_name("help_bytes.json").read_text())


@pytest.mark.parametrize("case", HELP_CASES,
                         ids=[case["argv"][0] for case in HELP_CASES])
def test_help_text_unchanged(case, monkeypatch, capsys):
    # the sha256 of every --help text at 80 columns (argparse wraps to the
    # terminal width), as argparse formats it on Python 3.10 to 3.12; help
    # must not depend on the modules a subcommand imports when it runs
    monkeypatch.setenv("COLUMNS", "80")
    code = run(list(case["argv"]))
    out = capsys.readouterr().out
    assert {"argv": case["argv"], "exit": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()} == case


STAMP = "%Y-%m-%dT%H:%M:%SZ"


@pytest.mark.parametrize("epoch", [0, -1, 2 ** 31, 253402300799,
                                   -62135596800])
def test_timestamp_matches_datetime(epoch, monkeypatch):
    # the stamp is built with time.gmtime; datetime is the oracle, from the
    # first second of year 1 to the last of year 9999
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(epoch))
    want = datetime.datetime.fromtimestamp(
        epoch, datetime.timezone.utc).strftime(STAMP)
    assert reports._timestamp() == want


def test_timestamp_without_epoch_is_utc_now(monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    stamp = reports._timestamp()
    moment = datetime.datetime.strptime(stamp, STAMP)
    assert moment.strftime(STAMP) == stamp
    now = datetime.datetime.now(datetime.timezone.utc).replace(tzinfo=None)
    assert abs((now - moment).total_seconds()) < 60


@pytest.mark.parametrize("epoch", ["abc", "100000000000000", "-62135596801",
                                   "253402300800"])
def test_malformed_source_date_epoch_is_refused(epoch, monkeypatch, capsys):
    # no integer, or a UTC year outside 1..9999: exit 1 with one error line
    # naming the variable, not a traceback
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    code, report, err = invoke(["validate", "--preset", "lattice2"], capsys)
    assert (code, report) == (1, None)
    assert err == (f"error: SOURCE_DATE_EPOCH={epoch!r} is no integer epoch "
                   "in the years 1 to 9999\n")


def test_pack_default_cap_is_the_exact_cap(capsys):
    # without --cap the exact solver refuses past packing.EXACT_CAP (60)
    argv = ["pack", "--preset", "lattice2", "--r", "1", "--R", "7", "--exact"]
    proc = subprocess.run([sys.executable, "-m", "bgkit.cli"] + argv,
                          capture_output=True, env=ENV, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == (b"error: 85 candidates exceed the exact cap 60; "
                           b"use greedy mode or raise the cap\n")
    code, report, _ = invoke(argv + ["--cap", "85"], capsys)
    assert code == 0
    assert report["result"]["candidates"] == 85


def test_trivial_group_systole_scan_ends():
    # with no ceiling the probe radius used to double forever
    for command in ("systole", "diastole"):
        proc = subprocess.run(
            [sys.executable, "-m", "bgkit.cli", command, "--preset", "atom"],
            capture_output=True, env=ENV, timeout=30)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == (b"error: no nontrivial displacement of () "
                               b"within the scan ceiling\n")


def test_glued_line_point_flag(capsys):
    code, report, _ = invoke(
        ["balls", "--preset", "glued-line", "--center", '["tip", 0]',
         "--r", "11/10"], capsys)
    assert code == 0
    assert report["result"]["mass"] == "1"


def test_format_csv_to_stdout(capsys):
    code = run(["certify-bg", "--preset", "lattice2", "--r0", "1", "--C", "8",
                "--K", "1", "--rmax", "6", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("r,lhs_exact,rhs,slack")
    assert "\r\n" in captured.out


def test_pullback_deck_space_file(tmp_path, capsys):
    spec = {
        "kind": "graph",
        "vertices": ["v"],
        "edges": [["v", "v", "1"], ["v", "v", "1"]],
        "measure": "pullback",
        "cover": {"basepoint": "v", "window": 5},
    }
    path = tmp_path / "eight.json"
    path.write_text(json.dumps(spec))
    code, report, _ = invoke(
        ["balls", "--space", str(path), "--r", "1", "--closed"], capsys)
    assert code == 0
    assert report["result"]["mass"] == "5"
    # entropy of the rank-2 deck orbit growth on the cover
    code, report, _ = invoke(
        ["systole", "--space", str(path)], capsys)
    assert code == 0
    assert report["result"]["systole"] == "1"   # one petal is a unit loop


def test_measure_override_flag(capsys):
    code, report, _ = invoke(
        ["balls", "--preset", "torus5", "--measure", "vertex_uniform",
         "--r", "2", "--closed"], capsys)
    assert code == 0
    assert report["result"]["mass"] == "13"   # uniform, not orbit counting


REFUSED_GROUP = ("error: left_translation group free_abelian(2) is not the "
                 "group free(2) of the Cayley space it acts on\n")


@pytest.mark.parametrize("argv", [
    ["balls", "--space", "f.json", "--r", "2", "--closed"],
    ["certify-bg", "--space", "f.json", "--r0", "1", "--C", "8", "--K", "1",
     "--rmax", "3"],
    ["pack", "--space", "f.json", "--r", "1", "--R", "3", "--orbit"],
    # validate and a dry run build the action and measure they never read
    ["validate", "--space", "f.json"],
    ["balls", "--space", "f.json", "--r", "2", "--dry-run"],
    ["delta", "--space", "f.json", "--radius", "2", "--dry-run"],
    # an explicit --measure is built at once, on the action
    ["delta", "--space", "f.json", "--radius", "2", "--measure",
     "vertex_uniform"],
])
def test_refused_action_is_refused_where_read(argv, tmp_path, monkeypatch,
                                              capsys):
    write_space_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert invoke(argv, capsys) == (1, None, REFUSED_GROUP)


def test_space_only_commands_build_no_action(tmp_path, monkeypatch, capsys):
    # f.json's action is refused, but delta and pack without --orbit read
    # only the space, so they run as they do on the same space without it
    write_space_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")   # fixes the timestamp
    (tmp_path / "free.json").write_text(json.dumps(
        {"kind": "cayley", "group": {"family": "free", "params": 2}}))
    for argv in (["delta", "--radius", "2", "--exhaustive"],
                 ["pack", "--r", "1", "--R", "3"]):
        code, report, err = invoke(argv + ["--space", "f.json"], capsys)
        assert code == 0
        assert (code, report, err) == invoke(argv + ["--space", "free.json"],
                                             capsys)


@pytest.mark.parametrize("argv", [
    ["validate", "--preset", "lattice2"],
    ["validate", "--space", "c4.json"],
    ["delta", "--preset", "free2", "--radius", "2"],
    ["delta", "--space", "c4.json", "--exhaustive"],
])
def test_measure_flag_is_read_by_every_command(argv, tmp_path, monkeypatch,
                                               capsys):
    # an explicit --measure is applied at once, also where it is not read
    write_space_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert invoke(argv + ["--measure", "bogus"], capsys) == (
        1, None, "error: unknown measure spec 'bogus'\n")


def test_nu_table_file(tmp_path, capsys):
    path = tmp_path / "nu.json"
    path.write_text(json.dumps({"nu_table": [[10, 3], [1e9, 9]]}))
    code, report, _ = invoke(
        ["bounds", "margulis_scale", "--C", "1.5", "--K", "0", "--r0", "1",
         "--nu-table", str(path)], capsys)
    assert code == 0
    assert report["result"]["value"] == 1.5
    # the same table written inline, and a kind that reads nu through eps1
    inline = ["--nu-table", "[[10, 3], [1e9, 9]]"]
    code, report, _ = invoke(
        ["bounds", "margulis_scale", "--C", "1.5", "--K", "0", "--r0", "1",
         *inline], capsys)
    assert code == 0
    assert report["result"]["value"] == 1.5
    code, report, _ = invoke(["bounds", "systole_lower_eps1", "--D", "1",
                              "--C", "2", "--K", "0", *inline], capsys)
    assert code == 0
    assert math.isclose(report["result"]["value"], 1 / 20, rel_tol=1e-12)


def test_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"kind": "graph", "vertices": [0, 1]}))
    code = run(["validate", "--space", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err
    # malformed numbers and preset sizes are input errors, not tracebacks
    for argv in (["balls", "--preset", "free2", "--r", "abc"],
                 ["balls", "--preset", "free2", "--r", "1/0"],
                 ["systole", "--preset", "torus5", "--ceiling", "abc"],
                 ["balls", "--preset", "torusX", "--r", "1"]):
        assert run(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # command-line points must be canonical elements of the Cayley space
    for preset, center in (("free2", "[0"), ("free2", "[7,9]"),
                           ("lattice2", "[1,2,3]")):
        assert run(["balls", "--preset", preset, "--r", "1",
                    "--center", center]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith("is not a point of this cayley space\n")
    # malformed glued-line points are refused the same way
    for center in ('["tip", "x"]', '["hair", 1]', '["line"]', '[]', '5',
                   '["hair", 1.5, "1/2"]', '["tip", 1.5]',
                   '["hair", true, "1/2"]'):
        assert run(["balls", "--preset", "glued-line", "--r", "1",
                    "--center", center]) == 1, center
        err = capsys.readouterr().err
        assert err.startswith("error: "), center
        assert err.endswith("is not a point of this glued_line space\n")


def test_output_flags_only_on_tabular_subcommands(tmp_path, capsys):
    # argparse refuses --csv/--format where no report could be tabular,
    # before anything runs or is written
    target = tmp_path / "x.csv"
    for argv in (["balls", "--preset", "free2", "--r", "1", "--csv", str(target)],
                 ["balls", "--preset", "free2", "--r", "1", "--format", "csv"],
                 ["bounds", "generators", "--N", "2", "--K", "0", "--D", "5",
                  "--csv", str(target)],
                 ["check", "generators", "--measured", "13", "--params",
                  '{"N": 2, "K": 0, "D": 6}', "--csv", str(target)]):
        assert run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert "unrecognized arguments" in err, argv
    assert not target.exists()
    # the tabular subcommands keep them
    code = run(["entropy", "--preset", "free2", "--rmax", "12",
                "--csv", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().startswith("R,")


def test_delta_center(tmp_path, capsys):
    # on an infinite space the points are the ball around --center
    code, report, _ = invoke(
        ["delta", "--preset", "lattice2", "--radius", "2", "--exhaustive",
         "--center", "[5,5]"], capsys)
    assert code == 0
    assert report["result"]["points_used"] == 13
    for x, y in report["witnesses"][0]:
        assert abs(x - 5) + abs(y - 5) <= 2
    # a finite space gives every point, so a --center there is refused
    write_space_files(tmp_path)
    assert run(["delta", "--space", str(tmp_path / "c4.json"),
                "--center", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: --center: delta reads every point of this graph space, "
        "not a ball\n")


def test_convexity_center(tmp_path, capsys):
    write_space_files(tmp_path)
    c4 = str(tmp_path / "c4.json")
    for argv, origin in ((["--center", "2"], 2), ([], 0)):
        code, report, _ = invoke(["convexity", "--space", c4] + argv, capsys)
        assert code == 0
        assert report["witnesses"][0][0] == origin
    assert run(["convexity", "--space", c4, "--center",
                '["edge", 0, "1/2"]']) == 1
    assert capsys.readouterr().err == (
        "error: convexity origin ('edge', 0, '1/2') is not a vertex\n")


def _subparsers(parser):
    (subs,) = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


ACTION_FIELDS = ("option_strings", "dest", "default", "type", "nargs",
                 "required", "choices", "metavar", "help")


def _fields(parser):
    return [(type(a),) + tuple(getattr(a, f) for f in ACTION_FIELDS)
            for a in parser._actions]


def test_named_subparser_matches_the_full_build(monkeypatch):
    # the parser built for one subcommand holds that subparser alone, and
    # it is the subparser of the full build, action by action; the
    # top-level usage still lists every choice
    monkeypatch.setenv("COLUMNS", "80")
    full = cli.build_parser()
    assert len(_subparsers(full)) == 18
    for name, want in _subparsers(full).items():
        lone = cli.build_parser(name)
        (got,) = _subparsers(lone).values()
        assert list(_subparsers(lone)) == [name]
        assert _fields(got) == _fields(want), name
        assert got.prog == want.prog == f"bgkit {name}"
        assert got.format_help() == want.format_help(), name
        assert lone.format_usage() == full.format_usage(), name
    # top-level --help, no subcommand and an unknown name build them all
    for other in (None, "nosuch", "--help", "-h", "--seed"):
        parser = cli.build_parser(other)
        assert list(_subparsers(parser)) == list(_subparsers(full))
        assert parser.format_help() == full.format_help()


def test_run_builds_the_named_subparser_alone(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def recording_parser(command=None):
        built.append(build(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    assert run(["bounds", "generators", "--N", "2", "--K", "0",
                "--D", "5"]) == 0
    assert run(["nosuch"]) == 1
    assert run([]) == 1
    capsys.readouterr()
    assert [len(_subparsers(p)) for p in built] == [1, 18, 18]


def test_bounds_reads_every_parameter_flag():
    # the flags live in the option table, the compute function in bounds
    from bgkit import bounds
    assert bounds._PARAMS == cli._BOUND_PARAMS


def test_every_option_is_read(tmp_path, monkeypatch, capsys):
    # a flag that no call of its subcommand reads does nothing: every golden
    # call that runs to a report parses into a namespace that records the
    # attributes read after parsing
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    build = cli.build_parser

    def recording_parser(command=None):
        parser = build(command)
        parse = parser.parse_args

        def parse_args(argv):
            args = parse(argv, namespace=Recorder())
            reads.clear()     # argparse itself reads while filling defaults
            return args
        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    write_space_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    read_by = {}
    for case in CASES:
        if case["exit"] not in (0, 2) or "--dry-run" in case["argv"]:
            continue
        assert run(list(case["argv"])) == case["exit"], case["argv"]
        capsys.readouterr()
        read_by.setdefault(case["argv"][0], set()).update(reads)
    unread = {}
    for name, sub in _subparsers(build()).items():
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        missing = dests - read_by.get(name, set())
        if missing:
            unread[name] = sorted(missing)
    assert unread == {}
