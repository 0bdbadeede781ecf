"""Golden report bytes: each CLI call keeps its exit code, its stderr text
and the sha256 of its stdout.

`report_bytes.json` holds one entry per call.  It was written by running
every argv in-process through `cli.run` with SOURCE_DATE_EPOCH=0 and
COLUMNS=80 (argparse wraps its usage text to the terminal width), in a
directory holding the graph spaces below.  A change that means to alter a
call's output rewrites that entry and says so in CHANGES.md; any other
difference is a regression of the report contract.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bgkit.cli import run

CASES = json.loads(Path(__file__).with_name("report_bytes.json").read_text())

# the graph spaces of tests/test_cli.py, under the names the argvs use
SPACE_FILES = {
    "c4.json": {"kind": "graph", "vertices": [0, 1, 2, 3],
                "edges": [[0, 1, "1"], [1, 2, "1"], [2, 3, "1"],
                          [3, 0, "1"]]},
    "edge.json": {"kind": "graph", "vertices": [0, 1],
                  "edges": [[0, 1, "1"]]},
    "eight.json": {"kind": "graph", "vertices": ["v"],
                   "edges": [["v", "v", "1"], ["v", "v", "1"]],
                   "measure": "pullback",
                   "cover": {"basepoint": "v", "window": 5}},
    "w.json": {"kind": "graph", "vertices": [0, 1, 2, 3],
               "edges": [[0, 1, "1"], [1, 2, "1"], [2, 3, "1"],
                         [3, 0, "1"]],
               "measure": "vertex_weights",
               "weights": {"0": "2", "1": "1", "2": "1", "3": "1"}},
    "f.json": {"kind": "cayley", "group": {"family": "free", "params": 2},
               "measure": "counting_orbit",
               "action": {"action": "left_translation",
                          "group": {"family": "free_abelian", "params": 2}}},
    "pts.json": {"kind": "graph", "vertices": [[0, 0], [0, 1], [1, 1]],
                 "edges": [[[0, 0], [0, 1], "1"], [[0, 1], [1, 1], "1/2"]]},
    # files that the builder refuses
    "rule.json": {"kind": "cayley", "group": {"family": "free", "params": 2},
                  "action": {"action": "nosuch"}},
    "dup.json": {"kind": "graph", "vertices": [0, 1, 0],
                 "edges": [[0, 1, "1"]]},
    "zero.json": {"kind": "graph", "vertices": [0, 1],
                  "edges": [[0, 1, "0"]]},
    "labels.json": {"kind": "finite_metric", "matrix": [[0, 1], [1, 0]],
                    "labels": ["a", "b", "c"]},
}


def write_space_files(directory):
    for name, spec in SPACE_FILES.items():
        (Path(directory) / name).write_text(json.dumps(spec))


@pytest.mark.parametrize(
    "case", CASES,
    ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)])
def test_report_bytes(case, tmp_path, monkeypatch, capsys):
    write_space_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.setenv("COLUMNS", "80")
    code = run(list(case["argv"]))
    out, err = capsys.readouterr()
    assert {"argv": case["argv"], "exit": code, "stderr": err,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()} == case
