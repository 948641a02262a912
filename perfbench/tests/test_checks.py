"""Each output check accepts altkit's real output and rejects a
deliberately wrong copy of it.

    python3 -m pytest perfbench/tests -q
"""
import contextlib
import copy
import csv
import io
import json

import pytest

import checks
from workloads import AXIOMS, command

SEED = 3


def run(tmp_path, kind, ref, extra, settings):
    """Run one real command; return it with its rc, stderr and report bytes."""
    from altkit import cli
    cmd = command(kind, ref, SEED, 1, tmp_path / kind, extra, settings)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(list(cmd.argv))
    files = {p.name: p.read_bytes() for p in (tmp_path / kind).iterdir()}
    assert checks.check(cmd, rc, err.getvalue(), files) == []
    return cmd, rc, err.getvalue(), files


def dump(doc) -> bytes:
    return json.dumps(doc).encode()


def test_grid_value_moved_by_two_rung_steps(tmp_path):
    depth = 10
    cmd, rc, err, files = run(
        tmp_path, "reconstruct", "log_sum",
        ["--depth", str(depth), "--trials", "50", "--grid", "5",
         "--second-anchors", "0.1", "0.9"],
        {"depth": depth, "trials": 50, "grid": 5})
    rows = list(csv.reader(io.StringIO(files["grid.csv"].decode())))
    rows[7][-1] = repr(float(rows[7][-1]) + 2 * 2.0 ** -depth)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    bad = dict(files, **{"grid.csv": out.getvalue().encode()})
    assert any("grid value" in p for p in checks.check(cmd, rc, err, bad))


def test_broken_crossover_witness_with_w_off_the_solved_point(tmp_path):
    cmd, rc, err, files = run(tmp_path, "verify", "broken_crossover",
                              ["--trials", "100", "--axioms", *AXIOMS], {"trials": 100})
    doc = json.loads(files["verify-crossover.json"])
    witnesses = doc["report"]["violations"]
    rebracket = next(w for w in witnesses if w["note"] == "rebracket")
    rebracket["points"]["w"][0] += 1e-3
    bad = dict(files, **{"verify-crossover.json": dump(doc)})
    assert any("premise off the dead band" in p for p in checks.check(cmd, rc, err, bad))


def test_alep_estimate_with_the_wrong_sign(tmp_path):
    settings = {"grid": 5, "h": 1e-3, "threshold": 1e-3}
    cmd, rc, err, files = run(tmp_path, "alep", "cobb_douglas",
                              ["--grid", "5", "--h", "1e-3", "--threshold", "1e-3"],
                              settings)
    doc = json.loads(files["alep.json"])
    doc["classifications"][4]["estimate"] *= -1.0
    bad = dict(files, **{"alep.json": dump(doc)})
    assert any("analytic" in p for p in checks.check(cmd, rc, err, bad))


def test_exp1d_witness_that_satisfies_the_gain_law(tmp_path):
    cmd, rc, err, files = run(tmp_path, "concavity", "exp1d", ["--trials", "200"],
                              {"trials": 200})
    doc = json.loads(files["concavity.json"])
    witness = doc["gossen"]["violations"][0]
    x, y = witness["points"]["x"][0], witness["points"]["y"][0]
    # exp is convex, so no pair satisfies the law; a zero-length pair ties it.
    witness["points"]["y"] = [x]
    witness["points"]["z"] = [x]
    assert y != x
    bad = dict(files, **{"concavity.json": dump(doc)})
    assert any("satisfies the midpoint gain law" in p
               for p in checks.check(cmd, rc, err, bad))


@pytest.mark.parametrize("rc", [1, "raised ValueError: math domain error"])
def test_known_fault_counts_until_exit_2(rc):
    cmd = command("fault", "log_sum", SEED, 1, "unused", [], {}, subcommand="verify")
    assert checks.check(cmd, rc, "", {}) != []
    assert checks.check(cmd, 2, "error: log(0) at [0.0, 0.0]\n", {}) == []
    assert checks.check(cmd, 2, "", {}) != []


def test_missing_report_is_a_problem(tmp_path):
    cmd, rc, err, files = run(tmp_path, "concavity", "linear", ["--trials", "50"],
                              {"trials": 50})
    assert checks.check(cmd, rc, err, {}) != []
    bad = copy.deepcopy(files)
    bad["concavity.json"] = b"{"
    assert checks.check(cmd, rc, err, bad) != []
