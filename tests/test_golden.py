"""Byte-for-byte regression gate on the CLI's reports.

Each case below re-runs one command at seed 3 and compares every file it
writes with the copy checked in under ``tests/golden/<case>/``, after
blanking the timestamp.  A case that names a JSON utility file finds it,
under a relative path, in the directory it runs in (``INPUTS``), so the
path its reports echo does not depend on where the tests live.  Reports
that only the library writes (the value-side concavity check, density,
order embedding, the concavity round trip, the Debreu proxy's witnesses
and skips, and the checkers given fixed trial ``points``) are pinned the
same way under ``tests/golden/library/``.
The golden files are regenerated with

    PYTHONPATH=src python tests/test_golden.py

which should only be done when a change is meant to alter report bytes.
"""
import contextlib
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from altkit.axioms import (Record, check_consistency, check_continuity_proxy,
                           check_crossover, check_monotonicity, check_second_consistency)
from altkit.cli import main
from altkit.concavity import check_gossen_law, check_midpoint_concavity, concavity_roundtrip
from altkit.domain import BoxDomain
from altkit.fixtures import oracle_by_name, utility_by_name
from altkit.ladder import check_density, order_embedding_check, reconstruct_utility
from altkit.smoothness import debreu_smoothness_proxy

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = "3"

# case -> (argv, expected exit code)
CASES = {
    "verify-cobb_douglas": (["verify", "--oracle", "cobb_douglas", "--trials", "200"], 0),
    "verify-step": (["verify", "--oracle", "step", "--trials", "200"], 1),
    "verify-broken_crossover": (["verify", "--oracle", "broken_crossover",
                                 "--trials", "200"], 1),
    # neg_quadratic is not monotone along the diagonal: crossover's w-solve
    # takes the grid scan.
    "verify-neg_quadratic": (["verify", "--oracle", "neg_quadratic", "--trials", "200"], 1),
    "verify-sqrt_log": (["verify", "--oracle", "sqrt_log.json", "--trials", "200"], 0),
    "reconstruct-log_sum": (["reconstruct", "--oracle", "log_sum", "--depth", "4",
                             "--trials", "100", "--grid", "3",
                             "--second-anchors", "0.1", "0.9"], 0),
    # numpy only (np.where on the kink), and a JSON utility valued through
    # the op table's sqrt and log.
    "reconstruct-kinked_composite": (["reconstruct", "--oracle", "kinked_composite",
                                      "--depth", "6", "--trials", "100", "--grid", "3",
                                      "--second-anchors", "0.1", "0.9"], 0),
    "reconstruct-sqrt_log": (["reconstruct", "--oracle", "sqrt_log.json", "--depth", "6",
                              "--trials", "100", "--grid", "3",
                              "--second-anchors", "0.1", "0.9"], 0),
    "concavity-neg_quadratic": (["concavity", "--oracle", "neg_quadratic",
                                 "--trials", "300"], 0),
    "concavity-exp1d": (["concavity", "--oracle", "exp1d", "--trials", "300"], 1),
    "smoothness-kinked_composite": (["smoothness", "--oracle", "kinked_composite",
                                     "--b", "1.0", "--debreu-trials", "10"], 1),
    "alep-cobb_douglas": (["alep", "--oracle", "cobb_douglas", "--grid", "3"], 0),
    # Raw second differences of JSON utilities built on exp, pow and log:
    # their last digits follow the last bit of every utility value.
    "alep-expprod": (["alep", "--oracle", "expprod.json", "--grid", "5"], 0),
    "alep-powlog": (["alep", "--oracle", "powlog.json", "--grid", "5"], 0),
}

# JSON utility files the cases name, written next to their report directory.
INPUTS = {
    "sqrt_log.json": {"name": "sqrt_log", "dimension": 2,
                      "domain": {"lower": [0.1, 0.1], "upper": [10.0, 10.0]},
                      "expr": ["add", ["mul", 2.0, ["sqrt", ["x", 0]]],
                               ["log", ["x", 1]]]},
    "expprod.json": {"name": "expprod", "dimension": 2,
                     "domain": {"lower": [0.1, 0.1], "upper": [2.0, 2.0]},
                     "expr": ["exp", ["mul", ["x", 0], ["x", 1]]]},
    "powlog.json": {"name": "powlog", "dimension": 2,
                    "domain": {"lower": [0.1, 0.1], "upper": [2.0, 2.0]},
                    "expr": ["mul", ["pow", ["x", 0], 0.3], ["log", ["add", 1.0, ["x", 1]]]]},
}

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def run_case(case: str) -> tuple[int, dict[str, bytes]]:
    """Run one case in the current directory; its reports go to ./<case>."""
    argv, _ = CASES[case]
    inputs = [Path(name) for name in INPUTS if name in argv]
    for path in inputs:
        path.write_text(json.dumps(INPUTS[path.name]))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, "--seed", SEED, "--outdir", case])
    finally:
        for path in inputs:
            path.unlink()
    files = {p.name: _TIMESTAMP.sub(b'"timestamp": ""', p.read_bytes())
             for p in sorted(Path(case).iterdir())}
    return rc, files


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, files = run_case(case)
    assert rc == CASES[case][1]
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    assert sorted(files) == sorted(expected)
    for name, data in files.items():
        assert data == expected[name], f"{case}/{name} differs from its golden copy"


CHECKERS = {"consistency": check_consistency, "crossover": check_crossover,
            "second-consistency": check_second_consistency,
            "continuity-proxy": check_continuity_proxy, "monotonicity": check_monotonicity}
# Trial points, cycled by every checker, by dimension; clipped to each box.
CYCLE_POINTS = {1: [[4.0], [1.0], [2.0], [7.5], [0.5]],
                2: [[1.0, 2.0], [3.0, 0.5], [9.0, 9.0], [0.2, 5.0], [2.0, 2.0]]}


def cycled_points_reports() -> str:
    """Every axiom checker given cycled trial points (7 trials, seed 5) on
    four oracles, with the compares each made."""
    doc = {}
    for name in ("broken_crossover", "cobb_douglas", "step", "neg_quadratic"):
        for axiom, check in CHECKERS.items():
            oracle = oracle_by_name(name)
            points = np.clip(CYCLE_POINTS[oracle.dim], oracle.domain.lower, oracle.domain.upper)
            report = check(oracle, points=points, trials=7, seed=5)
            doc[f"{name}/{axiom}"] = {"report": report.to_dict(),
                                      "oracle_calls": oracle.calls}
    return Record.dumps(doc)


def debreu_skip_reports() -> str:
    """Debreu proxy reports that skip trials: a thin box where most points
    rank above every diagonal multiple, a box with no diagonal ray, and a
    min2 given trial points off the box, near its faces and on
    its kink."""
    points = [[3.0, 3.0], [11.0, 2.0], [0.1, 5.0], [9.995, 2.0], [2.0, 7.0],
              [5.0, 5.0000001]]
    return Record.dumps({
        "linear-thin-box": debreu_smoothness_proxy(
            oracle_by_name("linear", BoxDomain([0.1, 0.1], [10.0, 1.0])),
            trials=20, seed=3).to_dict(),
        "linear-no-diagonal": debreu_smoothness_proxy(
            oracle_by_name("linear", BoxDomain([0.1, 6.0], [5.0, 10.0])),
            trials=5, seed=3).to_dict(),
        "min2-cycle-sampler": debreu_smoothness_proxy(
            oracle_by_name("min2"), points=points, trials=7,
            seed=3).to_dict(),
    })


# Gossen pairs given as trial points: the first two points of each list
# are closer than the strictness floor.
GOSSEN_CYCLES = {
    "cobb_douglas": [[1.0, 2.0], [1.0, 2.0 + 1e-9], [3.0, 0.5], [9.0, 9.0], [2.0, 2.0],
                     [2.5, 2.5]],
    "exp1d": [[0.2], [0.2 + 1e-9], [0.1], [0.9], [0.5], [0.5000001]],
    "neg_quadratic": [[0.5], [0.5 + 1e-9], [0.1], [1.9], [1.0], [1.5]],
}


def gossen_cycle_reports() -> str:
    """Gossen's law given cycled trial points (7 trials, seed 5), with the
    compares each made."""
    doc = {}
    for name, points in GOSSEN_CYCLES.items():
        oracle = oracle_by_name(name)
        report = check_gossen_law(oracle, points=points, trials=7, seed=5)
        doc[name] = {"report": report.to_dict(), "oracle_calls": oracle.calls}
    return Record.dumps(doc)


def embedding_report(oracle, depth: int, trials: int) -> str:
    """Order embedding of a reconstruction, with the compares it made and
    the evaluations it clamped."""
    recon = reconstruct_utility(oracle, depth=depth)
    calls0 = oracle.calls
    report = order_embedding_check(recon, trials=trials, seed=3)
    return Record.dumps({"report": report.to_dict(), "oracle_calls": oracle.calls - calls0,
                         "clamped": recon.clamped})


def library_reports() -> dict[str, str]:
    """JSON text of the reports the CLI never writes, by file name."""
    exp1d, neg_quad = utility_by_name("exp1d"), utility_by_name("neg_quadratic")
    oracle = oracle_by_name("cobb_douglas")
    recon = reconstruct_utility(oracle, depth=4)
    roundtrip = concavity_roundtrip(utility_by_name("log_sum"), trials=200, seed=3, depth=4)
    log_sum = oracle_by_name("log_sum")
    # A dead band wider than a rung step: the reconstruction ranks pairs
    # the oracle calls indifferent, and some points clamp.
    wide = oracle_by_name("exp1d", eps_eq=0.1)
    return {
        "midpoint-exp1d.json": check_midpoint_concavity(
            exp1d.evaluator, exp1d.domain, trials=50, seed=3).to_json(),
        "midpoint-dyadic-neg_quadratic.json": check_midpoint_concavity(
            neg_quad.evaluator, neg_quad.domain, trials=50, seed=3, dyadic_depth=3,
            floor=0.5).to_json(),
        "midpoint-dyadic-exp1d.json": check_midpoint_concavity(
            exp1d.evaluator, exp1d.domain, trials=50, seed=3, dyadic_depth=2).to_json(),
        "density-cobb_douglas.json": check_density(
            oracle, recon.ladder, trials=50, seed=3).to_json(),
        "order-embedding-cobb_douglas.json": order_embedding_check(
            recon, trials=100, seed=3).to_json(),
        "density-log_sum.json": check_density(
            log_sum, reconstruct_utility(log_sum, depth=4).ladder, trials=50,
            seed=3).to_json(),
        "order-embedding-log_sum.json": embedding_report(log_sum, depth=4, trials=100),
        "density-exp1d-wide-band.json": check_density(
            wide, reconstruct_utility(wide, depth=4).ladder, trials=50, seed=3).to_json(),
        "order-embedding-exp1d-wide-band.json": embedding_report(wide, depth=4, trials=100),
        "debreu-kinked_composite.json": debreu_smoothness_proxy(
            oracle_by_name("kinked_composite"), trials=20, seed=25).to_json(),
        "debreu-min2.json": debreu_smoothness_proxy(
            oracle_by_name("min2"), trials=20, seed=8).to_json(),
        "debreu-skips.json": debreu_skip_reports(),
        "gossen-cycle-sampler.json": gossen_cycle_reports(),
        "roundtrip-log_sum.json": json.dumps(roundtrip, sort_keys=True, indent=2),
        "cycle-sampler.json": cycled_points_reports(),
    }


def test_library_reports_match_golden():
    reports = library_reports()
    expected = sorted(p.name for p in (GOLDEN / "library").iterdir())
    assert sorted(reports) == expected
    for name, text in reports.items():
        assert text == (GOLDEN / "library" / name).read_text(), \
            f"library/{name} differs from its golden copy"


def regenerate() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    os.chdir(GOLDEN)
    for case in sorted(CASES):
        rc, files = run_case(case)
        if rc != CASES[case][1]:
            sys.exit(f"{case}: exit {rc}, expected {CASES[case][1]}")
        for name, data in files.items():
            (GOLDEN / case / name).write_bytes(data)
    (GOLDEN / "library").mkdir()
    for name, text in library_reports().items():
        (GOLDEN / "library" / name).write_text(text)


if __name__ == "__main__":
    regenerate()
