"""Byte-for-byte regression gate on the CLI's reports.

Each case below re-runs one command at seed 3 and compares every file it
writes with the copy checked in under ``tests/golden/<case>/``, after
blanking the timestamp.  Reports that only the library writes (the
value-side concavity check, density, order embedding and the concavity
round trip) are pinned the same way under ``tests/golden/library/``.
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

import pytest

from altkit.cli import main
from altkit.concavity import check_midpoint_concavity, concavity_roundtrip
from altkit.fixtures import oracle_by_name, utility_by_name
from altkit.ladder import check_density, order_embedding_check, reconstruct_utility

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = "3"

# case -> (argv, expected exit code)
CASES = {
    "verify-cobb_douglas": (["verify", "--oracle", "cobb_douglas", "--trials", "200"], 0),
    "verify-step": (["verify", "--oracle", "step", "--trials", "200"], 1),
    "verify-broken_crossover": (["verify", "--oracle", "broken_crossover",
                                 "--trials", "200"], 1),
    "reconstruct-log_sum": (["reconstruct", "--oracle", "log_sum", "--depth", "4",
                             "--trials", "100", "--grid", "3",
                             "--second-anchors", "0.1", "0.9"], 0),
    "concavity-neg_quadratic": (["concavity", "--oracle", "neg_quadratic",
                                 "--trials", "300"], 0),
    "concavity-exp1d": (["concavity", "--oracle", "exp1d", "--trials", "300"], 1),
    "smoothness-kinked_composite": (["smoothness", "--oracle", "kinked_composite",
                                     "--b", "1.0", "--debreu-trials", "10"], 1),
    "alep-cobb_douglas": (["alep", "--oracle", "cobb_douglas", "--grid", "3"], 0),
}

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def run_case(case: str) -> tuple[int, dict[str, bytes]]:
    """Run one case in the current directory; its reports go to ./<case>."""
    argv, _ = CASES[case]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([*argv, "--seed", SEED, "--outdir", case])
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


def library_reports() -> dict[str, str]:
    """JSON text of the reports the CLI never writes, by file name."""
    exp1d, neg_quad = utility_by_name("exp1d"), utility_by_name("neg_quadratic")
    oracle = oracle_by_name("cobb_douglas")
    recon = reconstruct_utility(oracle, depth=4)
    roundtrip = concavity_roundtrip(utility_by_name("log_sum"), trials=200, seed=3, depth=4)
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
        "roundtrip-log_sum.json": json.dumps(roundtrip, sort_keys=True, indent=2),
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
