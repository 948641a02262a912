"""Byte-for-byte regression gate on the CLI's reports.

Each case below re-runs one command at seed 3 and compares every file it
writes with the copy checked in under ``tests/golden/<case>/``, after
blanking the timestamp.  The golden files are regenerated with

    PYTHONPATH=src python tests/test_golden.py

which should only be done when a change is meant to alter report bytes.
"""
import contextlib
import io
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

from altkit.cli import main

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
                             "--second-anchors", "0.1", "0.9"], 1),
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


if __name__ == "__main__":
    regenerate()
