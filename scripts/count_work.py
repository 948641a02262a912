#!/usr/bin/env python3
"""Count the machine-independent work of one benchmark round.

    python scripts/count_work.py
    python scripts/count_work.py --workload reconstruct-ladder --seed 2

Runs one round of each workload of ``perfbench/workloads.py`` (or of the
ones named) through ``altkit.cli.main`` in this process, with this
checkout's ``src/``, and prints per workload what it adds to altkit's own
tally, ``altkit.meter.COUNTS``: evaluator rows and array calls (set-up
included), compare calls (``compare_batch`` and ``compare_rows``) and
their rows, Philox blocks, and the bytes of the reports the round writes
to a temporary directory, with that directory and this checkout's root
blanked wherever a report echoes them; then compare calls, compare rows
and evaluator rows by the solve that asked them: a ladder build, an
evaluation, and other calls.  A seed outside [0, 2**64) exits 2.
"""
import argparse
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from altkit import cli  # noqa: E402
from altkit.meter import COUNTS  # noqa: E402

TOTALS = ("evaluator rows", "evaluator array calls", "compare_batch calls", "compare rows",
          "Philox blocks", "report bytes")
BY_SOLVE = ("compare calls", "compare rows", "evaluator rows")
KINDS = ("ladder build", "evaluation", "other")     # altkit.meter.solve's kinds
WORKERS = 2          # the benchmark's worker count; altkit runs trials on one thread


def report_bytes(out_root: Path) -> int:
    """The bytes of every file under ``out_root``, with every copy of
    ``out_root``, and then of ``ROOT``, as a JSON string spells them taken
    out."""
    paths = [json.dumps(str(path))[1:-1].encode() for path in (out_root, ROOT)]
    total = 0
    for path in out_root.rglob("*"):
        if path.is_file():
            data = path.read_bytes()
            for blank in paths:
                data = data.replace(blank, b"")
            total += len(data)
    return total


def count_round(workload: str, seed: int) -> tuple[Counter, list]:
    """The counts of one round of ``workload``, and the exit code of each
    command (or the exception that escaped it)."""
    before, codes = COUNTS.copy(), []
    with tempfile.TemporaryDirectory() as out_root:
        for cmd in workloads.commands(workload, seed, WORKERS, Path(out_root)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(cli.main(list(cmd.argv)))
                except SystemExit as stop:
                    codes.append(stop.code)
                except Exception as bad:  # an escaping exception is a result to show
                    codes.append(type(bad).__name__)
        counts = COUNTS - before
        counts["report bytes"] = report_bytes(Path(out_root))
    return counts, codes


def seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=seed, default=1)
    args = parser.parse_args(argv)
    print(f"{'workload':<20}" + "".join(f"{name:>23}" for name in TOTALS))
    for workload in args.workload:
        counts, codes = count_round(workload, args.seed)
        print(f"{workload:<20}" + "".join(f"{counts[name]:>23,}" for name in TOTALS)
              + f"   exit codes {dict(Counter(map(str, codes)))}")
        for name in BY_SOLVE:
            print(f"{'':<20}{name} by solve: " + ", ".join(
                f"{kind} {counts[kind, name]:,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
