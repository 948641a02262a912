#!/usr/bin/env python3
"""Count the machine-independent work of one benchmark round.

    python scripts/count_work.py
    python scripts/count_work.py --workload reconstruct-ladder --seed 2

Runs one round of each workload of ``perfbench/workloads.py`` (or of the
ones named) through ``altkit.cli.main`` in this process, with this
checkout's ``src/``, and prints per workload:

- evaluator rows and evaluator array calls: the rows of every call of a
  utility's or intensity's array function (``batch``), set-up included;
- ``compare_batch`` calls and the rows they ask, a ``compare_rows`` call
  counted as one of them (and the ``compare_batch`` call it may make for
  its gathered rows not again);
- Philox blocks computed by ``sampling._philox``;
- report bytes: the bytes of every file the round writes, with the
  round's report directory and this checkout's root path blanked wherever
  a report echoes them (its ``outdir``, and the ``oracle`` path of a JSON
  utility), so the figure does not depend on where either lives;
- compare calls, compare rows and evaluator rows split by the solve that
  asked them, found on the Python stack: a ladder build
  (``ladder.build_ladder``), an evaluation
  (``solvers.indifference_param_many``), and other calls.

Everything is counted by wrapping altkit from outside ``src/``; nothing
under ``perfbench/`` is changed.  Reports go to a temporary directory.
"""
import argparse
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from altkit import cli, fixtures, sampling  # noqa: E402
from altkit.oracle import AltOracle  # noqa: E402

COUNTS = ("evaluator rows", "evaluator array calls", "compare_batch calls", "compare rows",
          "Philox blocks", "report bytes")
# Per kind of solve, the function whose frame on the stack marks it, innermost first.
SOLVES = (("ladder build", "build_ladder"), ("evaluation", "indifference_param_many"))
KINDS = [kind for kind, _ in SOLVES] + ["other"]
BY_SOLVE = ("compare calls", "compare rows", "evaluator rows")


def solve_of(frame) -> str:
    """The kind of solve whose frames hold ``frame``, or "other"."""
    names = set()
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return next((kind for kind, name in SOLVES if name in names), "other")
WORKERS = 2          # the benchmark's worker count; altkit runs trials on one thread


@contextlib.contextmanager
def counting(counts: Counter):
    """Count into ``counts`` while the block runs: every spec built in it
    gets a counting ``batch``, and ``compare_batch``, ``compare_rows`` and
    ``_philox`` are wrapped."""
    compare_batch, compare_rows = AltOracle.compare_batch, AltOracle.compare_rows
    philox = sampling._philox
    inits = {cls: cls.__post_init__ for cls in (fixtures.UtilitySpec, fixtures.IntensitySpec)}

    def counted_init(init):
        def post_init(self):
            init(self)
            batch = self.batch

            def counted(*arrays):
                counts["evaluator rows"] += len(arrays[0])
                counts["evaluator array calls"] += 1
                counts[solve_of(sys._getframe(1)), "evaluator rows"] += len(arrays[0])
                return batch(*arrays)
            self.batch = counted
        return post_init

    def count_compare(rows: int) -> None:
        solve = solve_of(sys._getframe(2))
        counts["compare_batch calls"] += 1
        counts["compare rows"] += rows
        counts[solve, "compare calls"] += 1
        counts[solve, "compare rows"] += rows

    def counted_compare_batch(self, X, Y, Z, W):
        if sys._getframe(1).f_code is not compare_rows.__code__:     # compare_rows counts itself
            count_compare(len(X))
        return compare_batch(self, X, Y, Z, W)

    def counted_compare_rows(self, held, index, fresh=None):
        signs = compare_rows(self, held, index, fresh)
        count_compare(len(signs))
        return signs

    def counted_philox(ctr, seed):
        counts["Philox blocks"] += max(np.size(c) for c in ctr)
        return philox(ctr, seed)

    for cls, init in inits.items():
        cls.__post_init__ = counted_init(init)
    AltOracle.compare_batch = counted_compare_batch
    AltOracle.compare_rows = counted_compare_rows
    sampling._philox = counted_philox
    try:
        yield
    finally:
        for cls, init in inits.items():
            cls.__post_init__ = init
        AltOracle.compare_batch = compare_batch
        AltOracle.compare_rows = compare_rows
        sampling._philox = philox


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
    counts, codes = Counter(), []
    with tempfile.TemporaryDirectory() as out_root, counting(counts):
        for cmd in workloads.commands(workload, seed, WORKERS, Path(out_root)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(cli.main(list(cmd.argv)))
                except SystemExit as stop:
                    codes.append(stop.code)
                except Exception as bad:  # an escaping exception is a result to show
                    codes.append(type(bad).__name__)
        counts["report bytes"] = report_bytes(Path(out_root))
    return counts, codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(f"{'workload':<20}" + "".join(f"{name:>23}" for name in COUNTS))
    for workload in args.workload:
        counts, codes = count_round(workload, args.seed)
        print(f"{workload:<20}" + "".join(f"{counts[name]:>23,}" for name in COUNTS)
              + f"   exit codes {dict(Counter(map(str, codes)))}")
        for name in BY_SOLVE:
            print(f"{'':<20}{name} by solve: " + ", ".join(
                f"{kind} {counts[kind, name]:,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
