"""The machine-independent work of one benchmark round at seed 1, as
``scripts/count_work.py`` counts it: evaluator rows, compare calls,
compare rows, Philox blocks and report bytes (with the paths the reports
echo blanked).  A change that moves one of them moves the benchmark's
work, and must say so by updating the figure here."""
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def count_work():
    path = list(sys.path)          # the script puts src/ and perfbench/ first
    spec = importlib.util.spec_from_file_location("count_work", ROOT / "scripts" / "count_work.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path[:] = path


# Per workload: evaluator rows, compare calls, compare rows, Philox blocks,
# report bytes; and compare calls by solve: ladder build, evaluation, other.
COUNTS = {"verify-catalog": (668_564, 537, 392_887, 89_632, 58_153),
          "reconstruct-ladder": (1_436_925, 3_337, 1_459_728, 2_600, 1_096_886),
          "shape-diagnostics": (139_110, 220, 102_335, 10_240, 633_649)}
BY_SOLVE = {"verify-catalog": (0, 0, 537),
            "reconstruct-ladder": (2_842, 460, 35),
            "shape-diagnostics": (0, 134, 86)}
# The rest of the table: evaluator array calls, and compare rows and
# evaluator rows by solve (ladder build, evaluation, other).
ARRAY_CALLS = {"verify-catalog": 950, "reconstruct-ladder": 3_320, "shape-diagnostics": 257}
ROWS_BY_SOLVE = {"verify-catalog": ((0, 0, 392_887), (0, 0, 668_564)),
                 "reconstruct-ladder": ((1_165_932, 267_086, 26_710),
                                        (1_157_593, 267_086, 12_246)),
                 "shape-diagnostics": ((0, 90_843, 11_492), (0, 93_003, 46_107))}


@pytest.mark.parametrize("workload", COUNTS)
def test_counts_of_one_round_at_seed_1(count_work, workload):
    counts, codes = count_work.count_round(workload, 1)
    assert set(codes) <= {0, 1, 2}                  # no exception escaped a command
    assert tuple(counts[name] for name in ("evaluator rows", "compare_batch calls", "compare rows",
                                           "Philox blocks", "report bytes")) == COUNTS[workload]
    assert tuple(counts[kind, "compare calls"] for kind in count_work.KINDS) == \
        BY_SOLVE[workload]
    assert counts["evaluator array calls"] == ARRAY_CALLS[workload]
    assert tuple(tuple(counts[kind, name] for kind in count_work.KINDS)
                 for name in ("compare rows", "evaluator rows")) == ROWS_BY_SOLVE[workload]
