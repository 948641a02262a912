"""altkit.meter: the process-wide tally of evaluator rows, compare calls
and rows, and Philox blocks, split by the kind of solve that asked them.
Each test takes the tally's difference around the work (the ``work``
fixture), as ``scripts/count_work.py`` does."""
import ast
import contextlib
import dataclasses
import importlib
import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from altkit import cli, meter
from altkit.domain import BoxDomain
from altkit.fixtures import make_difference_oracle, utility_by_name
from altkit.ladder import evaluate_together, reconstruct_utility
from altkit.oracle import AltOracle, classify
from altkit.solvers import indifference_param_many

ROOT = Path(__file__).resolve().parents[1]


def test_a_remade_spec_counts_each_row_once(work):
    # The tracer and tests re-make specs with dataclasses.replace, which
    # hands the new spec the old one's metered batch: it is not wrapped
    # again, and the row-0 evaluator values through it.
    spec = utility_by_name("linear")
    for remade in (dataclasses.replace(spec), dataclasses.replace(spec, evaluator=None)):
        assert remade.batch is spec.batch
        work.clear()
        remade.evaluate_many(np.ones((5, 2)))
        remade(np.ones(2))
        assert work.added() == Counter({"evaluator rows": 6, "evaluator array calls": 2,
                                        ("other", "evaluator rows"): 6})


def test_compare_rows_without_a_rows_hook_counts_once(work):
    def comparator(x, y, z, w):
        return classify(float((x[0] - y[0]) - (z[0] - w[0])), 1e-9)
    oracle = AltOracle(1, BoxDomain([0.0], [1.0]), comparator, 1e-9)
    held = oracle.hold(np.linspace(0.0, 1.0, 4)[:, None])
    i = np.arange(4)
    work.clear()
    signs = oracle.compare_rows(held, (i, i[::-1], i, i))
    assert signs.tolist() == [-1, -1, 1, 1]
    assert work.added() == Counter({"compare_batch calls": 1, "compare rows": 4,
                                    ("other", "compare calls"): 1, ("other", "compare rows"): 4})
    assert oracle.calls == 4


def test_a_nested_solve_keeps_the_outer_kind(work):
    oracle = make_difference_oracle(utility_by_name("linear"))
    seg = oracle.domain.diagonal()
    xs = seg.at_many(np.array([0.3, 0.6]))
    outer = meter.solve("ladder build")(indifference_param_many)
    for solve, kind in ((indifference_param_many, "evaluation"), (outer, "ladder build")):
        work.clear()
        solve(oracle, seg, xs)
        added = work.added()
        assert added["compare_batch calls"] > 0
        assert {key: n for key, n in added.items() if isinstance(key, tuple)} == {
            (kind, name): added[total] for name, total in (
                ("compare calls", "compare_batch calls"), ("compare rows", "compare rows"),
                ("evaluator rows", "evaluator rows"))}
    assert meter._kind == "other"


def test_evaluate_together_solves_under_evaluation(work):
    oracle = make_difference_oracle(utility_by_name("cobb_douglas"))
    recon = reconstruct_utility(oracle, depth=3)
    xs = oracle.domain.diagonal().at_many(np.array([0.1, 0.4, 0.8]))
    work.clear()
    evaluate_together([recon], xs)
    added = work.added()
    # The two anchor checks ask outside the solve; the solve's compares,
    # and the values of its fresh points, count under "evaluation".
    assert added["other", "compare calls"] == 2
    assert added["evaluation", "compare calls"] == added["compare_batch calls"] - 2 > 0
    assert added["evaluation", "evaluator rows"] > 0
    assert added["ladder build", "compare calls"] == 0


# command -> (argv, exit code), the small commands of tests/test_tracer_contract.py.
COMMANDS = {
    "verify": (["verify", "--oracle", "linear", "--trials", "20"], 0),
    "reconstruct": (["reconstruct", "--oracle", "cobb_douglas", "--depth", "3", "--trials", "20",
                     "--grid", "3", "--second-anchors", "0.1", "0.9"], 0),
    "concavity": (["concavity", "--oracle", "neg_quadratic", "--trials", "40"], 0),
    "smoothness": (["smoothness", "--oracle", "kinked_composite", "--b", "1.0",
                    "--debreu-trials", "4"], 1),
    "alep": (["alep", "--oracle", "cobb_douglas", "--grid", "3"], 0),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_the_tracer_leaves_the_tally_as_it_is(command, work, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    argv, rc = COMMANDS[command]
    argv = [*argv, "--seed", "1", "--outdir", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        work.clear()
        assert cli.main(argv) == rc
        plain = work.added()
        work.clear()
        with tracing.traced(tracing.Tracer()):
            assert cli.main(argv) == rc
        traced = work.added()
    assert plain["evaluator rows"] > 0
    if command == "alep":
        # The tracer hands alep a plain function in place of the spec, so
        # alep values its points one call each instead of in one array
        # call; only the rows it values are the same.
        rows = ["evaluator rows"] + [(kind, "evaluator rows")
                                     for kind in ("ladder build", "evaluation", "other")]
        assert [traced[key] for key in rows] == [plain[key] for key in rows]
        assert traced["evaluator array calls"] > plain["evaluator array calls"]
    else:
        assert traced == plain


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant):        # getattr(meter, "COUNTS")
            yield node.value


def test_only_the_meter_reads_the_tally():
    # No result can depend on the tally if no module of altkit but the
    # meter names it.
    readers = sorted(path.name for path in (ROOT / "src" / "altkit").glob("*.py")
                     if path.name != "meter.py"
                     and "COUNTS" in _names(ast.parse(path.read_text())))
    assert readers == []
