"""perfbench/tracing.py wraps altkit's functions by name from outside
``src/``.  Running one small command under the tracer fails here, in the
unit tests, when a change removes or renames a name the benchmark patches."""
import contextlib
import importlib
import io
from pathlib import Path

from altkit import axioms, cli, fixtures, sampling

ROOT = Path(__file__).resolve().parents[1]


def test_verify_runs_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    originals = (dict(axioms._CHECKERS), sampling.run_indexed,
                 fixtures.make_difference_oracle, cli.check_gossen_law)
    argv = ["verify", "--oracle", "linear", "--trials", "20", "--seed", "1",
            "--outdir", str(tmp_path)]
    with tracing.traced(tracing.Tracer()) as tracer, \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert (dict(axioms._CHECKERS), sampling.run_indexed,
            fixtures.make_difference_oracle, cli.check_gossen_law) == originals
    consistency = tracer.get("axioms.consistency")
    assert consistency.items == 20
    assert consistency.compares == 2 * 20
    assert tracer.get("sampling.subrng").calls == 5 * 20
    assert tracer.get("fixtures.setup").calls == 1
    assert tracer.get("solvers.band_bisect").calls > 0
