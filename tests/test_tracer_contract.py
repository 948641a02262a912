"""perfbench/tracing.py wraps altkit's functions by name from outside
``src/``.  Running one small command under the tracer fails here, in the
unit tests, when a change removes or renames a name the benchmark patches."""
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

from altkit import axioms, cli, concavity, fixtures, ladder, sampling, smoothness

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
    # Each of the five checkers draws all its trials with one stream call,
    # without a per-trial generator, and answers them with compare_batch,
    # which the tracer does not count.
    assert tracer.get("sampling.run_indexed").calls == 0
    assert tracer.get("sampling.subrng").calls == 0
    assert tracer.get("fixtures.setup").calls == 1
    assert [tracer.get(f"axioms.{a}").items for a in axioms.ALL_AXIOMS] == [20] * 5


def _reports(outdir: Path) -> dict[str, bytes]:
    return {p.name: re.sub(rb'"timestamp": "[^"]*"', b"", p.read_bytes())
            for p in sorted(outdir.iterdir())}


def _plain_and_traced(tmp_path, monkeypatch, argv, rc):
    """Run one command untraced and then traced, each in its own directory
    with the same relative --outdir (reports echo it); return both sets of
    reports and the tracer."""
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    argv = [*argv, "--seed", "1", "--outdir", "out"]
    for run in ("plain", "traced"):
        (tmp_path / run).mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        monkeypatch.chdir(tmp_path / "plain")
        assert cli.main(argv) == rc
        monkeypatch.chdir(tmp_path / "traced")
        with tracing.traced(tracing.Tracer()) as tracer:
            assert cli.main(argv) == rc
    return _reports(tmp_path / "plain" / "out"), _reports(tmp_path / "traced" / "out"), tracer


def test_reconstruct_reports_match_under_the_tracer(tmp_path, monkeypatch):
    argv = ["reconstruct", "--oracle", "cobb_douglas", "--depth", "3", "--trials", "20",
            "--grid", "3", "--second-anchors", "0.1", "0.9"]
    originals = (ladder.band_bisect, ladder.ReconstructedUtility.evaluate,
                 cli.representation_spot_check, cli.verify_affine_uniqueness)
    plain, traced, tracer = _plain_and_traced(tmp_path, monkeypatch, argv, 0)
    assert (ladder.band_bisect, ladder.ReconstructedUtility.evaluate,
            cli.representation_spot_check, cli.verify_affine_uniqueness) == originals
    assert traced == plain
    assert sorted(plain) == [
        "affine.json", "grid.csv", "reconstruction.json", "representation.json"]
    assert tracer.get("ladder.build_ladder").calls == 2
    assert tracer.get("ladder.spot_check").calls == 1
    assert tracer.get("ladder.affine").calls == 1
    assert tracer.get("sampling.subrng").calls == 0
    assert tracer.get("sampling.run_indexed").calls == 0


# command -> (argv, exit code, report files, spans the command must enter).
# The line estimate solves its whole schedule, and the Debreu proxy its
# stencils, in one lockstep solve each, so the smoothness command never
# enters smoothness.solve_f, smoothness.calibrate or the scalar
# solvers.band_bisect; the tracer still patches those names.  No command
# draws trial by trial, so none enters sampling.subrng or
# sampling.run_indexed.
SHAPE_COMMANDS = {
    "concavity": (["concavity", "--oracle", "neg_quadratic", "--trials", "40"], 0,
                  ["concavity.json"], ["concavity.gossen"]),
    "smoothness": (["smoothness", "--oracle", "kinked_composite", "--b", "1.0",
                    "--debreu-trials", "4"], 1, ["quotients.csv", "smoothness.json"],
                   ["smoothness.line", "smoothness.debreu"]),
    "alep": (["alep", "--oracle", "cobb_douglas", "--grid", "3"], 0,
             ["alep.csv", "alep.json"], ["diffcalc.alep"]),
}


@pytest.mark.parametrize("command", sorted(SHAPE_COMMANDS))
def test_shape_reports_match_under_the_tracer(command, tmp_path, monkeypatch):
    argv, rc, files, spans = SHAPE_COMMANDS[command]
    originals = (cli.check_gossen_law, cli.line_smoothness_limit, cli.alep_classify,
                 concavity.subrng, concavity.run_indexed, smoothness.subrng,
                 smoothness.run_indexed, smoothness.solve_f, smoothness.calibrate)
    plain, traced, tracer = _plain_and_traced(tmp_path, monkeypatch, argv, rc)
    assert (cli.check_gossen_law, cli.line_smoothness_limit, cli.alep_classify,
            concavity.subrng, concavity.run_indexed, smoothness.subrng,
            smoothness.run_indexed, smoothness.solve_f, smoothness.calibrate) == originals
    assert traced == plain
    assert sorted(plain) == files
    for span in spans:
        assert tracer.get(span).calls > 0, span
    for span in ("sampling.subrng", "sampling.run_indexed", "smoothness.solve_f",
                 "smoothness.calibrate", "solvers.band_bisect"):
        assert tracer.get(span).calls == 0, span
