"""perfbench/tracing.py wraps altkit's functions by name from outside
``src/``.  Running one small command under the tracer fails here, in the
unit tests, when a change removes or renames a name the benchmark patches."""
import contextlib
import importlib
import io
import re
from pathlib import Path

from altkit import axioms, cli, fixtures, ladder, sampling

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


def _reports(outdir: Path) -> dict[str, bytes]:
    return {p.name: re.sub(rb'"timestamp": "[^"]*"', b"", p.read_bytes())
            for p in sorted(outdir.iterdir())}


def test_reconstruct_reports_match_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    # The report echoes --outdir, so both runs use the same relative one.
    argv = ["reconstruct", "--oracle", "cobb_douglas", "--depth", "3", "--trials", "20",
            "--grid", "3", "--second-anchors", "0.1", "0.9", "--seed", "1",
            "--outdir", "out"]
    originals = (ladder.band_bisect, ladder.ReconstructedUtility.evaluate,
                 cli.representation_spot_check, cli.verify_affine_uniqueness)
    for run in ("plain", "traced"):
        (tmp_path / run).mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        monkeypatch.chdir(tmp_path / "plain")
        assert cli.main(argv) == 0
        monkeypatch.chdir(tmp_path / "traced")
        with tracing.traced(tracing.Tracer()) as tracer:
            assert cli.main(argv) == 0
    assert (ladder.band_bisect, ladder.ReconstructedUtility.evaluate,
            cli.representation_spot_check, cli.verify_affine_uniqueness) == originals
    plain = _reports(tmp_path / "plain" / "out")
    assert _reports(tmp_path / "traced" / "out") == plain
    assert sorted(plain) == [
        "affine.json", "grid.csv", "reconstruction.json", "representation.json"]
    assert tracer.get("ladder.build_ladder").calls == 2
    assert tracer.get("ladder.spot_check").calls == 1
    assert tracer.get("ladder.affine").calls == 1
    assert tracer.get("sampling.subrng").calls > 0
