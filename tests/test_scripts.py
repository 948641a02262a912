"""The scripts under ``scripts/``, each loaded from its file and run
through its ``main``: every script's ``--help``, the sweep's modes on short
inputs, and the scripts' usage errors, which exit 2 with argparse's message
and no traceback.  A static check keeps every script from rewiring
altkit."""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sweep():
    return load("sweep")


def run(module, argv, capsys) -> tuple[int, list[str]]:
    """Exit code and stdout lines, with the table's trailing padding and the
    last line's seconds figure cut off."""
    code = module.main(argv)
    lines = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
    return code, lines[:-1] + [lines[-1].rsplit("; ", 1)[0]]


AXIOM_TABLE = """\
fixture           consistency         crossover           second-consistency  continuity-proxy    monotonicity
linear            pass                pass                pass                pass                pass
cobb_douglas      pass                pass                pass                pass                pass
ces               pass                pass                pass                pass                pass
log_sum           pass                pass                pass                pass                pass
exp1d             pass                pass                pass                pass                pass
kinked_composite  pass                pass                pass                pass                pass
min2              pass                pass                pass                pass                pass
neg_quadratic     pass                pass                pass                pass                FAIL
step              pass                pass                pass                pass                FAIL
broken_crossover  pass                FAIL                pass                pass                pass
constant          pass                pass                pass                pass                FAIL
55 pairs, seeds 0-1, 100 trials: 0 with two verdicts; 80 witnesses replayed, 0 stale"""


def test_axioms_table(sweep, capsys):
    assert run(sweep, ["axioms", "--seeds", "0", "1", "--trials", "100"], capsys) == \
        (0, AXIOM_TABLE.splitlines())


def test_shapes_flags_the_known_faults(sweep, capsys):
    # The known Gossen and Debreu faults of ROADMAP item 3: near-tie pairs
    # answer EQUAL and count as "equal" in the Gossen law, and the Debreu
    # proxy's fixed step is too large near a small lower face.  Item 3's
    # mend empties this list, and the sweep then exits 0.
    assert run(sweep, ["shapes", "--seeds", "0", "20"], capsys) == (1, [
        "mismatch: kinked_composite debreu@20: reads 'fail' on seeds [4], "
        "tagged debreu_smooth=True",
        "mismatch: kinked_composite debreu@80: reads 'fail' on seeds [4, 5], "
        "tagged debreu_smooth=True",
        "mismatch: neg_quadratic gossen: reads 'holds' on seeds [20], "
        "tagged concavity='strictly-concave'",
        "9 fixtures, seeds 0-20: 3 mismatches"])


@pytest.mark.parametrize("argv", [
    ["axioms", "--seeds", "5", "3"], ["shapes", "--seeds", "5", "3"],
    ["axioms", "--seeds", "-1", "0"], ["shapes", "--seeds", "0", str(2**64)],
    ["axioms", "--trials", "0"], ["shapes", "--trials", "10"], []])
def test_sweep_usage_errors_exit_2(sweep, capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        sweep.main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and ": error: " in err.splitlines()[-1]


SURVEY_TABLE = """\
fixture            axioms         gain law        tag               line             calibration  reconstruction      s
-----------------------------------------------------------------------------------------------------------------------
linear             pass           holds           concave           line-smooth      pass         pass
cobb_douglas       pass           holds-strictly  concave           line-smooth      pass         pass
ces                pass           holds-strictly  concave           line-smooth      pass         pass
log_sum            pass           holds-strictly  strictly-concave  line-smooth      pass         pass
exp1d              pass           fails           non-concave       line-smooth      pass         pass
kinked_composite   pass           holds-strictly  concave           line-smooth      pass         pass
min2               pass           holds           concave           line-smooth      fail         pass
neg_quadratic      FAIL:monotonicity holds-strictly  strictly-concave  inconclusive     pass         pass
step               FAIL:monotonicity fails           non-concave       inconclusive     pass         skipped
9 fixtures, seed 0, 100 trials, depth 8: 0 unexpected failures"""


def test_survey_table(sweep, capsys):
    code, lines = run(sweep, ["survey", "--seed", "0", "--trials", "100"], capsys)
    # Each row but the header and the rule ends in its seconds figure.
    assert (code, lines[:2] + [row[:-6].rstrip() for row in lines[2:-1]] + lines[-1:]) == \
        (0, SURVEY_TABLE.splitlines())


def test_survey_flags_a_sound_fixture_without_a_reconstruction(sweep, capsys):
    # Depth 18 passes the ladder's rung cap, so linear's reconstruction
    # reads n/a; step is neither monotone nor continuous, so it is not flagged.
    code, lines = run(sweep, ["survey", "--depth", "18", "--trials", "10",
                              "--fixtures", "linear", "step"], capsys)
    assert code == 1 and lines[-2:] == [
        "unexpected failures: linear",
        "2 fixtures, seed 0, 10 trials, depth 18: 1 unexpected failures"]


@pytest.mark.parametrize("argv", [
    ["survey", "--fixtures", "nosuch"], ["survey", "--fixtures", "broken_crossover"],
    ["survey", "--trials", "0"], ["survey", "--seed", "-1"], ["survey", "--seed", str(2**64)],
    ["survey", "--depth", "-1"]] + [
    ["quotients", flag, value] for flag in ("--b-min", "--b-kinked")
    for value in ("-1", "0", "nan", "inf")])
def test_survey_and_quotients_usage_errors_exit_2(sweep, capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        sweep.main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and ": error: " in err.splitlines()[-1]


def test_quotients_prints_a_truncated_limit(sweep, capsys):
    # At b = 0.05 the coordinate minimum's first step already leaves the
    # box, so the report has no estimate.
    assert sweep.main(["quotients", "--b-min", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "min2 at b=0.05  ->  inconclusive  (limit n/a +/- n/a)\n" \
           "truncated at a=0.003125: diagonal point" in out


@pytest.mark.parametrize("script, argv", [
    ("ab_pairs", []), ("count_work", []), ("src_lines", []),
    ("sweep", ["axioms"]), ("sweep", ["shapes"]), ("sweep", ["survey"]), ("sweep", ["quotients"])])
def test_help_exits_0(capsys, script, argv):
    with pytest.raises(SystemExit) as exit_:
        load(script).main(argv + ["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("script, argv", [
    ("count_work", ["--seed", "-1"]), ("count_work", ["--seed", str(2**64)]),
    ("count_work", ["--workload", "nosuch"]),
    ("ab_pairs", ["--base", "HEAD", "--workload", "nosuch", "--pairs", "1", "--seconds", "1"]),
    ("ab_pairs", ["--base", "HEAD", "--workload", "verify-catalog", "--pairs", "1",
                  "--seconds", "1", "--seed", "-1"]),
    ("ab_pairs", ["--base", "HEAD", "--workload", "verify-catalog", "--pairs", "1",
                  "--seconds", "1", "--seed", str(2**64)])])
def test_benchmark_script_usage_errors_exit_2(capsys, script, argv):
    module = load(script)

    def no_run(*args):
        raise AssertionError("a refused input reached the work")
    module.extract = module.copy_worktree = module.count_round = no_run
    with pytest.raises(SystemExit) as exit_:
        module.main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and ": error: " in err.splitlines()[-1]


def _root(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_scripts_do_not_rewire_altkit(path):
    # A script reads altkit's public names and its tally (altkit.meter);
    # it does not assign into altkit, walk the stack, compare code objects
    # or reach for private names, any of which a rename inside altkit
    # could silently turn into wrong counts.
    tree = ast.parse(path.read_text())
    imported, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "altkit":
            imported |= {alias.asname or alias.name for alias in node.names}
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
            private += [part for part in node.module.split(".") if part.startswith("_")]
        elif isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names
                         if alias.name.split(".")[0] == "altkit"}
    written = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Attribute, ast.Subscript))
               and isinstance(node.ctx, (ast.Store, ast.Del)) and _root(node) in imported]
    written += [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
                and node.args and _root(node.args[0]) in imported]
    frames = [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in ("_getframe", "__code__")]
    private += [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in imported]
    assert (written, frames, private) == ([], [], [])
