import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit import fixtures
from altkit.cli import main
from altkit.config import RunConfig
from altkit.errors import ConfigError
from altkit.fixtures import MAX_EXPRESSION_DEPTH


def _load(path, drop_outdir=True):
    """Report JSON with the run-local fields (timestamp, outdir) removed."""
    doc = json.loads(path.read_text())
    doc.pop("timestamp", None)
    if drop_outdir:
        doc.get("config", {}).pop("outdir", None)
    return doc


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 0 and cfg.trials == 1000 and cfg.depth == 10
        assert cfg.anchors == [0.25, 0.75] and cfg.second_anchors is None
        assert cfg.tol_t == 1e-10

    def test_from_file_roundtrip(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"oracle": "linear", "trials": 77, "seed": 3}))
        cfg = RunConfig.from_file(p)
        assert (cfg.oracle, cfg.trials, cfg.seed) == ("linear", 77, 3)
        cfg.validate()

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            RunConfig.from_file(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_file(arr)
        unknown = tmp_path / "unk.json"
        unknown.write_text(json.dumps({"oracle": "linear", "trails": 5}))
        with pytest.raises(ConfigError, match="unknown config keys.*trails"):
            RunConfig.from_file(unknown)

    def test_merge_ignores_none_and_unknown(self):
        cfg = RunConfig(oracle="linear", trials=50)
        merged = cfg.merge_overrides({"trials": None, "seed": 9, "bogus": 1})
        assert merged.trials == 50 and merged.seed == 9
        assert not hasattr(merged, "bogus")

    @pytest.mark.parametrize("field, value, message", [
        ("oracle", "", "no oracle"),
        ("trials", 0, "trials"),
        ("debreu_trials", 0, "debreu_trials"),
        ("depth", -1, "depth"),
        ("tol_t", 0.0, "tol_t"),
        ("h", -1.0, "h"),
        ("eps_eq", 0.0, "eps_eq"),
        ("probes", 0, "probes"),
        ("grid", 1, "grid"),
        ("workers", 0, "workers"),
        ("b", 0.0, "b"),
        ("anchors", [0.75, 0.25], "anchors"),
        ("second_anchors", [0.5], "second_anchors"),
        ("pair", [0, -1], "pair"),
        ("pair", [1, 1], "pair"),
        ("axioms", ["nonsense"], "unknown axioms"),
        ("domain", {"lower": [0.0]}, "domain override"),
        ("seed", -1, "seed"),
        ("seed", 2**64, "seed"),
        ("seed", 1.5, "seed"),
        ("seed", True, "seed"),
    ])
    def test_validate_rejects(self, field, value, message):
        cfg = RunConfig(oracle="linear")
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=message):
            cfg.validate()

    def test_box_override(self):
        cfg = RunConfig(oracle="linear",
                        domain={"lower": [0.0, 0.0], "upper": [1.0, 2.0]})
        box = cfg.box_override()
        assert box.upper.tolist() == [1.0, 2.0]
        assert RunConfig().box_override() is None


class TestCatalogCommand:
    def test_table_lists_fixtures(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("linear", "cobb_douglas", "min2", "broken_crossover"):
            assert name in out

    def test_json_output(self, capsys):
        assert main(["catalog", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {u["name"] for u in doc["utilities"]}
        assert {"linear", "cobb_douglas", "exp1d"} <= names
        cobb = next(u for u in doc["utilities"] if u["name"] == "cobb_douglas")
        assert cobb["concavity"] == "concave" and cobb["kind"] == "utility"
        assert any(i["name"] == "broken_crossover" for i in doc["intensities"])


class TestVerifyCommand:
    def test_sound_oracle_exits_zero(self, tmp_path, capsys):
        rc = main(["verify", "--oracle", "linear", "--trials", "150",
                   "--workers", "1", "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        for axiom in ("consistency", "crossover", "second-consistency",
                      "continuity-proxy", "monotonicity"):
            assert (tmp_path / f"verify-{axiom}.json").is_file()
            assert f"{axiom}: pass" in out
        doc = _load(tmp_path / "verify-consistency.json", drop_outdir=False)
        assert doc["config"]["oracle"] == "linear"
        assert doc["report"]["verdict"] == "pass"

    def test_axiom_subset(self, tmp_path):
        rc = main(["verify", "--oracle", "linear", "--trials", "50",
                   "--workers", "1", "--axioms", "consistency",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "verify-consistency.json").is_file()
        assert not (tmp_path / "verify-crossover.json").exists()

    def test_broken_oracle_exits_one(self, tmp_path, capsys):
        rc = main(["verify", "--oracle", "broken_crossover", "--trials", "60",
                   "--workers", "1", "--axioms", "crossover",
                   "--outdir", str(tmp_path)])
        assert rc == 1
        assert "crossover: FAIL" in capsys.readouterr().out
        doc = _load(tmp_path / "verify-crossover.json")
        assert doc["report"]["violation_count"] > 0

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_two(self, seed, tmp_path, capsys):
        rc = main(["verify", "--oracle", "linear", "--seed", seed,
                   "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("config error: seed")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.0, "3"])
    def test_config_file_seed_validated(self, seed, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"oracle": "linear", "seed": seed}))
        rc = main(["verify", "--config", str(config), "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("config error: seed")

    @pytest.mark.parametrize("field, value", [
        ("oracle", 3), ("domain", [0.0, 1.0]), ("seed", "1"), ("trials", "abc"),
        ("depth", 2.5), ("eps_eq", "x"), ("tol_t", None), ("h", [1e-3]),
        ("threshold", True), ("delta", "x"), ("probes", 8.0), ("b", "1"),
        ("workers", False), ("outdir", 5), ("axioms", "consistency"), ("strict", 1),
        ("grid", None), ("anchors", 5), ("second_anchors", ["0.1", "0.9"]),
        ("pair", [0, 1.0]), ("debreu_trials", "50"),
    ])
    def test_config_file_field_types_validated(self, field, value, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"oracle": "linear", "outdir": str(tmp_path / "out"),
                                      field: value}))
        rc = main(["verify", "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith(f"config error: {field} must be ")
        assert not (tmp_path / "out").exists()

    def test_unknown_oracle_exits_two(self, tmp_path, capsys):
        rc = main(["verify", "--oracle", "nope", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_value_exits_two(self, tmp_path, capsys):
        rc = main(["verify", "--oracle", "linear", "--trials", "0",
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    def test_mismatched_domain_flags_exit_two(self, tmp_path):
        rc = main(["verify", "--oracle", "linear", "--domain-lower", "0", "0",
                   "--outdir", str(tmp_path)])
        assert rc == 2

    def test_evaluator_error_at_setup_exits_two(self, tmp_path, capsys):
        # log(0) at the box corner, hit while sizing the dead band.
        rc = main(["verify", "--oracle", "log_sum", "--domain-lower", "0", "0",
                   "--domain-upper", "1", "1", "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[0.0, 0.0]" in err

    def test_evaluator_error_in_compare_exits_two(self, tmp_path, capsys):
        # With the dead band given there is no set-up pass; the first
        # compare below x = 0.5 takes the log of a negative number.
        path = tmp_path / "shifted_log.json"
        path.write_text(json.dumps({"name": "shifted_log", "dimension": 1,
                                    "expr": ["log", ["sub", ["x", 0], 0.5]],
                                    "domain": {"lower": [0.0], "upper": [1.0]}}))
        rc = main(["verify", "--oracle", str(path), "--eps-eq", "1e-9",
                   "--axioms", "consistency", "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "math domain error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--eps-eq", "1e-9"]])
    def test_non_finite_utility_exits_two(self, tmp_path, capsys, extra):
        # x0 * 1e308 * 10 overflows to inf for x0 > 1: caught while sizing
        # the dead band, or, with the dead band given, in the first compare.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"name": "overflow", "dimension": 2,
                                    "expr": ["mul", ["mul", ["x", 0], 1e308], 10]}))
        rc = main(["verify", "--oracle", str(path), "--trials", "20", *extra,
                   "--outdir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "non-finite" in err

    def test_zero_divisor_exits_two(self, tmp_path, capsys):
        # x0 / x1 is IEEE division: inf or NaN on the face x1 = 0, which the
        # set-up lattice reaches.
        path = tmp_path / "ratio.json"
        path.write_text(json.dumps({"name": "ratio", "dimension": 2,
                                    "expr": ["div", ["x", 0], ["x", 1]],
                                    "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}}))
        rc = main(["verify", "--oracle", str(path), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: evaluator failed at [0.0, 0.0]: non-finite value nan")

    @pytest.mark.parametrize("extra", [[], ["--eps-eq", "1e-9"]])
    def test_complex_power_exits_two(self, tmp_path, capsys, extra):
        # (-sqrt(x0)) ** 0.5 has no real value: caught while sizing the
        # dead band at the lower corner, or, with the dead band given, in
        # the first compare.
        path = tmp_path / "cplx.json"
        path.write_text(json.dumps({"name": "cplx", "dimension": 1,
                                    "expr": ["pow", ["neg", ["sqrt", ["x", 0]]], 0.5]}))
        rc = main(["verify", "--oracle", str(path), "--trials", "20", *extra,
                   "--outdir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: evaluator failed at [" in err
        assert "math domain error" in err
        if not extra:
            assert "[0.1]" in err

    def test_usage_error_raises_systemexit(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_reports_identical_across_runs_and_workers(self, tmp_path):
        base = ["verify", "--oracle", "cobb_douglas", "--trials", "120",
                "--seed", "5", "--axioms", "consistency", "crossover"]
        for sub, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            assert main(base + ["--workers", workers,
                                "--outdir", str(tmp_path / sub)]) == 0
        for axiom in ("consistency", "crossover"):
            docs = [_load(tmp_path / sub / f"verify-{axiom}.json")
                    for sub in ("a", "b", "c")]
            for doc in docs:
                doc["config"].pop("workers")
            assert docs[0] == docs[1] == docs[2]


BOX_INVERTED = ["--domain-lower", "1", "1", "--domain-upper", "0", "0"]
BOX_1D = ["--domain-lower", "0.5", "--domain-upper", "2"]
BOX_NAN = ["--domain-lower", "nan", "0", "--domain-upper", "1", "1"]
# A sample count whose arrays' bytes numpy cannot index.
HUGE = "2000000000000000000"


class TestUsageErrorsExitTwo:
    """Bad boxes and non-finite or out-of-range numbers are usage errors:
    exit 2, one ``config error`` line on stderr, and no report."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--oracle", "linear", *BOX_INVERTED],
        ["concavity", "--oracle", "linear", *BOX_INVERTED],
        ["verify", "--oracle", "linear", *BOX_1D],
        ["reconstruct", "--oracle", "linear", *BOX_1D],
        ["smoothness", "--oracle", "linear", *BOX_1D],
        ["alep", "--oracle", "cobb_douglas", *BOX_1D],
        ["verify", "--config", "{config}"],
        ["verify", "--oracle", "linear", *BOX_NAN],
        ["verify", "--oracle", "linear", "--eps-eq", "nan"],
        ["reconstruct", "--oracle", "linear", "--eps-eq", "nan"],
        ["reconstruct", "--oracle", "linear", "--tol-t", "nan"],
        ["smoothness", "--oracle", "linear", "--tol-t", "nan"],
        ["verify", "--oracle", "linear", "--delta", "0.5"],
        ["verify", "--oracle", "linear", "--delta", "nan"],
        ["verify", "--oracle", "linear", "--delta", "inf"],
        ["smoothness", "--oracle", "linear", "--b", "nan"],
        ["alep", "--oracle", "cobb_douglas", "--h", "nan"],
        ["alep", "--oracle", "cobb_douglas", "--h", "inf"],
        ["alep", "--oracle", "cobb_douglas", "--h", "100"],
        ["alep", "--oracle", "cobb_douglas", "--h", "0.3",
         "--domain-lower", "0", "0", "--domain-upper", "1", "1"],
        ["concavity", "--oracle", "linear", "--eps-eq", "inf"],
        ["alep", "--oracle", "cobb_douglas", "--grid", "3", "--threshold", "nan"],
        # Found by the fuzz below, or while writing it: sqrt of a negative
        # number in alep's stencil, a tolerance finer than float spacing
        # (a bisection that never ends) and an error message quoting a
        # multi-line array repr.
        ["alep", "--oracle", "cobb_douglas",
         "--domain-lower", "-1", "-1", "--domain-upper", "1", "1"],
        ["verify", "--oracle", "linear", "--axioms", "monotonicity", "--tol-t", "1e-16"],
        ["verify", "--oracle", "linear", "--domain-lower", "nan", *["0"] * 19,
         "--domain-upper", *["1"] * 20],
        # Malformed utility files, a box whose norms overflow and an alep
        # step below the points' float spacing.
        ["verify", "--oracle", "{not-json}"],
        ["verify", "--oracle", "{array}"],
        ["verify", "--oracle", "{dimension-abc}"],
        ["alep", "--oracle", "{inverted-domain}"],
        ["concavity", "--oracle", "linear", "--domain-lower", "0", "0",
         "--domain-upper", "1e300", "1e300"],
        # Each square is finite, their sum is not.
        ["verify", "--oracle", "linear", "--domain-lower", "0", "0",
         "--domain-upper", "1.2e154", "1.2e154"],
        ["alep", "--oracle", "cobb_douglas", "--grid", "3", "--h", "1e-17"],
        ["alep", "--oracle", "exp1d", "--grid", "3"],
        # Samples whose bytes numpy cannot index.
        ["smoothness", "--oracle", "linear", "--debreu-trials", HUGE],
        ["verify", "--oracle", "linear", "--probes", "100000000000000000",
         "--axioms", "continuity-proxy"],
    ], ids=" ".join)
    def test_exits_two_with_one_line(self, argv, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"oracle": "linear",
                                      "domain": {"lower": [0.0, 0.0], "upper": [1.0]}}))
        utility = tmp_path / "utility.json"
        for a in set(argv) & set(UTILITY_FILES):
            utility.write_text(UTILITY_FILES[a])
        argv = [str(config) if a == "{config}" else str(utility) if a in UTILITY_FILES else a
                for a in argv]
        rc = main([*argv, "--trials", "5", "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["verify"], ["concavity"], ["reconstruct", "--depth", "1"]],
                             ids=" ".join)
    def test_trials_past_the_index_limit(self, argv, tmp_path, capsys):
        rc = main([*argv, "--oracle", "linear", "--trials", HUGE,
                   "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert not (tmp_path / "out").exists()


def _sum_utility(dim: int) -> str:
    """x0 + ... + x_{dim-1} on [0.1, 1]^dim, as a JSON utility file."""
    expr: list = ["x", 0]
    for i in range(1, dim):
        expr = ["add", expr, ["x", i]]
    return json.dumps({"name": "sum", "dimension": dim, "expr": expr,
                       "domain": {"lower": [0.1] * dim, "upper": [1.0] * dim}})


# Pools of the CLI fuzz.  A number is one of its flag's valid values, or,
# one time in five, an invalid one.  The sizes are always given and stay
# small, or are too large for any array, so no example does much work.
BAD_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e300"]
SIZES = {"--trials": ["1", "20", HUGE], "--depth": ["0", "5"], "--grid": ["2", "3"],
         "--probes": ["1", "2"], "--debreu-trials": ["1", "3"]}
NUMBERS = {"--seed": ["0", "7"], "--eps-eq": ["1e-9", "0.01"], "--tol-t": ["1e-10", "1e-6"],
           "--delta": ["1e-8", "0.05"], "--b": ["0.5", "2"], "--h": ["1e-3", "0.05", "1e-17"],
           "--threshold": ["1e-3", "0.5"], "--workers": ["1", "2"]}
PAIRS = {"--anchors": [["0.25", "0.75"], ["0", "1"], ["0.9", "0.1"], ["nan", "0.5"]],
         "--second-anchors": [["0.1", "0.9"], ["0.5", "0.5"], ["-1", "inf"]],
         "--pair": [["0", "1"], ["1", "0"], ["0", "0"], ["0", "5"], ["-1", "0"]]}
FLAGS = {"verify": (["--trials", "--probes"], ["--delta", "--axioms"]),
         "reconstruct": (["--trials", "--depth", "--grid"], ["--anchors", "--second-anchors"]),
         "concavity": (["--trials"], ["--strict"]),
         "smoothness": (["--trials", "--debreu-trials"], ["--b"]),
         "alep": (["--trials", "--grid"], ["--pair", "--h", "--threshold"])}
COMMON = ["--seed", "--eps-eq", "--tol-t", "--workers"]
BOXES = [(["0.5", "0.5"], ["2", "2"]), (["0.5"], ["2"]), (["1", "1"], ["0", "0"]),
         (["0", "0", "0"], ["1", "1", "1"]), (["nan", "0"], ["1", "1"]),
         (["0", "0"], ["inf", "1"]), (["1", "1"], ["1", "2"]), (["0", "0"], ["1", "1"]),
         (["0", "0"], ["1e300", "1e300"]), (["-1e300", "-1e300"], ["1e300", "1e300"]),
         (["0"], ["1e300"])]
CONFIGS = [{"trials": "abc"}, {"depth": 2.5}, {"domain": [0, 1]}, {"h": None},
           {"pair": [0, 1.0]}, {"oracle": 3}, {"axioms": "consistency"}, {"anchors": 5},
           {"b": "1"}, {"domain": {"lower": [0, 0], "upper": [1]}},
           {"domain": {"lower": ["a", 0], "upper": [1, 1]}}, {"domain": {"upper": [1, 1]}},
           {"oracle": "linear", "seed": -1}, {"oracle": "linear"},
           {"domain": {"lower": [0.5, 0.5], "upper": [2, 2]}}]
SQRT_LOG = {"name": "sqrt_log", "dimension": 2,
            "expr": ["add", ["sqrt", ["x", 0]], ["log", ["x", 1]]]}
# JSON utility files by name in the oracle pool: three good, four malformed.
UTILITY_FILES = {
    "{json}": json.dumps(SQRT_LOG), "{not-json}": "not json", "{array}": "[1, 2]",
    "{dimension-abc}": json.dumps({**SQRT_LOG, "dimension": "abc"}),
    "{inverted-domain}": json.dumps({**SQRT_LOG, "domain": {"lower": [1, 1], "upper": [0, 0]}}),
    "{sum-1}": _sum_utility(1), "{sum-12}": _sum_utility(12),
}
# In dimension 12 a grid has at most 2 points per axis, 4096 in all: a
# lattice between 2**20 points and numpy's index limit would take
# gigabytes before any check refuses it.
WIDE_SIZES = {**SIZES, "--grid": ["1", "2"]}
ORACLES = ["linear", "cobb_douglas", "exp1d", "step", "broken_crossover", *UTILITY_FILES,
           "nope"]


class TestImpossibleSizes:
    """A size whose arrays numpy refuses (PiB scale, refused before any
    memory is taken) is a usage error: exit 2, one ``config error`` line
    on stderr, and no report."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--oracle", "linear", "--axioms", "continuity-proxy",
         "--probes", "100000000000"],
        ["verify", "--oracle", "linear", "--axioms", "consistency",
         "--trials", "100000000000000"],
        ["alep", "--oracle", "linear", "--grid", "100000000"],
        ["reconstruct", "--oracle", "linear", "--grid", "100000000", "--depth", "2"],
    ], ids=" ".join)
    def test_exits_two_with_one_line(self, argv, tmp_path, capsys):
        rc = main([*argv, "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert err.startswith("config error: the sizes asked for do not fit in memory: ")
        assert "PiB" in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def sum_utility(path: Path, dim: int) -> Path:
        path.write_text(_sum_utility(dim))
        return path

    @pytest.mark.parametrize("argv", [
        ["reconstruct", "--depth", "2", "--grid", "2"], ["alep", "--grid", "2"],
    ], ids=" ".join)
    def test_lattice_past_the_index_limit(self, argv, tmp_path, capsys):
        # 2**64 rows: the grid of reconstruct and alep is counted before
        # anything is allocated.
        path = self.sum_utility(tmp_path / "sum.json", 64)
        rc = main([*argv, "--oracle", str(path), "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert err.startswith("config error: a lattice of 2 points per axis in dimension 64 ")
        assert not (tmp_path / "out").exists()

    # reconstruct and alep value a lattice of 2**dim points, so they run at
    # dimension 12 only (16 takes seconds; 64 is past the index limit).
    BOUNDED = [(argv, dim) for argv in (["verify", "--trials", "5"],
                                        ["concavity", "--trials", "5"],
                                        ["smoothness", "--debreu-trials", "2"])
               for dim in (12, 16, 64)] + [
        (["reconstruct", "--depth", "2", "--grid", "2", "--trials", "5"], 12),
        (["alep", "--grid", "2"], 12)]

    @pytest.mark.parametrize("argv, dim", BOUNDED,
                             ids=[f"{' '.join(argv)}-{dim}" for argv, dim in BOUNDED])
    def test_setup_is_bounded_in_every_dimension(self, argv, dim, tmp_path, monkeypatch):
        # The set-up that estimates the dead band values at most 7**4 rows,
        # however many corners the box has.  alep values the utility
        # directly, with no oracle and so no set-up.
        rows = []
        estimate = fixtures.estimate_value_range
        monkeypatch.setattr(fixtures, "estimate_value_range", lambda fn, box: estimate(
            lambda P: rows.append(len(P)) or fn(P), box))
        path = self.sum_utility(tmp_path / "sum.json", dim)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, "--oracle", str(path), "--outdir", str(tmp_path / "out")])
        assert rc in (0, 1)
        assert rows == ([] if argv[0] == "alep" else [fixtures.SETUP_LATTICE_POINTS])
        assert fixtures.SETUP_LATTICE_POINTS == 7 ** 4


def _nested(levels: int) -> list:
    """x0 + x1 nested ``levels`` lists deep, under an even number of negs
    when ``levels`` is even."""
    expr: list = ["add", ["x", 0], ["x", 1]]
    for _ in range(levels - 2):
        expr = ["neg", expr]
    return expr


def _utility(expr) -> str:
    return json.dumps({"name": "b", "dimension": 2, "expr": expr})


# Utility files every command must refuse with one config error line.  The
# 3000-deep document is deeper than json itself can decode (or encode).
REFUSED_UTILITIES = {
    "index-true": _utility(["x", True]),
    "index-false": _utility(["x", False]),
    "operator-list": _utility([[1], 2]),
    "over-cap": _utility(_nested(MAX_EXPRESSION_DEPTH + 1)),
    "json-3000-deep": '{"name": "b", "dimension": 2, "expr": '
                      + '["neg", ' * 2998 + '["add", ["x", 0], ["x", 1]]' + "]" * 2998 + "}",
    # A bool is not a coordinate, although float(true) is 1.0.
    "domain-lower-true": json.dumps({"name": "b", "dimension": 2, "expr": ["x", 0],
                                     "domain": {"lower": [True, 0.5], "upper": [2, 2]}}),
    "domain-lower-false": json.dumps({"name": "b", "dimension": 2, "expr": ["x", 0],
                                      "domain": {"lower": [False, 0.5], "upper": [2, 2]}}),
    "domain-upper-true": json.dumps({"name": "b", "dimension": 2, "expr": ["x", 0],
                                     "domain": {"lower": [0.5, 0.5], "upper": [2, True]}}),
}
# Config domains every command must refuse the same way.
BOOL_DOMAINS = [{"lower": [True, 0.5], "upper": [2, 2]},
                {"lower": [False, 0.5], "upper": [2, 2]},
                {"lower": [0.5, 0.5], "upper": [2, True]},
                {"lower": True, "upper": [2, 2]}]
# Each command with small sizes, as run on a utility file.
SMALL_RUNS = {
    "verify": ["--trials", "5"],
    "reconstruct": ["--depth", "3", "--trials", "5", "--grid", "2",
                    "--second-anchors", "0.1", "0.9"],
    "concavity": ["--trials", "5"],
    "smoothness": ["--debreu-trials", "2"],
    "alep": ["--grid", "2"],
}


class TestUtilityExpressionLimits:
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    @pytest.mark.parametrize("name", sorted(REFUSED_UTILITIES))
    def test_refused_with_one_config_error_line(self, name, command, tmp_path, capsys):
        utility = tmp_path / "b.json"
        utility.write_text(REFUSED_UTILITIES[name])
        rc = main([command, "--oracle", str(utility), *SMALL_RUNS[command],
                   "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    @pytest.mark.parametrize("domain", range(len(BOOL_DOMAINS)))
    def test_bool_domain_corner_in_config_refused(self, domain, command, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"oracle": "linear", "domain": BOOL_DOMAINS[domain]}))
        rc = main([command, "--config", str(config), *SMALL_RUNS[command],
                   "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("config error: domain override")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_expression_at_the_cap_runs(self, command, tmp_path, capsys):
        # x0 + x1 at the deepest nesting accepted, valued from inside
        # every command's solves.
        utility = tmp_path / "b.json"
        utility.write_text(_utility(_nested(MAX_EXPRESSION_DEPTH)))
        assert main([command, "--oracle", str(utility), *SMALL_RUNS[command],
                     "--outdir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_deep_json_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("[" * 3000 + "]" * 3000)
        assert main(["verify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")


class TestCliFuzz:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_every_argv_keeps_the_exit_code_contract(self, data):
        """Argparse refuses an argv with SystemExit(2); any other argv
        returns 0, 1 or 2 without an escaping exception, and a 2 comes
        with exactly one line on stderr."""
        draw = data.draw

        def number(pool):
            return draw(st.sampled_from(pool if draw(st.integers(0, 4)) else BAD_NUMBERS))

        with tempfile.TemporaryDirectory() as tmp:
            command = draw(st.sampled_from([*FLAGS, "catalog"]))
            argv = [command]
            if command == "catalog":
                argv += draw(st.sampled_from([[], ["--json"]]))
            else:
                sizes, options = FLAGS[command]
                oracle = draw(st.sampled_from([*ORACLES, None]))
                pools = WIDE_SIZES if oracle == "{sum-12}" else SIZES
                if oracle in UTILITY_FILES:
                    utility = Path(tmp) / "utility.json"
                    utility.write_text(UTILITY_FILES[oracle])
                    oracle = str(utility)
                if oracle is not None:
                    argv += ["--oracle", oracle]
                for flag in sizes:
                    argv += [flag, number(pools[flag])]
                for flag in options + COMMON:
                    if not draw(st.booleans()):
                        continue
                    if flag == "--strict":
                        argv.append(flag)
                    elif flag == "--axioms":
                        argv += [flag, *draw(st.sampled_from(
                            [["consistency", "crossover"], ["continuity-proxy"],
                             ["monotonicity", "second-consistency"]]))]
                    elif flag in PAIRS:
                        argv += [flag, *draw(st.sampled_from(PAIRS[flag]))]
                    else:
                        argv += [flag, number(NUMBERS[flag])]
                if draw(st.booleans()):
                    lower, upper = draw(st.sampled_from(BOXES))
                    argv += ["--domain-lower", *lower, "--domain-upper", *upper]
                if draw(st.integers(0, 3)) == 0:
                    config = draw(st.sampled_from(CONFIGS))
                    path = Path(tmp) / "run.json"
                    path.write_text(json.dumps(config))
                    argv += ["--config", str(path)]
                argv += ["--outdir", str(Path(tmp) / "out")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    rc = main(argv)
                except SystemExit as stop:
                    assert stop.code == 2, argv
                    return
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


class TestReconstructCommand:
    def test_artifacts_and_exit(self, tmp_path, capsys):
        rc = main(["reconstruct", "--oracle", "cobb_douglas", "--depth", "4",
                   "--trials", "100", "--grid", "3", "--workers", "1",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert "representation spot-check: pass" in capsys.readouterr().out
        recon = _load(tmp_path / "reconstruction.json")
        assert recon["reconstruction"]["ladder"]["depth"] == 4
        rows = (tmp_path / "grid.csv").read_text().strip().splitlines()
        assert rows[0] == "x0,x1,value" and len(rows) == 10  # 3x3 lattice
        rep = _load(tmp_path / "representation.json")
        assert rep["report"]["axiom"] == "representation"

    def test_second_anchors_add_affine_fit(self, tmp_path, capsys):
        rc = main(["reconstruct", "--oracle", "linear", "--depth", "4",
                   "--trials", "60", "--grid", "2", "--workers", "1",
                   "--anchors", "0.25", "0.75",
                   "--second-anchors", "0.1", "0.9",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert "affine uniqueness: pass" in capsys.readouterr().out
        fit = _load(tmp_path / "affine.json")["fit"]
        assert fit["alpha"] == pytest.approx(0.625, abs=1e-6)

    def test_unranked_second_anchors_fail_before_any_report(self, tmp_path, capsys):
        # Both ladders are built before anything is written, so second
        # anchors that tie on the step utility end the run with no report.
        rc = main(["reconstruct", "--oracle", "step", "--depth", "4", "--trials", "20",
                   "--grid", "3", "--second-anchors", "0.0", "0.05",
                   "--outdir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err == "error: anchors must be strictly ranked: x* > y*\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_clamped_evaluations_count_the_points_valued(self, tmp_path):
        # At depth 4 the log_sum ladder's rungs stop short of the box's
        # diagonal corners, which the grid values: 2 evaluations clamp.
        rc = main(["reconstruct", "--oracle", "log_sum", "--depth", "4", "--trials", "200",
                   "--seed", "3", "--outdir", str(tmp_path)])
        assert rc in (0, 1)
        assert _load(tmp_path / "reconstruction.json")["reconstruction"]["clamped_evaluations"] == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"oracle": "cobb_douglas", "depth": 3,
                                        "trials": 500, "grid": 2,
                                        "workers": 1}))
        rc = main(["reconstruct", "--config", str(cfg_file), "--trials", "50",
                   "--outdir", str(tmp_path / "out")])
        assert rc == 0
        doc = _load(tmp_path / "out" / "reconstruction.json")
        assert doc["config"]["trials"] == 50      # flag wins
        assert doc["config"]["depth"] == 3        # file value kept


def _blanked(outdir: Path) -> dict[str, bytes]:
    """Every report of ``outdir``, timestamp blanked."""
    return {p.name: re.sub(rb'"timestamp": "[^"]*"', b"", p.read_bytes())
            for p in sorted(outdir.iterdir())}


def _reports_of_each_check_alone(argv: list[str]) -> None:
    """The reports ``reconstruct`` wrote when it valued the grid with
    ``evaluate_many`` and ran the spot check and the fit each alone, each
    drawing and valuing its own points, in a fresh oracle.  The
    reconstruction counts the clamped points among those it valued, each
    point once: the grid, the quadruples and the fit's points past them."""
    from altkit import cli
    from altkit.ladder import (ReconstructedUtility, affine_draw, build_ladder,
                               representation_spot_check, verify_affine_uniqueness)
    from altkit.sampling import draw

    cfg = cli._resolve_config(cli.build_parser().parse_args(argv))
    oracle = cli._resolve_oracle(cfg)
    seg = oracle.domain.diagonal()
    pairs = [cfg.anchors] + ([] if cfg.second_anchors is None else [cfg.second_anchors])
    ladders = build_ladder(oracle, [(seg.at(lo), seg.at(hi)) for lo, hi in pairs],
                           cfg.depth, cfg.tol_t, seg)
    recon, *second = [ReconstructedUtility(oracle, lad) for lad in ladders]
    points = oracle.domain.lattice(cfg.grid)
    rows = [[f"x{i}" for i in range(oracle.dim)] + ["value"]]
    for point, value in zip(points, recon.evaluate_many(points).tolist()):
        rows.append([float(v) for v in point] + [value])
    spot = representation_spot_check(recon, trials=cfg.trials, seed=cfg.seed)
    reconstruction = {"reconstruction": recon.to_dict()}
    quads = draw(oracle.domain, None, cfg.seed, cfg.trials, 4)[0]
    extra = affine_draw(oracle.domain, cfg.seed, quads)[cfg.trials:]
    if second and len(extra):
        apart = ReconstructedUtility(oracle, recon.ladder)
        apart.evaluate_many(extra)
        reconstruction["reconstruction"]["clamped_evaluations"] += apart.clamped
    cli._write_report(cfg, "reconstruction.json", reconstruction)
    cli._write_csv(cfg, "grid.csv", rows)
    cli._write_report(cfg, "representation.json", {"report": spot.to_dict()})
    for recon_b in second:
        fit = verify_affine_uniqueness(recon, recon_b, seed=cfg.seed)
        cli._write_report(cfg, "affine.json", {"fit": fit.to_dict()})


class TestOneEvaluationSolve:
    """``reconstruct`` values the grid, the spot check's quadruples and the
    fit's points in one solve; its reports are those of the three checks
    each valuing its own points."""

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["linear", "log_sum", "exp1d", "kinked_composite", "min2"]),
           trials=st.sampled_from([1, 7, 199, 200, 201, 450]), grid=st.sampled_from([2, 3, 5]),
           fit=st.booleans(), seed=st.integers(0, 2 ** 32))
    def test_reports_equal_those_of_each_check_alone(self, name, trials, grid, fit, seed):
        argv = ["reconstruct", "--oracle", name, "--depth", "4", "--trials", str(trials),
                "--grid", str(grid), "--seed", str(seed),
                *(["--second-anchors", "0.1", "0.9"] if fit else [])]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            argv += ["--outdir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) in (0, 1)
            together = _blanked(out)
            shutil.rmtree(out)
            _reports_of_each_check_alone(argv)
            assert together == _blanked(out)
        assert sorted(together) == [*(["affine.json"] if fit else []), "grid.csv",
                                    "reconstruction.json", "representation.json"]

    # x0 + x1 + log(|x - c|^2 - 0.01) / 100 fails in the disc of radius 0.1
    # around c = (0.75, 0.25), off the diagonal that the ladder uses and
    # off the corners that a 2-point grid uses.
    DX, DY = ["sub", ["x", 0], 0.75], ["sub", ["x", 1], 0.25]
    HOLED = {"name": "holed", "dimension": 2,
             "expr": ["add", ["add", ["x", 0], ["x", 1]],
                      ["mul", 0.01, ["log", ["sub", ["add", ["mul", DX, DX], ["mul", DY, DY]],
                                             0.01]]]],
             "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}}

    @pytest.mark.parametrize("where", ["spot check", "fit"])
    def test_an_evaluator_error_on_a_drawn_point_leaves_no_report(self, where, tmp_path, capsys):
        from altkit.domain import BoxDomain
        from altkit.ladder import affine_draw
        from altkit.sampling import draw

        path = tmp_path / "holed.json"
        path.write_text(json.dumps(self.HOLED))
        box, trials = BoxDomain([0.0, 0.0], [1.0, 1.0]), 20 if where == "spot check" else 1
        for seed in range(100):          # the fit's case: a seed whose quadruple is fine
            quads = draw(box, None, seed, trials, 4)[0]
            points = np.concatenate((quads.reshape(-1, 2), affine_draw(box, seed, quads)[trials:]))
            bad = np.square(points[:, 0] - 0.75) + np.square(points[:, 1] - 0.25) <= 0.01
            if bad.any() and (where == "spot check") == bad[:4 * trials].any():
                break
        rc = main(["reconstruct", "--oracle", str(path), "--eps-eq", "1e-9", "--depth", "3",
                   "--trials", str(trials), "--grid", "2", "--seed", str(seed),
                   "--second-anchors", "0.1", "0.9", "--outdir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith(f"config error: evaluator failed at {points[bad][0].tolist()}, ")
        assert err.endswith(": math domain error\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestConcavityCommand:
    def test_concave_fixture_exits_zero(self, tmp_path):
        rc = main(["concavity", "--oracle", "cobb_douglas", "--trials", "300",
                   "--workers", "1", "--outdir", str(tmp_path)])
        assert rc == 0
        doc = _load(tmp_path / "concavity.json")
        assert doc["gossen"]["verdict"] == "holds-strictly"

    def test_convex_fixture_exits_one(self, tmp_path):
        rc = main(["concavity", "--oracle", "exp1d", "--trials", "200",
                   "--workers", "1", "--outdir", str(tmp_path)])
        assert rc == 1

    def test_strict_flag_fails_plain_concavity(self, tmp_path):
        # linear holds the law but never strictly; --strict makes that
        # distinction an exit status.
        rc = main(["concavity", "--oracle", "linear", "--trials", "200",
                   "--workers", "1", "--outdir", str(tmp_path)])
        assert rc == 0
        rc = main(["concavity", "--oracle", "linear", "--trials", "200",
                   "--workers", "1", "--strict", "--outdir", str(tmp_path)])
        assert rc == 1


class TestSmoothnessCommand:
    def test_smooth_fixture_exits_zero(self, tmp_path, capsys):
        rc = main(["smoothness", "--oracle", "cobb_douglas", "--b", "2.0",
                   "--debreu-trials", "10", "--workers", "1",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "line smoothness at b=2: line-smooth" in out
        doc = _load(tmp_path / "smoothness.json")
        assert doc["line"]["verdict"] == "line-smooth"
        assert doc["debreu"]["verdict"] == "pass"
        quotients = (tmp_path / "quotients.csv").read_text().splitlines()
        assert quotients[0] == "a,f,quotient" and len(quotients) > 4

    def test_debreu_skips_are_printed(self, tmp_path, capsys):
        # neg_quadratic is not monotone on its diagonal, so no stencil
        # point calibrates and the proxy skips every trial; the summary
        # line says so.
        rc = main(["smoothness", "--oracle", "neg_quadratic", "--outdir", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "calibration smoothness proxy: pass [violations 0/50, skipped 50]\n" in out
        assert _load(tmp_path / "smoothness.json")["debreu"]["skipped"] == 50

    def test_kinked_diagonal_exits_one(self, tmp_path):
        rc = main(["smoothness", "--oracle", "kinked_composite", "--b", "1.0",
                   "--debreu-trials", "5", "--workers", "1",
                   "--outdir", str(tmp_path)])
        assert rc == 1
        doc = _load(tmp_path / "smoothness.json")
        assert doc["line"]["verdict"] == "not-line-smooth"
        assert doc["line"]["estimate"] == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("name", ["step", "neg_quadratic", "constant"])
    def test_unordered_diagonal_truncates(self, name, tmp_path, capsys):
        # The diagonal points b-a and b+a are not strictly ranked, so no
        # intensity midpoint exists: the estimate stops at the first step.
        rc = main(["smoothness", "--oracle", name, "--debreu-trials", "4",
                   "--outdir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "quotients.csv", "smoothness.json"]
        line = _load(tmp_path / "smoothness.json")["line"]
        assert line["verdict"] == "inconclusive"
        assert line["rows"] == []
        assert line["extras"]["truncated_at"] == line["b"] / 16
        assert line["extras"]["truncation_reason"] == \
            "solve_midpoint requires z strictly preferred to x"


class TestAlepCommand:
    def test_cobb_grid_is_all_complement(self, tmp_path, capsys):
        rc = main(["alep", "--oracle", "cobb_douglas", "--grid", "3",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert "complement: 9" in capsys.readouterr().out
        doc = _load(tmp_path / "alep.json")
        assert len(doc["classifications"]) == 9
        assert {c["label"] for c in doc["classifications"]} == {"complement"}
        rows = (tmp_path / "alep.csv").read_text().strip().splitlines()
        assert rows[0] == "x0,x1,estimate,label" and len(rows) == 10

    @pytest.mark.parametrize("h", ["1e-3", "1e-6", "1e-9", "1e-12"])
    def test_rounding_noise_is_never_labelled(self, tmp_path, h):
        # cobb_douglas complements everywhere.  At h = 1e-9 and 1e-12 the
        # estimates are rounding noise, which reads neither neutral nor
        # substitute, nor complement by chance.
        rc = main(["alep", "--oracle", "cobb_douglas", "--grid", "3", "--h", h,
                   "--outdir", str(tmp_path)])
        assert rc == 0
        labels = [c["label"] for c in _load(tmp_path / "alep.json")["classifications"]]
        assert labels == ["complement" if float(h) >= 1e-6 else "indeterminate"] * 9

    def test_utility_from_json_file(self, tmp_path):
        # -0.5*x0*x1 has constant cross-partial -0.5: all substitutes.
        doc = {"name": "bilinear", "dimension": 2,
               "expr": ["mul", -0.5, ["mul", ["x", 0], ["x", 1]]]}
        spec_file = tmp_path / "bilinear.json"
        spec_file.write_text(json.dumps(doc))
        rc = main(["alep", "--oracle", str(spec_file), "--grid", "2",
                   "--outdir", str(tmp_path / "out")])
        assert rc == 0
        report = _load(tmp_path / "out" / "alep.json")
        assert {c["label"] for c in report["classifications"]} == {"substitute"}

    def test_intensity_fixture_rejected(self, tmp_path, capsys):
        rc = main(["alep", "--oracle", "broken_crossover",
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


NOT_A_UTILITY = ("config error: {!r} is not a utility fixture or JSON utility file "
                 "(intensity-only fixtures have no value function to differentiate)\n")
ONE_DIMENSION = "config error: pair (0, 1) out of range for dimension 1\n"
# name: the oracle ``oracle_by_name`` builds, and ``alep --grid 3``'s exit
# code and stderr.  A utility file is "{json}" here.
RESOLVED = {
    **{name: (f"diff:{name}", 0, "") for name in
       ["linear", "cobb_douglas", "ces", "log_sum", "kinked_composite", "min2"]},
    **{name: (f"diff:{name}", 2, ONE_DIMENSION) for name in ["exp1d", "neg_quadratic", "step"]},
    **{name: (f"intensity:{name}", 2, NOT_A_UTILITY.format(name))
       for name in ["broken_crossover", "constant"]},
    "{json}": ("diff:sqrt_log", 0, ""),
    "nope": (None, 2, NOT_A_UTILITY.format("nope")),
}
UNKNOWN = ("unknown oracle 'nope'; known fixtures: linear, cobb_douglas, ces, log_sum, exp1d, "
           "kinked_composite, min2, neg_quadratic, step, broken_crossover, constant")


class TestFixtureLookup:
    @pytest.mark.parametrize("name", sorted(RESOLVED))
    def test_oracle_and_alep_resolve_each_name(self, name, tmp_path, capsys):
        from altkit.fixtures import oracle_by_name

        oracle_name, rc, err = RESOLVED[name]
        if name == "{json}":
            name = str(tmp_path / "sqrt_log.json")
            Path(name).write_text(json.dumps(SQRT_LOG))
        if oracle_name is None:
            with pytest.raises(ConfigError, match=re.escape(UNKNOWN) + "$"):
                oracle_by_name(name)
        else:
            assert oracle_by_name(name).name == oracle_name
        out_dir = tmp_path / "out"
        assert main(["alep", "--oracle", name, "--grid", "3", "--outdir", str(out_dir)]) == rc
        out, got = capsys.readouterr()
        assert got == err
        assert out_dir.exists() == (rc == 0)
        assert out.endswith(f"reports written to {out_dir}\n") == (rc == 0)


class TestNothingShared:
    """Reports are those of runs through an oracle that copies every
    argument of every compare, so that no two arguments are one object
    and no argument is taken from held values: the values an oracle shares
    between arguments and those a ``Held`` keeps change no byte."""

    COMMANDS = (["verify", "--trials", "200"],
                ["reconstruct", "--depth", "5", "--trials", "50", "--grid", "3",
                 "--second-anchors", "0.1", "0.9"],
                ["smoothness", "--b", "1.0", "--debreu-trials", "10"])

    @staticmethod
    def _copying(oracle_by_name):
        def build(*args, **kwargs):
            oracle = oracle_by_name(*args, **kwargs)
            batch, comparator = oracle.batch, oracle.comparator
            oracle.rows = None               # compare_rows gathers its rows for batch
            oracle.batch = lambda *arrays: batch(*(np.array(a) for a in arrays))
            oracle.comparator = lambda *points: comparator(*(np.array(p) for p in points))
            return oracle
        return build

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        files = {p.name: re.sub(rb'"timestamp": "[^"]*"', b"", p.read_bytes())
                 for p in sorted(Path("out").iterdir())} if Path("out").is_dir() else {}
        shutil.rmtree("out", ignore_errors=True)
        return rc, re.sub(r"\d+\.\d+ s", "", out.getvalue()), err.getvalue(), files

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    @pytest.mark.parametrize("name", ["linear", "cobb_douglas", "log_sum", "exp1d",
                                      "kinked_composite", "min2", "neg_quadratic"])
    def test_reports_equal_those_of_a_copying_oracle(self, name, seed, tmp_path, monkeypatch):
        import altkit.cli

        monkeypatch.chdir(tmp_path)
        for command in self.COMMANDS:
            argv = [*command, "--oracle", name, "--seed", seed, "--outdir", "out"]
            shared = self._run(argv)
            with monkeypatch.context() as patch:
                patch.setattr(altkit.cli, "oracle_by_name",
                              self._copying(altkit.cli.oracle_by_name))
                copied = self._run(argv)
            assert shared == copied
