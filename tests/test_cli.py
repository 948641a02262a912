import json

import pytest

from altkit.cli import main
from altkit.config import RunConfig
from altkit.errors import ConfigError


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
