import json

import numpy as np
import pytest

from altkit.axioms import (ALL_AXIOMS, SCAN_CHUNK, WITNESS_CAP, AxiomReport, Witness,
                           _draw_crossover, _scan_for_equal,
                           check_consistency, check_continuity_proxy,
                           check_crossover, check_monotonicity,
                           check_second_consistency, replay_witness,
                           run_axiom_suite)
from altkit.cli import main
from altkit.domain import BoxDomain
from altkit.fixtures import (IntensitySpec, catalog, make_difference_oracle,
                             make_intensity_oracle, oracle_by_name, utility_from_json)
from altkit.oracle import IntensityOrder

G, E, L = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS


def _inconsistent_oracle():
    """g(x, y) = x * (1 - y): the derived order flips direction depending
    on the reference point, so shifting the pair breaks the sign match."""
    spec = IntensitySpec("warped", 1, None, BoxDomain([0.0], [2.0]),
                         batch=lambda X, Y: X[:, 0] * (1.0 - Y[:, 0]))
    return make_intensity_oracle(spec)


class TestReportShape:
    def test_report_roundtrip_and_passed(self):
        rep = check_consistency(oracle_by_name("linear"), trials=50, seed=1)
        assert rep.passed and rep.verdict == "pass"
        doc = json.loads(rep.to_json())
        assert doc["axiom"] == "consistency"
        assert doc["trials"] == 50
        assert doc["seed"] == 1
        assert doc["violations"] == []
        assert doc["proxy"] is False

    def test_witness_roundtrip(self):
        w = Witness({"x": [1.0]}, {"preference": "less"}, note="n")
        assert Witness(**json.loads(Witness.dumps(w.to_dict()))) == w

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            check_consistency(oracle_by_name("linear"), trials=0)


class TestConsistency:
    def test_difference_oracles_pass(self, cobb_oracle):
        assert check_consistency(cobb_oracle, trials=2000, seed=0).passed

    def test_reweighted_difference_still_passes(self):
        # g(x,y) = x - 2y shifts both comparisons by the same amount, so
        # the sign match survives even though crossover breaks.
        rep = check_consistency(oracle_by_name("broken_crossover"),
                                trials=2000, seed=0)
        assert rep.passed

    def test_warped_oracle_fails_with_witness(self):
        rep = check_consistency(_inconsistent_oracle(), trials=500, seed=0)
        assert not rep.passed
        w = rep.violations[0]
        assert set(w.points) == {"x", "y", "z"}
        assert w.outputs["preference"] != w.outputs["shifted"]


class TestSecondConsistency:
    def test_difference_oracles_pass(self, cobb_oracle):
        assert check_second_consistency(cobb_oracle, trials=2000, seed=0).passed

    def test_warped_oracle_fails(self):
        rep = check_second_consistency(_inconsistent_oracle(), trials=500, seed=0)
        assert not rep.passed
        assert "mirrored" in rep.violations[0].outputs


def reference_crossover(oracle, p):
    """The crossover predicate as a loop over its trials, with a Witness
    for every violation, and the count of manufactured premises read from
    those witnesses: trials that hold, and rebracket violations."""
    out = []
    for i in range(len(p["x"])):
        x, y, z, w = (p[n][i] for n in "xyzw")
        r = "skip"
        if not np.isnan(w[0]) and oracle.compare(z, w, x, y) is E:
            r = None
            swapped = oracle.compare(x, z, y, w)
            if swapped is not E:
                r = Witness({n: p[n][i].tolist() for n in "xyzw"},
                            {"premise": "equal", "swapped": swapped.value}, note="rebracket")
        if not isinstance(r, Witness) and (null := oracle.compare(x, x, y, y)) is not E:
            r = Witness({"x": x.tolist(), "y": y.tolist()}, {"null_brackets": null.value},
                        note="null-brackets")
        out.append(r)
    manufactured = sum(r is None or (isinstance(r, Witness) and r.note == "rebracket")
                       for r in out)
    return out, manufactured


def _null_broken_oracle():
    """g(x, y) = x - y off the diagonal and g(x, x) = x: every manufactured
    premise survives the exchange, and every null bracket fails."""
    spec = IntensitySpec("null_broken", 1, None, BoxDomain([0.0], [10.0]),
                         batch=lambda X, Y: np.where(X[:, 0] == Y[:, 0], X[:, 0],
                                                     X[:, 0] - Y[:, 0]))
    return make_intensity_oracle(spec)


class TestCrossover:
    @pytest.mark.parametrize("name", ["broken_crossover", "cobb_douglas", "neg_quadratic",
                                      "step", "constant", "null_broken"])
    def test_manufactured_and_witnesses_match_the_per_trial_reference(self, name):
        oracle = _null_broken_oracle() if name == "null_broken" else oracle_by_name(name)
        for seed in range(10):
            rep = check_crossover(oracle, trials=200, seed=seed)
            results, manufactured = reference_crossover(
                oracle, _draw_crossover(oracle, None, seed, 200))
            witnesses = [r for r in results if isinstance(r, Witness)]
            assert rep.extras["manufactured"] == manufactured
            assert rep.violation_count == len(witnesses)
            assert rep.skipped == results.count("skip")
            assert rep.to_dict()["violations"] == [w.to_dict() for w in witnesses[:WITNESS_CAP]]

    def test_premise_failing_null_brackets_is_not_manufactured(self):
        rep = check_crossover(_null_broken_oracle(), trials=200, seed=0)
        assert rep.extras["manufactured"] == 0 and rep.skipped == 0
        assert rep.violation_count == 200
        assert {w.note for w in rep.violations} == {"null-brackets"}

    def test_difference_oracle_passes_and_manufactures(self, cobb_oracle):
        rep = check_crossover(cobb_oracle, trials=1000, seed=0)
        assert rep.passed
        assert rep.extras["manufactured"] + rep.skipped == 1000
        assert rep.extras["manufactured"] > 500

    def test_non_monotone_system_manufactures_via_scan(self):
        # The solve target is non-monotone along the diagonal, so premises
        # come from the fallback bracketing scan rather than endpoint
        # bisection.
        rep = check_crossover(oracle_by_name("neg_quadratic"), trials=1000, seed=0)
        assert rep.passed
        assert rep.extras["manufactured"] > 300

    def test_reweighted_difference_fails(self):
        rep = check_crossover(oracle_by_name("broken_crossover"),
                              trials=300, seed=0)
        assert not rep.passed
        assert rep.violation_count == 300
        assert len(rep.violations) == 10          # capped witness list
        notes = {w.note for w in rep.violations}
        assert "rebracket" in notes

    def test_frozen_4_1_2_0_witness(self):
        """Injecting x=4, y=1, z=3 is not needed: with x=4, y=1, z=2 the
        solver lands on w=0 and the exchanged brackets disagree (0 vs 1)."""
        oracle = oracle_by_name("broken_crossover")
        rep = check_crossover(oracle, points=[[4.0], [1.0], [2.0]],
                              trials=1, seed=0)
        assert not rep.passed
        w = rep.violations[0]
        assert w.note == "rebracket"
        assert w.points == {"x": [4.0], "y": [1.0], "z": [2.0], "w": [0.0]}
        assert w.outputs == {"premise": "equal", "swapped": "less"}

    def test_constant_oracle_trivially_passes(self):
        # Every bracket is EQUAL, so premises are free and the swapped
        # comparison is EQUAL too.
        rep = check_crossover(oracle_by_name("constant"), trials=200, seed=0)
        assert rep.passed
        assert rep.skipped == 0

    # Rows valued by one 1000-trial check at seed 1, set-up aside, and its
    # compares.  The solve for w pins z, x and y, so each is valued once
    # and only the diagonal point is new at each step, and the predicate
    # asks through the same pins, so that it values w alone (the loop that
    # valued all four at every step took 112,220 and 106,912 rows for the
    # same compares, and a predicate that valued its arguments anew 37,679
    # and 36,154).
    @pytest.mark.parametrize("name, rows, compares", [("linear", 30567, 28559),
                                                      ("log_sum", 29240, 27232)])
    def test_the_solve_values_its_fixed_points_once(self, evaluator_rows, name, rows,
                                                    compares):
        oracle = oracle_by_name(name)
        evaluator_rows.clear()
        check_crossover(oracle, trials=1000, seed=1)
        assert (sum(evaluator_rows), oracle.calls) == (rows, compares)


class TestContinuityProxy:
    def test_continuous_fixture_passes(self, cobb_oracle):
        rep = check_continuity_proxy(cobb_oracle, trials=2000, seed=0)
        assert rep.passed
        assert rep.proxy
        assert rep.extras["delta"] == 1e-8

    def test_jump_flips_under_perturbation(self):
        # x just above the jump at 1 and y just below it: the strict
        # bracket [x,y] > [z,w] flips to LESS once a perturbation pushes
        # both onto the same side of the jump.
        oracle = oracle_by_name("step")
        pts = [[1.0], [1.0 - 5e-9], [0.5], [0.5]]
        rep = check_continuity_proxy(oracle, points=pts,
                                     trials=20, seed=0)
        assert not rep.passed
        w = rep.violations[0]
        assert w.outputs == {"base": "greater", "perturbed": "less"}
        assert set(w.points) >= {"x", "y", "x_moved", "y_moved"}

    def test_parameter_validation(self, cobb_oracle):
        with pytest.raises(ValueError, match="delta"):
            check_continuity_proxy(cobb_oracle, trials=1, delta=0.0)
        with pytest.raises(ValueError, match="delta"):
            check_continuity_proxy(cobb_oracle, trials=1, delta=0.5)
        with pytest.raises(ValueError, match="probes"):
            check_continuity_proxy(cobb_oracle, trials=1, probes=0)


class TestMonotonicity:
    def test_monotone_fixtures_pass(self):
        for name in ("linear", "cobb_douglas", "min2", "exp1d"):
            assert check_monotonicity(oracle_by_name(name), trials=500, seed=0).passed

    def test_hill_shaped_fixture_fails(self):
        rep = check_monotonicity(oracle_by_name("neg_quadratic"), trials=500, seed=0)
        assert not rep.passed
        w = rep.violations[0]
        x, y = np.asarray(w.points["x"]), np.asarray(w.points["y"])
        assert np.all(x > y)                      # dominance held, preference did not

    def test_constant_intensity_fails(self):
        rep = check_monotonicity(oracle_by_name("constant"), trials=100, seed=0)
        assert not rep.passed
        assert rep.violations[0].outputs["preference"] == "indifferent"


class TestSuiteAndReplay:
    def test_suite_runs_named_axioms(self, linear_oracle):
        reports = run_axiom_suite(linear_oracle, trials=200, seed=0)
        assert set(reports) == set(ALL_AXIOMS)
        assert all(r.passed for r in reports.values())

    def test_suite_forwards_only_known_kwargs(self, linear_oracle):
        reports = run_axiom_suite(linear_oracle, axioms=("continuity-proxy",),
                                  trials=50, seed=0, delta=1e-7, probes=2)
        assert reports["continuity-proxy"].extras == {"delta": 1e-7, "probes": 2}

    def test_report_regenerates_bit_identical(self, cobb_oracle):
        first = check_crossover(cobb_oracle, trials=300, seed=42)
        again = check_crossover(cobb_oracle, trials=300, seed=first.seed)
        assert first.to_json() == again.to_json()

    def test_replay_confirms_stored_witnesses(self):
        oracle = oracle_by_name("broken_crossover")
        rep = check_crossover(oracle, trials=100, seed=0)
        for w in rep.violations:
            assert replay_witness(oracle, "crossover", w)

    def test_replay_rejects_witness_on_sound_oracle(self, linear_oracle):
        w = Witness({"x": [1.0, 1.0], "y": [2.0, 2.0], "z": [3.0, 3.0],
                     "w": [4.0, 4.0]}, {})
        assert not replay_witness(linear_oracle, "crossover", w)

    def test_replay_covers_every_axiom(self):
        oracle = oracle_by_name("step")
        pts = {"x": [1.0], "y": [1.0 - 5e-9], "z": [0.5], "w": [0.5],
               "x_moved": [1.0 - 2e-8], "y_moved": [1.0], "z_moved": [0.5],
               "w_moved": [0.5]}
        w = Witness(pts, {})
        assert replay_witness(oracle, "continuity-proxy", w)
        const = oracle_by_name("constant")
        assert replay_witness(const, "monotonicity",
                              Witness({"x": [0.9], "y": [0.1]}, {}))
        # The predicate checks its premise too: no dominance, no violation.
        assert not replay_witness(const, "monotonicity",
                                  Witness({"x": [0.1], "y": [0.9]}, {}))
        with pytest.raises(ValueError, match="replay"):
            replay_witness(oracle, "nonsense", w)


# A JSON utility whose expression uses pow, min, log and div.
MIXED = {"name": "mixed", "dimension": 2,
         "expr": ["add", ["pow", ["x", 0], 0.3],
                  ["min", ["log", ["x", 1]], ["div", ["x", 0], 2.0]]]}

# Compares made by crossover and continuity-proxy at 200 trials, seeds 0
# and 1, as (crossover 0, continuity 0, crossover 1, continuity 1); the
# other checkers make one compare per trial (twice for both
# consistencies).  Measured on the Philox stream, where the default path
# and the per-trial path fed ``box.sample`` make the same compares.
CALLS_AT_200 = {
    "linear": (5840, 1008, 5711, 1088),
    "cobb_douglas": (5470, 976, 5356, 1088),
    "ces": (5631, 1000, 5627, 1112),
    "log_sum": (5386, 984, 5509, 1064),
    "exp1d": (4764, 968, 4717, 912),
    "kinked_composite": (5652, 976, 5590, 1088),
    "min2": (5422, 976, 5094, 1064),
    "neg_quadratic": (7076, 1032, 7059, 1056),
    "step": (1059, 800, 1088, 736),
    "broken_crossover": (5438, 1008, 5433, 976),
    "mixed": (5351, 976, 5521, 1096),
}


def _oracle(name):
    return make_difference_oracle(utility_from_json(MIXED)) if name == "mixed" \
        else oracle_by_name(name)


class TestBatchedCheckers:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(CALLS_AT_200))
    def test_compare_counts_are_unchanged(self, name, seed):
        crossover, continuity = CALLS_AT_200[name][2 * seed:2 * seed + 2]
        expected = {"consistency": 400, "crossover": crossover,
                    "second-consistency": 400, "continuity-proxy": continuity,
                    "monotonicity": 200}
        for axiom, calls in expected.items():
            oracle = _oracle(name)
            report = run_axiom_suite(oracle, [axiom], trials=200, seed=seed)[axiom]
            assert oracle.calls == calls, axiom
            for w in report.violations:
                assert replay_witness(oracle, axiom, w), (axiom, w)

    def test_verify_builds_only_the_kept_witnesses(self, built_witnesses, tmp_path):
        assert main(["verify", "--oracle", "broken_crossover",
                     "--outdir", str(tmp_path)]) == 1
        kept = []
        for axiom in ALL_AXIOMS:
            report = json.loads((tmp_path / f"verify-{axiom}.json").read_text())["report"]
            assert len(report["violations"]) <= WITNESS_CAP
            kept += report["violations"]
        assert [w.to_dict() for w in built_witnesses] == kept

    def test_each_axiom_builds_only_its_kept_witnesses(self, built_witnesses):
        # Together these oracles fail every axiom on more than WITNESS_CAP trials.
        jumpy = IntensitySpec("jumpy", 1, None, BoxDomain([0.0], [1.0]), batch=lambda X, Y: (
            np.where(np.floor(X[:, 0] * 1e9) % 2 == 0, 1.0, -1.0) * (X[:, 0] - Y[:, 0])))
        over_cap = set()
        for oracle in (oracle_by_name("broken_crossover"), oracle_by_name("step"),
                       _inconsistent_oracle(), make_intensity_oracle(jumpy)):
            for axiom in ALL_AXIOMS:
                report = run_axiom_suite(oracle, [axiom])[axiom]
                assert built_witnesses == report.violations, (oracle.name, axiom)
                built_witnesses.clear()
                if report.violation_count > WITNESS_CAP:
                    over_cap.add(axiom)
        assert over_cap == set(ALL_AXIOMS)

    def test_every_catalog_oracle_answers_in_batches(self):
        names = [s.name for s in catalog()] + ["broken_crossover", "constant"]
        assert all(oracle_by_name(n).batch is not None for n in names)
        assert _oracle("mixed").batch is not None

    def test_cycle_sampler_pattern_among_other_trials(self):
        # Trial 0 draws 4/1/2 and solves w = 0; trial 1 draws 7.5/0.5/4, and
        # so on round the cycle, all solved in one lockstep bisection.
        oracle = oracle_by_name("broken_crossover")
        points = [[4.0], [1.0], [2.0], [7.5], [0.5]]
        rep = check_crossover(oracle, points=points, trials=7, seed=5)
        assert (rep.violation_count, rep.skipped, rep.extras["manufactured"]) == (7, 0, 5)
        first, second = rep.violations[:2]
        assert first.points == {"x": [4.0], "y": [1.0], "z": [2.0], "w": [0.0]}
        assert first.outputs == {"premise": "equal", "swapped": "less"}
        assert second.note == "null-brackets"
        assert second.points == {"x": [7.5], "y": [0.5]}
        assert oracle.calls == 123
        for w in rep.violations:
            assert replay_witness(oracle, "crossover", w)

    def test_witnesses_of_failing_oracles_replay(self):
        for oracle, axioms in ((_inconsistent_oracle(), ALL_AXIOMS),
                               (oracle_by_name("step"), ALL_AXIOMS),
                               (oracle_by_name("constant"), ALL_AXIOMS)):
            reports = run_axiom_suite(oracle, axioms, trials=300, seed=2)
            assert any(r.violations for r in reports.values())
            for axiom, report in reports.items():
                for w in report.violations:
                    assert replay_witness(oracle, axiom, w), (oracle.name, axiom)

    def test_scan_asks_in_bounded_chunks_in_trial_order(self):
        # Trial i answers LESS below its target c_i and GREATER above: every
        # grid point is asked, then the straddling pair is bisected.
        n = 2 * SCAN_CHUNK + 5
        target = np.linspace(0.03, 0.97, n)
        asked = []

        def side(j, t):
            asked.append((j.copy(), t.copy()))
            return np.sign(t - target[j]).astype(np.int8)

        got = _scan_for_equal(side, -np.ones(n, np.int8), np.ones(n, np.int8), 1e-12)
        assert np.allclose(got, target, atol=1e-9)
        grid = asked[:3]
        assert [len(j) for j, _ in grid] == [15 * SCAN_CHUNK, 15 * SCAN_CHUNK, 15 * 5]
        rows = np.concatenate([j for j, _ in grid])
        ts = np.concatenate([t for _, t in grid])
        assert rows.tolist() == np.repeat(np.arange(n), 15).tolist()
        assert ts.tolist() == np.tile(np.arange(1, 16) / 16, n).tolist()
