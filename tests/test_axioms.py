import json

import numpy as np
import pytest

from altkit.axioms import (ALL_AXIOMS, AxiomReport, Witness,
                           check_consistency, check_continuity_proxy,
                           check_crossover, check_monotonicity,
                           check_second_consistency, replay_witness,
                           run_axiom_suite)
from altkit.domain import BoxDomain
from altkit.fixtures import (IntensitySpec, catalog, make_difference_oracle,
                             make_intensity_oracle, oracle_by_name, utility_from_json)
from altkit.oracle import IntensityOrder
from altkit.sampling import cycle_sampler

G, E, L = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS


def _inconsistent_oracle():
    """g(x, y) = x * (1 - y): the derived order flips direction depending
    on the reference point, so shifting the pair breaks the sign match."""
    spec = IntensitySpec("warped", 1, lambda x, y: x[0] * (1.0 - y[0]),
                         BoxDomain([0.0], [2.0]))
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
        assert Witness.from_dict(w.to_dict()) == w

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


class TestCrossover:
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
        rep = check_crossover(oracle, sampler=cycle_sampler([[4.0], [1.0], [2.0]]),
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
        rep = check_continuity_proxy(oracle, sampler=cycle_sampler(pts),
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
# per-trial checkers made one compare per trial (twice for both
# consistencies).  Measured with one compare per scalar call, before the
# checkers were batched.
CALLS_AT_200 = {
    "linear": (5670, 1008, 5514, 1096),
    "cobb_douglas": (5545, 960, 5367, 1104),
    "ces": (5489, 992, 5570, 1104),
    "log_sum": (5474, 976, 5533, 1128),
    "exp1d": (4003, 968, 4951, 984),
    "kinked_composite": (5750, 968, 5684, 1104),
    "min2": (5310, 936, 5032, 1096),
    "neg_quadratic": (6998, 1000, 7119, 992),
    "step": (1044, 832, 1095, 816),
    "broken_crossover": (5207, 992, 5725, 976),
    "mixed": (5397, 968, 5555, 1096),
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

    def test_every_catalog_oracle_answers_in_batches(self):
        names = [s.name for s in catalog()] + ["broken_crossover", "constant"]
        assert all(oracle_by_name(n).batch is not None for n in names)
        assert _oracle("mixed").batch is not None

    def test_cycle_sampler_pattern_among_other_trials(self):
        # Trial 0 draws 4/1/2 and solves w = 0; trial 1 draws 7.5/0.5/4, and
        # so on round the cycle, all solved in one lockstep bisection.
        oracle = oracle_by_name("broken_crossover")
        points = [[4.0], [1.0], [2.0], [7.5], [0.5]]
        rep = check_crossover(oracle, sampler=cycle_sampler(points), trials=7, seed=5)
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
