import json
import math

import numpy as np
import pytest

from altkit.domain import BoxDomain, Segment
from altkit.errors import (ArchimedeanError, DegenerateFitError,
                           OrderingError)
from altkit.fixtures import oracle_by_name
from altkit.ladder import (archimedean_count, build_ladder, check_density,
                           order_embedding_check, reconstruct_utility,
                           representation_spot_check, verify_affine_uniqueness)
from altkit.oracle import AltOracle, IntensityOrder, classify
from altkit.sampling import subrng

E = IntensityOrder.EQUAL


def _power_oracle(exponent: float, eps: float = 1e-12) -> AltOracle:
    """Difference oracle of u(t) = t**exponent on [0, 1]."""
    box = BoxDomain([0.0], [1.0])

    def cmp(x, y, z, w):
        return classify((x[0] ** exponent - y[0] ** exponent)
                        - (z[0] ** exponent - w[0] ** exponent), eps)

    return AltOracle(1, box, cmp, eps, name=f"power{exponent}")


class TestLadderStructure:
    def test_quadratic_depth1_rungs(self):
        # u = t^2, anchors t=0.25 (u=1/16) and t=0.75 (u=9/16), unit step 1/2.
        # Level 0 has no room for a full step on either side.  Level 1 adds
        # the intensity midpoint (u = 5/16) and one upper half-step
        # (u = 13/16); below, the remaining 1/16 is less than a half step.
        o = _power_oracle(2)
        lad = build_ladder(o, [0.25], [0.75], depth=1)
        assert lad.rungs(0) == [(0, 0.25), (1, 0.75)]
        level1 = lad.rungs(1)
        assert [i for i, _ in level1] == [0, 1, 2, 3]
        expected = [0.25, math.sqrt(0.3125), 0.75, math.sqrt(0.8125)]
        assert [t for _, t in level1] == pytest.approx(expected, abs=1e-8)
        assert lad.index_range(0) == (0, 1)
        assert lad.index_range(1) == (0, 3)

    def test_rung_values_are_dyadic(self):
        lad = build_ladder(_power_oracle(2), [0.25], [0.75], depth=1)
        assert lad.value(3, 1) == 1.5
        assert lad.value(-4, 3) == -0.5
        assert lad.value(0, 5) == 0.0

    def test_rungs_defaults_to_deepest_level(self):
        lad = build_ladder(_power_oracle(2), [0.25], [0.75], depth=2)
        assert lad.rungs() == lad.rungs(2)
        assert all(lad.rungs(k) == sorted(lad.levels[k].items()) for k in range(3))

    def test_anchor_indices_double_per_level(self):
        lad = build_ladder(_power_oracle(2), [0.25], [0.75], depth=3)
        for k in range(4):
            assert lad.param(0, k) == 0.25
            assert lad.param(1 << k, k) == 0.75

    def test_point_lies_on_segment(self):
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad = build_ladder(o, seg.at(0.25), seg.at(0.75), depth=2)
        for i, t in lad.rungs():
            assert lad.point(i, 2) == pytest.approx(seg.at(t))

    def test_negative_quadratic_on_custom_segment(self):
        # u = -(t-1)^2 increases on [0, 1]; anchors 0.25/0.75 give dyadic
        # rung values v with parameter t = 1 - sqrt(0.5625 - v/2).
        o = oracle_by_name("neg_quadratic")
        lad = build_ladder(o, [0.25], [0.75], depth=2,
                           segment=Segment([0.0], [1.0]))
        rungs = lad.rungs()
        assert [i for i, _ in rungs] == list(range(-3, 5))
        for i, t in rungs:
            v = lad.value(i, 2)
            assert t == pytest.approx(1.0 - math.sqrt(0.5625 - v / 2), abs=1e-8)

    def test_to_dict_shape(self):
        lad = build_ladder(_power_oracle(2), [0.25], [0.75], depth=1)
        d = lad.to_dict()
        assert set(d) == {"depth", "tol_t", "segment", "anchors", "levels"}
        assert d["depth"] == 1 and len(d["levels"]) == 2
        assert d["levels"][1]["3"]["value"] == 1.5
        json.dumps(d)  # must be serialisable as-is


class TestBuildLadderValidation:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            build_ladder(_power_oracle(2), [0.25], [0.75], depth=-1)

    def test_swapped_anchors_rejected(self):
        with pytest.raises(OrderingError, match="above"):
            build_ladder(_power_oracle(2), [0.75], [0.25], depth=1)

    def test_indifferent_anchors_rejected(self):
        # neg_quadratic is symmetric about t=1 on the default diagonal of
        # [0, 2], so these two anchors tie and cannot span a unit.
        o = oracle_by_name("neg_quadratic")
        with pytest.raises(OrderingError, match="strictly ranked"):
            build_ladder(o, [0.5], [1.5], depth=1)

    def test_non_monotone_diagonal_needs_custom_segment(self):
        # Strictly ranked anchors, but the full default diagonal of
        # neg_quadratic ends where it starts in value.
        o = oracle_by_name("neg_quadratic")
        with pytest.raises(OrderingError, match="custom segment"):
            build_ladder(o, [0.2], [0.9], depth=1)


class TestEqualStepInvariant:
    def test_adjacent_rung_steps_compare_equal(self):
        # Consecutive rungs at the deepest level are equal intensity steps
        # by construction; the oracle must agree after the full build.
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad = build_ladder(o, seg.at(0.25), seg.at(0.75), depth=6)
        lo_i, hi_i = lad.index_range(6)
        rng = np.random.default_rng(7)
        for _ in range(50):
            i = int(rng.integers(lo_i, hi_i - 1))
            a, b, c = lad.point(i, 6), lad.point(i + 1, 6), lad.point(i + 2, 6)
            assert o.compare(b, a, c, b) is E

    def test_rung_params_strictly_increasing(self):
        lad = build_ladder(oracle_by_name("log_sum"),
                           oracle_by_name("log_sum").domain.diagonal().at(0.25),
                           oracle_by_name("log_sum").domain.diagonal().at(0.75),
                           depth=5)
        params = [t for _, t in lad.rungs()]
        assert all(a < b for a, b in zip(params, params[1:]))


class TestArchimedeanCount:
    def test_linear_walk_counts_steps(self):
        # u = t on [0, 4]: steps of size 1 from x=1 reach past z=3.5 at the
        # third landing point (a_3 = 3, since u(z) - u(a_3) = 0.5 < 1).
        box = BoxDomain([0.0], [4.0])
        o = AltOracle(1, box, lambda x, y, z, w:
                      classify((x[0] - y[0]) - (z[0] - w[0]), 1e-9), 1e-9)
        k, pts = archimedean_count(o, [1.0], [0.0], [3.5])
        assert k == 3
        assert [p[0] for p in pts] == pytest.approx([0.0, 1.0, 2.0, 3.0], abs=1e-8)

    @pytest.mark.parametrize("z, expected", [(1.0, 1), (1.5, 1), (3.5, 3)])
    def test_floor_identity_on_linear(self, z, expected):
        # k = floor((u(z) - u(x)) / step) + 1 for an exactly additive walk.
        box = BoxDomain([0.0], [4.0])
        o = AltOracle(1, box, lambda x, y, zz, w:
                      classify((x[0] - y[0]) - (zz[0] - w[0]), 1e-9), 1e-9)
        k, _ = archimedean_count(o, [1.0], [0.0], [z])
        assert k == expected == math.floor(z - 1.0) + 1

    def test_floor_identity_on_exponential(self):
        o = oracle_by_name("exp1d")
        x, y, z = 0.2, 0.1, 0.9
        step = math.exp(x) - math.exp(y)
        gap = math.exp(z) - math.exp(x)
        k, pts = archimedean_count(o, [x], [y], [z])
        assert k == math.floor(gap / step) + 1 == 11
        assert len(pts) == k + 1

    def test_requires_strict_unit_pair(self):
        with pytest.raises(OrderingError, match="strictly preferred"):
            archimedean_count(oracle_by_name("linear"),
                              [1.0, 1.0], [1.0, 1.0], [5.0, 5.0])

    def test_requires_target_at_or_above_start(self):
        with pytest.raises(OrderingError, match="weakly preferred"):
            archimedean_count(oracle_by_name("linear"),
                              [5.0, 5.0], [1.0, 1.0], [2.0, 2.0])

    def test_cap_raises(self):
        # ~170 steps of size e^0.01 - 1 separate the anchors; cap first.
        with pytest.raises(ArchimedeanError, match="cap=50"):
            archimedean_count(oracle_by_name("exp1d"), [0.01], [0.0], [1.0],
                              cap=50)


@pytest.fixture(scope="module")
def cobb_recon():
    return reconstruct_utility(oracle_by_name("cobb_douglas"), depth=6)


class TestReconstructedUtility:
    def test_anchor_values_exact(self, cobb_recon):
        seg = cobb_recon.oracle.domain.diagonal()
        assert cobb_recon(seg.at(0.25)) == 0.0
        assert cobb_recon(seg.at(0.75)) == 1.0

    def test_depth_and_budget(self, cobb_recon):
        assert cobb_recon.depth == 6
        assert cobb_recon.interpolation_budget == 2.0 ** -6

    def test_matches_normalised_utility(self, cobb_recon):
        # sqrt(x0*x1) rescaled to 0/1 at the anchors; interpolation over
        # depth-6 rungs tracks it far inside the rung-step budget because
        # the utility is smooth along the diagonal.
        o = cobb_recon.oracle
        seg = o.domain.diagonal()
        u = lambda p: math.sqrt(p[0] * p[1])
        lo, hi = u(seg.at(0.25)), u(seg.at(0.75))
        for i in range(40):
            p = o.domain.sample(subrng(11, i))
            got, out_of_range = cobb_recon.evaluate_detailed(p)
            if not out_of_range:
                truth = (u(p) - lo) / (hi - lo)
                assert got == pytest.approx(truth, abs=1e-6)

    def test_corner_clamping(self, cobb_recon):
        # The bottom corner sits a rounding hair below the lowest rung
        # (value -0.5); the top corner coincides with the highest rung
        # (value 1.5) because the upper half-step lands exactly on it.
        before = cobb_recon.clamped
        value, out_of_range = cobb_recon.evaluate_detailed([0.1, 0.1])
        assert (value, out_of_range) == (-0.5, True)
        assert cobb_recon.clamped == before + 1
        value, out_of_range = cobb_recon.evaluate_detailed([10.0, 10.0])
        assert (value, out_of_range) == (1.5, False)
        assert cobb_recon.clamped == before + 1

    def test_call_is_evaluate(self, cobb_recon):
        p = [3.0, 4.0]
        assert cobb_recon(p) == cobb_recon.evaluate(p)

    def test_to_json_shape(self, cobb_recon):
        doc = json.loads(cobb_recon.to_json())
        assert set(doc) >= {"ladder", "tol_t", "eps_eq", "oracle",
                            "oracle_calls", "clamped_evaluations"}
        assert doc["oracle"] == "diff:cobb_douglas"
        assert doc["ladder"]["depth"] == 6


class TestRepresentationChecks:
    def test_spot_check_clean(self, cobb_recon):
        rep = representation_spot_check(cobb_recon, trials=300, seed=0)
        assert rep.passed and rep.violation_count == 0
        assert rep.extras["dead_band"] == 2.0 ** (2 - 6)
        assert 0 <= rep.extras["in_band"] < 300

    def test_order_embedding_clean(self, cobb_recon):
        rep = order_embedding_check(cobb_recon, trials=300, seed=0)
        assert rep.passed and rep.violation_count == 0
        assert rep.extras["dead_band"] == 2.0 ** (1 - 6)

    def test_trials_validated(self, cobb_recon):
        with pytest.raises(ValueError, match="trials"):
            representation_spot_check(cobb_recon, trials=0)
        with pytest.raises(ValueError, match="trials"):
            order_embedding_check(cobb_recon, trials=0)


class TestAffineUniqueness:
    def test_linear_alpha_beta_are_span_ratios(self):
        # Reconstructions from anchor params (0.25, 0.75) and (0.1, 0.9)
        # of a utility affine in the diagonal parameter differ by exactly
        # alpha = 0.5/0.8 and beta = 0.15/0.8.
        recon = reconstruct_utility(oracle_by_name("linear"), depth=6)
        fit = verify_affine_uniqueness(recon, (0.1, 0.9), samples=60, seed=0)
        assert fit.verdict == "pass"
        assert fit.alpha == pytest.approx(0.625, abs=1e-6)
        assert fit.beta == pytest.approx(0.1875, abs=1e-6)
        assert fit.max_residual < 5e-3

    def test_identical_anchors_give_identity_map(self):
        recon = reconstruct_utility(oracle_by_name("linear"), depth=6)
        fit = verify_affine_uniqueness(recon, (0.25, 0.75), samples=60, seed=0)
        assert fit.alpha == pytest.approx(1.0, abs=1e-9)
        assert fit.beta == pytest.approx(0.0, abs=1e-9)

    def test_curved_utility_still_affine(self):
        # u = t^3 is far from affine in t, yet two reconstructions of it
        # must still be affine images of one another.
        recon = reconstruct_utility(_power_oracle(3), depth=8, anchor_params=(0.2, 0.8))
        fit = verify_affine_uniqueness(recon, (0.3, 0.9), samples=60, seed=3)
        assert fit.verdict == "pass" and fit.alpha > 0

    def test_to_dict_round(self):
        recon = reconstruct_utility(oracle_by_name("linear"), depth=4)
        fit = verify_affine_uniqueness(recon, (0.1, 0.9), samples=30, seed=0)
        d = fit.to_dict()
        assert set(d) == {"alpha", "beta", "max_residual", "samples",
                          "threshold", "verdict"}
        assert d["samples"] == 30

    def test_degenerate_fit_raises(self):
        with pytest.raises(DegenerateFitError, match="variance"):
            verify_affine_uniqueness(reconstruct_utility(_power_oracle(2), depth=1),
                                     (0.1, 0.9), samples=1)


class TestDensity:
    def test_cobb_density_passes(self):
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad = build_ladder(o, seg.at(0.25), seg.at(0.75), depth=6)
        rep = check_density(o, lad, trials=100, seed=0)
        assert rep.passed and rep.violation_count == 0
        assert rep.extras == {"gap_threshold": 2.0 ** (1 - 6), "depth": 6}

    def test_depth_zero_is_vacuous(self):
        # With only unit rungs every reconstructed gap fits under the
        # 2-step threshold, so every trial is skipped rather than judged.
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad = build_ladder(o, seg.at(0.25), seg.at(0.75), depth=0)
        rep = check_density(o, lad, trials=50, seed=0, min_depth=0)
        assert rep.passed and rep.skipped == 50

    def test_min_depth_enforced(self):
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad = build_ladder(o, seg.at(0.25), seg.at(0.75), depth=2)
        with pytest.raises(ValueError, match="below configured minimum"):
            check_density(o, lad, min_depth=8)

    def test_trials_validated(self):
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad = build_ladder(o, seg.at(0.25), seg.at(0.75), depth=2)
        with pytest.raises(ValueError, match="trials"):
            check_density(o, lad, trials=0)
