import json
import math

import numpy as np
import pytest

from altkit.concavity import check_midpoint_concavity
from altkit.diffcalc import (alep_classify, numeric_gradient, numeric_hessian,
                             second_differences)
from altkit.domain import BoxDomain
from altkit.errors import ConfigError, DomainError
from altkit.fixtures import catalog, oracle_by_name
from altkit.ladder import reconstruct_utility
from altkit.smoothness import debreu_smoothness_proxy, line_smoothness_limit, solve_f
from closed_forms import GRADIENT, HESSIAN

SPECS = {s.name: s for s in catalog()}


class TestGradient:
    def test_cobb_gradients(self):
        # d sqrt(x0*x1) = (0.5*sqrt(x1/x0), 0.5*sqrt(x0/x1)).
        g = numeric_gradient(SPECS["cobb_douglas"], [1.0, 1.0], h=1e-3)
        assert g == pytest.approx([0.5, 0.5], abs=1e-6)
        g = numeric_gradient(SPECS["cobb_douglas"], [4.0, 1.0], h=1e-3)
        assert g == pytest.approx([0.25, 1.0], abs=1e-6)

    def test_linear_gradient_is_ones(self):
        g = numeric_gradient(SPECS["linear"], [3.0, 7.0], h=1e-3)
        assert g == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_quadratic_convergence(self):
        # Halving h must cut the error by ~4x (ratio >= 3 allows noise).
        spec = SPECS["cobb_douglas"]
        x = np.array([2.0, 3.0])
        truth = GRADIENT["cobb_douglas"](x)
        errs = [np.abs(numeric_gradient(spec, x, h=h) - truth).max()
                for h in (0.4, 0.2, 0.1)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 3.0

    def test_margin_guard(self):
        box = SPECS["cobb_douglas"].domain
        with pytest.raises(DomainError, match="margin"):
            numeric_gradient(SPECS["cobb_douglas"], [0.11, 5.0], h=0.1, box=box)

    def test_h_validated(self):
        with pytest.raises(ValueError, match="h must be"):
            numeric_gradient(SPECS["linear"], [1.0, 1.0], h=0.0)


class TestHessian:
    def test_cobb_hessian(self):
        H = numeric_hessian(SPECS["cobb_douglas"], [1.0, 1.0], h=1e-3)
        np.testing.assert_allclose(H, [[-0.25, 0.25], [0.25, -0.25]], atol=1e-6)

    def test_ces_hessian(self):
        # (sqrt(x0)+sqrt(x1))^2 = x0 + x1 + 2*sqrt(x0*x1): twice the
        # cobb curvature.
        H = numeric_hessian(SPECS["ces"], [1.0, 1.0], h=1e-3)
        np.testing.assert_allclose(H, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-6)

    def test_linear_hessian_vanishes(self):
        H = numeric_hessian(SPECS["linear"], [3.0, 4.0], h=1e-3)
        assert np.abs(H).max() < 1e-8

    def test_symmetry_by_construction(self):
        H = numeric_hessian(SPECS["log_sum"], [2.0, 5.0], h=1e-2)
        assert H[0, 1] == H[1, 0]

    def test_quadratic_convergence(self):
        spec = SPECS["cobb_douglas"]
        x = np.array([2.0, 3.0])
        truth = HESSIAN["cobb_douglas"](x)
        errs = [np.abs(numeric_hessian(spec, x, h=h) - truth).max()
                for h in (0.4, 0.2, 0.1)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 3.0

    def test_matches_analytic_across_catalog(self):
        for name, hessian in HESSIAN.items():
            spec = SPECS[name]
            x = np.full(spec.dim, 0.5 if name == "exp1d" else 2.0)
            H = numeric_hessian(spec, x, h=1e-3)
            assert H == pytest.approx(hessian(x), abs=1e-5), name


class TestCrossStencil:
    def test_min2_kink_scales_inversely_with_h(self):
        # On the diagonal the 4-point stencil of min reads 1/(2h): it
        # measures the kink, not a second derivative, so halving h
        # doubles the reading instead of converging.
        x = np.array([[2.0, 2.0]])
        (d1,), (d2,) = second_differences(SPECS["min2"], x, 0, 1, (0.1, 0.05))[0]
        assert d1 == pytest.approx(5.0, abs=1e-9)
        assert d2 == pytest.approx(10.0, abs=1e-9)

    def test_diagonal_entry_uses_three_points(self):
        (d,), = second_differences(SPECS["cobb_douglas"],
                                   np.array([[1.0, 1.0]]), 0, 0, (1e-3,))[0]
        assert d == pytest.approx(-0.25, abs=1e-5)


class TestAlepClassify:
    def test_catalog_labels(self):
        pts = [[1.0, 1.0], [2.0, 3.0]]
        assert [c.label for c in alep_classify(SPECS["cobb_douglas"], pts)] \
            == ["complement", "complement"]
        assert [c.label for c in alep_classify(SPECS["linear"], pts)] \
            == ["neutral", "neutral"]
        assert [c.label for c in alep_classify(SPECS["log_sum"], pts)] \
            == ["neutral", "neutral"]

    def test_cobb_estimate_value(self):
        c = alep_classify(SPECS["cobb_douglas"], [[1.0, 1.0]], h=1e-2)[0]
        assert c.estimate == pytest.approx(0.25, abs=1e-4)
        assert c.pair == (0, 1)

    def test_substitute_label(self):
        # u = -x0*x1 has constant cross-partial -1.
        u = lambda p: -p[0] * p[1]
        c = alep_classify(u, [[1.0, 1.0]], h=1e-2)[0]
        assert c.label == "substitute"
        assert c.estimate == pytest.approx(-1.0, abs=1e-6)

    def test_kink_flagged_indeterminate(self):
        c = alep_classify(SPECS["min2"], [[2.0, 2.0]], h=0.1)[0]
        assert c.label == "indeterminate"
        assert c.estimate_h != pytest.approx(c.estimate_h2, rel=0.25)

    def test_shallow_reconstruction_refused(self):
        recon = reconstruct_utility(oracle_by_name("cobb_douglas"), depth=4)
        with pytest.raises(ConfigError, match="depth 4 < 12"):
            alep_classify(recon, [[3.0, 3.0]], h=0.5)

    def test_deep_reconstruction_classifies_cobb(self):
        # At depth 12 a rung step is 2^-12 of the unit, small enough for
        # the h=0.5 stencil to read the true positive cross-partial.
        recon = reconstruct_utility(oracle_by_name("cobb_douglas"), depth=12)
        c = alep_classify(recon, [[3.0, 3.0]], h=0.5,
                          box=oracle_by_name("cobb_douglas").domain)[0]
        assert c.label == "complement" and c.estimate > 0

    def test_pair_range_checked(self):
        with pytest.raises(ConfigError, match="out of range"):
            alep_classify(SPECS["linear"], [[1.0, 1.0]], pair=(0, 5))

    def test_margin_guard(self):
        box = BoxDomain([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(DomainError, match="margin"):
            alep_classify(lambda p: 0.0, [[0.05, 0.5]], h=0.1, box=box)

    def test_validation_and_serialisation(self):
        with pytest.raises(ValueError, match="must be > 0"):
            alep_classify(SPECS["linear"], [[1.0, 1.0]], h=-1.0)
        with pytest.raises(ValueError, match="must be > 0"):
            alep_classify(SPECS["linear"], [[1.0, 1.0]], threshold=float("nan"))
        c = alep_classify(SPECS["linear"], [[1.0, 1.0]])[0]
        doc = json.loads(c.to_json())
        assert doc["label"] == "neutral"
        assert set(doc) == {"point", "pair", "estimate", "estimate_h",
                            "estimate_h2", "label", "h", "threshold"}


def _cobb_check(name):
    """A call of ``name`` on cobb_douglas with one step, tolerance or floor
    argument as its parameter."""
    spec, oracle = SPECS["cobb_douglas"], oracle_by_name("cobb_douglas")
    return {
        "numeric_gradient h": lambda v: numeric_gradient(spec, [1.0, 1.0], h=v),
        "numeric_hessian h": lambda v: numeric_hessian(spec, [1.0, 1.0], h=v),
        "line_smoothness_limit floor": lambda v: line_smoothness_limit(oracle, 2.0, floor=v),
        "line_smoothness_limit schedule": lambda v: line_smoothness_limit(
            oracle, 2.0, schedule=[0.1, v]),
        "solve_f tol": lambda v: solve_f(oracle, 0.5, 2.0, tol=v),
        "check_midpoint_concavity tol": lambda v: check_midpoint_concavity(
            spec, spec.domain, trials=2, tol=v),
        "debreu_smoothness_proxy h_fraction": lambda v: debreu_smoothness_proxy(
            oracle, trials=1, h_fraction=v),
    }[name]


# (call, the value refused below the bound, the message of both refusals).
@pytest.mark.parametrize("name, bad, message", [
    ("numeric_gradient h", 0.0, "h must be > 0"),
    ("numeric_hessian h", 0.0, "h must be > 0"),
    ("line_smoothness_limit floor", 0.0, "floor must be > 0"),
    ("line_smoothness_limit schedule", 0.0, "schedule must be positive"),
    ("solve_f tol", 0.0, "tol must be > 0"),
    ("check_midpoint_concavity tol", -1.0, "tol must be >= 0"),
    ("debreu_smoothness_proxy h_fraction", 0.0, "h_fraction must be > 0"),
])
def test_nan_is_refused_like_a_value_below_the_bound(name, bad, message):
    call = _cobb_check(name)
    for value in (bad, math.nan):
        with pytest.raises(ValueError, match=message):
            call(value)
