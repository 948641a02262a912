import json
import math

import numpy as np
import pytest

from altkit.domain import BoxDomain
from altkit.errors import ConfigError, RangeError
from altkit.fixtures import catalog, make_difference_oracle, oracle_by_name
from altkit.smoothness import (_scales, calibrate, debreu_smoothness_proxy,
                               default_schedule, diagonal_point,
                               line_smoothness_limit, solve_f)
from altkit.solvers import DEFAULT_TOL_T

SPECS = {s.name: s for s in catalog()}


class TestSolveF:
    def test_kinked_quarter_slope(self):
        # The composite's diagonal slope halves at the kink, which pins
        # the intensity midpoint at b - a/4 for b at the kink scale.
        o = oracle_by_name("kinked_composite")
        for a in (1e-2, 1e-3):
            assert solve_f(o, a, 1.0) == pytest.approx(1.0 - a / 4, abs=1e-9)

    def test_linear_diagonals_return_b(self):
        # min2, cobb, ces, linear all restrict to an affine function of
        # the diagonal scale, so the midpoint is b exactly.
        for name in ("min2", "cobb_douglas", "ces", "linear"):
            assert solve_f(oracle_by_name(name), 0.01, 2.0) == pytest.approx(
                2.0, abs=1e-8), name

    def test_log_sum_geometric_mean(self):
        # 2*log f = log(b-a) + log(b+a)  =>  f = sqrt(b^2 - a^2).
        f = solve_f(oracle_by_name("log_sum"), 0.5, 2.0)
        assert f == pytest.approx(math.sqrt(4.0 - 0.25), abs=1e-7)

    def test_exponential_log_cosh(self):
        # e^f = (e^(b-a) + e^(b+a))/2  =>  f = b + log(cosh a).
        f = solve_f(oracle_by_name("exp1d"), 0.25, 0.5)
        assert f == pytest.approx(0.5 + math.log(math.cosh(0.25)), abs=1e-8)

    def test_validation(self):
        o = oracle_by_name("cobb_douglas")
        with pytest.raises(ValueError, match="0 < a < b"):
            solve_f(o, 0.0, 1.0)
        with pytest.raises(ValueError, match="0 < a < b"):
            solve_f(o, 2.0, 1.0)
        with pytest.raises(ValueError, match="tol"):
            solve_f(o, 0.5, 1.0, tol=0.0)

    def test_diagonal_point_checks_domain(self):
        o = oracle_by_name("exp1d")
        with pytest.raises(Exception, match="outside the domain"):
            diagonal_point(o.domain, 1.5)


class TestLineSmoothnessLimit:
    def test_kinked_limit_is_quarter(self):
        r = line_smoothness_limit(oracle_by_name("kinked_composite"), 1.0)
        assert r.verdict == "not-line-smooth"
        assert r.estimate == pytest.approx(0.25, abs=1e-3)
        assert r.uncertainty <= 1e-3

    def test_min2_diagonal_is_smooth(self):
        # The kink of min sits exactly on the diagonal, so the diagonal
        # restriction itself is affine and the quotient vanishes.
        r = line_smoothness_limit(oracle_by_name("min2"), 1.0)
        assert r.verdict == "line-smooth"
        assert abs(r.estimate) < 1e-3

    @pytest.mark.parametrize("name, b", [("cobb_douglas", 2.0), ("exp1d", 0.5)])
    def test_smooth_fixtures(self, name, b):
        r = line_smoothness_limit(oracle_by_name(name), b)
        assert r.verdict == "line-smooth"
        assert abs(r.estimate) < 1e-3 and r.uncertainty < 1e-3

    def test_truncated_schedule_is_inconclusive(self):
        # b=1 on a [0,1] box leaves no room for b+a at any step size.
        r = line_smoothness_limit(oracle_by_name("exp1d"), 1.0)
        assert r.verdict == "inconclusive"
        assert r.rows == [] and r.estimate is None
        assert r.extras["truncated_at"] == 2.0 ** -4
        assert "outside the domain" in r.extras["truncation_reason"]

    def test_default_schedule_geometry(self):
        sched = default_schedule(1.0)
        assert sched[0] == 2.0 ** -4 and sched[-1] == 2.0 ** -16
        assert all(b == a / 2 for a, b in zip(sched, sched[1:]))

    def test_schedule_validation(self):
        o = oracle_by_name("cobb_douglas")
        with pytest.raises(ConfigError, match="two step sizes"):
            line_smoothness_limit(o, 1.0, schedule=[0.1])
        with pytest.raises(ConfigError, match="strictly decreasing"):
            line_smoothness_limit(o, 1.0, schedule=[0.1, 0.1])
        with pytest.raises(ConfigError, match="floor"):
            line_smoothness_limit(o, 1.0, floor=0.0)

    def test_report_serialisation(self):
        r = line_smoothness_limit(oracle_by_name("cobb_douglas"), 2.0,
                                  schedule=[0.04, 0.02, 0.01, 0.005])
        doc = json.loads(r.to_json())
        assert doc["b"] == 2.0 and doc["verdict"] == "line-smooth"
        assert len(doc["rows"]) == 4
        assert set(doc["rows"][0]) == {"a", "f", "quotient"}
        csv = r.csv_rows()
        assert csv[0] == ["a", "f", "quotient"] and len(csv) == 5

    def test_oracle_calls_are_per_call(self):
        # The oracle's own counter runs on across calls; each report
        # counts only the compares of its own estimate.
        o = oracle_by_name("cobb_douglas")
        calls0 = o.calls
        first = line_smoothness_limit(o, 2.0)
        second = line_smoothness_limit(o, 2.0)
        assert first.oracle_calls == second.oracle_calls > 0
        assert first.oracle_calls + second.oracle_calls == o.calls - calls0


class TestCalibrate:
    def test_known_scales(self):
        assert calibrate(oracle_by_name("cobb_douglas"),
                         [4.0, 1.0]) == pytest.approx(2.0, abs=1e-8)
        assert calibrate(oracle_by_name("linear"),
                         [3.0, 1.0]) == pytest.approx(2.0, abs=1e-8)

    def test_diagonal_points_are_fixed(self):
        o = oracle_by_name("log_sum")
        assert calibrate(o, [4.0, 4.0]) == pytest.approx(4.0, abs=1e-8)

    def test_point_above_range_raises(self):
        # Shrinking the second axis caps the diagonal at 1*e, so the
        # far corner outranks every multiple in the box.
        box = BoxDomain([0.1, 0.1], [10.0, 1.0])
        o = make_difference_oracle(SPECS["cobb_douglas"], box)
        with pytest.raises(RangeError, match="above"):
            calibrate(o, [10.0, 1.0])

    def test_point_below_range_raises(self):
        box = BoxDomain([1.0, 0.1], [10.0, 10.0])
        o = make_difference_oracle(SPECS["cobb_douglas"], box)
        with pytest.raises(RangeError, match="below"):
            calibrate(o, [1.0, 0.1])


class TestDebreuProxy:
    def test_min2_kink_on_diagonal(self):
        # a(x) = min(x0, x1) has slope 1/0 either side of the diagonal;
        # probing diagonal points directly exposes the one-sided split.
        o = oracle_by_name("min2")
        diag = [[2.0, 2.0], [3.0, 3.0], [5.0, 5.0]]
        rep = debreu_smoothness_proxy(o, points=diag, trials=3, seed=0)
        assert rep.verdict == "fail"
        assert rep.violation_count == 3
        assert all(w.note == "one-sided kink" for w in rep.violations)
        w = rep.violations[0]
        assert abs(float(w.outputs["left"]) - float(w.outputs["right"])) > 0.5

    def test_min2_random_sampling_misses_kink(self):
        # The kink set has measure zero, so box sampling finds it only when
        # a stencil happens to straddle it: some seeds miss it, which is
        # exactly why the proxy is only a proxy, and some flag it.
        verdicts = {debreu_smoothness_proxy(oracle_by_name("min2"), trials=25, seed=seed).verdict
                    for seed in range(60)}
        assert verdicts == {"pass", "fail"}

    @pytest.mark.parametrize("name", ["cobb_douglas", "kinked_composite"])
    def test_smooth_calibrations_pass(self, name):
        rep = debreu_smoothness_proxy(oracle_by_name(name), trials=25, seed=0)
        assert rep.verdict == "pass" and rep.violation_count == 0

    def test_report_is_proxy_flagged(self):
        rep = debreu_smoothness_proxy(oracle_by_name("linear"), trials=5, seed=0)
        assert rep.proxy is True
        assert rep.axiom == "debreu-smoothness-proxy"
        assert rep.extras["rel_tol"] == 1e-2

    def test_validation(self):
        o = oracle_by_name("linear")
        with pytest.raises(ValueError, match="trials"):
            debreu_smoothness_proxy(o, trials=0)
        with pytest.raises(ValueError, match="must be > 0"):
            debreu_smoothness_proxy(o, h_fraction=-1.0)

    def test_stencil_rows_are_batch_independent(self):
        # The proxy calibrates all its stencil points in one lockstep solve.
        # Each row must get the scale, or the RangeError, and the compares
        # that calibrate() gives it alone, whatever batch it is solved in.
        box = BoxDomain([0.1, 0.1], [10.0, 1.0])
        o = make_difference_oracle(SPECS["cobb_douglas"], box)
        rng = np.random.default_rng(3)
        x = np.array([box.sample(rng) for _ in range(12)] + [[0.5, 0.5], [10.0, 1.0]])
        h = 1e-3 * box.extent
        points = np.concatenate([x, x + [h[0], 0.0], x - [0.0, h[1] / 2]])
        points = points[[box.contains(p) for p in points]]
        alone, calls = [], []
        for p in points:
            c0 = o.calls
            try:
                alone.append(calibrate(o, p))
            except RangeError:
                alone.append(None)
            calls.append(o.calls - c0)
        assert None in alone and len(set(alone)) > 10
        for batch in (np.arange(len(points)), rng.permutation(len(points))[:9]):
            c0 = o.calls
            a, clamp = _scales(o, points[batch], DEFAULT_TOL_T)
            assert [None if c else v for v, c in zip(a.tolist(), clamp)] == \
                [alone[k] for k in batch]
            assert o.calls - c0 == sum(calls[k] for k in batch)
