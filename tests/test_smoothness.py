import json
import math

import numpy as np
import pytest

from altkit.axioms import SKIP, VIOLATION, WITNESS_CAP, Witness, _collect, _fold
from altkit.domain import BoxDomain, Segment
from altkit.errors import ConstructionError, DomainError, OrderingError, RangeError
from altkit.fixtures import catalog, make_difference_oracle, oracle_by_name
from altkit.oracle import AltOracle, IntensityOrder, classify
from altkit.sampling import subrng
from altkit.smoothness import (DEFAULT_QUOTIENT_FLOOR, ONE_SIDED_TOL, REL_TOL,
                               SOLVE_F_RELATIVE_TOL, SOLVE_F_SCALE_TOL, _scales, calibrate,
                               debreu_smoothness_proxy, diagonal_point, line_smoothness_limit,
                               solve_f)
from altkit.solvers import DEFAULT_TOL_T, band_bisect

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


def reference_solve_midpoint(oracle, x, z, tol_t):
    """Point y on x -> z with [y,x] = [z,y], one scalar bisection, post-checked
    to satisfy z > y > x."""
    if not oracle.prefers(z, x):
        raise OrderingError("solve_midpoint requires z strictly preferred to x")
    seg = Segment(x, z)

    def side(t):
        y = seg.at(t)
        return oracle.compare(y, x, z, y)

    y = seg.at(band_bisect(side, 0.0, 1.0, tol_t, lo_state=IntensityOrder.LESS,
                           hi_state=IntensityOrder.GREATER))
    if not (oracle.prefers(z, y) and oracle.prefers(y, x)):
        raise ConstructionError("midpoint post-check failed: z > y > x is not strict")
    return y


def schedule(b):
    """The line estimate's steps, b/2**4 down to b/2**16."""
    return [b * 2.0 ** (-k) for k in range(4, 17)]


def reference_line(oracle, b):
    """Rows, extras and compares of the schedule solved step by step,
    stopping at the first step that fails."""
    calls0, rows, extras = oracle.calls, [], {}
    for a in schedule(b):
        tol = min(SOLVE_F_SCALE_TOL, a * SOLVE_F_RELATIVE_TOL)
        try:
            lo, hi = diagonal_point(oracle.domain, b - a), diagonal_point(oracle.domain, b + a)
            f = float(reference_solve_midpoint(oracle, lo, hi, tol / (2.0 * a))[0])
        except (ConstructionError, DomainError, OrderingError) as stop:
            extras = {"truncated_at": a, "truncation_reason": str(stop)}
            break
        rows.append((a, f, (b - f) / a))
    return rows, extras, oracle.calls - calls0


def _dead_zone_oracle(b: float, c: float) -> AltOracle:
    """u(t) = t - clip(t, b - c, b + c) on [0, 2], flat within c of b, so the
    line estimate at b stops at its first step a <= c."""
    def u(t):
        return t - min(max(t, b - c), b + c)
    return AltOracle(1, BoxDomain([0.0], [2.0]), lambda x, y, z, w: classify(
        (u(x[0]) - u(y[0])) - (u(z[0]) - u(w[0])), 1e-12), 1e-12, name="dead-zone")


class TestLineSmoothnessLimit:
    @pytest.mark.parametrize("name, b", [
        ("kinked_composite", 1.0), ("min2", 1.0), ("cobb_douglas", 2.0), ("exp1d", 0.5),
        ("log_sum", 2.0), ("ces", 3.0), ("linear", 5.0),           # untruncated
        ("step", 1.0), ("neg_quadratic", 1.0), ("neg_quadratic", 0.5),
        ("constant", 1.0), ("exp1d", 1.0)])                          # truncated at once
    def test_rows_match_the_sequential_solves(self, name, b):
        # The schedule is solved in one lockstep call; each row is the
        # step's solve alone, bit for bit.  An untruncated estimate makes
        # the same compares; a truncated one also asks the later steps.
        lockstep = line_smoothness_limit(oracle_by_name(name), b)
        rows, extras, calls = reference_line(oracle_by_name(name), b)
        assert np.array(lockstep.rows).tobytes() == np.array(rows).tobytes()
        assert lockstep.extras == extras
        if not extras:
            assert lockstep.oracle_calls == calls

    def test_truncation_after_solved_steps(self):
        # Steps b/16, b/32 and b/64 clear the flat zone of half-width
        # b/100; b/128 does not, so its b+a and b-a are indifferent.
        oracle = _dead_zone_oracle(1.0, 0.01)
        r = line_smoothness_limit(oracle, 1.0)
        rows, extras, _ = reference_line(_dead_zone_oracle(1.0, 0.01), 1.0)
        assert [a for a, _, _ in r.rows] == [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
        assert r.rows == rows and r.extras == extras
        assert extras["truncated_at"] == 2.0 ** -7
        assert extras["truncation_reason"] == "solve_midpoint requires z strictly preferred to x"

    # A truncated estimate asks every step before the first one off the box,
    # so it costs the later steps' compares as well.
    @pytest.mark.parametrize("name, calls", [("step", 279), ("neg_quadratic", 13),
                                             ("constant", 0), ("exp1d", 0)])
    def test_truncated_oracle_calls(self, name, calls):
        assert line_smoothness_limit(oracle_by_name(name), 1.0).oracle_calls == calls

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

    def test_schedule_geometry(self):
        sched = [a for a, _, _ in line_smoothness_limit(oracle_by_name("cobb_douglas"), 1.0).rows]
        assert sched[0] == 2.0 ** -4 and sched[-1] == 2.0 ** -16
        assert all(b == a / 2 for a, b in zip(sched, sched[1:]))

    def test_report_serialisation(self):
        r = line_smoothness_limit(oracle_by_name("cobb_douglas"), 2.0)
        doc = json.loads(r.to_json())
        assert doc["b"] == 2.0 and doc["verdict"] == "line-smooth"
        assert doc["floor"] == DEFAULT_QUOTIENT_FLOOR
        assert len(doc["rows"]) == 13
        assert set(doc["rows"][0]) == {"a", "f", "quotient"}
        csv = r.csv_rows()
        assert csv[0] == ["a", "f", "quotient"] and len(csv) == 14

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


def reference_debreu(oracle, points=None, trials=50, seed=0, h_fraction=1e-3):
    """``debreu_smoothness_proxy`` judged one trial and one axis at a time,
    with a Witness for every violating trial.  Trial i's point is drawn
    from ``subrng(seed, i)`` on the box shrunk by 2h, or is row i of
    ``points`` round the cycle; its stencil points are calibrated by
    ``_scales``, whose rows do not depend on their batch."""
    box = oracle.domain
    h_vec = h_fraction * box.extent
    inner = box.shrunk(2.0 * h_vec)
    xs = [inner.sample(subrng(seed, i)) if points is None
          else np.asarray(points[i % len(points)], dtype=float) for i in range(trials)]
    moves = [(s, axis) for axis in range(box.dim) for s in (1.0, -1.0, 0.5, -0.5)]
    stencils = [[x] + [x + s * h_vec[axis] * np.eye(box.dim)[axis] for s, axis in moves]
                for x in xs]
    rows = np.array([p for stencil in stencils for p in stencil])
    ok = np.flatnonzero(box.inside(rows))
    scales = np.full(len(rows), np.nan)
    try:
        a, clamp = _scales(oracle, rows[ok], DEFAULT_TOL_T)
        scales[ok[clamp == 0]] = a[clamp == 0]
    except DomainError:
        pass

    def judge(x, a):
        if math.isnan(a[0]):
            return SKIP
        for axis in range(box.dim):
            a_p, a_m, a_ph, a_mh = a[1 + 4 * axis:5 + 4 * axis]
            if any(map(math.isnan, (a_p, a_m, a_ph, a_mh))):
                return SKIP
            h = float(h_vec[axis])
            d1, d2 = (a_p - a_m) / (2.0 * h), (a_ph - a_mh) / h
            left, right = (a[0] - a_mh) / (0.5 * h), (a_ph - a[0]) / (0.5 * h)
            outputs = {"axis": str(axis), "central_h": f"{d1:.6g}", "central_h2": f"{d2:.6g}",
                       "left": f"{left:.6g}", "right": f"{right:.6g}"}
            if abs(d2 - d1) > REL_TOL * max(1.0, abs(d2)):
                return Witness({"x": x.tolist()}, outputs, note="step-halving drift")
            if abs(left - right) > ONE_SIDED_TOL * max(1.0, abs(d2)):
                return Witness({"x": x.tolist()}, outputs, note="one-sided kink")
        return None

    results = [judge(x, a) for x, a in zip(xs, scales.reshape(trials, -1).tolist())]
    tags = np.array([VIOLATION if isinstance(r, Witness) else r for r in results], dtype=object)
    return _collect("debreu-smoothness-proxy", trials, seed, *_fold(tags, results.__getitem__),
                    proxy=True, extras={"h_fraction": h_fraction, "rel_tol": REL_TOL,
                                        "one_sided_tol": ONE_SIDED_TOL})


class TestDebreuProxy:
    @pytest.mark.parametrize("name", ["min2", "kinked_composite", "step", "exp1d"])
    def test_matches_per_trial_reference(self, name):
        oracle = oracle_by_name(name)
        for seed in range(60):
            assert debreu_smoothness_proxy(oracle, trials=20, seed=seed).to_json() == \
                reference_debreu(oracle, trials=20, seed=seed).to_json(), seed

    def test_matches_per_trial_reference_on_points(self):
        # Diagonal points of min2 fail on the kink; points on a face skip.
        oracle = oracle_by_name("min2")
        points = [[2.0, 2.0], [0.1, 5.0], [3.0, 3.0], [7.0, 2.0], [10.0, 4.0]] * 4
        assert debreu_smoothness_proxy(oracle, points=points, trials=20).to_json() == \
            reference_debreu(oracle, points=points, trials=20).to_json()

    def test_only_kept_witnesses_are_built(self, built_witnesses):
        rep = debreu_smoothness_proxy(oracle_by_name("min2"), points=[[2.0, 2.0]], trials=30)
        assert rep.violation_count == 30
        assert built_witnesses == rep.violations and len(rep.violations) == WITNESS_CAP

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
