import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit.domain import BoxDomain, Segment
from altkit.errors import BracketError, OrderingError
from altkit.fixtures import oracle_by_name
from altkit.oracle import AltOracle, IntensityOrder, classify
from altkit.solvers import (band_bisect, band_bisect_many, indifference_param,
                            indifference_param_many, solve_midpoint)

G, E, L = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS


def _banded_side(center: float, band: float):
    """Trichotomy of t - center with a dead band of half-width ``band``."""
    return lambda t: classify(t - center, band)


class TestBandBisect:
    def test_locates_band_center(self):
        # EQUAL band is [0.4, 0.6]; the solver must return its center, not
        # merely any point inside it.
        t = band_bisect(_banded_side(0.5, 0.1), 0.0, 1.0, 1e-9)
        assert t == pytest.approx(0.5, abs=1e-6)

    def test_asymmetric_window_still_centers(self):
        t = band_bisect(_banded_side(0.3, 0.05), 0.0, 1.0, 1e-9)
        assert t == pytest.approx(0.3, abs=1e-6)

    def test_narrow_band_without_equal_hit(self):
        # Band thinner than the tolerance: bisection converges on the sign
        # change without ever observing EQUAL.
        t = band_bisect(_banded_side(0.7, 1e-15), 0.0, 1.0, 1e-6)
        assert t == pytest.approx(0.7, abs=1e-5)

    def test_refine_false_returns_any_band_point(self):
        calls = []

        def side(t):
            calls.append(t)
            return classify(t - 0.5, 0.1)

        t_fast = band_bisect(side, 0.0, 1.0, 1e-9, refine=False)
        fast_calls = len(calls)
        assert 0.4 <= t_fast <= 0.6
        calls.clear()
        band_bisect(side, 0.0, 1.0, 1e-9, refine=True)
        assert fast_calls < len(calls)

    def test_endpoint_states_trusted(self):
        evaluated = []

        def side(t):
            evaluated.append(t)
            return classify(t - 0.5, 1e-12)

        band_bisect(side, 0.0, 1.0, 1e-6, lo_state=L, hi_state=G)
        assert 0.0 not in evaluated and 1.0 not in evaluated

    def test_rejects_bad_bracket(self):
        with pytest.raises(BracketError, match="straddle"):
            band_bisect(_banded_side(-1.0, 1e-12), 0.0, 1.0, 1e-6)  # all GREATER
        with pytest.raises(BracketError, match="straddle"):
            band_bisect(_banded_side(2.0, 1e-12), 0.0, 1.0, 1e-6)   # all LESS

    def test_rejects_bad_interval_and_tolerance(self):
        side = _banded_side(0.5, 0.1)
        with pytest.raises(ValueError, match="tolerance"):
            band_bisect(side, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="lo < hi"):
            band_bisect(side, 1.0, 0.0, 1e-6)

    def test_equal_endpoint_short_circuits(self):
        assert band_bisect(_banded_side(0.0, 0.05), 0.0, 1.0, 1e-9,
                           refine=False) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=1e-9, max_value=0.04))
    def test_center_recovery_property(self, center, band):
        t = band_bisect(_banded_side(center, band), 0.0, 1.0, 1e-10)
        assert t == pytest.approx(center, abs=1e-7)


# One bracket: (lo, width, center offset as a fraction of the width, band
# half-width).  Offsets 0 and 1 put the crossing on an endpoint, so that
# endpoint answers EQUAL; a band of 0 leaves a bare sign change.
_brackets = st.lists(
    st.tuples(st.floats(-2.0, 2.0), st.floats(1e-6, 3.0),
              st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
              st.one_of(st.just(0.0), st.floats(1e-12, 0.5))),
    min_size=1, max_size=12)


class TestBandBisectMany:
    @settings(max_examples=60, deadline=None)
    @given(_brackets, st.sampled_from([1e-10, 1e-6, 1e-2]), st.booleans(), st.booleans())
    def test_matches_band_bisect_per_bracket(self, brackets, tol, pass_states, refine):
        lo = np.array([b[0] for b in brackets])
        hi = lo + np.array([b[1] for b in brackets])
        center = np.clip(lo + np.array([b[2] for b in brackets]) * (hi - lo), lo, hi)
        band = [b[3] for b in brackets]
        sides = [_banded_side(c, w) for c, w in zip(center, band)]

        expected, counts = [], []
        for side, a, b in zip(sides, lo, hi):
            calls = []
            counted = lambda t, side=side, calls=calls: calls.append(t) or side(t)
            states = ({"lo_state": side(a), "hi_state": side(b)} if pass_states else {})
            expected.append(band_bisect(counted, float(a), float(b), tol, refine=refine,
                                        **states))
            counts.append(len(calls))

        queries = np.zeros(len(brackets), dtype=int)

        def side_many(idx, t):
            np.add.at(queries, idx, 1)
            return np.array([sides[j](u).sign for j, u in zip(idx, t)], dtype=np.int8)

        states = {}
        if pass_states:
            states = {"lo_state": [s(a).sign for s, a in zip(sides, lo)],
                      "hi_state": [s(b).sign for s, b in zip(sides, hi)]}
        got = band_bisect_many(side_many, lo, hi, tol, refine=refine, **states)
        assert got.tolist() == expected
        assert queries.tolist() == counts

    def test_rejects_bad_bracket(self):
        side = lambda idx, t: np.where(t > 0.5, 1, -1).astype(np.int8)
        with pytest.raises(BracketError, match="bracket 1"):
            band_bisect_many(side, [0.0, 0.6], [1.0, 1.0], 1e-9)
        with pytest.raises(ValueError, match="lo < hi"):
            band_bisect_many(side, [0.0, 1.0], [1.0, 1.0], 1e-9)


def _quadratic_oracle():
    """Difference oracle of u(t) = t^2 on [0, 1]."""
    box = BoxDomain([0.0], [1.0])

    def cmp(x, y, z, w):
        return classify((x[0] ** 2 - y[0] ** 2) - (z[0] ** 2 - w[0] ** 2), 1e-12)

    return AltOracle(1, box, cmp, 1e-12)


class TestSolveMidpoint:
    def test_quadratic_midpoint_is_sqrt_half(self):
        # [y,x] = [z,y] with u=t^2, x=0, z=1 means 2 y^2 = 1.
        o = _quadratic_oracle()
        y = solve_midpoint(o, [0.0], [1.0])
        assert y[0] == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_cobb_diagonal_midpoint(self):
        # u(c,c) = c along the diagonal, so the gain midpoint of
        # (1,1)->(9,9) sits at (5,5).
        o = oracle_by_name("cobb_douglas")
        y = solve_midpoint(o, [1.0, 1.0], [9.0, 9.0])
        assert y == pytest.approx([5.0, 5.0], abs=1e-7)

    def test_requires_strict_ordering(self):
        o = _quadratic_oracle()
        with pytest.raises(OrderingError, match="strictly preferred"):
            solve_midpoint(o, [1.0], [0.0])

    def test_result_is_oracle_equal(self):
        o = oracle_by_name("log_sum")
        x, z = np.array([0.5, 0.5]), np.array([8.0, 8.0])
        y = solve_midpoint(o, x, z)
        assert o.compare(y, x, z, y) is E


class TestIndifferenceParam:
    def test_cobb_diagonal_indifference(self):
        # u(4,1) = 2 and u(c,c) = c: the diagonal hit is c=2,
        # i.e. t = (2 - 0.1) / 9.9.
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        t, clamp = indifference_param(o, seg, np.array([4.0, 1.0]))
        assert clamp == 0
        assert t == pytest.approx((2.0 - 0.1) / 9.9, abs=1e-8)

    def test_clamp_below_segment(self):
        o = oracle_by_name("cobb_douglas")
        seg = Segment([5.0, 5.0], [10.0, 10.0])
        t, clamp = indifference_param(o, seg, np.array([1.0, 1.0]))
        assert (t, clamp) == (0.0, -1)

    def test_clamp_above_segment(self):
        o = oracle_by_name("cobb_douglas")
        seg = Segment([0.1, 0.1], [1.0, 1.0])
        t, clamp = indifference_param(o, seg, np.array([9.0, 9.0]))
        assert (t, clamp) == (1.0, +1)

    def test_many_matches_scalar(self):
        # Points below, on, inside and above a diagonal sub-segment.
        o = oracle_by_name("cobb_douglas")
        seg = Segment([1.0, 1.0], [5.0, 5.0])
        rng = np.random.default_rng(8)
        xs = np.vstack([[[0.5, 0.5], [1.0, 1.0], [4.0, 1.0], [9.0, 9.0], [2.0, 8.0]],
                        [o.domain.sample(rng) for _ in range(60)]])
        expected = [indifference_param(o, seg, x) for x in xs]
        calls = o.calls
        t, clamp = indifference_param_many(o, seg, xs)
        assert list(zip(t.tolist(), clamp.tolist())) == expected
        assert o.calls - calls == calls
        assert {-1, 0, 1} <= set(clamp.tolist())

    def test_exact_bottom_hit_reports_no_clamp(self):
        o = oracle_by_name("cobb_douglas")
        seg = Segment([2.0, 2.0], [10.0, 10.0])
        t, clamp = indifference_param(o, seg, np.array([4.0, 1.0]))  # u=2
        assert (t, clamp) == (0.0, 0)
