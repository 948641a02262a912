import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from altkit.domain import BoxDomain, Segment
from altkit.errors import BracketError, OrderingError
from altkit.fixtures import oracle_by_name
from altkit.oracle import AltOracle, IntensityOrder, classify
from altkit.smoothness import solve_f
from altkit.solvers import (DEFAULT_TOL_T, band_bisect, band_bisect_many,
                            indifference_param_many, pinned_rows)

G, E, L = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS


# Scalar reference solvers: one bracket or one point at a time, asking a
# scalar side one parameter per call.  The lockstep solvers must match them
# bracket by bracket and row by row, in results and in query counts.

def reference_band_bisect(side, lo, hi, tol, lo_state=None, hi_state=None, refine=True):
    s_a = side(lo) if lo_state is None else lo_state
    s_b = side(hi) if hi_state is None else hi_state
    a, b = lo, hi
    eq = a if s_a is E else (b if s_b is E else None)
    while eq is None and (b - a) > tol:
        m = 0.5 * (a + b)
        s_m = side(m)
        if s_m is L:
            a, s_a = m, s_m
        elif s_m is G:
            b, s_b = m, s_m
        else:
            eq = m
    if eq is None:
        return 0.5 * (a + b)
    if not refine:
        return eq
    lower_edge = _reference_band_edge(side, a, eq, L, tol) if s_a is L else a
    upper_edge = _reference_band_edge(side, b, eq, G, tol) if s_b is G else b
    return 0.5 * (lower_edge + upper_edge)


def _reference_band_edge(side, outer, inner, outer_state, tol):
    """Edge of the EQUAL band between ``outer`` (answering ``outer_state``)
    and ``inner`` (inside the band), located to width ``tol``."""
    while abs(inner - outer) > tol:
        m = 0.5 * (outer + inner)
        if side(m) is outer_state:
            outer = m
        else:
            inner = m
    return 0.5 * (outer + inner)


def reference_indifference_param(oracle, seg, x, tol_t=DEFAULT_TOL_T):
    def side(t):
        return oracle.compare(seg.at(t), x, x, x)

    s0 = side(0.0)
    if s0 is not L:
        return (0.0, 0 if s0 is E else -1)
    s1 = side(1.0)
    if s1 is L:
        return (1.0, +1)
    return (reference_band_bisect(side, 0.0, 1.0, tol_t, lo_state=s0, hi_state=s1), 0)


def _indifference_param(oracle, seg, x):
    """The lockstep solve on one point, as (t, clamp)."""
    t, clamp = indifference_param_many(oracle, seg, np.array([x], dtype=float))
    return float(t[0]), int(clamp[0])


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


def _banded_brackets(brackets):
    """Ends and scalar sides of drawn ``_brackets``."""
    lo = np.array([b[0] for b in brackets])
    hi = lo + np.array([b[1] for b in brackets])
    center = np.clip(lo + np.array([b[2] for b in brackets]) * (hi - lo), lo, hi)
    return lo, hi, [_banded_side(c, b[3]) for c, b in zip(center, brackets)]


def _counted_side_many(sides, queries):
    """Lockstep side over scalar sides, counting each bracket's queries."""
    def side_many(idx, t):
        np.add.at(queries, idx, 1)
        return np.array([sides[j](u).sign for j, u in zip(idx, t)], dtype=np.int8)
    return side_many


class TestBandBisectMany:
    @settings(max_examples=60, deadline=None)
    @given(_brackets, st.sampled_from([1e-10, 1e-6, 1e-2]), st.booleans(), st.booleans())
    def test_matches_band_bisect_per_bracket(self, brackets, tol, pass_states, refine):
        lo, hi, sides = _banded_brackets(brackets)

        expected, counts = [], []
        for side, a, b in zip(sides, lo, hi):
            calls = []
            counted = lambda t, side=side, calls=calls: calls.append(t) or side(t)
            states = ({"lo_state": side(a), "hi_state": side(b)} if pass_states else {})
            expected.append(reference_band_bisect(counted, float(a), float(b), tol,
                                                  refine=refine, **states))
            counts.append(len(calls))
            # The public one-bracket solver asks the same number of queries.
            calls.clear()
            assert band_bisect(counted, float(a), float(b), tol, refine=refine,
                               **states) == expected[-1]
            assert len(calls) == counts[-1]

        queries = np.zeros(len(brackets), dtype=int)
        states = {}
        if pass_states:
            states = {"lo_state": [s(a).sign for s, a in zip(sides, lo)],
                      "hi_state": [s(b).sign for s, b in zip(sides, hi)]}
        got = band_bisect_many(_counted_side_many(sides, queries), lo, hi, tol,
                               refine=refine, **states)
        assert got.tolist() == expected
        assert queries.tolist() == counts

    @settings(max_examples=60, deadline=None)
    @given(_brackets, st.lists(st.floats(1e-12, 1.0), min_size=12, max_size=12),
           st.booleans())
    def test_tolerance_per_bracket(self, brackets, tols, refine):
        # One tolerance per bracket: each bracket gets the result and the
        # query count of its solve alone with its own scalar tolerance.
        lo, hi, sides = _banded_brackets(brackets)
        tol = np.array(tols[:len(brackets)])
        expected, counts = [], []
        for j in range(len(brackets)):
            queries = np.zeros(1, dtype=int)
            expected += band_bisect_many(_counted_side_many([sides[j]], queries), lo[j:j + 1],
                                         hi[j:j + 1], float(tol[j]), refine=refine).tolist()
            counts += queries.tolist()
        queries = np.zeros(len(brackets), dtype=int)
        got = band_bisect_many(_counted_side_many(sides, queries), lo, hi, tol, refine=refine)
        assert got.tolist() == expected
        assert queries.tolist() == counts

    def test_rejects_a_non_positive_tolerance_per_bracket(self):
        side = lambda idx, t: np.where(t > 0.5, 1, -1).astype(np.int8)
        for tol in ([1e-9, 0.0], [1e-9, math.nan]):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                band_bisect_many(side, [0.0, 0.0], [1.0, 1.0], tol)

    def test_tolerance_below_float_spacing_ends(self):
        # The midpoint of two adjacent floats is one of them, so only the
        # stop at adjacent ends lets this solve return.
        calls = []

        def side(idx, t):
            calls.append(t)
            assert len(calls) <= 60, "the solve does not end"
            return np.where(t < 0.3, -1, 1).astype(np.int8)
        got = band_bisect_many(side, [0.0], [1.0], 1e-300)
        assert got[0] == 0.3 or np.nextafter(got[0], 1.0) == 0.3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-sys.float_info.max, sys.float_info.max), min_size=4,
                    max_size=4, unique=True),
           st.booleans(), st.floats(5e-324, 1.0), st.booleans())
    @example([-sys.float_info.max, -1e308, 1e308, sys.float_info.max], True, 1e-10, True)
    def test_every_solve_ends_within_the_float_format(self, ends, band, tol, refine):
        # Side -1 below c1, 0 on [c1, c2] and 1 above c2 (no EQUAL band when
        # c2 < c1).  A loop halves a bracket at most 1024 + 1074 times, from
        # the largest float's exponent to the smallest subnormal's; the
        # bisection and the refinement are one loop each, whatever tol is.
        lo, c1, c2, hi = sorted(ends)
        if not band:
            c1, c2 = c2, c1
        calls = [0]

        def side(idx, t):
            calls[0] += 1
            assert calls[0] <= 2 + 2 * (1024 + 1074), "the solve does not end"
            return np.where(t < c1, -1, np.where(t > c2, 1, 0)).astype(np.int8)
        got = band_bisect_many(side, [lo], [hi], tol, refine=refine)
        assert lo <= got[0] <= hi

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-sys.float_info.max, sys.float_info.max), min_size=2,
                    max_size=2, unique=True))
    @example([-sys.float_info.max, sys.float_info.max])
    @example([1e308, sys.float_info.max])
    def test_midpoint_does_not_overflow(self, ends):
        # The first parameter asked is 0.5 * (lo + hi), bit for bit, wherever
        # lo + hi and hi - lo are finite, and the exact midpoint otherwise.
        lo, hi = sorted(ends)
        assume(np.nextafter(lo, hi) < hi)    # else no parameter lies between
        asked = []

        def side(idx, t):
            asked.append(t[0])
            return np.zeros(1, dtype=np.int8)
        assert band_bisect_many(side, [lo], [hi], 5e-324, [-1], [1], refine=False) == asked
        with np.errstate(over="ignore"):
            naive = 0.5 * (lo + hi), hi - lo
        if np.isfinite(naive).all():
            assert np.float64(asked[0]).tobytes() == np.float64(naive[0]).tobytes()
        else:
            assert asked[0] == lo / 2 + hi / 2

    def test_rejects_bad_bracket(self):
        side = lambda idx, t: np.where(t > 0.5, 1, -1).astype(np.int8)
        with pytest.raises(BracketError, match="bracket 1"):
            band_bisect_many(side, [0.0, 0.6], [1.0, 1.0], 1e-9)
        with pytest.raises(ValueError, match="lo < hi"):
            band_bisect_many(side, [0.0, 1.0], [1.0, 1.0], 1e-9)


def _quadratic_oracle(sign: float = 1.0):
    """Difference oracle of u(t) = sign * t^2 on [0, 1]."""
    box = BoxDomain([0.0], [1.0])

    def cmp(x, y, z, w):
        return classify(sign * ((x[0] ** 2 - y[0] ** 2) - (z[0] ** 2 - w[0] ** 2)), 1e-12)

    return AltOracle(1, box, cmp, 1e-12)


class TestPinnedRows:
    def test_same_read_only_objects_while_the_rows_repeat(self):
        a, b = np.arange(12.0).reshape(6, 2), -np.arange(12.0).reshape(6, 2)
        rows = pinned_rows(a, b)
        first = rows(np.array([0, 2, 5]))
        assert [r.tolist() for r in first] == [a[[0, 2, 5]].tolist(), b[[0, 2, 5]].tolist()]
        assert not any(r.flags.writeable for r in first) and a.flags.writeable
        assert all(r is s for r, s in zip(rows(np.array([0, 2, 5])), first))
        second = rows(np.array([2, 5]))
        assert second[1].tolist() == b[[2, 5]].tolist() and second[1] is not first[1]


class TestSolveMidpoint:
    # solve_f(o, a, b) is the intensity midpoint y of x = (b-a)*e and
    # z = (b+a)*e on the diagonal, [y,x] = [z,y], as a scale.
    def test_quadratic_midpoint_is_sqrt_half(self):
        # u=t^2, x=0.6, z=0.8: 2 y^2 = 0.36 + 0.64.
        assert solve_f(_quadratic_oracle(), 0.1, 0.7, tol=1e-10) == pytest.approx(
            math.sqrt(0.5), abs=1e-9)

    def test_cobb_diagonal_midpoint(self):
        # u(c,c) = c along the diagonal, so the gain midpoint of
        # (1,1)->(9,9) sits at (5,5).
        assert solve_f(oracle_by_name("cobb_douglas"), 4.0, 5.0) == pytest.approx(5.0, abs=1e-7)

    def test_requires_strict_ordering(self):
        with pytest.raises(OrderingError, match="strictly preferred"):
            solve_f(_quadratic_oracle(-1.0), 0.4, 0.6)

    def test_result_is_oracle_equal(self):
        o = oracle_by_name("log_sum")
        x, z = np.array([0.5, 0.5]), np.array([8.0, 8.0])
        y = np.full(2, solve_f(o, 3.75, 4.25))
        assert o.compare(y, x, z, y) is E


class TestIndifferenceParam:
    def test_cobb_diagonal_indifference(self):
        # u(4,1) = 2 and u(c,c) = c: the diagonal hit is c=2,
        # i.e. t = (2 - 0.1) / 9.9.
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        t, clamp = _indifference_param(o, seg, [4.0, 1.0])
        assert clamp == 0
        assert t == pytest.approx((2.0 - 0.1) / 9.9, abs=1e-8)

    def test_clamp_below_segment(self):
        o = oracle_by_name("cobb_douglas")
        seg = Segment([5.0, 5.0], [10.0, 10.0])
        t, clamp = _indifference_param(o, seg, [1.0, 1.0])
        assert (t, clamp) == (0.0, -1)

    def test_clamp_above_segment(self):
        o = oracle_by_name("cobb_douglas")
        seg = Segment([0.1, 0.1], [1.0, 1.0])
        t, clamp = _indifference_param(o, seg, [9.0, 9.0])
        assert (t, clamp) == (1.0, +1)

    def test_many_matches_scalar(self):
        # Points below, on, inside and above a diagonal sub-segment.
        o = oracle_by_name("cobb_douglas")
        seg = Segment([1.0, 1.0], [5.0, 5.0])
        rng = np.random.default_rng(8)
        xs = np.vstack([[[0.5, 0.5], [1.0, 1.0], [4.0, 1.0], [9.0, 9.0], [2.0, 8.0]],
                        [o.domain.sample(rng) for _ in range(60)]])
        expected = [reference_indifference_param(o, seg, x) for x in xs]
        calls = o.calls
        t, clamp = indifference_param_many(o, seg, xs)
        assert list(zip(t.tolist(), clamp.tolist())) == expected
        assert o.calls - calls == calls
        assert {-1, 0, 1} <= set(clamp.tolist())

    def test_exact_bottom_hit_reports_no_clamp(self):
        o = oracle_by_name("cobb_douglas")
        seg = Segment([2.0, 2.0], [10.0, 10.0])
        t, clamp = _indifference_param(o, seg, [4.0, 1.0])  # u=2
        assert (t, clamp) == (0.0, 0)
