import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from altkit.domain import BoxDomain, Segment, as_point, norms
from altkit.errors import ConfigError, DomainError


class TestAsPoint:
    def test_list_becomes_float_array(self):
        p = as_point([1, 2])
        assert p.dtype == np.float64
        assert p.tolist() == [1.0, 2.0]

    def test_scalar_becomes_1d(self):
        assert as_point(3.0).shape == (1,)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            as_point([1.0, 2.0], dim=3)

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_point([[1.0, 2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_point([1.0, float("nan")])
        with pytest.raises(ValueError, match="non-finite"):
            as_point([np.inf])


class TestNorms:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 20])
    def test_rows_are_their_squares_added_left_to_right(self, dim):
        # numpy's own row sums go pairwise past eight columns and follow
        # the memory layout; these do neither, in C and Fortran order alike.
        rng = np.random.default_rng(dim)
        D = rng.standard_normal((300, dim)) * np.exp(3.0 * rng.standard_normal((300, dim)))
        want = []
        for row in D.tolist():
            total = 0.0
            for v in row:
                total += v * v
            want.append(math.sqrt(total))
        assert norms(D).tolist() == want
        assert norms(np.asfortranarray(D)).tolist() == want

    def test_overflow_gives_inf_and_an_empty_axis_zero(self):
        assert norms(np.array([1.2e154, 1.2e154])) == np.inf
        assert norms(np.array([[1e300], [3.0]])).tolist() == [np.inf, 3.0]
        assert norms(np.empty(0)) == 0.0


class TestBoxDomain:
    def test_requires_lower_below_upper(self):
        with pytest.raises(ValueError, match="lower < upper"):
            BoxDomain([0.0, 1.0], [1.0, 1.0])

    def test_contains_interior_and_boundary(self):
        box = BoxDomain([0.0, 0.0], [1.0, 2.0])
        assert box.contains([0.5, 1.0])
        assert box.contains([0.0, 0.0])          # closed faces include edges
        assert box.contains([1.0, 2.0])
        assert not box.contains([1.0 + 1e-12, 1.0])
        assert not box.contains([-0.1, 1.0])

    def test_contains_with_margin(self):
        box = BoxDomain([0.0], [1.0])
        assert box.inside(np.array([[0.5], [0.05], [0.95]]), 0.4).tolist() == [True, False, False]
        assert box.inside(np.array([[0.5], [0.05], [0.95], [0.1]]), 0.1).tolist() == [
            True, False, False, True]

    def test_lattice_past_the_index_limit(self):
        # 2**60 points of dimension 60 are 60 * 2**63 bytes: refused before
        # any allocation.  2**56 points of dimension 56 fit numpy's count of
        # elements but not of bytes (56 * 2**59 > 2**63 - 1).
        for dim in (60, 56):
            box = BoxDomain([0.0] * dim, [1.0] * dim)
            with pytest.raises(ConfigError, match=f"2 points per axis in dimension {dim} "):
                box.lattice(2)
        assert BoxDomain([0.0] * 3, [1.0] * 3).lattice(2).shape == (8, 3)

    def test_require_raises_with_label(self):
        box = BoxDomain([0.0], [1.0])
        with pytest.raises(DomainError, match="anchor"):
            box.require([2.0], "anchor")
        out = box.require([0.5])
        assert out.tolist() == [0.5]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1e-300, 1.0 + 1e-16,
                                               np.nan, np.inf, -np.inf]),
                             min_size=2, max_size=2), max_size=4))
    def test_require_many_is_require_of_every_row(self, rows):
        box = BoxDomain([0.0, 0.5], [1.0, 2.0])
        try:
            expected = [box.require(r, "row").tolist() for r in rows]
        except (DomainError, ValueError) as bad:
            with pytest.raises(type(bad)) as raised:
                box.require_many(rows, "row")
            assert str(raised.value) == str(bad)
        else:
            got = box.require_many(rows, "row")
            assert got.shape == (len(rows), 2)
            assert got.tolist() == expected

    @staticmethod
    def reference_contains(box, x, margin):
        """Membership of one finite point, one coordinate at a time."""
        for j, v in enumerate(x):
            lo, hi = float(box.lower[j]) + margin, float(box.upper[j]) - margin
            if v < lo or v > hi:
                return False
        return True

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           st.sampled_from([0.0, 0.25, 0.5, 1.5, -0.25]),
           st.lists(st.lists(st.integers(0, 6), min_size=2, max_size=2), max_size=5))
    def test_inside_is_the_per_coordinate_rule(self, corners, margin, picks):
        lower = [min(corners[0], corners[1]), min(corners[2], corners[3])]
        upper = [max(corners[0], corners[1]), max(corners[2], corners[3])]
        assume(lower[0] < upper[0] and lower[1] < upper[1])
        box = BoxDomain(lower, upper)
        # Per axis: the faces, the faces moved in by the margin, a point
        # between them, and the non-finite values.
        values = [[lo, hi, lo + margin, hi - margin, 0.5 * (lo + hi), np.nan,
                   np.inf if k % 2 else -np.inf] for k, (lo, hi) in enumerate(zip(lower, upper))]
        X = np.array([[values[0][a], values[1][b]] for a, b in picks]).reshape(-1, 2)
        expected = [all(map(math.isfinite, x)) and self.reference_contains(box, x, margin)
                    for x in X.tolist()]
        assert box.inside(X, margin).tolist() == expected
        for x in X:
            if all(map(math.isfinite, x)):
                assert box.contains(x) is self.reference_contains(box, x, 0.0)
            else:
                with pytest.raises(ValueError, match="non-finite"):
                    box.contains(x)

    def test_inside_refuses_rows_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimension 2"):
            BoxDomain([0.0, 0.0], [1.0, 1.0]).inside(np.zeros((3, 1)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sample_stays_inside(self, seed):
        box = BoxDomain([-1.0, 2.0], [1.0, 5.0])
        p = box.sample(np.random.default_rng(seed))
        assert box.contains(p)

    def test_extent_diameter(self):
        box = BoxDomain([0.0, 0.0], [3.0, 4.0])
        assert box.extent.tolist() == [3.0, 4.0]
        assert box.diameter == pytest.approx(5.0)

    def test_diagonal_runs_corner_to_corner(self):
        box = BoxDomain([0.0, 1.0], [2.0, 3.0])
        d = box.diagonal()
        assert d.at(0.0).tolist() == [0.0, 1.0]
        assert d.at(1.0).tolist() == [2.0, 3.0]

    def test_diagonal_scale_range(self):
        box = BoxDomain([0.1, 0.1], [10.0, 10.0])
        assert box.diagonal_scale_range() == (0.1, 10.0)
        # Asymmetric box: the c*(1,1) ray is clipped by the tighter axis.
        assert BoxDomain([0.1, 0.1], [10.0, 1.0]).diagonal_scale_range() == (0.1, 1.0)

    def test_diagonal_scale_range_empty(self):
        box = BoxDomain([2.0, 0.0], [3.0, 1.0])
        with pytest.raises(DomainError, match="ray"):
            box.diagonal_scale_range()

    def test_shrunk(self):
        box = BoxDomain([0.0], [1.0]).shrunk(0.25)
        assert box.contains([0.5])
        assert not box.contains([0.1])


class TestSegment:
    def test_at_interpolates(self):
        seg = Segment([0.0, 0.0], [2.0, 4.0])
        assert seg.at(0.5).tolist() == [1.0, 2.0]
        assert seg.at(1.0).tolist() == [2.0, 4.0]

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            Segment([1.0], [1.0])

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_param_of_inverts_at(self, t):
        seg = Segment([0.0, 1.0], [3.0, 2.0])
        assert seg.param_of(seg.at(t)) == pytest.approx(t, abs=1e-12)

    def test_param_of_rejects_off_segment_points(self):
        seg = Segment([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DomainError, match="off the segment"):
            seg.param_of([0.5, 0.5])
        with pytest.raises(DomainError, match="outside the segment"):
            seg.param_of([2.0, 0.0])
