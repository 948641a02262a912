import numpy as np
import pytest

from altkit.domain import BoxDomain
from altkit.fixtures import catalog, intensity_catalog, oracle_by_name
from altkit.oracle import AltOracle, IntensityOrder, Preference, classify, classify_many

G, E, L = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS


class TestClassify:
    def test_trichotomy(self):
        assert classify(0.5, 0.1) is G
        assert classify(-0.5, 0.1) is L
        assert classify(0.05, 0.1) is E
        assert classify(-0.05, 0.1) is E

    def test_dead_band_is_closed(self):
        # Exactly eps away is still EQUAL: strict outcomes need margin.
        assert classify(0.1, 0.1) is E
        assert classify(-0.1, 0.1) is E

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf"),
                                       np.float64("nan")])
    def test_non_finite_delta_raises(self, delta):
        with pytest.raises(ValueError, match="non-finite"):
            classify(delta, 0.1)

    def test_classify_many_matches_classify(self):
        delta = np.array([0.5, -0.5, 0.05, -0.05, 0.1, -0.1, 0.0, 1e300, -1e300])
        assert classify_many(delta, 0.1).tolist() == [classify(d, 0.1).sign for d in delta]
        assert classify_many(delta, 0.1).dtype == np.int8

    def test_sign(self):
        assert (G.sign, E.sign, L.sign) == (1, 0, -1)


def _unit_difference_oracle():
    box = BoxDomain([0.0], [1.0])

    def cmp(x, y, z, w):
        return classify((x[0] - y[0]) - (z[0] - w[0]), 1e-9)

    return AltOracle(1, box, cmp, 1e-9)


class TestAltOracle:
    def test_dimension_must_match_domain(self):
        box = BoxDomain([0.0], [1.0])
        with pytest.raises(ValueError, match="dimension"):
            AltOracle(2, box, lambda x, y, z, w: E, 1e-9)

    def test_eps_must_be_positive(self):
        box = BoxDomain([0.0], [1.0])
        with pytest.raises(ValueError, match="eps_eq"):
            AltOracle(1, box, lambda x, y, z, w: E, 0.0)

    def test_call_counter(self):
        o = _unit_difference_oracle()
        assert o.calls == 0
        o.compare([0.5], [0.1], [0.2], [0.2])
        o.preference([0.5], [0.1])
        assert o.calls == 2
        before = o.calls
        o.compare_batch(*[np.array([[0.5], [0.2]])] * 4)
        assert o.calls - before == 2

    def test_compare_batch_falls_back_to_compare(self):
        o = _unit_difference_oracle()
        assert o.batch is None
        rows = np.array([[0.9], [0.5], [0.1], [0.3]])
        x, y, z, w = rows, rows[::-1], rows, rows
        got = o.compare_batch(x, y, z, w)
        assert got.dtype == np.int8
        assert got.tolist() == [o.compare(*q).sign for q in zip(x, y, z, w)]
        assert o.calls == 2 * len(rows)

    def test_compare_batch_counts_rows(self, cobb_oracle):
        rng = np.random.default_rng(4)
        quads = [np.array([cobb_oracle.domain.sample(rng) for _ in range(50)])
                 for _ in range(4)]
        signs = cobb_oracle.compare_batch(*quads)
        assert cobb_oracle.calls == 50
        assert signs.tolist() == [cobb_oracle.compare(*q).sign for q in zip(*quads)]

    def test_preference_via_null_bracket(self):
        o = _unit_difference_oracle()
        assert o.preference([0.8], [0.2]) is Preference.PREFER
        assert o.preference([0.2], [0.8]) is Preference.DISPREFER
        assert o.preference([0.5], [0.5]) is Preference.INDIFFERENT
        assert o.prefers([0.8], [0.2])
        assert o.weakly_prefers([0.8], [0.2])
        assert o.weakly_prefers([0.4], [0.4])
        assert not o.weakly_prefers([0.2], [0.8])


class TestTypedInvariants:
    """Reflexivity and antisymmetry of every catalog oracle on random
    quadruples: [q] = [q] and swapping the two brackets flips the answer."""

    @pytest.mark.parametrize("name", [s.name for s in catalog()]
                             + [s.name for s in intensity_catalog()])
    def test_reflexivity_and_antisymmetry(self, name):
        oracle = oracle_by_name(name)
        rng = np.random.default_rng(0)
        box = oracle.domain
        for _ in range(10_000):
            x, y, z, w = (box.sample(rng) for _ in range(4))
            assert oracle.compare(x, y, x, y) is E
            assert oracle.compare(x, y, z, w).sign == -oracle.compare(z, w, x, y).sign
