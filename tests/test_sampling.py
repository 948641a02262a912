"""The per-trial stream: a numpy Philox4x64-10 over uint64 arrays, checked
word for word against numpy's own Philox, and the one draw primitive
every checker uses."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit import axioms, concavity, ladder, sampling, smoothness
from altkit.axioms import _CHECKERS
from altkit.concavity import check_gossen_law, check_midpoint_concavity
from altkit.domain import BoxDomain
from altkit.errors import DomainError
from altkit.fixtures import oracle_by_name
from altkit.ladder import (check_density, order_embedding_check, reconstruct_utility,
                           representation_spot_check, verify_affine_uniqueness)
from altkit.sampling import _philox, draw, subrng, uniforms
from altkit.smoothness import debreu_smoothness_proxy

SEEDS = st.integers(0, 2**64 - 1)


def numpy_philox(seed: int, trial: int) -> np.random.Philox:
    """numpy's Philox on trial ``trial``'s stream; the key and counter go
    in as uint64 arrays, which numpy reads exactly for every value."""
    return np.random.Philox(key=np.array([seed, 0], dtype=np.uint64),
                            counter=np.array([0, 0, trial, 0], dtype=np.uint64))


class TestStream:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, trials=st.integers(1, 9), n=st.integers(0, 23))
    def test_uniforms_match_numpy_philox(self, seed, trials, n):
        got = uniforms(seed, trials, n)
        assert got.shape == (trials, n)
        for i in range(trials):
            raw = numpy_philox(seed, i).random_raw(n)
            assert np.array_equal(got[i], (raw >> np.uint64(11)) * 2.0 ** -53)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, trial=SEEDS, blocks=st.integers(1, 5))
    def test_words_match_numpy_philox_raw(self, seed, trial, blocks):
        ctr = [np.arange(1, blocks + 1, dtype=np.uint64), np.uint64(0),
               np.full(blocks, trial, dtype=np.uint64), np.uint64(0)]
        words = np.stack(_philox(ctr, seed), axis=-1).ravel()
        assert np.array_equal(words, numpy_philox(seed, trial).random_raw(4 * blocks))

    @pytest.mark.parametrize("chunk", [1, 3, 5, 2048])
    def test_chunking_does_not_change_the_stream(self, chunk, monkeypatch):
        whole = uniforms(7, 40, 9)
        monkeypatch.setattr(sampling, "BLOCK_CHUNK", chunk)
        assert np.array_equal(uniforms(7, 40, 9), whole)
        assert np.array_equal(uniforms(7, 3, 9), whole[:3])

    def test_subrng_reads_the_same_stream(self):
        u = uniforms(11, 4, 10)
        for i in range(4):
            rng = subrng(11, i)
            assert np.array_equal(rng.random(3), u[i, :3])
            assert np.array_equal(rng.uniform(-1.0, 1.0, 7), 2.0 * u[i, 3:] - 1.0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            uniforms(seed, 1, 4)
        with pytest.raises(ValueError, match="seed"):
            subrng(seed, 0)
        with pytest.raises(ValueError, match="seed"):
            _CHECKERS["consistency"](oracle_by_name("linear"), trials=5, seed=seed)


def reference_draw(box, points, seed, trials, k, m=0):
    """``draw`` with no ``points``, one trial at a time: trial i makes k
    ``box.sample`` calls on ``subrng(seed, i)`` and then takes m uniforms
    from the same generator."""
    assert points is None
    rows = []
    for i in range(trials):
        rng = subrng(seed, i)
        rows.append(([box.sample(rng) for _ in range(k)], rng.random(m)))
    return (np.array([p for p, _ in rows]).reshape(trials, k, box.dim),
            np.array([e for _, e in rows]).reshape(trials, m))


class TestDraw:
    BOX = BoxDomain([0.5, -2.0, 1.0], [1.5, 3.0, 1.25])
    ROWS = [[0.5, -2.0, 1.0], [1.0, 0.0, 1.1], [1.5, 3.0, 1.25], [0.7, 2.0, 1.2], [1.2, 1.0, 1.0]]

    @pytest.mark.parametrize("k, m", [(1, 0), (3, 0), (4, 24), (1, 3)])
    def test_box_sample_gives_the_default_arrays(self, k, m):
        points, extra = draw(self.BOX, None, 5, 17, k, m)
        ref_points, ref_extra = reference_draw(self.BOX, None, 5, 17, k, m)
        assert points.shape == (17, k, 3) and extra.shape == (17, m)
        assert np.array_equal(points, ref_points) and np.array_equal(extra, ref_extra)
        assert all(self.BOX.contains(p) for p in points.reshape(-1, 3))

    @pytest.mark.parametrize("k, m", [(1, 0), (3, 0), (4, 24), (1, 3)])
    def test_points_cycle_and_extras_start_each_stream(self, k, m):
        points, extra = draw(self.BOX, self.ROWS, 5, 17, k, m)
        assert points.shape == (17, k, 3) and extra.shape == (17, m)
        flat = points.reshape(-1, 3)
        for j, row in enumerate(flat):
            assert np.array_equal(row, self.ROWS[j % len(self.ROWS)])
        for i in range(17):
            assert np.array_equal(extra[i], subrng(5, i).random(m))

    def test_trial_values_do_not_depend_on_the_trial_count(self):
        few, _ = draw(self.BOX, None, 2, 3, 2)
        many, _ = draw(self.BOX, None, 2, 300, 2)
        assert np.array_equal(few, many[:3])

    def test_only_the_points_used_are_checked(self):
        rows = self.ROWS[:2] + [[9.0, 0.0, 1.1]]
        points, _ = draw(self.BOX, rows, 0, 1, 2)
        assert np.array_equal(points[0], rows[:2])
        with pytest.raises(DomainError, match=r"sampled point \[9.0, 0.0, 1.1\] is outside"):
            draw(self.BOX, rows, 0, 3, 1)

    @pytest.mark.parametrize("rows", [[], [[1.0, 0.0]], [1.0, 0.0, 1.1], [[[1.0, 0.0, 1.1]]]],
                             ids=["empty", "short-row", "flat", "nested"])
    def test_points_must_be_rows_of_the_box_dimension(self, rows):
        with pytest.raises(ValueError, match="not rows of dimension 3"):
            draw(self.BOX, rows, 0, 2, 1)

    @pytest.mark.parametrize("points", [None, ROWS], ids=["None", "points"])
    def test_trials_validated(self, points):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            draw(self.BOX, points, 0, 0, 1)


def _recon(lo=0.25, hi=0.75):
    oracle = oracle_by_name("cobb_douglas")
    seg = oracle.domain.diagonal()
    return reconstruct_utility(oracle, seg.at(lo), seg.at(hi), depth=4)


# Every sampled checker outside the axioms, as (name, call(points, trials,
# oracle)).
LIBRARY = {
    "gossen": lambda p, n, o: check_gossen_law(o, points=p, trials=n, seed=3),
    "density": lambda p, n, o: check_density(o, reconstruct_utility(o, depth=3).ladder,
                                             points=p, trials=n, seed=3),
    "spot-check": lambda p, n, o: representation_spot_check(
        reconstruct_utility(o, depth=3), trials=n, seed=3, points=p),
    "midpoint": lambda p, n, o: check_midpoint_concavity(
        reconstruct_utility(o, depth=3), o.domain, points=p, trials=n, seed=3),
    "debreu": lambda p, n, o: debreu_smoothness_proxy(o, points=p, trials=n, seed=3),
}


class TestReferencePath:
    """The library draws all trials at once; ``reference_draw``, put in
    place of ``draw`` in every module that draws, draws trial by trial
    from ``subrng``.  A checker must write the same report bytes and make
    the same compares on either."""

    @staticmethod
    def both(call, name: str, monkeypatch) -> list:
        runs, used = [], []

        def reference(*args, **kwargs):
            used.append(args)
            return reference_draw(*args, **kwargs)
        for patched in (False, True):
            with monkeypatch.context() as mp:
                if patched:
                    for module in (axioms, concavity, ladder, smoothness):
                        mp.setattr(module, "draw", reference)
                oracle = oracle_by_name(name)
                runs.append((call(oracle).to_json(), oracle.calls))
        assert used, "the reference was never called"
        return runs

    @pytest.mark.parametrize("name", ["cobb_douglas", "neg_quadratic", "step", "min2",
                                      "broken_crossover"])
    @pytest.mark.parametrize("axiom", sorted(_CHECKERS))
    def test_axioms(self, axiom, name, monkeypatch):
        runs = self.both(lambda o: _CHECKERS[axiom](o, trials=150, seed=4), name, monkeypatch)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", ["min2", "kinked_composite", "exp1d"])
    @pytest.mark.parametrize("check", sorted(LIBRARY))
    def test_library_checks(self, check, name, monkeypatch):
        runs = self.both(lambda o: LIBRARY[check](None, 40, o), name, monkeypatch)
        assert runs[0] == runs[1]


class TestPoints:
    """Given ``points``, a checker uses them in order and refuses one off
    the box; the Debreu proxy skips that trial instead."""

    OFF = [[3.0, 3.0], [11.0, 2.0], [4.0, 5.0], [2.0, 7.0]]

    @pytest.mark.parametrize("check", sorted(_CHECKERS) + sorted(set(LIBRARY) - {"debreu"}))
    def test_an_off_box_point_is_refused(self, check):
        oracle = oracle_by_name("cobb_douglas")
        if check in _CHECKERS:
            call = lambda n: _CHECKERS[check](oracle, points=self.OFF, trials=n, seed=1)
        else:
            call = lambda n: LIBRARY[check](self.OFF, n, oracle)
        with pytest.raises(DomainError, match=r"sampled point \[11.0, 2.0\] is outside"):
            call(4)

    def test_debreu_skips_an_off_box_point(self):
        report = LIBRARY["debreu"](self.OFF, 4, oracle_by_name("cobb_douglas"))
        assert report.skipped == 1 and report.passed

    def test_gossen_takes_endpoints_in_order(self):
        # exp1d is convex, so every trial of distinct points is a witness.
        # Trial i's endpoints are rows 2i and 2i + 1 of the cycle.
        rows = [[0.2], [0.5], [0.7]]
        report = check_gossen_law(oracle_by_name("exp1d"), points=rows, trials=5, seed=2)
        assert report.violation_count == 5
        for i, w in enumerate(report.violations):
            assert w.points["x"] == rows[2 * i % 3] and w.points["y"] == rows[(2 * i + 1) % 3]


# Checkers outside LIBRARY that draw through ``draw``.
OTHER_CHECKS = {
    "order-embedding": lambda n: order_embedding_check(_recon(), trials=n),
    "affine": lambda n: verify_affine_uniqueness(_recon(), _recon(0.1, 0.9), samples=n),
}


class TestTrialCount:
    @pytest.mark.parametrize("axiom", sorted(_CHECKERS))
    def test_axioms(self, axiom):
        oracle = oracle_by_name("linear")
        for points in (None, [oracle.domain.lower]):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                _CHECKERS[axiom](oracle, points=points, trials=0)

    @pytest.mark.parametrize("check", sorted(LIBRARY))
    def test_library_checks(self, check):
        oracle = oracle_by_name("cobb_douglas")
        for points in (None, [oracle.domain.lower]):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                LIBRARY[check](points, 0, oracle)

    @pytest.mark.parametrize("check", sorted(OTHER_CHECKS))
    def test_other_checks(self, check):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            OTHER_CHECKS[check](0)
