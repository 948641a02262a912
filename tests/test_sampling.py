"""The per-trial stream: a numpy Philox4x64-10 over uint64 arrays, checked
word for word against numpy's own Philox, and the one draw primitive
every checker uses."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit import sampling
from altkit.axioms import _CHECKERS
from altkit.concavity import check_gossen_law, check_midpoint_concavity
from altkit.domain import BoxDomain
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


class TestDraw:
    BOX = BoxDomain([0.5, -2.0, 1.0], [1.5, 3.0, 1.25])

    @pytest.mark.parametrize("k, m", [(1, 0), (3, 0), (4, 24), (1, 3)])
    def test_box_sample_gives_the_default_arrays(self, k, m):
        points, extra = draw(self.BOX, None, 5, 17, k, m)
        ref_points, ref_extra = draw(self.BOX, self.BOX.sample, 5, 17, k, m)
        assert points.shape == (17, k, 3) and extra.shape == (17, m)
        assert np.array_equal(points, ref_points) and np.array_equal(extra, ref_extra)
        assert all(self.BOX.contains(p) for p in points.reshape(-1, 3))

    def test_trial_values_do_not_depend_on_the_trial_count(self):
        few, _ = draw(self.BOX, None, 2, 3, 2)
        many, _ = draw(self.BOX, None, 2, 300, 2)
        assert np.array_equal(few, many[:3])

    @pytest.mark.parametrize("sampler", [None, BOX.sample])
    def test_trials_validated(self, sampler):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            draw(self.BOX, sampler, 0, 0, 1)


def _recon():
    return reconstruct_utility(oracle_by_name("cobb_douglas"), depth=4)


# Every checker that draws through ``draw``, as (name, call(sampler, trials,
# oracle)); the sampler is the default path's own sampler, or None.
LIBRARY = {
    "gossen": lambda s, n, o: check_gossen_law(o, sampler=s, trials=n, seed=3),
    "density": lambda s, n, o: check_density(o, reconstruct_utility(o, depth=3).ladder,
                                             sampler=s, trials=n, seed=3),
    "spot-check": lambda s, n, o: representation_spot_check(
        reconstruct_utility(o, depth=3), trials=n, seed=3, sampler=s),
    "midpoint": lambda s, n, o: check_midpoint_concavity(
        reconstruct_utility(o, depth=3), o.domain, sampler=s, trials=n, seed=3),
    "debreu": lambda s, n, o: debreu_smoothness_proxy(
        o, sampler=s and o.domain.shrunk(2e-3 * o.domain.extent).sample, trials=n, seed=3),
}


class TestReferencePath:
    """The default path draws all trials at once; the same checker fed
    the box's own sampler draws trial by trial from ``subrng``.  Both must
    write the same report bytes and make the same compares."""

    @pytest.mark.parametrize("name", ["cobb_douglas", "neg_quadratic", "step", "min2",
                                      "broken_crossover"])
    @pytest.mark.parametrize("axiom", sorted(_CHECKERS))
    def test_axioms(self, axiom, name):
        runs = []
        for default in (True, False):
            oracle = oracle_by_name(name)
            sampler = None if default else oracle.domain.sample
            report = _CHECKERS[axiom](oracle, sampler=sampler, trials=150, seed=4)
            runs.append((report.to_json(), oracle.calls))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", ["min2", "kinked_composite", "exp1d"])
    @pytest.mark.parametrize("check", sorted(LIBRARY))
    def test_library_checks(self, check, name):
        runs = []
        for default in (True, False):
            oracle = oracle_by_name(name)
            report = LIBRARY[check](None if default else oracle.domain.sample, 40, oracle)
            runs.append((report.to_json(), oracle.calls))
        assert runs[0] == runs[1]


# Checkers outside LIBRARY that draw through ``draw``, or by trial.
OTHER_CHECKS = {
    "order-embedding": lambda n: order_embedding_check(_recon(), trials=n),
    "affine": lambda n: verify_affine_uniqueness(_recon(), (0.1, 0.9), samples=n),
    "gossen-step": lambda n: check_gossen_law(oracle_by_name("linear"), trials=n,
                                              parameterization="step"),
}


class TestTrialCount:
    @pytest.mark.parametrize("axiom", sorted(_CHECKERS))
    def test_axioms(self, axiom):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            _CHECKERS[axiom](oracle_by_name("linear"), trials=0)

    @pytest.mark.parametrize("check", sorted(LIBRARY))
    def test_library_checks(self, check):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            LIBRARY[check](None, 0, oracle_by_name("cobb_douglas"))

    @pytest.mark.parametrize("check", sorted(OTHER_CHECKS))
    def test_other_checks(self, check):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            OTHER_CHECKS[check](0)
