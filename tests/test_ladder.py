import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit.domain import BoxDomain, Segment, as_point
from altkit import ladder
from altkit.cli import main
from altkit.errors import (ArchimedeanError, ConstructionError, DegenerateFitError,
                           DomainError, OrderingError)
from altkit.fixtures import make_difference_oracle, oracle_by_name, utility_by_name
from altkit.ladder import (ReconstructedUtility, archimedean_count, build_ladder,
                           check_density, order_embedding_check, reconstruct_utility,
                           representation_spot_check, verify_affine_uniqueness)
from altkit.oracle import AltOracle, IntensityOrder, classify
from altkit.sampling import subrng
from altkit.solvers import DEFAULT_TOL_T, band_bisect, band_bisect_many, pinned_rows

G, E, L = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS


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
        lad, = build_ladder(o, [([0.25], [0.75])], depth=1)
        assert lad.rungs(0) == [(0, 0.25), (1, 0.75)]
        level1 = lad.rungs(1)
        assert [i for i, _ in level1] == [0, 1, 2, 3]
        expected = [0.25, math.sqrt(0.3125), 0.75, math.sqrt(0.8125)]
        assert [t for _, t in level1] == pytest.approx(expected, abs=1e-8)
        assert lad.index_range(0) == (0, 1)
        assert lad.index_range(1) == (0, 3)

    def test_rung_values_are_dyadic(self):
        lad, = build_ladder(_power_oracle(2), [([0.25], [0.75])], depth=1)
        assert lad.value(3, 1) == 1.5
        assert lad.value(-4, 3) == -0.5
        assert lad.value(0, 5) == 0.0

    def test_rungs_defaults_to_deepest_level(self):
        lad, = build_ladder(_power_oracle(2), [([0.25], [0.75])], depth=2)
        assert lad.rungs() == lad.rungs(2)
        assert all(lad.rungs(k) == sorted(lad.levels[k].items()) for k in range(3))

    def test_anchor_indices_double_per_level(self):
        lad, = build_ladder(_power_oracle(2), [([0.25], [0.75])], depth=3)
        for k in range(4):
            assert lad.levels[k][0] == 0.25
            assert lad.levels[k][1 << k] == 0.75

    def test_point_lies_on_segment(self):
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad, = build_ladder(o, [(seg.at(0.25), seg.at(0.75))], depth=2)
        for i, t in lad.rungs():
            assert lad.point(i, 2) == pytest.approx(seg.at(t))

    def test_negative_quadratic_on_custom_segment(self):
        # u = -(t-1)^2 increases on [0, 1]; anchors 0.25/0.75 give dyadic
        # rung values v with parameter t = 1 - sqrt(0.5625 - v/2).
        o = oracle_by_name("neg_quadratic")
        lad, = build_ladder(o, [([0.25], [0.75])], depth=2,
                            segment=Segment([0.0], [1.0]))
        rungs = lad.rungs()
        assert [i for i, _ in rungs] == list(range(-3, 5))
        for i, t in rungs:
            v = lad.value(i, 2)
            assert t == pytest.approx(1.0 - math.sqrt(0.5625 - v / 2), abs=1e-8)

    def test_to_dict_shape(self):
        lad, = build_ladder(_power_oracle(2), [([0.25], [0.75])], depth=1)
        d = lad.to_dict()
        assert set(d) == {"depth", "tol_t", "segment", "anchors", "levels"}
        assert d["depth"] == 1 and len(d["levels"]) == 2
        assert d["levels"][1]["3"]["value"] == 1.5
        json.dumps(d)  # must be serialisable as-is


class TestBuildLadderValidation:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            build_ladder(_power_oracle(2), [([0.25], [0.75])], depth=-1)

    def test_swapped_anchors_rejected(self):
        with pytest.raises(OrderingError, match="above"):
            build_ladder(_power_oracle(2), [([0.75], [0.25])], depth=1)

    def test_indifferent_anchors_rejected(self):
        # neg_quadratic is symmetric about t=1 on the default diagonal of
        # [0, 2], so these two anchors tie and cannot span a unit.
        o = oracle_by_name("neg_quadratic")
        with pytest.raises(OrderingError, match="strictly ranked"):
            build_ladder(o, [([0.5], [1.5])], depth=1)

    def test_non_monotone_diagonal_needs_custom_segment(self):
        # Strictly ranked anchors, but the full default diagonal of
        # neg_quadratic ends where it starts in value.
        o = oracle_by_name("neg_quadratic")
        with pytest.raises(OrderingError, match="custom segment"):
            build_ladder(o, [([0.2], [0.9])], depth=1)

    def test_coinciding_rungs_stop_the_build(self):
        # On [0.5, 2] the step utility floor(x0) puts two rungs of level 2
        # on one jump; the next level has no bracket between them.
        o = make_difference_oracle(utility_by_name("step"), BoxDomain([0.5], [2.0]))
        with pytest.raises(ConstructionError, match="level 2 rungs are not strictly"):
            build_ladder(o, [([0.875], [1.625])], depth=5)


class TestRungCap:
    # On linear's diagonal level k >= 1 holds 2**(k+1) + 1 rungs, so with the cap
    # at 100 the midpoints of level 6 (129 rungs) are refused.  The cap is
    # lowered rather than the ladder deepened: an uncapped deep level would
    # not fit in memory.
    def test_every_level_is_capped_before_its_solve(self, monkeypatch):
        seg = oracle_by_name("linear").domain.diagonal()
        anchors = seg.at(0.25), seg.at(0.75)
        built, = build_ladder(oracle_by_name("linear"), [anchors], depth=5)
        assert [len(level) for level in built.levels] == [2, 5, 9, 17, 33, 65]
        monkeypatch.setattr(ladder, "MAX_RUNGS_PER_LEVEL", 100)
        o = oracle_by_name("linear")
        with pytest.raises(ConstructionError, match="level 6 would hold 129 rungs"):
            build_ladder(o, [anchors], depth=8)
        assert o.calls == built.oracle_calls        # no compare of level 6

    def test_cli_exits_one_with_one_error_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(ladder, "MAX_RUNGS_PER_LEVEL", 100)
        rc = main(["reconstruct", "--oracle", "linear", "--depth", "8", "--trials", "5",
                   "--grid", "2", "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error: rung cap exceeded")
        assert not (tmp_path / "out").exists()


def sequential_build(oracle, y_star, x_star, depth, tol_t=DEFAULT_TOL_T, segment=None,
                     grow=None):
    """One ladder on its own: its level solves and edge walks hold only its
    own brackets.  ``ladder.build_ladder`` builds any number of ladders
    together and must give each of them these rungs, bit for bit, after
    these compares.  ``grow`` is ``lockstep_grow`` unless given."""
    grow = grow or lockstep_grow
    calls0 = oracle.calls
    seg = segment or oracle.domain.diagonal()
    y_star = oracle.domain.require(as_point(y_star, seg.dim), "anchor y*")
    x_star = oracle.domain.require(as_point(x_star, seg.dim), "anchor x*")
    t0, t1 = seg.param_of(y_star), seg.param_of(x_star)
    if t1 <= t0:
        raise OrderingError("anchor x* must sit above y* on the reference segment")
    if not oracle.prefers(x_star, y_star):
        raise OrderingError("anchors must be strictly ranked: x* > y*")
    if not oracle.prefers(seg.q, seg.p):
        raise OrderingError("reference segment endpoints are not strictly ranked")

    level0 = {0: t0, 1: t1}
    grow(oracle, seg, level0, y_star, x_star, tol_t)
    levels = [level0]
    for k in range(1, depth + 1):
        prev = levels[-1]
        cur = {2 * i: t for i, t in prev.items()}
        inner = sorted(prev)[:-1]
        t_lo = np.array([prev[i] for i in inner])
        t_hi = np.array([prev[i + 1] for i in inner])
        if np.any(t_hi <= t_lo):
            raise ConstructionError(f"level {k - 1} rungs are not strictly increasing")
        ends = pinned_rows(seg.at_many(t_lo), seg.at_many(t_hi))

        def side(j, t):
            p = seg.at_many(t)
            return oracle.compare_batch(p, *ends(j), p)

        mids = band_bisect_many(side, t_lo, t_hi, tol_t)
        cur.update(zip((2 * i + 1 for i in inner), mids.tolist()))
        grow(oracle, seg, cur, seg.at(cur[0]), seg.at(cur[1]), tol_t, limit=1)
        levels.append(cur)
    return ladder.DyadicLadder(seg, depth, levels, y_star, x_star, tol_t,
                               oracle_calls=oracle.calls - calls0)


def lockstep_grow(oracle, seg, level, unit_lo, unit_hi, tol_t, limit=None):
    """The edge walks of one ladder, up and down as the two brackets of one
    lockstep solve per step."""
    walk = np.array([1, -1])

    def ask(j, p):
        w, rows = walk[j, None] > 0, p.shape
        return oracle.compare_batch(np.where(w, p, a[j]), np.where(w, a[j], p),
                                    np.broadcast_to(unit_hi, rows), np.broadcast_to(unit_lo, rows))

    added = 0
    while walk.size and (limit is None or added < limit):
        edge = np.array([max(level) if w > 0 else min(level) for w in walk.tolist()])
        t = np.array([level[i] for i in edge.tolist()])
        a = seg.at_many(t)
        state = ask(np.arange(walk.size), np.where(walk[:, None] > 0, seg.q, seg.p))
        keep = (state >= 0) & np.where(walk > 0, t < 1.0, t > 0.0)
        walk, edge, t, a, state = (v[keep] for v in (walk, edge, t, a, state))
        if not walk.size:
            return
        up = walk > 0

        def side(j, u):
            return walk[j] * ask(j, seg.at_many(u))

        end = side(np.arange(walk.size), t)
        new = band_bisect_many(side, np.where(up, t, 0.0), np.where(up, 1.0, t), tol_t,
                               np.where(up, end, -state), np.where(up, state, end))
        level.update(zip((edge + walk).tolist(), new.tolist()))
        added += 1


def reference_grow(oracle, seg, level, unit_lo, unit_hi, tol_t, limit=None):
    """The edge walks one at a time, each step one scalar bisection: up from
    max(level) as far as it goes, then down from min(level).  The walks of
    ``ladder.build_ladder`` must match it rung for rung, bit for bit,
    after the same number of compares."""
    def grow_up():
        added = 0
        while limit is None or added < limit:
            i = max(level)
            a = seg.at(level[i])
            state = oracle.compare(seg.q, a, unit_hi, unit_lo)
            if state is L or level[i] >= 1.0:
                return
            level[i + 1] = band_bisect(lambda t: oracle.compare(seg.at(t), a, unit_hi, unit_lo),
                                       level[i], 1.0, tol_t, hi_state=state)
            added += 1

    def grow_down():
        flipped = {G: L, E: E, L: G}
        added = 0
        while limit is None or added < limit:
            j = min(level)
            a = seg.at(level[j])
            state = oracle.compare(a, seg.p, unit_hi, unit_lo)
            if state is L or level[j] <= 0.0:
                return
            level[j - 1] = band_bisect(
                lambda t: flipped[oracle.compare(a, seg.at(t), unit_hi, unit_lo)],
                0.0, level[j], tol_t, lo_state=flipped[state])
            added += 1

    grow_up()
    grow_down()


MONOTONE = ["linear", "cobb_douglas", "ces", "log_sum", "exp1d", "kinked_composite", "min2"]


class TestEdgeWalks:
    @pytest.mark.parametrize("name", MONOTONE)
    def test_match_the_sequential_walks(self, name):
        lockstep = oracle_by_name(name)
        built = reconstruct_utility(lockstep, depth=6).ladder
        sequential = oracle_by_name(name)
        seg = sequential.domain.diagonal()
        reference = sequential_build(sequential, seg.at(0.25), seg.at(0.75), 6,
                                     grow=reference_grow)
        assert json.dumps(built.to_dict()) == json.dumps(reference.to_dict())
        assert lockstep.calls == sequential.calls == built.oracle_calls

    # Anchors 0.33 and 0.43 on u = t leave 5 unit steps above and 3 below,
    # so the down walk ends while the up walk goes on.
    @pytest.mark.parametrize("exponent, anchors", [(1.0, (0.33, 0.43)), (2.0, (0.25, 0.75)),
                                                   (0.5, (0.25, 0.75))])
    def test_match_on_a_batchless_oracle(self, exponent, anchors):
        lockstep, sequential = _power_oracle(exponent), _power_oracle(exponent)
        built, = build_ladder(lockstep, [([anchors[0]], [anchors[1]])], depth=4)
        reference = sequential_build(sequential, [anchors[0]], [anchors[1]], 4,
                                     grow=reference_grow)
        assert json.dumps(built.to_dict()) == json.dumps(reference.to_dict())
        assert lockstep.calls == sequential.calls
        if exponent == 1.0:
            assert built.index_range(0) == (-3, 6)


@st.composite
def _anchor_pairs(draw, gap):
    """1 to 3 diagonal parameter pairs lo < hi in [0, 1], at least ``gap``
    apart, which bounds the rungs of each level."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.floats(0.0, 1.0 - gap))
        pairs.append((lo, draw(st.floats(lo + gap, 1.0))))
    return pairs


class TestLadderBuiltTogether:
    """Ladders built in one call against the same ladders built one by one."""

    @staticmethod
    def _check(make_oracle, pairs, depth):
        together, alone = make_oracle(), make_oracle()
        seg = together.domain.diagonal()
        anchors = [(seg.at(lo), seg.at(hi)) for lo, hi in pairs]
        built = build_ladder(together, anchors, depth)
        reference = [sequential_build(alone, y, x, depth) for y, x in anchors]
        assert len(built) == len(reference)
        for got, want in zip(built, reference):
            # json writes each float's repr, so equal text is equal bits.
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
            assert got.oracle_calls == want.oracle_calls
        assert together.calls == alone.calls == sum(lad.oracle_calls for lad in built)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(MONOTONE), _anchor_pairs(0.05), st.integers(0, 5))
    def test_catalog_oracles(self, name, pairs, depth):
        self._check(lambda: oracle_by_name(name), pairs, depth)

    # A batch-less oracle answers one row per Python call, so its anchors
    # stay wider apart to keep the deepest level small.
    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 3.0]), _anchor_pairs(0.25), st.integers(0, 5))
    def test_batchless_oracle(self, exponent, pairs, depth):
        self._check(lambda: _power_oracle(exponent), pairs, depth)

    def test_no_pairs_build_no_ladder(self):
        o = oracle_by_name("linear")
        assert build_ladder(o, [], 3) == [] and o.calls == 0

    def test_failing_pair_stops_the_build_before_any_solve(self):
        o = oracle_by_name("step")
        seg = o.domain.diagonal()
        with pytest.raises(OrderingError, match="strictly ranked: x"):
            build_ladder(o, [(seg.at(0.25), seg.at(0.75)), (seg.at(0.0), seg.at(0.05))], 4)
        assert o.calls == 3     # both pre-checks of the first pair, the first of the second


class TestEqualStepInvariant:
    def test_adjacent_rung_steps_compare_equal(self):
        # Consecutive rungs at the deepest level are equal intensity steps
        # by construction; the oracle must agree after the full build.
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad, = build_ladder(o, [(seg.at(0.25), seg.at(0.75))], depth=6)
        lo_i, hi_i = lad.index_range(6)
        rng = np.random.default_rng(7)
        for _ in range(50):
            i = int(rng.integers(lo_i, hi_i - 1))
            a, b, c = lad.point(i, 6), lad.point(i + 1, 6), lad.point(i + 2, 6)
            assert o.compare(b, a, c, b) is E

    def test_rung_params_strictly_increasing(self):
        seg = oracle_by_name("log_sum").domain.diagonal()
        lad, = build_ladder(oracle_by_name("log_sum"), [(seg.at(0.25), seg.at(0.75))], depth=5)
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
            before = cobb_recon.clamped
            got = cobb_recon.evaluate(p)
            if cobb_recon.clamped == before:
                truth = (u(p) - lo) / (hi - lo)
                assert got == pytest.approx(truth, abs=1e-6)

    def test_corner_clamping(self, cobb_recon):
        # The bottom corner sits a rounding hair below the lowest rung
        # (value -0.5); the top corner coincides with the highest rung
        # (value 1.5) because the upper half-step lands exactly on it.
        before = cobb_recon.clamped
        assert cobb_recon.evaluate([0.1, 0.1]) == -0.5
        assert cobb_recon.clamped == before + 1
        assert cobb_recon.evaluate([10.0, 10.0]) == 1.5
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


def _without_batch(oracle: AltOracle) -> AltOracle:
    """The same comparator behind an oracle that answers one quadruple at
    a time, as a third-party comparator does."""
    return AltOracle(oracle.dim, oracle.domain, oracle.comparator, oracle.eps_eq,
                     name=oracle.name)


class TestBatchedReconstruction:
    @pytest.mark.parametrize("name", ["linear", "cobb_douglas", "ces", "log_sum", "exp1d",
                                      "kinked_composite", "min2"])
    def test_ladder_equals_batchless_ladder(self, name):
        batched = oracle_by_name(name)
        plain = _without_batch(batched)
        a = reconstruct_utility(batched, depth=6).ladder
        b = reconstruct_utility(plain, depth=6).ladder
        assert a.levels == b.levels
        assert batched.calls == plain.calls == a.oracle_calls == b.oracle_calls

    @pytest.mark.parametrize("name, segment", [
        ("cobb_douglas", None),                       # the whole diagonal
        ("log_sum", None),                            # edge strips at both ends
        ("log_sum", Segment([1.0, 1.0], [5.0, 5.0])),  # points off both segment ends
    ])
    def test_evaluate_many_matches_evaluate(self, name, segment):
        oracle = oracle_by_name(name)
        ladder = reconstruct_utility(oracle, depth=6, segment=segment).ladder
        seg = ladder.segment
        rng = np.random.default_rng(2)
        # Anchors, both corners, a rung, and random points.
        points = [seg.at(0.25), seg.at(0.75), oracle.domain.lower, oracle.domain.upper,
                  seg.at(ladder.levels[6][5])]
        points += [oracle.domain.sample(rng) for _ in range(300)]
        scalar, batched = ReconstructedUtility(oracle, ladder), ReconstructedUtility(oracle, ladder)
        calls = oracle.calls
        expected = np.array([scalar.evaluate(p) for p in points])
        scalar_calls, calls = oracle.calls - calls, oracle.calls
        got = batched.evaluate_many(points)
        assert got.tobytes() == expected.tobytes()
        assert batched.clamped == scalar.clamped >= 1
        assert oracle.calls - calls == scalar_calls
        if name == "log_sum":
            assert {scalar._values[0], scalar._values[-1]} <= set(expected.tolist())

    def test_evaluate_many_rows_are_batch_independent(self):
        # Each point gets the value, the compares and the clamp count that
        # it gets when evaluated alone, whatever batch it is evaluated in.
        oracle = oracle_by_name("log_sum")
        recon = reconstruct_utility(oracle, depth=5)
        seg = recon.ladder.segment
        rng = np.random.default_rng(5)
        points = np.array([seg.at(0.25), seg.at(0.75), oracle.domain.lower,
                           oracle.domain.upper] + [oracle.domain.sample(rng) for _ in range(40)])
        alone = []
        for p in points:
            calls, clamped = oracle.calls, recon.clamped
            value = recon.evaluate(p)
            alone.append((value, oracle.calls - calls, recon.clamped - clamped))
        assert {c for _, _, c in alone} == {0, 1}
        for batch in (np.arange(len(points)), rng.permutation(len(points))[:17]):
            calls, clamped = oracle.calls, recon.clamped
            got = recon.evaluate_many(points[batch])
            assert got.tolist() == [alone[k][0] for k in batch]
            assert oracle.calls - calls == sum(alone[k][1] for k in batch)
            assert recon.clamped - clamped == sum(alone[k][2] for k in batch)

    @staticmethod
    def _watched(name):
        """A difference oracle of ``name`` with two logs: ``rows`` gets the
        row count of each call of the utility's array function, after
        set-up, and ``per_batch`` the number of such calls of each batch."""
        inner = utility_by_name(name)
        rows: list[int] = []
        spec = dataclasses.replace(inner, evaluator=None,
                                   batch=lambda X: rows.append(len(X)) or inner.batch(X))
        oracle = make_difference_oracle(spec)
        batch, per_batch = oracle.batch, []

        def watched(*arrays):
            calls = len(rows)
            out = batch(*arrays)
            per_batch.append(len(rows) - calls)
            return out

        oracle.batch = watched
        rows.clear()
        return oracle, rows, per_batch

    def test_evaluator_rows_of_a_depth_4_reconstruction(self):
        # The ladder's lockstep steps ask (p, lo, hi, p): the first step over
        # a set of brackets values three arrays, and the next steps over the
        # same set value p alone, as the oracle keeps the values of the
        # read-only lo and hi.  The edge walks ask four distinct arrays at
        # each step, both walks in one batch.  Indifference solves ask
        # (P, x, x, x) and value two arrays, or P alone while the rows still
        # running repeat.
        oracle, rows, per_batch = self._watched("cobb_douglas")
        recon = reconstruct_utility(oracle, depth=4)
        assert (sum(rows), len(rows), oracle.calls) == (2289, 306, 1885)
        assert Counter(per_batch) == {3: 8, 1: 126, 4: 38}
        rows.clear()
        per_batch.clear()
        recon.evaluate_many(oracle.domain.lattice(5))
        assert (sum(rows), len(rows)) == (1262, 82)
        assert Counter(per_batch) == {2: 15, 1: 52}

    def test_evaluator_rows_of_two_ladders_built_together(self):
        # Each level solve and each edge-walk step asks the brackets of both
        # ladders in one batch, so the build makes fewer array-function
        # calls than two builds alone.  All brackets of a cobb_douglas level
        # end their bisection at the same step, so the pinned bracket ends
        # are valued as often as alone and the rows are the same.  Where
        # they end at different steps (log_sum, exp1d, kinked_composite),
        # each end re-values the pinned ends of both ladders, so the build
        # values more rows than two builds alone.
        pairs = [(0.25, 0.75), (0.1, 0.9)]
        alone = []
        for pair in pairs:
            oracle, rows, _ = self._watched("cobb_douglas")
            _recons(oracle, 4, pair)
            alone.append((sum(rows), len(rows), oracle.calls))
        oracle, rows, per_batch = self._watched("cobb_douglas")
        _recons(oracle, 4, *pairs)
        assert sum(rows) == sum(a[0] for a in alone)
        assert oracle.calls == sum(a[2] for a in alone)
        assert len(rows) < sum(a[1] for a in alone)
        assert alone == [(2289, 306, 1885), (1453, 298, 1133)]
        assert (sum(rows), len(rows), oracle.calls) == (3742, 434, 3018)
        assert Counter(per_batch) == {3: 8, 1: 126, 4: 69}

    def test_evaluate_many_through_batchless_oracle(self):
        oracle = _without_batch(oracle_by_name("exp1d"))
        recon = reconstruct_utility(oracle, depth=5)
        points = [[0.0], [0.3], [0.5], [0.95], [1.0]]
        assert recon.evaluate_many(points).tolist() == [recon(p) for p in points]

    def test_evaluate_many_rejects_points_outside_the_box(self, cobb_recon):
        with pytest.raises(DomainError):
            cobb_recon.evaluate_many([[1.0, 1.0], [20.0, 1.0]])

    # The first bad point of a batch raises what ``domain.require`` raises
    # for it: the exception type and message of the row-by-row check.
    @pytest.mark.parametrize("points, error, message", [
        ([[5.0, 5.0], [11.0, 2.0], [math.nan, 1.0]], DomainError,
         "point [11.0, 2.0] is outside the domain [[0.1, 0.1], [10.0, 10.0]]"),
        ([[5.0, 5.0], [math.nan, 1.0], [11.0, 2.0]], ValueError,
         "point has non-finite coordinates: array([nan,  1.])"),
        ([[2.0, math.inf]], ValueError, "point has non-finite coordinates: array([ 2., inf])"),
        ([[5.0, 5.0], [0.1, 5.0]], DomainError,             # open lower face of axis 0
         "point [0.1, 5.0] is outside the domain [[0.1, 0.1], [10.0, 10.0]]"),
        ([[5.0, 10.0]], DomainError,                        # open upper face of axis 1
         "point [5.0, 10.0] is outside the domain [[0.1, 0.1], [10.0, 10.0]]"),
        ([[5.0, 5.0, 5.0]], ValueError, "point has dimension 3, expected 2"),
        ([5.0, 5.0], ValueError, "point has dimension 1, expected 2"),
    ])
    def test_evaluate_many_names_the_first_bad_point(self, points, error, message):
        box = BoxDomain([0.1, 0.1], [10.0, 10.0], lower_open=[True, False],
                        upper_open=[False, True])
        recon = reconstruct_utility(oracle_by_name("cobb_douglas", box), depth=3)
        with pytest.raises(error) as raised:
            recon.evaluate_many(points)
        assert str(raised.value) == message

    def test_evaluate_many_keeps_closed_faces(self):
        box = BoxDomain([0.1, 0.1], [10.0, 10.0], lower_open=[True, False],
                        upper_open=[False, True])
        recon = reconstruct_utility(oracle_by_name("cobb_douglas", box), depth=3)
        points = [[5.0, 0.1], [10.0, 5.0]]
        assert recon.evaluate_many(points).tolist() == [recon(p) for p in points]
        assert recon.evaluate_many([]).shape == (0,)

    def test_oracle_calls_is_the_build_cost(self):
        oracle = oracle_by_name("linear")
        recon = reconstruct_utility(oracle, depth=4)
        built = oracle.calls
        recon.evaluate_many([[1.0, 2.0], [3.0, 4.0]])
        assert oracle.calls > built
        assert recon.to_dict()["oracle_calls"] == recon.ladder.oracle_calls == built

    def test_spot_check_matches_per_trial_reference(self):
        # Rungs of the log-sum ladder read through the linear oracle's
        # indifference classes: a deliberately wrong reconstruction, so
        # that the witness path runs too.
        oracle = oracle_by_name("linear")
        wrong = ReconstructedUtility(
            oracle, reconstruct_utility(oracle_by_name("log_sum"), depth=5).ladder)
        report = representation_spot_check(wrong, trials=150, seed=4)

        reference = ReconstructedUtility(oracle, wrong.ladder)
        violations, in_band = [], 0
        for i in range(150):
            rng = subrng(4, i)
            pts = [oracle.domain.sample(rng) for _ in range(4)]
            d = (reference(pts[0]) - reference(pts[1])) - (reference(pts[2]) - reference(pts[3]))
            if abs(d) <= report.extras["dead_band"]:
                in_band += 1
            elif oracle.compare(*pts).sign != (1 if d > 0 else -1):
                violations.append(([p.tolist() for p in pts], f"{d:.6g}"))
        assert report.violation_count == len(violations) > 0
        assert report.extras["in_band"] == in_band
        assert [([w.points[n] for n in "xyzw"], w.outputs["value_difference"])
                for w in report.violations] == violations[:len(report.violations)]


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


def _recons(oracle, depth, *anchor_params):
    """One reconstruction per (lo, hi) diagonal parameter pair, all ladders
    built in one call, as ``altkit reconstruct --second-anchors`` does."""
    seg = oracle.domain.diagonal()
    ladders = build_ladder(oracle, [(seg.at(lo), seg.at(hi)) for lo, hi in anchor_params],
                           depth)
    return [ReconstructedUtility(oracle, lad) for lad in ladders]


class TestAffineUniqueness:
    def test_linear_alpha_beta_are_span_ratios(self):
        # Reconstructions from anchor params (0.25, 0.75) and (0.1, 0.9)
        # of a utility affine in the diagonal parameter differ by exactly
        # alpha = 0.5/0.8 and beta = 0.15/0.8.
        recon, other = _recons(oracle_by_name("linear"), 6, (0.25, 0.75), (0.1, 0.9))
        fit = verify_affine_uniqueness(recon, other, samples=60, seed=0)
        assert fit.verdict == "pass"
        assert fit.alpha == pytest.approx(0.625, abs=1e-6)
        assert fit.beta == pytest.approx(0.1875, abs=1e-6)
        assert fit.max_residual < 5e-3

    def test_identical_anchors_give_identity_map(self):
        recon, other = _recons(oracle_by_name("linear"), 6, (0.25, 0.75), (0.25, 0.75))
        fit = verify_affine_uniqueness(recon, other, samples=60, seed=0)
        assert fit.alpha == pytest.approx(1.0, abs=1e-9)
        assert fit.beta == pytest.approx(0.0, abs=1e-9)

    def test_curved_utility_still_affine(self):
        # u = t^3 is far from affine in t, yet two reconstructions of it
        # must still be affine images of one another.
        recon, other = _recons(_power_oracle(3), 8, (0.2, 0.8), (0.3, 0.9))
        fit = verify_affine_uniqueness(recon, other, samples=60, seed=3)
        assert fit.verdict == "pass" and fit.alpha > 0

    def test_to_dict_round(self):
        recon, other = _recons(oracle_by_name("linear"), 4, (0.25, 0.75), (0.1, 0.9))
        fit = verify_affine_uniqueness(recon, other, samples=30, seed=0)
        d = fit.to_dict()
        assert set(d) == {"alpha", "beta", "max_residual", "samples",
                          "threshold", "verdict"}
        assert d["samples"] == 30

    def test_default_threshold_is_the_interpolation_budget(self):
        # Depth 4 leaves residuals near 0.0077 here, over a fixed 5e-3 but
        # inside one rung step of each reconstruction, 2**-4 * (1 + alpha).
        recon, other = _recons(oracle_by_name("log_sum"), 4, (0.25, 0.75), (0.1, 0.9))
        fit = verify_affine_uniqueness(recon, other, seed=3)
        assert fit.threshold == (1 + abs(fit.alpha)) * 2.0 ** -4
        assert 5e-3 < fit.max_residual <= fit.threshold and fit.verdict == "pass"
        strict = verify_affine_uniqueness(recon, other, seed=3, threshold=5e-3)
        assert (strict.threshold, strict.verdict) == (5e-3, "fail")

    def test_budget_of_unequal_depths(self):
        # One rung step of the fitted reconstruction plus alpha steps of
        # the other: 2**-6 + alpha * 2**-4.
        recon = reconstruct_utility(oracle_by_name("linear"), depth=4)
        other, = _recons(oracle_by_name("linear"), 6, (0.1, 0.9))
        fit = verify_affine_uniqueness(recon, other, samples=60, seed=0)
        assert fit.threshold == 2.0 ** -6 + abs(fit.alpha) * 2.0 ** -4
        assert fit.verdict == "pass"

    def test_degenerate_fit_raises(self):
        with pytest.raises(DegenerateFitError, match="variance"):
            verify_affine_uniqueness(*_recons(_power_oracle(2), 1, (0.25, 0.75), (0.1, 0.9)),
                                     samples=1)


class TestDensity:
    def test_cobb_density_passes(self):
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad, = build_ladder(o, [(seg.at(0.25), seg.at(0.75))], depth=6)
        rep = check_density(o, lad, trials=100, seed=0)
        assert rep.passed and rep.violation_count == 0
        assert rep.extras == {"gap_threshold": 2.0 ** (1 - 6), "depth": 6}

    def test_depth_zero_is_vacuous(self):
        # With only unit rungs every reconstructed gap fits under the
        # 2-step threshold, so every trial is skipped rather than judged.
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad, = build_ladder(o, [(seg.at(0.25), seg.at(0.75))], depth=0)
        rep = check_density(o, lad, trials=50, seed=0, min_depth=0)
        assert rep.passed and rep.skipped == 50

    def test_min_depth_enforced(self):
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad, = build_ladder(o, [(seg.at(0.25), seg.at(0.75))], depth=2)
        with pytest.raises(ValueError, match="below configured minimum"):
            check_density(o, lad, min_depth=8)

    def test_trials_validated(self):
        o = oracle_by_name("cobb_douglas")
        seg = o.domain.diagonal()
        lad, = build_ladder(o, [(seg.at(0.25), seg.at(0.75))], depth=2)
        with pytest.raises(ValueError, match="trials"):
            check_density(o, lad, trials=0)
