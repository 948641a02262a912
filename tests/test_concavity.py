import json
import math

import numpy as np
import pytest

from altkit.axioms import VIOLATION, WITNESS_CAP, Witness, _fold, _pt
from altkit.concavity import (STRICTNESS_FLOOR_FRACTION, _dyadic_params, _judge,
                              check_gossen_law, check_midpoint_concavity,
                              concavity_roundtrip)
from altkit.domain import BoxDomain, Segment
from altkit.errors import ConfigError
from altkit.fixtures import UtilitySpec, catalog, oracle_by_name
from altkit.ladder import reconstruct_utility
from altkit.oracle import IntensityOrder
from altkit.sampling import subrng

SPECS = {s.name: s for s in catalog()}
UNIT_BOX = BoxDomain([0.0], [1.0])


def fold(results):
    """``_fold`` of per-trial results: tags, with a Witness for each violation."""
    tags = np.array([VIOLATION if isinstance(r, Witness) else r for r in results], dtype=object)
    return _fold(tags, results.__getitem__)


def _pair(domain, points, seed: int, i: int):
    """Trial i's endpoints: drawn from ``subrng(seed, i)``, or rows 2i and
    2i + 1 of ``points`` round the cycle."""
    if points is None:
        rng = subrng(seed, i)
        return domain.sample(rng), domain.sample(rng)
    return (np.asarray(points[j % len(points)], dtype=float) for j in (2 * i, 2 * i + 1))


def distance(d) -> float:
    """The Euclidean norm of one row in Python floats, its squares added
    left to right: no BLAS and no numpy reduction."""
    total = 0.0
    for v in d.tolist():
        total += v * v
    return math.sqrt(total)


def reference_midpoint_concavity(u_fn, domain, points=None, trials=200, seed=0, tol=0.0,
                                 dyadic_depth=None, floor=None):
    """``check_midpoint_concavity`` one trial and one point at a time, on
    the same draws, stopping at each trial's first chord point below the
    chord, with a Witness for every violating trial."""
    if floor is None:
        floor = STRICTNESS_FLOOR_FRACTION * domain.diameter
    params = _dyadic_params(dyadic_depth) if dyadic_depth else [0.5]

    def trial(i: int):
        x, y = _pair(domain, points, seed, i)
        ux, uy = u_fn(x), u_fn(y)
        worst = np.inf
        for t in params:
            p = x + t * (y - x)
            margin = u_fn(p) - ((1.0 - t) * ux + t * uy)
            tol_eff = max(tol, 1e-12 * (1.0 + abs(ux) + abs(uy)))
            if margin < -tol_eff:
                return Witness({"x": _pt(x), "y": _pt(y), "point": _pt(p)},
                               {"chord_parameter": f"{t:.10g}", "margin": f"{margin:.6g}"})
            worst = min(worst, margin - tol_eff)
        if distance(x - y) < floor:
            return "below-floor"
        return "strict" if worst > 0 else "equal"

    return _judge("midpoint-concavity", trials, seed,
                  *fold([trial(i) for i in range(trials)]), floor,
                  dyadic_depth=dyadic_depth, extras={"tol": tol})


def reference_gossen_law(oracle, points=None, trials=1000, seed=0, floor=None):
    """``check_gossen_law`` one trial and one compare at a time, on the
    same draws, with a Witness for every violating trial."""
    if floor is None:
        floor = STRICTNESS_FLOOR_FRACTION * oracle.domain.diameter

    def trial(i: int):
        x, y = _pair(oracle.domain, points, seed, i)
        z = 0.5 * (x + y)
        law = oracle.compare(z, x, y, z)
        if law is IntensityOrder.LESS:
            return Witness({"x": _pt(x), "y": _pt(y), "z": _pt(z)}, {"midpoint_law": "less"})
        if distance(x - y) < floor:
            return "below-floor"
        return "strict" if law is IntensityOrder.GREATER else "equal"

    return _judge("gossen-first-law", trials, seed,
                  *fold([trial(i) for i in range(trials)]), floor,
                  extras={"parameterization": "pair", "oracle": oracle.name})


def near_floor_pairs(box, n: int, seed: int):
    """Rows 2i and 2i + 1 are pairs of box points 1e-6 of the box diameter
    apart, give or take a few ulps, and floors to judge them against: the
    default, and the distance of each of the first 20 pairs, on which that
    pair sits exactly."""
    rng = np.random.default_rng(seed)
    floor = STRICTNESS_FLOOR_FRACTION * box.diameter
    x = box.lower + 0.5 * box.extent * rng.random((n, box.dim))
    d = rng.standard_normal((n, box.dim))
    d *= floor * (1.0 + 2e-16 * rng.integers(-3, 4, (n, 1))) / np.linalg.norm(d, axis=1)[:, None]
    points = np.stack([x, x + d], axis=1).reshape(-1, box.dim)
    diff = points[0::2] - points[1::2]
    floors = {None, *(distance(row) for row in diff[:20])}
    return points, floors


class TestGossenLaw:
    @pytest.mark.parametrize("name, verdict", [
        ("linear", "holds"),
        ("cobb_douglas", "holds-strictly"),
        ("log_sum", "holds-strictly"),
        ("neg_quadratic", "holds-strictly"),
        ("exp1d", "fails"),
    ])
    def test_catalog_verdicts(self, name, verdict):
        v = check_gossen_law(oracle_by_name(name), trials=2000, seed=0)
        assert v.verdict == verdict

    def test_linear_is_never_strict(self):
        # Along any chord the gains balance exactly, so every distinct
        # pair lands in the equal bucket and strictness is off the table.
        v = check_gossen_law(oracle_by_name("linear"), trials=2000, seed=0)
        assert v.holds and not v.strict
        assert v.strict_count == 0 and v.equal_count == 2000

    def test_strict_fixture_accounting(self):
        v = check_gossen_law(oracle_by_name("neg_quadratic"), trials=2000, seed=0)
        assert v.strict and v.strict_count == 2000
        assert v.equal_count == 0 and v.violation_count == 0

    def test_convex_witness_from_injected_pair(self):
        # e^t: the first half-gain 0.6487 falls short of the second
        # 1.0696, so the injected chord yields the violation directly.
        o = oracle_by_name("exp1d")
        assert o.compare([0.5], [0.0], [1.0], [0.5]) is IntensityOrder.LESS
        v = check_gossen_law(o, points=[[0.0], [1.0]],
                             trials=1, seed=0)
        assert v.verdict == "fails"
        w = v.violations[0]
        assert w.points == {"x": [0.0], "y": [1.0], "z": [0.5]}
        assert w.outputs == {"midpoint_law": "less"}

    def test_witness_list_capped(self):
        v = check_gossen_law(oracle_by_name("exp1d"), trials=200, seed=0)
        assert v.violation_count == 200
        assert len(v.violations) == 10

    def test_only_kept_witnesses_are_built(self, built_witnesses):
        v = check_gossen_law(oracle_by_name("exp1d"), trials=2000, seed=0)
        assert v.violation_count == 2000
        assert built_witnesses == v.violations and len(v.violations) == WITNESS_CAP

    @pytest.mark.parametrize("name", ["exp1d", "linear", "neg_quadratic", "step"])
    def test_matches_per_trial_reference(self, name):
        oracle = oracle_by_name(name)
        for seed in range(60):
            assert check_gossen_law(oracle, trials=200, seed=seed).to_json() == \
                reference_gossen_law(oracle, trials=200, seed=seed).to_json(), seed

    @pytest.mark.parametrize("name", ["cobb_douglas", "kinked_composite", "exp1d"])
    def test_matches_per_trial_reference_near_the_floor(self, name):
        oracle = oracle_by_name(name)
        points, floors = near_floor_pairs(oracle.domain, 200, seed=4)
        for floor in floors:
            got = check_gossen_law(oracle, points=points, trials=200, floor=floor)
            assert got.to_json() == reference_gossen_law(oracle, points=points, trials=200,
                                                         floor=floor).to_json(), floor

    def test_reports_echo_the_pair_draw(self):
        # Both endpoints are drawn on the box; reports name that draw.
        # linear shows no strict gains, cobb_douglas no violations.
        v = check_gossen_law(oracle_by_name("linear"), trials=800, seed=2)
        assert v.holds and v.strict_count == 0
        assert v.extras["parameterization"] == "pair"
        v = check_gossen_law(oracle_by_name("cobb_douglas"), trials=800, seed=2)
        assert v.holds and v.violation_count == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            check_gossen_law(oracle_by_name("linear"), trials=0)

    def test_verdict_serialises(self):
        v = check_gossen_law(oracle_by_name("linear"), trials=50, seed=0)
        doc = json.loads(v.to_json())
        assert doc["law"] == "gossen-first-law"
        assert doc["verdict"] == "holds" and doc["trials"] == 50
        assert set(doc) >= {"violations", "strict_count", "equal_count",
                            "below_floor", "floor", "dyadic_depth"}


class TestMidpointConcavity:
    def test_strictly_concave_function(self):
        v = check_midpoint_concavity(lambda p: -p[0] ** 2, UNIT_BOX,
                                     trials=300, seed=1)
        assert v.verdict == "holds-strictly"
        assert v.strict_count == 300 and v.equal_count == 0

    def test_affine_function_holds_without_strictness(self):
        v = check_midpoint_concavity(lambda p: 3.0 * p[0] + 1.0, UNIT_BOX,
                                     trials=300, seed=1)
        assert v.verdict == "holds"
        assert v.equal_count == 300

    def test_convex_function_fails(self):
        v = check_midpoint_concavity(lambda p: p[0] ** 2, UNIT_BOX,
                                     trials=300, seed=1)
        assert v.verdict == "fails" and v.violation_count == 300

    def test_dyadic_sweep_catches_off_midpoint_notch(self):
        # A notch at t=0.25 leaves the t=0.5 midpoint clean, so only the
        # deeper dyadic sweep can see it on the injected chord 0 -> 1.
        notch = lambda p: p[0] - 0.1 * max(0.0, 1.0 - abs(p[0] - 0.25) / 0.05)
        chord = [[0.0], [1.0]]
        shallow = check_midpoint_concavity(notch, UNIT_BOX, points=chord,
                                           trials=1, seed=0)
        assert shallow.holds
        deep = check_midpoint_concavity(notch, UNIT_BOX, points=chord,
                                        trials=1, seed=0, dyadic_depth=2)
        assert deep.verdict == "fails"
        assert deep.violations[0].outputs["chord_parameter"] == "0.25"
        assert float(deep.violations[0].outputs["margin"]) == pytest.approx(-0.1)
        assert deep.dyadic_depth == 2

    def test_near_coincident_pair_never_counts_strict(self):
        v = check_midpoint_concavity(lambda p: -p[0] ** 2, UNIT_BOX,
                                     points=[[0.5], [0.5 + 1e-9]],
                                     trials=1, seed=0)
        assert v.verdict == "holds"
        assert v.below_floor == 1 and v.strict_count == 0

    def test_tolerance_forgives_small_dips(self):
        # A dip of 1e-3 below the chord fails at tol=0 but passes tol=1e-2.
        dip = lambda p: -1e-3 if abs(p[0] - 0.5) < 0.01 else 0.0
        chord = [[0.0], [1.0]]
        assert check_midpoint_concavity(dip, UNIT_BOX, points=chord,
                                        trials=1, seed=0).verdict == "fails"
        assert check_midpoint_concavity(dip, UNIT_BOX, points=chord, trials=1,
                                        seed=0, tol=1e-2).holds

    @pytest.mark.parametrize("depth", [None, 3])
    @pytest.mark.parametrize("case", ["exp1d-recon", "cobb-recon", "square", "near-pair"])
    def test_batch_matches_per_point_reference(self, case, depth):
        # Reconstructions are valued by evaluate_many, plain functions one
        # point at a time; both must give the per-point loop's report.
        domain, tol = UNIT_BOX, 0.0
        if case.endswith("recon"):
            oracle = oracle_by_name("exp1d" if case == "exp1d-recon" else "cobb_douglas")
            u_fn = reconstruct_utility(oracle, depth=5)
            domain, tol = oracle.domain, 2.0 * u_fn.interpolation_budget
        else:
            u_fn = (lambda p: p[0] ** 2) if case == "square" else (lambda p: -p[0] ** 2)
        points = [[0.5], [0.5 + 1e-9], [0.1], [0.9]] if case == "near-pair" else None
        reports = [check(u_fn, domain, points=points, trials=60, seed=2, tol=tol,
                         dyadic_depth=depth)
                   for check in (check_midpoint_concavity, reference_midpoint_concavity)]
        assert reports[0].to_json() == reports[1].to_json()
        assert (reports[0].verdict == "fails") == (case in ("exp1d-recon", "square"))

    @pytest.mark.parametrize("name", ["cobb_douglas", "kinked_composite", "exp1d"])
    def test_matches_per_point_reference_near_the_floor(self, name):
        spec = SPECS[name]
        points, floors = near_floor_pairs(spec.domain, 200, seed=5)
        for floor in floors:
            reports = [check(spec, spec.domain, points=points, trials=200, floor=floor)
                       for check in (check_midpoint_concavity, reference_midpoint_concavity)]
            assert reports[0].to_json() == reports[1].to_json(), floor

    def test_only_kept_witnesses_are_built(self, built_witnesses):
        v = check_midpoint_concavity(lambda p: p[0] ** 2, UNIT_BOX, trials=500, seed=0)
        assert v.violation_count > WITNESS_CAP
        assert built_witnesses == v.violations and len(v.violations) == WITNESS_CAP

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            check_midpoint_concavity(lambda p: 0.0, UNIT_BOX, trials=0)
        with pytest.raises(ValueError, match="tol"):
            check_midpoint_concavity(lambda p: 0.0, UNIT_BOX, tol=-1.0)


class TestRoundtrip:
    @pytest.mark.parametrize("name, segment", [
        ("linear", None),
        ("cobb_douglas", None),
        ("log_sum", None),
        ("neg_quadratic", Segment([0.0], [1.0])),
        ("exp1d", None),
    ])
    def test_catalog_agreement(self, name, segment):
        r = concavity_roundtrip(SPECS[name], trials=600, seed=0, depth=6,
                                segment=segment)
        assert r["agree"], r["mismatches"]
        assert r["fixture"] == name and r["tag"] == SPECS[name].concavity

    def test_convex_fixture_fails_both_ways(self):
        r = concavity_roundtrip(SPECS["exp1d"], trials=400, seed=0, depth=6)
        assert r["gossen"]["verdict"] == "fails"
        assert r["midpoint"]["verdict"] == "fails"
        assert r["agree"]

    def test_untagged_spec_rejected(self):
        bare = UtilitySpec("untagged", 1, None, UNIT_BOX, batch=lambda X: X[:, 0])
        with pytest.raises(ConfigError, match="concavity tag"):
            concavity_roundtrip(bare, trials=10)
