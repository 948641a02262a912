import dataclasses
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import GRADIENT, HESSIAN
from altkit.domain import BoxDomain
from altkit.errors import ConfigError
from altkit.fixtures import (CONCAVE, NON_CONCAVE, STRICTLY_CONCAVE, UtilitySpec,
                             catalog, estimate_value_range, intensity_by_name,
                             make_difference_oracle, make_intensity_oracle,
                             oracle_by_name, parse_expression,
                             utility_by_name, utility_from_json)
from altkit.oracle import IntensityOrder, classify

G, E, L = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS


class TestCatalogValues:
    """Spot values recomputed by hand arithmetic."""

    @pytest.mark.parametrize("name,point,value", [
        ("linear", [1.0, 2.0], 3.0),
        ("cobb_douglas", [4.0, 1.0], 2.0),
        ("ces", [1.0, 4.0], 9.0),               # (1 + 2)^2
        ("log_sum", [1.0, 1.0], 0.0),
        ("log_sum", [math.e, 1.0], 1.0),
        ("exp1d", [0.0], 1.0),
        ("exp1d", [1.0], math.e),
        ("min2", [3.0, 7.0], 3.0),
        ("step", [2.7], 2.0),
        ("neg_quadratic", [1.0], 0.0),
        ("neg_quadratic", [0.0], -1.0),
        ("kinked_composite", [1.0, 1.0], 0.0),   # at the kink: v=1
        ("kinked_composite", [0.25, 1.0], -0.5),  # below: v - 1
        ("kinked_composite", [4.0, 4.0], 1.5),   # above: (v - 1)/2
    ])
    def test_evaluator(self, name, point, value):
        spec = utility_by_name(name)
        assert spec(np.asarray(point)) == pytest.approx(value, abs=1e-12)

    def test_catalog_tags(self):
        tags = {s.name: s.concavity for s in catalog()}
        assert tags["linear"] == CONCAVE
        assert tags["cobb_douglas"] == CONCAVE      # flat along rays through 0
        assert tags["log_sum"] == STRICTLY_CONCAVE
        assert tags["neg_quadratic"] == STRICTLY_CONCAVE
        assert tags["exp1d"] == NON_CONCAVE
        assert tags["step"] == NON_CONCAVE
        non_monotone = {s.name for s in catalog() if not s.monotone}
        assert non_monotone == {"neg_quadratic", "step"}
        assert not utility_by_name("step").continuous

    def test_analytic_derivatives_match_finite_differences(self):
        h = 1e-5
        pts = {"linear": [2.0, 3.0], "cobb_douglas": [1.3, 0.7],
               "ces": [2.0, 0.5], "log_sum": [1.5, 2.5], "exp1d": [0.4]}
        for name, raw in pts.items():
            spec = utility_by_name(name)
            x = np.asarray(raw)
            for i in range(spec.dim):
                e = np.zeros(spec.dim)
                e[i] = h
                fd = (spec(x + e) - spec(x - e)) / (2 * h)
                assert GRADIENT[name](x)[i] == pytest.approx(fd, rel=1e-6, abs=1e-8), name
                fd2 = (spec(x + e) - 2 * spec(x) + spec(x - e)) / h**2
                assert HESSIAN[name](x)[i, i] == pytest.approx(fd2, rel=1e-4, abs=1e-5), name


class TestDifferenceOracle:
    def test_matches_direct_arithmetic(self):
        spec = utility_by_name("cobb_douglas")
        oracle = make_difference_oracle(spec)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x, y, z, w = (spec.domain.sample(rng) for _ in range(4))
            delta = (spec(x) - spec(y)) - (spec(z) - spec(w))
            assert oracle.compare(x, y, z, w) is classify(delta, oracle.eps_eq)

    def test_default_dead_band_scales_with_value_range(self):
        spec = utility_by_name("linear")
        oracle = make_difference_oracle(spec)
        # u = x0 + x1 spans [0.2, 20] on the box: range 19.8.
        assert oracle.eps_eq == pytest.approx(1e-9 * 19.8)
        assert estimate_value_range(spec.batch, spec.domain) == pytest.approx(19.8)

    def test_custom_eps_and_domain(self):
        spec = utility_by_name("linear")
        box = BoxDomain([0.0, 0.0], [1.0, 1.0])
        oracle = make_difference_oracle(spec, domain=box, eps_eq=1e-3)
        assert oracle.eps_eq == 1e-3
        # Differences inside the widened band collapse to EQUAL.
        assert oracle.compare([0.5, 0.5], [0.5, 0.5005], [0.5, 0.5], [0.5, 0.5]) is E

    def test_domain_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            make_difference_oracle(utility_by_name("linear"), domain=BoxDomain([0.0], [1.0]))

    def test_translation_invariance(self):
        """Oracles from u and u + c agree on all quadruples."""
        spec = utility_by_name("cobb_douglas")
        base = make_difference_oracle(spec)
        shifted = make_difference_oracle(dataclasses.replace(
            spec, evaluator=None, batch=lambda X: spec.batch(X) + 17.5))
        rng = np.random.default_rng(11)
        quads = [np.array([spec.domain.sample(rng) for _ in range(1000)]) for _ in range(4)]
        quads[2][:100], quads[3][:100] = quads[0][:100], quads[1][:100]
        assert shifted.compare_batch(*quads).tolist() == base.compare_batch(*quads).tolist()
        for q in zip(*quads):
            assert base.compare(*q) is shifted.compare(*q)


SQRT_LOG = {"name": "sqrt_log", "dimension": 2,
            "expr": ["add", ["mul", 2.0, ["sqrt", ["x", 0]]], ["log", ["x", 1]]]}


def _counted(spec: UtilitySpec) -> tuple[UtilitySpec, list[int]]:
    """``spec`` with a ``batch`` that records the rows of each call."""
    rows: list[int] = []

    def batch(X):
        rows.append(len(X))
        return spec.batch(X)

    return dataclasses.replace(spec, evaluator=None, batch=batch), rows


class TestSharedArguments:
    """A compare values each distinct argument array once; the answers are
    those of separate copies."""

    @pytest.mark.parametrize("spec", [*catalog(), utility_from_json(SQRT_LOG)],
                             ids=lambda spec: spec.name)
    def test_aliased_arguments_answer_as_copies(self, spec):
        oracle = make_difference_oracle(spec)
        rng = np.random.default_rng(7)
        P, A, B, X = (np.array([spec.domain.sample(rng) for _ in range(200)])
                      for _ in range(4))
        # Rows that tie: P equal to X, and the bracket [A, B] equal to [P, P].
        P[:20] = X[:20]
        A[20:40] = B[20:40] = P[20:40]
        for aliased, copied in (((P, A, B, P), (P, A, B, P.copy())),
                                ((P, X, X, X), (P, X, X.copy(), X.copy()))):
            got = oracle.compare_batch(*aliased)
            assert got.dtype == np.int8
            assert got.tolist() == oracle.compare_batch(*copied).tolist()
        for p, a, b, x in zip(P[:60], A[:60], B[:60], X[:60]):
            assert oracle.compare(p, a, b, p) is oracle.compare(p, a, b, p.copy())
            assert oracle.compare(p, x, x, x) is oracle.compare(p, x, x.copy(), x.copy())
            assert oracle.prefers(p, x) is (oracle.compare(p, x, x.copy(), x.copy()) is G)

    def test_each_distinct_argument_is_valued_once(self):
        spec, rows = _counted(utility_by_name("cobb_douglas"))
        oracle = make_difference_oracle(spec)
        rng = np.random.default_rng(1)
        P, A, B = (np.array([spec.domain.sample(rng) for _ in range(5)]) for _ in range(3))
        p, a, b = P[0], A[0], B[0]
        asks = [(lambda: oracle.compare_batch(P, A, B, P), [5, 5, 5]),
                (lambda: oracle.compare_batch(P, A, A, A), [5, 5]),
                (lambda: oracle.compare_batch(P, P, P, P), [5]),
                (lambda: oracle.compare_batch(P, A, B, P.copy()), [5, 5, 5, 5]),
                (lambda: oracle.compare(p, a, b, p), [1, 1, 1]),
                (lambda: oracle.prefers(p, a), [1, 1])]
        for ask, expected in asks:
            rows.clear()
            ask()
            assert rows == expected

    def test_read_only_arrays_are_valued_once_across_compares(self):
        spec, rows = _counted(utility_by_name("cobb_douglas"))
        oracle = make_difference_oracle(spec)
        rng = np.random.default_rng(2)
        P, Q, A, B, C = (np.array([spec.domain.sample(rng) for _ in range(5)])
                         for _ in range(5))
        for held in (A, B, C):
            held.flags.writeable = False
        view = A[::-1]          # read-only, but not the owner of its data
        asks = [((P, A, B, P), [5, 5, 5]), ((Q, A, B, Q), [5]), ((P, B, A, P), [5]),
                ((P, C, B, P), [5, 5]),     # C displaces A: two arrays are kept
                ((P, A, B, P), [5, 5, 5]), ((P, view, view, P), [5, 5])]
        for args, expected in asks:
            rows.clear()
            got = oracle.compare_batch(*args)
            assert rows == expected
            assert got.tolist() == oracle.compare_batch(*(a.copy() for a in args)).tolist()
        # An owner that makes its array writeable again gets fresh values.
        rows.clear()
        before = oracle.compare_batch(A, B, B, B)
        assert rows == []
        A.flags.writeable = True
        A[:] = B
        assert oracle.compare_batch(A, B, B, B).tolist() == [0] * 5 != before.tolist()
        assert rows == [5]


def _kinked_reference(x):
    v = math.sqrt(x[0] * x[1])
    return v - 1.0 if v <= 1.0 else 0.5 * (v - 1.0)


def _square(v):
    return v * v


# Each catalog utility one point at a time: the reference the array
# definitions must match bit for bit.  Squares are the exact IEEE product
# v * v, square roots are correctly rounded, and log and exp are the math
# module's (libm's).
_REFERENCE = {
    "linear": lambda x: x[0] + x[1],
    "cobb_douglas": lambda x: math.sqrt(x[0] * x[1]),
    "ces": lambda x: _square(math.sqrt(x[0]) + math.sqrt(x[1])),
    "log_sum": lambda x: math.log(x[0]) + math.log(x[1]),
    "exp1d": lambda x: math.exp(x[0]),
    "kinked_composite": _kinked_reference,
    "min2": lambda x: min(x[0], x[1]),
    "neg_quadratic": lambda x: -_square(x[0] - 1.0),
    "step": lambda x: float(math.floor(x[0])),
}


class TestBatchEvaluators:
    @pytest.mark.parametrize("name", [s.name for s in catalog()])
    def test_batch_is_bit_identical_to_evaluator(self, name):
        spec = utility_by_name(name)
        rng = np.random.default_rng(20)
        lo, hi = spec.domain.lower, spec.domain.upper
        corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(spec.dim, -1).T
        points = np.vstack([lo + rng.random((100_000, spec.dim)) * (hi - lo), corners])
        expected = np.array([_REFERENCE[name](p) for p in points])
        assert spec.batch(points).tobytes() == expected.tobytes()
        # The value at one point is row 0 of the array definition.
        assert np.array([spec(p) for p in points[-100:]]).tobytes() == expected[-100:].tobytes()

    @settings(max_examples=10, deadline=None)
    @given(spec=st.sampled_from([*catalog(), *(
        utility_from_json({"name": op, "dimension": 2, "expr": [op, ["x", 0], ["x", 1]]})
        for op in ("add", "sub", "mul", "div", "pow", "min", "max"))] + [
        utility_from_json({"name": op, "dimension": 1, "expr": [op, ["x", 0]]})
        for op in ("sqrt", "log", "exp", "neg")]),
        seed=st.integers(0, 2 ** 32 - 1), chunk=st.integers(2, 40))
    def test_row_alone_equals_row_in_batch_and_in_chunks(self, spec, seed, chunk):
        # compare values its points as one-row views and compare_batch as
        # rows of a batch; their answers agree only if a row's value does
        # not depend on where the row sits.
        box = spec.domain
        points = box.lower + np.random.default_rng(seed).random((300, spec.dim)) * box.extent
        whole = spec.batch(points)
        alone = np.concatenate([spec.batch(points[k:k + 1]) for k in range(len(points))])
        chunked = np.concatenate([spec.batch(points[k:k + chunk])
                                  for k in range(0, len(points), chunk)])
        assert whole.tobytes() == alone.tobytes() == chunked.tobytes()

    def test_scalar_only_spec_gets_a_row_loop(self):
        spec = UtilitySpec("scalar", 2, lambda x: x[0] * x[1], BoxDomain([0.0, 0.0], [1.0, 1.0]))
        assert spec.batch(np.array([[0.5, 0.5], [1.0, 0.25]])).tolist() == [0.25, 0.25]

    def test_batch_comparator_matches_compare(self):
        oracle = oracle_by_name("log_sum")
        rng = np.random.default_rng(5)
        quads = [np.array([oracle.domain.sample(rng) for _ in range(500)]) for _ in range(4)]
        # Repeat some points so that EQUAL answers occur.
        quads[2][:100], quads[3][:100] = quads[0][:100], quads[1][:100]
        signs = oracle.compare_batch(*quads)
        assert signs.tolist() == [oracle.compare(*q).sign for q in zip(*quads)]
        assert 0 in signs.tolist()

    def test_batch_error_names_the_scalar_point(self):
        # log(0) on an overridden box; the dead band is given, so the
        # error first surfaces inside a batch, which replays row by row.
        oracle = make_difference_oracle(utility_by_name("log_sum"),
                                        domain=BoxDomain([0.0, 0.0], [1.0, 1.0]),
                                        eps_eq=1e-9)
        good, bad = np.array([0.5, 0.5]), np.array([0.0, 0.5])
        x = np.array([good, good, bad])
        y = np.array([good, bad, good])    # row 1 is the first to fail
        with pytest.raises(ConfigError) as batched:
            oracle.compare_batch(x, y, x, x)
        with pytest.raises(ConfigError) as scalar:
            oracle.compare(good, bad, good, good)
        assert str(batched.value) == str(scalar.value)
        assert "[0.0, 0.5]" in str(batched.value)

    def test_non_finite_batch_value_raises_like_compare(self):
        spec = utility_by_name("exp1d")
        oracle = make_difference_oracle(spec, domain=BoxDomain([0.0], [800.0]), eps_eq=1e-9)
        rows = np.array([[1.0], [710.0]])    # exp(710) overflows
        with pytest.raises(ConfigError, match=r"\[710.0\]"):
            oracle.compare_batch(rows, rows[::-1], rows, rows)

    @pytest.mark.parametrize("dim, points", [(1, 7), (4, 7 ** 4), (5, 4 ** 5), (6, 3 ** 6),
                                             (8, 2 ** 8)])
    def test_setup_lattice_is_capped(self, dim, points):
        # 7 points per axis up to dimension 4; beyond it the most per axis
        # within 7**4 points (at dimension 8 only the corners).
        expr = ["x", 0]
        for i in range(1, dim):
            expr = ["add", expr, ["x", i]]
        spec = utility_from_json({"name": "sum", "dimension": dim, "expr": expr})
        rows = []
        counted = dataclasses.replace(spec, batch=lambda X: rows.append(len(X)) or spec.batch(X))
        oracle = make_difference_oracle(counted)
        assert rows == [points]
        assert oracle.eps_eq == pytest.approx(1e-9 * 9.9 * dim)

    def test_non_finite_value_at_setup_raises(self):
        spec = utility_from_json({"name": "overflow", "dimension": 2,
                                  "expr": ["mul", ["mul", ["x", 0], 1e308], 10]})
        with pytest.raises(ConfigError, match="non-finite value inf"):
            estimate_value_range(spec.batch, spec.domain)

    def test_zero_divisor_under_a_cap_answers(self):
        # 1/x0 is inf at x0 = 0, and min caps it at 5: a finite value.
        spec = utility_from_json({"name": "capped", "dimension": 1,
                                  "expr": ["min", ["div", 1, ["x", 0]], 5],
                                  "domain": {"lower": [0.0], "upper": [2.0]}})
        oracle = make_difference_oracle(spec)
        assert oracle.eps_eq == 4.500000000000001e-09
        rows = np.array([[0.0], [0.1], [0.25], [0.5], [1.0], [2.0]])
        signs = oracle.compare_batch(rows, rows[::-1], np.roll(rows, -1, axis=0), rows[[0] * 6])
        assert signs.tolist() == [1, 1, 1, 1, 1, -1]
        quads = [([0.0], [1.0], [0.5], [1.0]), ([0.0], [0.2], [0.1], [0.3]),
                 ([0.1], [0.0], [2.0], [2.0])]
        assert [oracle.compare(*map(np.array, q)) for q in quads] == [G, L, E]


# A reference evaluator of the grammar, one point at a time through the
# math module; div is IEEE division, as on numpy scalars.
_REFERENCE_OPS = {"sqrt": math.sqrt, "log": math.log, "exp": math.exp, "neg": operator.neg,
                  "add": operator.add, "sub": operator.sub, "mul": operator.mul,
                  "div": np.divide, "pow": math.pow, "min": min, "max": max}


def _reference_value(node, x):
    if not isinstance(node, list):
        return float(node)
    if node[0] == "x":
        return x[node[1]]
    return _REFERENCE_OPS[node[0]](*(_reference_value(a, x) for a in node[1:]))


# Random expression trees over every operator of the grammar, with leaves
# that reach its error paths: zero divisors, logs and square roots of
# negative values, overflowing powers and exponentials.
_leaves = st.sampled_from([["x", 0], ["x", 1], 0, 1, 2.0, -1.5, 0.3, 1e308])
_expressions = st.recursive(_leaves, lambda inner: st.one_of(
    st.tuples(st.sampled_from(["sqrt", "log", "exp", "neg"]), inner).map(list),
    st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), inner, inner).map(list),
    st.tuples(st.sampled_from(["min", "max"]),
              st.lists(inner, min_size=2, max_size=3)).map(lambda t: [t[0], *t[1]])),
    max_leaves=8)


def _grammar_points(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    special = rng.choice([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 700.0], (n, 2))
    return np.where(rng.random((n, 2)) < 0.5, special, rng.uniform(-3.0, 10.0, (n, 2)))


class TestBatchExpressions:
    @settings(max_examples=150, deadline=None)
    @given(_expressions)
    def test_batch_matches_evaluator_row_by_row(self, expr):
        # The array function raises exactly when some row of the reference
        # does, and otherwise gives its values bit for bit.
        batch = parse_expression(expr, 2)
        points = _grammar_points(64, 1)
        with np.errstate(all="ignore"):
            try:
                got = batch(points)
            except (ValueError, ArithmeticError):
                got = None
            try:
                expected = np.array([_reference_value(expr, p) for p in points], dtype=float)
            except (ValueError, ArithmeticError):
                expected = None
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.shape == (64,)
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_expressions)
    def test_batch_comparator_answers_or_fails_like_compare(self, expr):
        spec = utility_from_json({"name": "random", "dimension": 2, "expr": expr,
                                  "domain": {"lower": [-3.0, -3.0], "upper": [10.0, 10.0]}})
        oracle = make_difference_oracle(spec, eps_eq=1e-9)
        quad = [_grammar_points(32, seed) for seed in range(4)]
        with np.errstate(all="ignore"):
            try:
                expected = [oracle.compare(*row).sign for row in zip(*quad)]
            except ConfigError as bad:
                with pytest.raises(ConfigError) as batched:
                    oracle.compare_batch(*quad)
                assert str(batched.value) == str(bad)
                return
            assert oracle.compare_batch(*quad).tolist() == expected

    def test_json_oracle_has_a_batch_comparator(self, tmp_path):
        path = tmp_path / "sqrt_log.json"
        path.write_text(json.dumps({"name": "sqrt_log", "dimension": 2,
                                    "expr": ["add", ["mul", 2.0, ["sqrt", ["x", 0]]],
                                             ["log", ["x", 1]]]}))
        assert oracle_by_name(str(path)).batch is not None


class TestIntensityOracle:
    @pytest.mark.parametrize("name", ["broken_crossover", "constant"])
    def test_batch_comparator_matches_compare(self, name):
        oracle = oracle_by_name(name)
        rng = np.random.default_rng(3)
        quad = [np.array([oracle.domain.sample(rng) for _ in range(400)]) for _ in range(4)]
        quad[2][:100], quad[3][:100] = quad[0][:100], quad[1][:100]
        assert oracle.batch is not None
        assert oracle.compare_batch(*quad).tolist() == \
            [oracle.compare(*row).sign for row in zip(*quad)]

    def test_broken_crossover_pattern(self):
        """The frozen counterexample: premise [4,1]=[2,0] holds yet the
        exchanged brackets disagree ([4,2] < [1,0])."""
        oracle = oracle_by_name("broken_crossover")
        p4, p1, p2, p0 = ([4.0], [1.0], [2.0], [0.0])
        assert oracle.compare(p4, p1, p2, p0) is E      # g=2 on both sides
        assert oracle.compare(p4, p2, p1, p0) is L      # g: 0 vs 1

    def test_broken_crossover_preserves_order(self):
        oracle = oracle_by_name("broken_crossover")
        assert oracle.prefers([4.0], [1.0])            # g(4,1)=2 > g(1,1)=-1

    def test_difference_intensity_reduction(self):
        """g(x,y) = u(x) - u(y) wrapped as a raw intensity oracle gives the
        same answers as the difference oracle."""
        spec = utility_by_name("cobb_douglas")
        diff = make_difference_oracle(spec)
        from altkit.fixtures import IntensitySpec
        ispec = IntensitySpec("reduced", 2,
                              lambda x, y: spec(x) - spec(y), spec.domain)
        reduced = make_intensity_oracle(ispec)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            q = [spec.domain.sample(rng) for _ in range(4)]
            assert diff.compare(*q) is reduced.compare(*q)

    def test_constant_oracle_everything_equal(self):
        oracle = oracle_by_name("constant")
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = [oracle.domain.sample(rng) for _ in range(4)]
            assert oracle.compare(*q) is E


class TestResolution:
    def test_by_name_finds_both_kinds(self):
        assert oracle_by_name("linear").name == "diff:linear"
        assert oracle_by_name("constant").name == "intensity:constant"

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(ConfigError, match="known fixtures"):
            oracle_by_name("no_such_fixture")

    def test_intensity_by_name_missing(self):
        with pytest.raises(KeyError):
            intensity_by_name("linear")

    def test_resolves_json_file(self, tmp_path):
        doc = {"name": "quad", "dimension": 1, "expr": ["mul", ["x", 0], ["x", 0]],
               "domain": {"lower": [0.0], "upper": [2.0]}}
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(doc))
        oracle = oracle_by_name(str(path))
        assert oracle.name == "diff:quad"
        assert oracle.dim == 1


class TestExpressionGrammar:
    def test_arithmetic_tree(self):
        # sqrt(x0 * x1) evaluated at (4, 1)
        f = parse_expression(["sqrt", ["mul", ["x", 0], ["x", 1]]], 2)
        assert f(np.array([[4.0, 1.0]])).tolist() == [2.0]

    def test_constants_and_binary_ops(self):
        f = parse_expression(["add", ["pow", ["x", 0], 2], 1.5], 1)
        assert f(np.array([[3.0], [1.0]])).tolist() == [10.5, 2.5]

    def test_variadic_min(self):
        f = parse_expression(["min", ["x", 0], ["x", 1], 5], 2)
        assert f(np.array([[7.0, 6.0]])).tolist() == [5.0]

    def test_unary_neg_and_div(self):
        f = parse_expression(["neg", ["div", 1, ["x", 0]]], 1)
        assert f(np.array([[4.0]])).tolist() == [-0.25]

    @pytest.mark.parametrize("expr,msg", [
        (["x", 0, 1], "integer index"),
        (["x", 5], "out of range"),
        (["sqrt", 1, 2], "one argument"),
        (["add", 1], "two arguments"),
        (["min", 1], "at least two"),
        (["frobnicate", 1, 2], "unknown operator"),
        ([], "malformed"),
        ("nope", "malformed"),
    ])
    def test_malformed_expressions(self, expr, msg):
        with pytest.raises(ConfigError, match=msg):
            parse_expression(expr, 2)

    def test_utility_from_json_document(self):
        spec = utility_from_json({"name": "scaled", "dimension": 2,
                                  "expr": ["mul", 0.5, ["add", ["x", 0], ["x", 1]]],
                                  "monotone": True})
        assert spec(np.array([2.0, 4.0])) == pytest.approx(3.0)
        assert spec.monotone is True
        assert spec.domain.lower.tolist() == [0.1, 0.1]  # default box

    def test_utility_from_json_missing_key(self):
        with pytest.raises(ConfigError, match="missing key"):
            utility_from_json({"name": "x", "dimension": 1})

    def test_utility_from_json_bad_dimension(self):
        with pytest.raises(ConfigError, match="dimension"):
            utility_from_json({"name": "x", "dimension": 0, "expr": 1})
