"""Built-in utility systems, comparison-oracle factories, and a small
JSON expression grammar for loading custom utilities.

Every catalog entry carries ground-truth tags (concavity, monotonicity,
continuity, smoothness) that the diagnostic pipelines are tested against.
Difference oracles compare u(x)-u(y) with u(z)-u(w); intensity oracles
wrap an arbitrary g(x,y), which is how broken fixtures are built.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .domain import BoxDomain, as_point
from .errors import ConfigError
from .oracle import AltOracle, classify, classify_many

Evaluator = Callable[[np.ndarray], float]
BatchEvaluator = Callable[[np.ndarray], np.ndarray]

# Concavity tags
CONCAVE = "concave"
STRICTLY_CONCAVE = "strictly-concave"
NON_CONCAVE = "non-concave"
UNKNOWN = "unknown"

RELATIVE_EPS = 1e-9  # dead band = RELATIVE_EPS * estimated utility range
SETUP_LATTICE_POINTS = 7 ** 4  # cap on the lattice that estimates the range


@dataclass(eq=False)
class UtilitySpec:
    """A named utility with optional analytic derivatives and ground-truth tags.

    ``batch``, when given, maps an (N, dim) array of points to the (N,)
    values of ``evaluator``, bit-identical row by row, so that an oracle
    may answer many comparisons at once without changing any answer.
    """

    name: str
    dim: int
    evaluator: Evaluator
    domain: BoxDomain
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    concavity: str = UNKNOWN
    monotone: bool | None = None
    continuous: bool | None = None
    debreu_smooth: bool | None = None
    line_smooth: bool | None = None
    batch: BatchEvaluator | None = None

    def __call__(self, x) -> float:
        return self.evaluator(x)

    def tag_dict(self) -> dict:
        return {
            "concavity": self.concavity,
            "monotone": self.monotone,
            "continuous": self.continuous,
            "debreu_smooth": self.debreu_smooth,
            "line_smooth": self.line_smooth,
        }


@dataclass(eq=False)
class IntensitySpec:
    """A named two-point intensity function g(x, y); [x,y]>=[z,w] iff g(x,y)>=g(z,w)."""

    name: str
    dim: int
    evaluator: Callable[[np.ndarray, np.ndarray], float]
    domain: BoxDomain


def _evaluator_error(bad: Exception, *points) -> ConfigError:
    where = ", ".join(str(np.asarray(p, dtype=float).tolist()) for p in points)
    return ConfigError(f"evaluator failed at {where}: {bad}")


def estimate_value_range(fn: Evaluator, box: BoxDomain) -> float:
    """Span of fn over a deterministic lattice that includes the box corners:
    7 points per axis, or in more than 4 dimensions the most points per
    axis, at least 2, that keep the lattice within SETUP_LATTICE_POINTS.

    An evaluator that raises ValueError or ArithmeticError, or returns a
    NaN or infinite value, at a lattice point raises ConfigError naming
    that point.
    """
    per_axis = 7
    while per_axis > 2 and per_axis ** box.dim > SETUP_LATTICE_POINTS:
        per_axis -= 1
    values = []
    try:
        for p in box.lattice(per_axis):
            v = fn(p)
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v}")
            values.append(v)
    except (ValueError, ArithmeticError) as bad:
        raise _evaluator_error(bad, p) from None
    span = float(max(values) - min(values))
    return max(span, 1e-12)


def _build_oracle(spec: UtilitySpec | IntensitySpec, domain: BoxDomain | None,
                  eps_eq: float | None, pairwise: bool) -> AltOracle:
    """Oracle over ``spec.evaluator``: a utility u compared by
    (u(x)-u(y)) - (u(z)-u(w)), or, when ``pairwise``, an intensity g
    compared by g(x,y) - g(z,w).  An evaluator's ValueError or
    ArithmeticError, or a non-finite difference, at set-up or in a compare,
    raises ConfigError naming the points it was evaluated at.  A utility
    with a ``batch`` evaluator gets a batch comparator with the same
    answers and the same errors."""
    kind = "intensity" if pairwise else "utility"
    box = domain or spec.domain
    if box.dim != spec.dim:
        raise ValueError(f"domain dimension {box.dim} != {kind} dimension {spec.dim}")
    f = spec.evaluator
    if eps_eq is None:
        probe = (lambda p: f(p, box.lower)) if pairwise else f
        eps_eq = RELATIVE_EPS * estimate_value_range(probe, box)

    def comparator(x, y, z, w):
        try:
            if pairwise:
                return classify(f(x, y) - f(z, w), eps_eq)
            return classify((f(x) - f(y)) - (f(z) - f(w)), eps_eq)
        except (ValueError, ArithmeticError) as bad:
            raise _evaluator_error(bad, x, y, z, w) from None

    fb = None if pairwise else spec.batch

    def batch(X, Y, Z, W):
        try:
            with np.errstate(all="ignore"):
                delta = (fb(X) - fb(Y)) - (fb(Z) - fb(W))
            if np.isfinite(delta).all():
                return classify_many(delta, eps_eq)
        except (ValueError, ArithmeticError):
            pass
        # Replay row by row: the first failing row raises the same error,
        # naming the same points, as the scalar comparator.
        return np.array([comparator(*row).sign for row in zip(X, Y, Z, W)], dtype=np.int8)

    name = f"intensity:{spec.name}" if pairwise else f"diff:{spec.name}"
    return AltOracle(spec.dim, box, comparator, eps_eq, name=name,
                     batch=None if fb is None else batch)


def make_difference_oracle(spec: UtilitySpec, domain: BoxDomain | None = None,
                           eps_eq: float | None = None) -> AltOracle:
    """Oracle comparing utility differences: sign of (u(x)-u(y)) - (u(z)-u(w))."""
    return _build_oracle(spec, domain, eps_eq, pairwise=False)


def make_intensity_oracle(spec: IntensitySpec, domain: BoxDomain | None = None,
                          eps_eq: float | None = None) -> AltOracle:
    """Oracle comparing a raw intensity function g(x,y) against g(z,w)."""
    return _build_oracle(spec, domain, eps_eq, pairwise=True)


# ----------------------------------------------------------------------------
# Catalog fixtures
# ----------------------------------------------------------------------------

def _box(lo: float, hi: float, n: int) -> BoxDomain:
    return BoxDomain([lo] * n, [hi] * n)


def _u_linear(x):      return x[0] + x[1]
def _u_cobb(x):        return math.sqrt(x[0] * x[1])
def _u_ces(x):         return (math.sqrt(x[0]) + math.sqrt(x[1])) ** 2
def _u_log_sum(x):     return math.log(x[0]) + math.log(x[1])
def _u_exp1d(x):       return math.exp(x[0])
def _u_min2(x):        return min(x[0], x[1])
def _u_step(x):        return float(math.floor(x[0]))
def _u_neg_quad(x):    return -(x[0] - 1.0) ** 2


def _u_kinked(x):
    """Concave composite with a kink in the scale: v = sqrt(x1*x2), then
    slope 1 below v=1 and slope 1/2 above it."""
    v = math.sqrt(x[0] * x[1])
    return v - 1.0 if v <= 1.0 else 0.5 * (v - 1.0)


# Batch evaluators: numpy where its result is bit-identical to the scalar
# one (+ - * /, sqrt, floor, minimum), libm through np.frompyfunc where it
# is not (numpy's log, exp and array **2 differ from math.log, math.exp and
# float pow in the last bit on some inputs).
def _libm(fn, nin: int = 1):
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: ufunc(*args).astype(float)


_log, _exp, _pow = _libm(math.log), _libm(math.exp), _libm(pow, 2)


def _b_linear(X):      return X[:, 0] + X[:, 1]
def _b_cobb(X):        return np.sqrt(X[:, 0] * X[:, 1])
def _b_ces(X):         return _pow(np.sqrt(X[:, 0]) + np.sqrt(X[:, 1]), 2)
def _b_log_sum(X):     return _log(X[:, 0]) + _log(X[:, 1])
def _b_exp1d(X):       return _exp(X[:, 0])
def _b_min2(X):        return np.minimum(X[:, 0], X[:, 1])
def _b_step(X):        return np.floor(X[:, 0])
def _b_neg_quad(X):    return -_pow(X[:, 0] - 1.0, 2)


def _b_kinked(X):
    v = np.sqrt(X[:, 0] * X[:, 1])
    return np.where(v <= 1.0, v - 1.0, 0.5 * (v - 1.0))


def _grad_linear(x):   return np.ones_like(x)
def _hess_linear(x):   return np.zeros((x.size, x.size))


def _grad_cobb(x):
    s = math.sqrt(x[0] * x[1])
    return np.array([0.5 * s / x[0], 0.5 * s / x[1]])


def _hess_cobb(x):
    s = math.sqrt(x[0] * x[1])
    return np.array([
        [-0.25 * s / x[0] ** 2, 0.25 / s],
        [0.25 / s, -0.25 * s / x[1] ** 2],
    ])


def _grad_ces(x):
    return np.array([1.0 + math.sqrt(x[1] / x[0]), 1.0 + math.sqrt(x[0] / x[1])])


def _hess_ces(x):
    s = math.sqrt(x[0] * x[1])
    return np.array([
        [-0.5 * math.sqrt(x[1]) / x[0] ** 1.5, 0.5 / s],
        [0.5 / s, -0.5 * math.sqrt(x[0]) / x[1] ** 1.5],
    ])


def _grad_log_sum(x):  return 1.0 / x


def _hess_log_sum(x):  return np.diag(-1.0 / x ** 2)


def _grad_exp1d(x):    return np.array([math.exp(x[0])])


def _hess_exp1d(x):    return np.array([[math.exp(x[0])]])


def catalog() -> list[UtilitySpec]:
    """Built-in utilities with ground-truth tags.

    Smoothness tags: ``debreu_smooth`` marks smooth indifference sets;
    ``line_smooth`` marks a vanishing diagonal intensity-midpoint quotient.
    The kinked composite and the coordinate minimum realize the two
    off-diagonal cells of that 2x2 matrix.
    """
    return [
        UtilitySpec("linear", 2, _u_linear, _box(0.1, 10, 2),
                    batch=_b_linear,
                    gradient=_grad_linear, hessian=_hess_linear,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("cobb_douglas", 2, _u_cobb, _box(0.1, 10, 2),
                    batch=_b_cobb,
                    gradient=_grad_cobb, hessian=_hess_cobb,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("ces", 2, _u_ces, _box(0.1, 10, 2),
                    batch=_b_ces,
                    gradient=_grad_ces, hessian=_hess_ces,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("log_sum", 2, _u_log_sum, _box(0.1, 10, 2),
                    batch=_b_log_sum,
                    gradient=_grad_log_sum, hessian=_hess_log_sum,
                    concavity=STRICTLY_CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("exp1d", 1, _u_exp1d, _box(0.0, 1.0, 1),
                    batch=_b_exp1d,
                    gradient=_grad_exp1d, hessian=_hess_exp1d,
                    concavity=NON_CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("kinked_composite", 2, _u_kinked, _box(0.01, 4.0, 2),
                    batch=_b_kinked,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=False),
        UtilitySpec("min2", 2, _u_min2, _box(0.1, 10, 2),
                    batch=_b_min2,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=False, line_smooth=True),
        UtilitySpec("neg_quadratic", 1, _u_neg_quad, _box(0.0, 2.0, 1),
                    batch=_b_neg_quad,
                    concavity=STRICTLY_CONCAVE, monotone=False, continuous=True),
        UtilitySpec("step", 1, _u_step, _box(0.0, 3.0, 1),
                    batch=_b_step,
                    concavity=NON_CONCAVE, monotone=False, continuous=False),
    ]


def _g_broken_crossover(x, y):
    # Re-weighted difference: orders pairs consistently but breaks the
    # crossover exchange of inner points.
    return x[0] - 2.0 * y[0]


def _g_constant(x, y):
    return 0.0


def intensity_catalog() -> list[IntensitySpec]:
    """Negative fixtures expressed directly as intensity functions."""
    return [
        IntensitySpec("broken_crossover", 1, _g_broken_crossover, _box(0.0, 10.0, 1)),
        IntensitySpec("constant", 1, _g_constant, _box(0.0, 1.0, 1)),
    ]


def utility_by_name(name: str) -> UtilitySpec:
    for spec in catalog():
        if spec.name == name:
            return spec
    raise KeyError(name)


def intensity_by_name(name: str) -> IntensitySpec:
    for spec in intensity_catalog():
        if spec.name == name:
            return spec
    raise KeyError(name)


def oracle_by_name(name: str, domain: BoxDomain | None = None,
                   eps_eq: float | None = None) -> AltOracle:
    """Resolve a catalog name (or a JSON utility file path) to an oracle."""
    try:
        return make_difference_oracle(utility_by_name(name), domain, eps_eq)
    except KeyError:
        pass
    try:
        return make_intensity_oracle(intensity_by_name(name), domain, eps_eq)
    except KeyError:
        pass
    path = Path(name)
    if path.is_file():
        return make_difference_oracle(utility_from_json(path), domain, eps_eq)
    known = [s.name for s in catalog()] + [s.name for s in intensity_catalog()]
    raise ConfigError(f"unknown oracle {name!r}; known fixtures: {', '.join(known)}")


# ----------------------------------------------------------------------------
# JSON expression grammar
# ----------------------------------------------------------------------------

_UNARY_OPS = {"sqrt": math.sqrt, "log": math.log, "exp": math.exp, "neg": operator.neg}
_BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": operator.truediv, "pow": math.pow}
_VARIADIC_OPS = {"min": min, "max": max}


def parse_expression(node, dim: int) -> Evaluator:
    """Compile an expression tree to an evaluator.

    Grammar: a number is a constant; ``["x", i]`` is coordinate i; every
    other list is ``[op, arg, ...]`` with op drawn from add/sub/mul/div/pow
    (binary), sqrt/log/exp/neg (unary), min/max (2+ args).  ``pow`` is
    ``math.pow``, which raises ValueError where the power is not real.
    """
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        c = float(node)
        return lambda x: c
    if not isinstance(node, list) or not node:
        raise ConfigError(f"malformed expression node: {node!r}")
    op = node[0]
    if op == "x":
        if len(node) != 2 or not isinstance(node[1], int):
            raise ConfigError(f"coordinate reference needs one integer index: {node!r}")
        i = node[1]
        if not 0 <= i < dim:
            raise ConfigError(f"coordinate index {i} out of range for dimension {dim}")
        return lambda x: x[i]
    args = [parse_expression(a, dim) for a in node[1:]]
    if op in _UNARY_OPS:
        if len(args) != 1:
            raise ConfigError(f"{op} takes exactly one argument")
        fn, (a,) = _UNARY_OPS[op], args
        return lambda x: fn(a(x))
    if op in _BINARY_OPS:
        if len(args) != 2:
            raise ConfigError(f"{op} takes exactly two arguments")
        fn, (a, b) = _BINARY_OPS[op], args
        return lambda x: fn(a(x), b(x))
    if op in _VARIADIC_OPS:
        if len(args) < 2:
            raise ConfigError(f"{op} takes at least two arguments")
        fn = _VARIADIC_OPS[op]
        return lambda x: fn(e(x) for e in args)
    raise ConfigError(f"unknown operator {op!r}")


def utility_from_json(source) -> UtilitySpec:
    """Load a UtilitySpec from a JSON document (path, str, or dict).

    Required keys: ``name``, ``dimension``, ``expr``.  Optional: ``domain``
    ({"lower": [...], "upper": [...]}) and ground-truth tag keys.
    """
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        doc = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = dict(source)
    try:
        name = doc["name"]
        dim = int(doc["dimension"])
        expr = doc["expr"]
    except KeyError as missing:
        raise ConfigError(f"utility JSON missing key {missing}") from None
    if dim < 1:
        raise ConfigError("dimension must be >= 1")
    evaluator = parse_expression(expr, dim)
    if "domain" in doc:
        box = BoxDomain(as_point(doc["domain"]["lower"], dim),
                        as_point(doc["domain"]["upper"], dim))
    else:
        box = _box(0.1, 10.0, dim)
    return UtilitySpec(
        name, dim, evaluator, box,
        concavity=doc.get("concavity", UNKNOWN),
        monotone=doc.get("monotone"),
        continuous=doc.get("continuous"),
        debreu_smooth=doc.get("debreu_smooth"),
        line_smooth=doc.get("line_smooth"),
    )
