"""Built-in utility systems, comparison-oracle factories, and a small
JSON expression grammar for loading custom utilities.

Each utility u and intensity g is defined once, as an array function:
an (N, dim) array of points (two of them for g) to N values.  Its value
at one point is row 0 of that function, and an oracle's compare is its
batch comparison on one-row views.

Every catalog entry carries ground-truth tags (concavity, monotonicity,
continuity, smoothness) that the diagnostic pipelines are tested against.
Difference oracles compare u(x)-u(y) with u(z)-u(w); intensity oracles
wrap an arbitrary g(x,y), which is how broken fixtures are built.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .domain import BoxDomain, as_point
from .errors import ConfigError
from .oracle import AltOracle, classify, classify_many, gather
from .sampling import uniforms

Evaluator = Callable[[np.ndarray], float]
BatchEvaluator = Callable[[np.ndarray], np.ndarray]

# Concavity tags
CONCAVE = "concave"
STRICTLY_CONCAVE = "strictly-concave"
NON_CONCAVE = "non-concave"
UNKNOWN = "unknown"

RELATIVE_EPS = 1e-9  # dead band = RELATIVE_EPS * estimated utility range
SETUP_LATTICE_POINTS = 7 ** 4  # cap on the points that estimate the range
# Each level of a JSON expression costs up to two Python frames when it is
# parsed or valued, so this cap keeps a compare made from the deepest
# lockstep solve well inside Python's default recursion limit of 1000.
MAX_EXPRESSION_DEPTH = 256


def _row(point) -> np.ndarray:
    return np.asarray(point, dtype=float).reshape(1, -1)


def _one_definition(evaluator, batch):
    """Complete a spec from its ``batch``, which it must have: without
    ``evaluator``, the evaluator is row 0 of ``batch``."""
    if batch is None:
        raise ValueError("a spec needs a batch")
    if evaluator is None:
        def evaluator(*points):
            return float(batch(*map(_row, points))[0])
    return evaluator, batch


@dataclass(eq=False)
class UtilitySpec:
    """A named utility with ground-truth tags.

    ``batch`` defines the utility: it maps an (N, dim) array of points to
    their (N,) values, and every spec must give it.  ``evaluator``, the
    value at one point, is row 0 of ``batch`` unless given.  Oracles use
    ``batch`` alone.
    """

    name: str
    dim: int
    evaluator: Evaluator | None
    domain: BoxDomain
    concavity: str = UNKNOWN
    monotone: bool | None = None
    continuous: bool | None = None
    debreu_smooth: bool | None = None
    line_smooth: bool | None = None
    batch: BatchEvaluator | None = None

    def __post_init__(self) -> None:
        self.evaluator, self.batch = _one_definition(self.evaluator, self.batch)

    def __call__(self, x) -> float:
        return self.evaluator(x)

    def evaluate_many(self, xs) -> np.ndarray:
        """Values at the rows of an (N, dim) array of points."""
        return self.batch(np.asarray(xs, dtype=float).reshape(-1, self.dim))

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
    """A named two-point intensity function g(x, y); [x,y]>=[z,w] iff g(x,y)>=g(z,w).

    ``batch`` maps two (N, dim) arrays to the (N,) values of g row by row,
    and ``evaluator`` is its row 0, completed as ``UtilitySpec`` does.
    """

    name: str
    dim: int
    evaluator: Callable[[np.ndarray, np.ndarray], float] | None
    domain: BoxDomain
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.evaluator, self.batch = _one_definition(self.evaluator, self.batch)


def _finite(fn, arrays, what: str) -> np.ndarray:
    """``fn(*arrays)``, every value finite.  A call that raises ValueError
    or ArithmeticError, or gives a NaN or infinite value, is replayed row
    by row on one-row views, and the first bad row raises ConfigError
    naming its points."""
    try:
        with np.errstate(all="ignore"):
            values = fn(*arrays)
        if np.isfinite(values).all():
            return values
    except (ValueError, ArithmeticError):
        pass
    values = np.empty(len(arrays[0]))
    for k, row in enumerate(zip(*arrays)):
        try:
            with np.errstate(all="ignore"):
                values[k] = fn(*(r[None] for r in row))[0]
            if not math.isfinite(values[k]):
                raise ValueError(f"{what} {values[k]}")
        except (ValueError, ArithmeticError) as bad:
            where = ", ".join(str(r.tolist()) for r in row)
            raise ConfigError(f"evaluator failed at {where}: {bad}") from None
    return values


def estimate_value_range(fn: BatchEvaluator, box: BoxDomain) -> float:
    """Span of the array function fn over at most SETUP_LATTICE_POINTS
    fixed points that include the lower and upper corners of the box: a
    lattice of 7 points per axis, or in more than 4 dimensions the most
    points per axis that keep it within the cap.  Past 11 dimensions not
    even the 2**dim corners fit, and the points are the diagonal of the
    7-per-axis lattice and then corners from a fixed stream (seed 0, one
    trial a corner, each axis at its upper end where its uniform is at
    least 1/2).  The points are valued in one call.

    A function that raises ValueError or ArithmeticError, or gives a NaN
    or infinite value, at one of the points raises ConfigError naming the
    first such point.
    """
    per_axis = 7
    while per_axis > 2 and per_axis ** box.dim > SETUP_LATTICE_POINTS:
        per_axis -= 1
    if per_axis ** box.dim <= SETUP_LATTICE_POINTS:
        points = box.lattice(per_axis)
    else:
        upper = uniforms(0, SETUP_LATTICE_POINTS - 7, box.dim) >= 0.5
        points = np.concatenate([np.linspace(box.lower, box.upper, 7),
                                 np.where(upper, box.upper, box.lower)])
    values = _finite(fn, (points,), "non-finite value")
    return max(float(values.max() - values.min()), 1e-12)


def _or_nan(fn, points: np.ndarray) -> np.ndarray:
    """``fn(points)``, or, when that raises ValueError or ArithmeticError,
    its rows valued one by one, NaN where a row raises."""
    try:
        return fn(points)
    except (ValueError, ArithmeticError):
        if len(points) == 1:
            return np.full(1, np.nan)
        return np.concatenate([_or_nan(fn, p[None]) for p in points])


def _per_object(fn, args) -> list:
    """``[fn(a) for a in args]``, calling fn once per distinct object."""
    seen: dict = {}
    return [seen[id(a)] if id(a) in seen else seen.setdefault(id(a), fn(a)) for a in args]


def _build_oracle(spec: UtilitySpec | IntensitySpec, domain: BoxDomain | None,
                  eps_eq: float | None, pairwise: bool) -> AltOracle:
    """Oracle over ``spec.batch``: a utility u compared by
    (u(x)-u(y)) - (u(z)-u(w)), or, when ``pairwise``, an intensity g
    compared by g(x,y) - g(z,w).  The batch comparator classifies that
    difference row by row; ``compare`` is the same on one-row views.

    A utility compare values each distinct argument array once: arguments
    that are the same object (``compare_batch(P, X, X, X)``, or
    ``compare(x, y, y, y)``, which ``prefers`` asks) share one call of u.
    ``compare_rows`` values a ``Held``'s points whole the first time it
    is asked and keeps the values in the ``Held``, NaN for a point whose
    value raises; each call values its fresh points once, whichever
    arguments hold them, and gathers each argument's values with one
    ``take`` from the held and fresh values stacked, as its index names
    the rows.  u is a deterministic row-wise function, so the answers
    are those of four separate calls, bit for bit.

    An evaluator's ValueError or ArithmeticError, or a non-finite
    difference, at set-up or in a compare, raises ConfigError naming the
    points of the first bad row; a held point that no compare asks stops
    nothing."""
    kind = "intensity" if pairwise else "utility"
    box = domain or spec.domain
    if box.dim != spec.dim:
        raise ConfigError(f"domain dimension {box.dim} != {kind} dimension {spec.dim}")
    f = spec.batch
    if eps_eq is None:
        probe = (lambda P: f(P, np.broadcast_to(box.lower, P.shape))) if pairwise else f
        eps_eq = RELATIVE_EPS * estimate_value_range(probe, box)

    def delta(X, Y, Z, W):
        if pairwise:
            return f(X, Y) - f(Z, W)
        u_x, u_y, u_z, u_w = _per_object(f, (X, Y, Z, W))
        return (u_x - u_y) - (u_z - u_w)

    def batch(*arrays):
        return classify_many(_finite(delta, arrays, "non-finite intensity difference"), eps_eq)

    def comparator(*points):
        rows = _per_object(_row, points)
        return classify(_finite(delta, rows, "non-finite intensity difference")[0], eps_eq)

    def indexed(held, index, fresh):
        try:
            with np.errstate(all="ignore"):
                if held.values is None:
                    held.values = _or_nan(f, held.points)
                u_fresh = None if fresh is None else f(fresh)
                values = held.values if fresh is None else np.concatenate((held.values, u_fresh))
                u_x, u_y, u_z, u_w = _per_object(
                    lambda i: u_fresh if i is None else values.take(i), index)
                d = (u_x - u_y) - (u_z - u_w)
            if np.isfinite(d).all():
                return classify_many(d, eps_eq)
        except (ValueError, ArithmeticError):
            pass
        return batch(*gather(held.points, index, fresh))   # raises, naming the bad row

    name = f"intensity:{spec.name}" if pairwise else f"diff:{spec.name}"
    return AltOracle(spec.dim, box, comparator, eps_eq, name=name, batch=batch,
                     rows=None if pairwise else indexed)


def make_difference_oracle(spec: UtilitySpec, domain: BoxDomain | None = None,
                           eps_eq: float | None = None) -> AltOracle:
    """Oracle comparing utility differences: sign of (u(x)-u(y)) - (u(z)-u(w))."""
    return _build_oracle(spec, domain, eps_eq, pairwise=False)


def make_intensity_oracle(spec: IntensitySpec, domain: BoxDomain | None = None,
                          eps_eq: float | None = None) -> AltOracle:
    """Oracle comparing a raw intensity function g(x,y) against g(z,w)."""
    return _build_oracle(spec, domain, eps_eq, pairwise=True)


def evaluate_points(u_fn, points) -> np.ndarray:
    """Values of ``u_fn`` at the rows of ``points``: one ``evaluate_many``
    call when the function has one, else one call per point."""
    many = getattr(u_fn, "evaluate_many", None)
    return many(points) if many else np.array([u_fn(p) for p in points], dtype=float)


# ----------------------------------------------------------------------------
# Catalog fixtures
# ----------------------------------------------------------------------------

def _box(lo: float, hi: float, n: int) -> BoxDomain:
    return BoxDomain([lo] * n, [hi] * n)


# libm through np.frompyfunc.  numpy's log, exp and power pick their code
# from the CPU at run time (NEP 38), and its AVX-512 code differs from
# libm in the last bit on some inputs; a report that holds a raw value,
# such as an alep estimate, would then depend on the host.  Squares and
# square roots are exact in IEEE arithmetic, so the catalog uses numpy's.
def _libm(fn, nin: int = 1):
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: ufunc(*args).astype(float)


_log, _exp = _libm(math.log), _libm(math.exp)


def _linear(X):      return X[:, 0] + X[:, 1]
def _cobb(X):        return np.sqrt(X[:, 0] * X[:, 1])
def _ces(X):         return np.square(np.sqrt(X[:, 0]) + np.sqrt(X[:, 1]))
def _log_sum(X):     return _log(X[:, 0]) + _log(X[:, 1])
def _exp1d(X):       return _exp(X[:, 0])
def _min2(X):        return np.minimum(X[:, 0], X[:, 1])
def _step(X):        return np.floor(X[:, 0])
def _neg_quad(X):    return -np.square(X[:, 0] - 1.0)


def _kinked(X):
    """Concave composite with a kink in the scale: v = sqrt(x1*x2), then
    slope 1 below v=1 and slope 1/2 above it."""
    v = np.sqrt(X[:, 0] * X[:, 1])
    return np.where(v <= 1.0, v - 1.0, 0.5 * (v - 1.0))


def catalog() -> list[UtilitySpec]:
    """Built-in utilities with ground-truth tags.

    Smoothness tags: ``debreu_smooth`` marks smooth indifference sets;
    ``line_smooth`` marks a vanishing diagonal intensity-midpoint quotient.
    The kinked composite and the coordinate minimum realize the two
    off-diagonal cells of that 2x2 matrix.
    """
    return [
        UtilitySpec("linear", 2, None, _box(0.1, 10, 2), batch=_linear,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("cobb_douglas", 2, None, _box(0.1, 10, 2), batch=_cobb,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("ces", 2, None, _box(0.1, 10, 2), batch=_ces,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("log_sum", 2, None, _box(0.1, 10, 2), batch=_log_sum,
                    concavity=STRICTLY_CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("exp1d", 1, None, _box(0.0, 1.0, 1), batch=_exp1d,
                    concavity=NON_CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=True),
        UtilitySpec("kinked_composite", 2, None, _box(0.01, 4.0, 2), batch=_kinked,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=True, line_smooth=False),
        UtilitySpec("min2", 2, None, _box(0.1, 10, 2), batch=_min2,
                    concavity=CONCAVE, monotone=True, continuous=True,
                    debreu_smooth=False, line_smooth=True),
        UtilitySpec("neg_quadratic", 1, None, _box(0.0, 2.0, 1), batch=_neg_quad,
                    concavity=STRICTLY_CONCAVE, monotone=False, continuous=True),
        UtilitySpec("step", 1, None, _box(0.0, 3.0, 1), batch=_step,
                    concavity=NON_CONCAVE, monotone=False, continuous=False),
    ]


def _broken_crossover(X, Y):
    # Re-weighted difference: orders pairs consistently but breaks the
    # crossover exchange of inner points.
    return X[:, 0] - 2.0 * Y[:, 0]


def _constant(X, Y):   return np.zeros(len(X))


def intensity_catalog() -> list[IntensitySpec]:
    """Negative fixtures expressed directly as intensity functions."""
    return [
        IntensitySpec("broken_crossover", 1, None, _box(0.0, 10.0, 1),
                      batch=_broken_crossover),
        IntensitySpec("constant", 1, None, _box(0.0, 1.0, 1), batch=_constant),
    ]


def utility_by_name(name: str) -> UtilitySpec:
    return {spec.name: spec for spec in catalog()}[name]


def intensity_by_name(name: str) -> IntensitySpec:
    return {spec.name: spec for spec in intensity_catalog()}[name]


def spec_by_name(name: str) -> UtilitySpec | IntensitySpec | None:
    """The utility, else intensity fixture, else JSON utility file ``name``, or None."""
    for by_name in (utility_by_name, intensity_by_name):
        try:
            return by_name(name)
        except KeyError:
            pass
    path = Path(name)
    return utility_from_json(path) if path.is_file() else None


def oracle_by_name(name: str, domain: BoxDomain | None = None,
                   eps_eq: float | None = None) -> AltOracle:
    """Resolve a catalog name (or a JSON utility file path) to an oracle."""
    spec = spec_by_name(name)
    if spec is None:
        known = [s.name for s in catalog()] + [s.name for s in intensity_catalog()]
        raise ConfigError(f"unknown oracle {name!r}; known fixtures: {', '.join(known)}")
    make = make_difference_oracle if isinstance(spec, UtilitySpec) else make_intensity_oracle
    return make(spec, domain, eps_eq)


# ----------------------------------------------------------------------------
# JSON expression grammar
# ----------------------------------------------------------------------------

def _running(better):
    """Python's min (``better`` = less) or max over arrays, row by row: a
    later value replaces the running one only where ``better`` holds, which
    keeps or skips a NaN exactly as Python does."""
    def fold(first, *rest):
        out = first
        for v in rest:
            out = np.where(better(v, out), v, out)
        return out
    return fold


def _sqrt(X):
    if (X < 0).any():
        raise ValueError("math domain error")
    return np.sqrt(X)


# name: (function over arrays, number of arguments; None for two or more)
_OPS = {"sqrt": (_sqrt, 1), "log": (_log, 1), "exp": (_exp, 1),
        "neg": (np.negative, 1), "add": (np.add, 2), "sub": (np.subtract, 2),
        "mul": (np.multiply, 2), "div": (np.divide, 2), "pow": (_libm(math.pow, 2), 2),
        "min": (_running(np.less), None), "max": (_running(np.greater), None)}


def parse_expression(node, dim: int) -> BatchEvaluator:
    """Compile an expression tree to an array function: an (N, dim) array
    of points to their (N,) values.

    Grammar: a number is a constant; ``["x", i]`` is coordinate i; every
    other list is ``[op, arg, ...]`` with op drawn from add/sub/mul/div/pow
    (binary), sqrt/log/exp/neg (unary), min/max (2+ args).  ``div`` is IEEE
    division, so a zero divisor gives an infinite or NaN value, which the
    oracle rejects where it reaches a compared value.  ``sqrt`` is numpy's,
    correctly rounded as IEEE requires and so math.sqrt's bit for bit, and
    ``log``, ``exp`` and ``pow`` are the math module's, one element at a
    time, libm's whatever numpy's CPU dispatch; all raise as the math module
    does, e.g. ValueError on a negative square root or where the power is
    not real, so no such NaN reaches a min or max.  ``tests/test_dispatch.py``
    holds the golden reports with numpy's AVX2 or AVX-512 code disabled and
    under each OpenBLAS kernel.  A list nested more than
    ``MAX_EXPRESSION_DEPTH`` deep raises ConfigError.
    """
    def build(node, depth: int) -> BatchEvaluator:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            c = float(node)
            return lambda X: np.full(len(X), c)
        if not isinstance(node, list) or not node:
            raise ConfigError(f"malformed expression node: {node!r}")
        if depth > MAX_EXPRESSION_DEPTH:
            raise ConfigError(f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels")
        op = node[0]
        if op == "x":
            if len(node) != 2 or type(node[1]) is not int:
                raise ConfigError(f"coordinate reference needs one integer index: {node!r}")
            i = node[1]
            if not 0 <= i < dim:
                raise ConfigError(f"coordinate index {i} out of range for dimension {dim}")
            return lambda X: X[:, i]
        args = [build(a, depth + 1) for a in node[1:]]
        if not isinstance(op, str) or op not in _OPS:
            raise ConfigError(f"unknown operator {op!r}")
        fn, arity = _OPS[op]
        if arity is None and len(args) < 2:
            raise ConfigError(f"{op} takes at least two arguments")
        if arity is not None and len(args) != arity:
            raise ConfigError(f"{op} takes exactly {('one argument', 'two arguments')[arity - 1]}")
        return lambda X: fn(*[a(X) for a in args])
    return build(node, 1)


def utility_from_json(source) -> UtilitySpec:
    """Load a UtilitySpec from a JSON document (path, str, or dict).

    Required keys: ``name``, ``dimension``, ``expr``.  Optional: ``domain``
    ({"lower": [...], "upper": [...]}) and ground-truth tag keys.  Any
    other document, or one that cannot be read, raises ConfigError.
    """
    if isinstance(source, (str, Path)):
        text = str(source)
        try:
            doc = json.loads(text if text.lstrip().startswith("{") else Path(text).read_text())
        except (OSError, ValueError, RecursionError) as bad:  # not UTF-8, not JSON, too deep
            raise ConfigError(f"cannot read utility JSON {text[:80]!r}: {bad}") from None
    else:
        doc = dict(source)
    if not isinstance(doc, dict):
        raise ConfigError("utility JSON must be an object")
    try:
        name, dim, expr = doc["name"], doc["dimension"], doc["expr"]
    except KeyError as missing:
        raise ConfigError(f"utility JSON missing key {missing}") from None
    if type(dim) is not int or dim < 1:
        raise ConfigError(f"dimension must be an integer >= 1, got {dim!r}")
    batch = parse_expression(expr, dim)
    try:
        box = (BoxDomain(*(as_point(doc["domain"][end], dim) for end in ("lower", "upper")))
               if "domain" in doc else _box(0.1, 10.0, dim))
    except (KeyError, TypeError, ValueError) as bad:
        raise ConfigError(f"utility JSON domain: {bad}") from None
    return UtilitySpec(
        name, dim, None, box, batch=batch,
        concavity=doc.get("concavity", UNKNOWN),
        monotone=doc.get("monotone"),
        continuous=doc.get("continuous"),
        debreu_smooth=doc.get("debreu_smooth"),
        line_smooth=doc.get("line_smooth"),
    )
