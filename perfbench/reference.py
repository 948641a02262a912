"""Expected answers for the benchmark's output checks, from closed forms.

This module imports nothing from altkit.  Every expected value the checks
use is computed here from the closed form of a utility (or of the
``broken_crossover`` intensity g), so a wrong answer from altkit cannot
leak into its own yardstick.  Run ``python3 perfbench/reference.py`` to
print the tables the README quotes.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

# altkit documents its equality dead band as 1e-9 times the utility's range
# over the box (the intensity's range for g(., lower)); the checks re-derive
# it from the closed form with that factor.
RELATIVE_EPS = 1e-9

# Reconstruction settings shared by the workloads and the expectations.
ANCHORS = (0.25, 0.75)
SECOND_ANCHORS = (0.1, 0.9)


@dataclass(frozen=True)
class Utility:
    """A closed-form utility on a box, with what the checks derive from it."""

    name: str
    u: Callable[[Sequence[float]], float]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    continuous: bool = True
    # d2u/dx0dx1 and |u_xxxy| + |u_xyyy| (the O(h^2) term of the stencil).
    cross_partial: Callable[[Sequence[float]], float] | None = None
    cross_fourth: Callable[[Sequence[float]], float] | None = None
    # a(x): the diagonal scale c with u(c, ..., c) = u(x).
    calibration: Callable[[Sequence[float]], float] | None = None

    @property
    def dim(self) -> int:
        return len(self.lower)


def _kinked(x):
    v = math.sqrt(x[0] * x[1])
    return v - 1.0 if v <= 1.0 else 0.5 * (v - 1.0)


def _sqrt_prod(x):
    return math.sqrt(x[0] * x[1])


def _zero(_x):
    return 0.0


_SQ = ((0.1, 0.1), (10.0, 10.0))

UTILITIES: dict[str, Utility] = {u.name: u for u in [
    Utility("linear", lambda x: x[0] + x[1], *_SQ,
            cross_partial=_zero, cross_fourth=_zero),
    Utility("cobb_douglas", _sqrt_prod, *_SQ,
            cross_partial=lambda x: 0.25 / math.sqrt(x[0] * x[1]),
            cross_fourth=lambda x: (3.0 / 16.0) * (x[0] ** -2.5 * x[1] ** -0.5
                                                    + x[0] ** -0.5 * x[1] ** -2.5),
            calibration=_sqrt_prod),
    Utility("ces", lambda x: (math.sqrt(x[0]) + math.sqrt(x[1])) ** 2, *_SQ),
    Utility("log_sum", lambda x: math.log(x[0]) + math.log(x[1]), *_SQ,
            cross_partial=_zero, cross_fourth=_zero),
    Utility("exp1d", lambda x: math.exp(x[0]), (0.0,), (1.0,)),
    Utility("kinked_composite", _kinked, (0.01, 0.01), (4.0, 4.0),
            calibration=_sqrt_prod),
    Utility("min2", lambda x: min(x[0], x[1]), *_SQ,
            calibration=lambda x: min(x[0], x[1])),
    Utility("neg_quadratic", lambda x: -(x[0] - 1.0) ** 2, (0.0,), (2.0,)),
    Utility("step", lambda x: float(math.floor(x[0])), (0.0,), (3.0,),
            continuous=False),
    # JSON-grammar utilities kept in perfbench/inputs/.
    Utility("sqrt_log", lambda x: 2.0 * math.sqrt(x[0]) + math.log(x[1]), *_SQ),
    Utility("bilinear", lambda x: -0.5 * x[0] * x[1], *_SQ,
            cross_partial=lambda x: -0.5, cross_fourth=_zero),
]}

CATALOG_UTILITIES = ("linear", "cobb_douglas", "ces", "log_sum", "exp1d",
                     "kinked_composite", "min2", "neg_quadratic", "step")


def broken_crossover_g(x, y) -> float:
    """Intensity of the ``broken_crossover`` fixture: g(x, y) = x0 - 2*y0."""
    return x[0] - 2.0 * y[0]


BROKEN_CROSSOVER_BOX = ((0.0,), (10.0,))


# ----------------------------------------------------------------------------
# Derived quantities
# ----------------------------------------------------------------------------

def lattice(lower, upper, per_axis: int) -> list[tuple[float, ...]]:
    """Row-major lattice with ``per_axis`` evenly spaced values per axis."""
    axes = [[lo + (hi - lo) * k / (per_axis - 1) for k in range(per_axis)]
            for lo, hi in zip(lower, upper)]
    return list(itertools.product(*axes))


def value_span(fn: Callable, lower, upper) -> float:
    """max - min of ``fn`` on a 101-point-per-axis lattice.  The lattice
    holds every extremum of the forms above (box corners, and x0 = 1 for
    neg_quadratic), so this is their exact range."""
    values = [fn(p) for p in lattice(lower, upper, 101)]
    return max(values) - min(values)


@functools.lru_cache(maxsize=None)
def dead_band(name: str) -> float:
    """Equality dead band of the difference oracle of utility ``name``."""
    util = UTILITIES[name]
    return RELATIVE_EPS * value_span(util.u, util.lower, util.upper)


def broken_crossover_dead_band() -> float:
    lower, upper = BROKEN_CROSSOVER_BOX
    return RELATIVE_EPS * value_span(lambda p: broken_crossover_g(p, lower), lower, upper)


@functools.lru_cache(maxsize=None)
def strictly_increasing(name: str, per_axis: int = 17) -> bool:
    """True when every lattice pair q > p (strictly, on every axis) has
    u(q) > u(p): the closed-form reading of the monotonicity axiom."""
    util = UTILITIES[name]
    points = lattice(util.lower, util.upper, per_axis)
    values = [util.u(p) for p in points]
    for p, up in zip(points, values):
        for q, uq in zip(points, values):
            if all(qi > pi for qi, pi in zip(q, p)) and not uq > up:
                return False
    return True


def diagonal(name: str, t: float) -> tuple[float, ...]:
    """Point at parameter t on the box diagonal, lower corner to upper corner."""
    util = UTILITIES[name]
    return tuple(lo + t * (hi - lo) for lo, hi in zip(util.lower, util.upper))


def normalised(name: str, p, anchors=ANCHORS) -> float:
    """(u(p) - u(y*)) / (u(x*) - u(y*)) with the anchors on the diagonal."""
    u = UTILITIES[name].u
    lo, hi = u(diagonal(name, anchors[0])), u(diagonal(name, anchors[1]))
    return (u(p) - lo) / (hi - lo)


def reconstruction_range(name: str, anchors=ANCHORS) -> tuple[float, float]:
    """Normalised values of the segment ends, where a reconstruction clips."""
    return (normalised(name, diagonal(name, 0.0), anchors),
            normalised(name, diagonal(name, 1.0), anchors))


def affine_constants(name: str, a=ANCHORS, b=SECOND_ANCHORS) -> tuple[float, float]:
    """(alpha, beta) with u_b = alpha * u_a + beta for two anchor pairs."""
    u = UTILITIES[name].u
    ya, xa = u(diagonal(name, a[0])), u(diagonal(name, a[1]))
    yb, xb = u(diagonal(name, b[0])), u(diagonal(name, b[1]))
    return (xa - ya) / (xb - yb), (ya - yb) / (xb - yb)


def kinked_midpoint(a: float) -> float:
    """f(a, 1) for kinked_composite: 2u(f) = u(1 - a) + u(1 + a) gives
    f - 1 = (-a + a/2) / 2, i.e. f = 1 - a/4."""
    return 1.0 - a / 4.0


def diagonal_midpoint(name: str, a: float, b: float) -> float:
    """Scale f with 2u(f*e) = u((b-a)*e) + u((b+a)*e), by bisection on the
    closed form (u increasing along the diagonal)."""
    util = UTILITIES[name]

    def ud(c):
        return util.u((c,) * util.dim)

    target = 0.5 * (ud(b - a) + ud(b + a))
    lo, hi = b - a, b + a
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ud(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Limit of (b - f(a, b)) / a as a -> 0 on the diagonal, at b = 1.  Only the
# kinked composite's diagonal restriction has a kink (at scale 1, slopes 1
# and 1/2); its limit is (1 - 1/2) / 2 = 1/4.  min2 and cobb_douglas are the
# identity on the diagonal, so f = b and the limit is 0.
LINE_LIMITS = {"kinked_composite": 0.25, "min2": 0.0, "cobb_douglas": 0.0}


def gain_law_margin(name: str, x, y) -> float:
    """[z,x] - [y,z] in utility units, z the midpoint: u(z)-u(x) - (u(y)-u(z))."""
    u = UTILITIES[name].u
    z = tuple(0.5 * (a + b) for a, b in zip(x, y))
    return (u(z) - u(x)) - (u(y) - u(z))


def _lattice_margins(name: str, per_axis: int = 17) -> list[float]:
    util = UTILITIES[name]
    points = lattice(util.lower, util.upper, per_axis)
    return [gain_law_margin(name, x, y) for x in points for y in points]


@functools.lru_cache(maxsize=None)
def midpoint_concave(name: str) -> bool:
    """The midpoint gain law holds (within the dead band) on every lattice pair."""
    return min(_lattice_margins(name)) >= -dead_band(name)


@functools.lru_cache(maxsize=None)
def affine(name: str) -> bool:
    """The gain-law margin vanishes on every lattice pair: no pair is strict."""
    return max(abs(m) for m in _lattice_margins(name)) <= 1e-6 * dead_band(name)


def near_tie_radius(name: str) -> float:
    """For neg_quadratic, pairs closer than this read EQUAL under the gain
    law: 2u(z) - u(x) - u(y) = (x - y)^2 / 2 falls inside the dead band."""
    if name != "neg_quadratic":
        raise ValueError("near-tie radius is derived for neg_quadratic only")
    return math.sqrt(2.0 * dead_band(name))


def tables() -> dict:
    """Every expected-answer table the checks use, for the README."""
    out: dict = {"utilities": {}, "broken_crossover": {
        "g": "x0 - 2*y0", "box": BROKEN_CROSSOVER_BOX,
        "dead_band": broken_crossover_dead_band()}}
    for name, util in UTILITIES.items():
        row = {"box": [util.lower, util.upper], "dead_band": dead_band(name),
               "strictly_increasing": strictly_increasing(name),
               "continuous": util.continuous,
               "midpoint_concave": midpoint_concave(name), "affine": affine(name)}
        if strictly_increasing(name):
            alpha, beta = affine_constants(name)
            row.update(alpha=alpha, beta=beta,
                       clip_range=list(reconstruction_range(name)))
        out["utilities"][name] = row
    out["kinked_midpoint_b1"] = {f"{a:g}": kinked_midpoint(a)
                                 for a in (2.0 ** -4, 2.0 ** -10, 2.0 ** -16)}
    out["line_limits_b1"] = LINE_LIMITS
    out["neg_quadratic_near_tie_radius"] = near_tie_radius("neg_quadratic")
    return out


if __name__ == "__main__":
    print(json.dumps(tables(), indent=2))
