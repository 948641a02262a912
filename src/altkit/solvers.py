"""Segment bisection against three-valued comparisons.

All constructive machinery reduces to one primitive: locate, on a straight
segment, the point where a trichotomy flips from LESS to GREATER.  Because
equality has a dead band, a naive bisection could stop anywhere inside the
band and chained constructions would drift by one band-width per step.  The
solvers therefore locate *both* edges of an observed EQUAL band and return
its center, which keeps ladder constructions accurate to the bisection
tolerance rather than to the dead band.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .domain import Segment
from .errors import BracketError, ConstructionError, OrderingError
from .oracle import AltOracle, IntensityOrder

GREATER, EQUAL, LESS = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS

# Default bisection width on the unit parameter.  Kept well below typical
# equality dead bands so that solved points (rungs, midpoints, calibration
# scales) re-compare as EQUAL through the oracle rather than drifting by a
# band width per construction step.
DEFAULT_TOL_T = 1e-10

Side = Callable[[float], IntensityOrder]


def band_bisect(side: Side, lo: float, hi: float, tol: float,
                lo_state: IntensityOrder | None = None,
                hi_state: IntensityOrder | None = None,
                refine: bool = True) -> float:
    """Crossing parameter of a weakly increasing trichotomy on [lo, hi].

    Preconditions: side(lo) is LESS or EQUAL, side(hi) is GREATER or EQUAL.
    If an EQUAL band is found its two edges are refined to width ``tol``
    and the band center is returned; otherwise the LESS/GREATER sign change
    is located to width ``tol``.  ``refine=False`` skips the edge
    refinement and returns the first EQUAL parameter encountered — cheaper
    when any point inside the band will do.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if hi <= lo:
        raise ValueError("need lo < hi")
    s_lo = side(lo) if lo_state is None else lo_state
    s_hi = side(hi) if hi_state is None else hi_state
    if s_lo is GREATER or s_hi is LESS:
        raise BracketError(
            f"endpoints do not straddle the target (side(lo)={s_lo.value}, side(hi)={s_hi.value})")

    a, b = lo, hi
    s_a, s_b = s_lo, s_hi
    eq = a if s_a is EQUAL else (b if s_b is EQUAL else None)
    while eq is None and (b - a) > tol:
        m = 0.5 * (a + b)
        s_m = side(m)
        if s_m is LESS:
            a, s_a = m, s_m
        elif s_m is GREATER:
            b, s_b = m, s_m
        else:
            eq = m
    if eq is None:
        return 0.5 * (a + b)
    if not refine:
        return eq
    lower_edge = _band_edge(side, a, eq, LESS, tol) if s_a is LESS else a
    upper_edge = _band_edge(side, b, eq, GREATER, tol) if s_b is GREATER else b
    return 0.5 * (lower_edge + upper_edge)


def _band_edge(side: Side, outer: float, inner: float, outer_state: IntensityOrder,
               tol: float) -> float:
    """Edge of the EQUAL band between ``outer`` (answering ``outer_state``)
    and ``inner`` (inside the band), located to width ``tol``.  ``outer``
    may lie on either side of ``inner``."""
    while abs(inner - outer) > tol:
        m = 0.5 * (outer + inner)
        if side(m) is outer_state:
            outer = m
        else:
            inner = m
    return 0.5 * (outer + inner)


def solve_midpoint(oracle: AltOracle, x: np.ndarray, z: np.ndarray,
                   tol_t: float = DEFAULT_TOL_T) -> np.ndarray:
    """Point y on the segment x -> z whose gain over x matches the gain
    from y up to z, i.e. [y,x] = [z,y].  Requires z strictly preferred to
    x; the result is post-checked to satisfy z > y > x.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if not oracle.prefers(z, x):
        raise OrderingError("solve_midpoint requires z strictly preferred to x")
    seg = Segment(x, z)

    def side(t: float) -> IntensityOrder:
        y = seg.at(t)
        return oracle.compare(y, x, z, y)

    t = band_bisect(side, 0.0, 1.0, tol_t,
                    lo_state=LESS, hi_state=GREATER)
    y = seg.at(t)
    if not (oracle.prefers(z, y) and oracle.prefers(y, x)):
        raise ConstructionError("midpoint post-check failed: z > y > x is not strict")
    return y


def indifference_param(oracle: AltOracle, seg: Segment, x: np.ndarray,
                       tol_t: float = DEFAULT_TOL_T) -> tuple[float, int]:
    """Parameter t with seg.at(t) indifferent to x, assuming preference
    increases along the segment.

    Returns (t, clamp) where clamp is -1 if x ranks below the whole
    segment (t=0 returned), +1 if above (t=1), else 0.
    """
    def side(t: float) -> IntensityOrder:
        return oracle.compare(seg.at(t), x, x, x)

    s0 = side(0.0)
    if s0 is not LESS:
        # Bottom of the segment already matches or exceeds x.
        return (0.0, 0 if s0 is EQUAL else -1)
    s1 = side(1.0)
    if s1 is LESS:
        return (1.0, +1)
    t = band_bisect(side, 0.0, 1.0, tol_t, lo_state=s0, hi_state=s1)
    return (t, 0)
