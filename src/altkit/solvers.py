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
# Lockstep side: (bracket indices, parameters) -> int8 signs of the
# trichotomy of bracket idx[j] at t[j] (+1 GREATER, 0 EQUAL, -1 LESS).
SideMany = Callable[[np.ndarray, np.ndarray], np.ndarray]


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


def band_bisect_many(side: SideMany, lo: np.ndarray, hi: np.ndarray, tol: float,
                     lo_state: np.ndarray | None = None,
                     hi_state: np.ndarray | None = None,
                     refine: bool = True) -> np.ndarray:
    """:func:`band_bisect` over N brackets [lo_j, hi_j] in lockstep.

    Each bracket is asked the same parameters, in the same order, as
    ``band_bisect`` would ask it alone, so every bracket gets the same
    result after the same number of queries; one call of ``side`` serves
    one step of every bracket still running.  States are int8 signs.
    ``refine=False`` returns the first EQUAL parameter of each bracket
    that meets one, as in ``band_bisect``.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    a = np.array(lo, dtype=float)    # copies: both ends move in place
    b = np.array(hi, dtype=float)
    if np.any(b <= a):
        raise ValueError("need lo < hi")
    every = np.arange(a.size)
    s_lo = side(every, a) if lo_state is None else np.array(lo_state, dtype=np.int8)
    s_hi = side(every, b) if hi_state is None else np.array(hi_state, dtype=np.int8)
    bad = np.flatnonzero((s_lo > 0) | (s_hi < 0))
    if bad.size:
        j = bad[0]
        raise BracketError(f"bracket {j}: endpoints do not straddle the target "
                           f"(side(lo)={s_lo[j]}, side(hi)={s_hi[j]})")

    found = (s_lo == 0) | (s_hi == 0)
    eq = np.where(s_lo == 0, a, b)
    run = ~found & (b - a > tol)
    while run.any():
        j = np.flatnonzero(run)
        m = 0.5 * (a[j] + b[j])
        s = side(j, m)
        a[j[s < 0]] = m[s < 0]
        b[j[s > 0]] = m[s > 0]
        eq[j[s == 0]] = m[s == 0]
        found[j[s == 0]] = True
        run[j] = (s != 0) & (b[j] - a[j] > tol)
    out = 0.5 * (a + b)
    if not refine:
        out[found] = eq[found]
        return out

    # Refine both edges of every band found, as _band_edge does: an end
    # that answers LESS (below) or GREATER (above) is walked in towards the
    # EQUAL parameter.  An end answers so exactly when its bracket
    # endpoint did, because bisection only moves an end of that state.
    lower = np.flatnonzero(found & (s_lo < 0))
    upper = np.flatnonzero(found & (s_hi > 0))
    owner = np.concatenate([lower, upper])
    outer = np.concatenate([a[lower], b[upper]])
    inner = eq[owner]
    state = np.repeat(np.array([-1, 1], dtype=np.int8), [lower.size, upper.size])
    run = np.abs(inner - outer) > tol
    while run.any():
        k = np.flatnonzero(run)
        m = 0.5 * (outer[k] + inner[k])
        hit = side(owner[k], m) == state[k]
        outer[k[hit]] = m[hit]
        inner[k[~hit]] = m[~hit]
        run[k] = np.abs(inner[k] - outer[k]) > tol
    edge = 0.5 * (outer + inner)
    lower_edge, upper_edge = a.copy(), b.copy()
    lower_edge[lower] = edge[:lower.size]
    upper_edge[upper] = edge[lower.size:]
    out[found] = 0.5 * (lower_edge[found] + upper_edge[found])
    return out


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


def indifference_param_many(oracle: AltOracle, seg: Segment, xs: np.ndarray,
                            tol_t: float = DEFAULT_TOL_T) -> tuple[np.ndarray, np.ndarray]:
    """:func:`indifference_param` for every row of ``xs``, solved in
    lockstep: arrays (t, clamp), bit-identical row by row, after the same
    number of compares."""
    def side(idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        x = xs[idx]
        return oracle.compare_batch(seg.at_many(t), x, x, x)

    n = len(xs)
    s0 = side(np.arange(n), np.zeros(n))
    t = np.zeros(n)
    clamp = np.zeros(n, dtype=np.int64)
    clamp[s0 > 0] = -1
    rest = np.flatnonzero(s0 < 0)
    s1 = side(rest, np.ones(rest.size))
    t[rest[s1 < 0]] = 1.0
    clamp[rest[s1 < 0]] = 1
    keep = s1 >= 0
    rest = rest[keep]
    t[rest] = band_bisect_many(lambda j, u: side(rest[j], u), np.zeros(rest.size),
                               np.ones(rest.size), tol_t,
                               lo_state=s0[rest], hi_state=s1[keep])
    return t, clamp
