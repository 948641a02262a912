"""Segment bisection against three-valued comparisons.

All constructive machinery reduces to one primitive: locate, on a straight
segment, the point where a trichotomy flips from LESS to GREATER.  Because
equality has a dead band, a naive bisection could stop anywhere inside the
band and chained constructions would drift by one band-width per step.  The
solvers therefore locate *both* edges of an observed EQUAL band and return
its center, which keeps ladder constructions accurate to the bisection
tolerance rather than to the dead band.

There is one bisection, :func:`band_bisect_many`, which runs N brackets
in lockstep with one batched side call per step.  :func:`band_bisect` is
that bisection on one bracket with a scalar side, for callers that are
sequential by nature (ladder edge growth, midpoints, Archimedean walks),
and :func:`indifference_param_many` solves indifference for many points
on one segment.  A scalar side asks ``AltOracle.compare``, which for a
catalog or JSON oracle is its batch comparison on one-row views, so a
bracket gets the same answers alone as in lockstep.
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
    when any point inside the band will do.  This is
    :func:`band_bisect_many` on one bracket.
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

    def side_many(_idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.array([side(u).sign for u in t.tolist()], dtype=np.int8)

    return float(band_bisect_many(side_many, [lo], [hi], tol, [s_lo.sign], [s_hi.sign],
                                  refine)[0])


def band_bisect_many(side: SideMany, lo: np.ndarray, hi: np.ndarray, tol: float,
                     lo_state: np.ndarray | None = None,
                     hi_state: np.ndarray | None = None,
                     refine: bool = True) -> np.ndarray:
    """Crossing parameters of N weakly increasing trichotomies, one per
    bracket [lo_j, hi_j], located in lockstep.

    Each bracket is asked the parameters it would be asked alone, so every
    bracket gets the same result after the same number of queries
    whatever the other brackets are; one call of ``side`` serves one step
    of every bracket still running.  States are int8 signs.  A bracket
    bisects until it meets EQUAL or narrows to ``tol``; with ``refine``,
    both edges of the EQUAL band it met are then walked in to width
    ``tol`` and the band center is returned.  ``refine=False`` returns the
    first EQUAL parameter of each bracket that meets one.
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

    # Refine both edges of every band found: an end that answers LESS
    # (below) or GREATER (above) is walked in towards the EQUAL parameter.
    # An end answers so exactly when its bracket endpoint did, because
    # bisection only moves an end of that state.
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


def indifference_param_many(oracle: AltOracle, seg: Segment, xs: np.ndarray,
                            tol_t: float = DEFAULT_TOL_T) -> tuple[np.ndarray, np.ndarray]:
    """Parameters t with seg.at(t) indifferent to each row of ``xs``,
    assuming preference increases along the segment, solved in lockstep.

    Returns arrays (t, clamp) where clamp is -1 if a row ranks below the
    whole segment (t=0 returned), +1 if above (t=1), else 0.  A row gets
    the same t, after the same number of compares, whatever the other
    rows are.
    """
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
