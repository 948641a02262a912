"""Segment bisection against three-valued comparisons.

All constructive machinery reduces to one primitive: locate, on a straight
segment, the point where a trichotomy flips from LESS to GREATER.  Because
equality has a dead band, a naive bisection could stop anywhere inside the
band and chained constructions would drift by one band-width per step.  The
solvers therefore locate *both* edges of an observed EQUAL band and return
its center, which keeps ladder constructions accurate to the bisection
tolerance rather than to the dead band.

There is one bisection, :func:`band_bisect_many`, which runs N brackets
in lockstep with one batched side call per step; every solve in altkit
calls it, a walk that is sequential by nature (ladder edge growth,
Archimedean walks) on the brackets of one step.  :func:`band_bisect` is
that bisection on one bracket with a scalar side, and
:func:`indifference_param_many` solves indifference for many points on
one segment.
"""
from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from .domain import Segment
from .errors import BracketError
from .oracle import AltOracle, IntensityOrder

# Default bisection width on the unit parameter.  Kept well below typical
# equality dead bands so that solved points (rungs, midpoints, calibration
# scales) re-compare as EQUAL through the oracle rather than drifting by a
# band width per construction step.
DEFAULT_TOL_T = 1e-10

_HALF_MAX = sys.float_info.max / 2

Side = Callable[[float], IntensityOrder]
# Lockstep side: (bracket indices, parameters) -> int8 signs of the
# trichotomy of bracket idx[j] at t[j] (+1 GREATER, 0 EQUAL, -1 LESS).
SideMany = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _split(a: np.ndarray, b: np.ndarray, tol: np.ndarray,
           far: bool) -> tuple[np.ndarray, np.ndarray]:
    """``0.5 * (a + b)`` and ``|b - a| > tol``, row by row.  ``far`` says
    that an end may lie beyond half the float range; such rows are then
    halved first, so that nothing overflows, which keeps the bits of both
    wherever ``a + b`` and ``b - a`` are finite."""
    if not far:
        return 0.5 * (a + b), np.abs(b - a) > tol
    h = np.where((np.abs(a) > _HALF_MAX) | (np.abs(b) > _HALF_MAX), 0.5, 1.0)
    a, b = h * a, h * b
    return (a + b) * (0.5 / h), np.abs(b - a) > h * tol


def pinned_rows(*arrays: np.ndarray) -> Callable[[np.ndarray], tuple[np.ndarray, ...]]:
    """j -> the rows j of each array, read-only.  While j repeats from one
    call to the next, the same objects come back, so a difference oracle
    values them once rather than at every step of a lockstep solve."""
    last: list = [None, ()]

    def rows(j: np.ndarray) -> tuple[np.ndarray, ...]:
        if not np.array_equal(last[0], j):
            subsets = tuple(a[j] for a in arrays)
            for sub in subsets:
                sub.flags.writeable = False
            last[:] = [j, subsets]
        return last[1]
    return rows


def band_bisect(side: Side, lo: float, hi: float, tol: float,
                lo_state: IntensityOrder | None = None,
                hi_state: IntensityOrder | None = None,
                refine: bool = True) -> float:
    """:func:`band_bisect_many` on the one bracket [lo, hi], with a scalar
    side and end states given as ``IntensityOrder``."""
    def side_many(_idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.array([side(u).sign for u in t.tolist()], dtype=np.int8)

    states = (None if s is None else [s.sign] for s in (lo_state, hi_state))
    return float(band_bisect_many(side_many, [lo], [hi], tol, *states, refine)[0])


def band_bisect_many(side: SideMany, lo: np.ndarray, hi: np.ndarray, tol: float | np.ndarray,
                     lo_state: np.ndarray | None = None,
                     hi_state: np.ndarray | None = None,
                     refine: bool = True) -> np.ndarray:
    """Crossing parameters of N weakly increasing trichotomies, one per
    bracket [lo_j, hi_j], located in lockstep.  ``tol`` is one width for
    every bracket or one per bracket.

    Each bracket is asked the parameters it would be asked alone, so every
    bracket gets the same result after the same number of queries
    whatever the other brackets are; one call of ``side`` serves one step
    of every bracket still running.  States are int8 signs.  A bracket
    bisects until it meets EQUAL or narrows to ``tol``; with ``refine``,
    both edges of the EQUAL band it met are then walked in to width
    ``tol`` and the band center is returned.  ``refine=False`` returns the
    first EQUAL parameter of each bracket that meets one.  Whatever ``tol``
    is, a walk stops at adjacent floats, within 1024 + 1074 halvings.
    """
    a = np.array(lo, dtype=float)    # copies: both ends move in place
    b = np.array(hi, dtype=float)
    tol = np.asarray(tol, dtype=float)
    if not np.all(tol > 0):
        raise ValueError("tolerance must be positive")
    # One tol serves every row as is; a per-bracket tol is gathered at each step.
    per = np.broadcast_to(tol, a.shape)
    width = (lambda k: per[k]) if tol.ndim else (lambda k: tol)
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
    # Every parameter asked lies in its bracket, so one look at the ends
    # tells whether any midpoint or width can overflow.
    far = bool(np.abs(np.concatenate([a, b])).max(initial=0.0) > _HALF_MAX)
    out, wider = _split(a, b, per, far)
    run = ~found & wider & (a < out) & (out < b)
    while run.any():
        j = np.flatnonzero(run)
        m = out[j]
        s = side(j, m)
        a[j[s < 0]] = m[s < 0]
        b[j[s > 0]] = m[s > 0]
        eq[j[s == 0]] = m[s == 0]
        found[j[s == 0]] = True
        aj, bj = a[j], b[j]
        m, wider = _split(aj, bj, width(j), far)
        out[j] = m
        run[j] = (s != 0) & wider & (aj < m) & (m < bj)
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
    edge, wider = _split(outer, inner, width(owner), far)
    run = wider & (edge != outer) & (edge != inner)
    while run.any():
        k = np.flatnonzero(run)
        m = edge[k]
        hit = side(owner[k], m) == state[k]
        outer[k[hit]] = m[hit]
        inner[k[~hit]] = m[~hit]
        m, wider = _split(outer[k], inner[k], width(owner[k]), far)
        edge[k] = m
        run[k] = wider & (m != outer[k]) & (m != inner[k])
    lower_edge, upper_edge = a.copy(), b.copy()
    lower_edge[lower] = edge[:lower.size]
    upper_edge[upper] = edge[lower.size:]
    out[found] = _split(lower_edge[found], upper_edge[found], width(found), far)[0]
    return out


def indifference_param_many(oracle: AltOracle, seg: Segment, xs: np.ndarray,
                            tol_t: float = DEFAULT_TOL_T) -> tuple[np.ndarray, np.ndarray]:
    """Parameters t with seg.at(t) indifferent to each row of ``xs``,
    assuming preference increases along the segment, solved in lockstep.

    Returns arrays (t, clamp) where clamp is -1 if a row ranks below the
    whole segment (t=0 returned), +1 if above (t=1), else 0.  A row gets
    the same t, after the same number of compares, whatever the other
    rows are.
    """
    rows = pinned_rows(xs)

    def side(idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        x, = rows(idx)
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
