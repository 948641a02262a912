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
one segment.  A solve whose compares mix points fixed for the whole
solve (bracket ends, reference points) with each step's moving points
holds the fixed points once with ``AltOracle.hold`` and asks
``AltOracle.compare_rows`` by row index: a difference oracle then values
the fixed points once per solve and each step's moving points once per
step, whichever arguments hold them.
"""
from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from .domain import Segment
from .errors import BracketError
from .oracle import AltOracle, Held, IntensityOrder

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


def _split(a: np.ndarray, b: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``0.5 * (a + b)`` and ``|b - a| > tol``, row by row."""
    return 0.5 * (a + b), np.abs(b - a) > tol


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
    every bracket or one per bracket.  Every end must lie within half the
    float range, so that no midpoint or width overflows.

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
    a = np.array(lo, dtype=float)    # copies: a stopped bracket's ends are written back
    b = np.array(hi, dtype=float)
    tol = np.asarray(tol, dtype=float)
    if not np.all(tol > 0):
        raise ValueError("tolerance must be positive")
    per = np.broadcast_to(tol, a.shape)
    if np.any(b <= a):
        raise ValueError("need lo < hi")
    if np.abs(np.concatenate([a, b])).max(initial=0.0) > _HALF_MAX:
        raise ValueError("need every end within sys.float_info.max / 2")
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
    out, wider = _split(a, b, per)
    # The running brackets j, with their ends, next parameter and width
    # kept compact; a bracket's state is written back when it stops.
    j = np.flatnonzero(~found & wider & (a < out) & (out < b))
    aj, bj, m, w = a[j], b[j], out[j], per[j]
    while j.size:
        s = side(j, m)
        np.putmask(aj, s < 0, m)
        np.putmask(bj, s > 0, m)
        nxt, wider = _split(aj, bj, w)
        go = (s != 0) & wider & (aj < nxt) & (nxt < bj)
        if not go.all():         # j stays the same object while no bracket stops
            stop, hit = ~go, s == 0
            k = j[stop]
            a[k], b[k], out[k] = aj[stop], bj[stop], nxt[stop]
            eq[j[hit]] = m[hit]
            found[j[hit]] = True
            j, aj, bj, nxt, w = j[go], aj[go], bj[go], nxt[go], w[go]
        m = nxt
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
    edge, wider = _split(outer, inner, per[owner])
    k = np.flatnonzero(wider & (edge != outer) & (edge != inner))
    ok, ko, ki, m, ks, w = owner[k], outer[k], inner[k], edge[k], state[k], per[owner[k]]
    while k.size:
        hit = side(ok, m) == ks
        np.putmask(ko, hit, m)
        np.putmask(ki, ~hit, m)
        nxt, wider = _split(ko, ki, w)
        go = wider & (nxt != ko) & (nxt != ki)
        if not go.all():
            edge[k[~go]] = nxt[~go]
            k, ok, ko, ki, nxt, ks, w = (v[go] for v in (k, ok, ko, ki, nxt, ks, w))
        m = nxt
    a[lower] = edge[:lower.size]          # a and b become the band's edges
    b[upper] = edge[lower.size:]
    out[found] = _split(a[found], b[found], per[found])[0]
    return out


def indifference_param_many(oracle: AltOracle, seg: Segment, xs: np.ndarray | Held,
                            tol_t: float = DEFAULT_TOL_T,
                            rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Parameters t with seg.at(t) indifferent to each row of ``xs``,
    assuming preference increases along the segment, solved in lockstep.
    With ``rows``, ``xs`` is a caller's ``Held`` (``AltOracle.hold``) and
    the points are its rows ``rows``, so that the caller's compares and
    this solve's share its values.

    Returns arrays (t, clamp) where clamp is -1 if a row ranks below the
    whole segment (t=0 returned), +1 if above (t=1), else 0.  A row gets
    the same t, after the same number of compares, whatever the other
    rows are.
    """
    fixed, rows = (oracle.hold(xs), np.arange(len(xs))) if rows is None else (xs, rows)

    def side(idx: np.ndarray, t: np.ndarray) -> np.ndarray:      # idx: held rows
        return oracle.compare_rows(fixed, (None, idx, idx, idx), seg.at_many(t))

    n = len(rows)
    s0 = side(rows, np.zeros(n))
    t = np.zeros(n)
    clamp = np.zeros(n, dtype=np.int64)
    clamp[s0 > 0] = -1
    rest = np.flatnonzero(s0 < 0)
    s1 = side(rows[rest], np.ones(rest.size))
    t[rest[s1 < 0]] = 1.0
    clamp[rest[s1 < 0]] = 1
    keep = s1 >= 0
    rest = rest[keep]
    asked = rows[rest]
    t[rest] = band_bisect_many(lambda j, u: side(asked[j], u), np.zeros(rest.size),
                               np.ones(rest.size), tol_t,
                               lo_state=s0[rest], hi_state=s1[keep])
    return t, clamp
