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
Archimedean walks) on the brackets of one step.  Its band-edge
refinement is the same lockstep walk (:func:`_walk`) over the edges of
the bands it found.  :func:`band_bisect` is
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
# The bisection and the band-edge refinement call it from one walk, whose
# index array is the same object on every step where no bracket stops and
# is never written in place: a side may key a plan on its identity.
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

    out, met = _walk(side, every, a, b, per, np.zeros(a.size, dtype=np.int8),
                     (s_lo != 0) & (s_hi != 0))
    if not refine:
        return np.where(s_lo == 0, a, np.where(s_hi == 0, b, out))

    # Refine both edges of every band found: the same walk over [a, eq] for
    # each lower edge and [eq, b] for each upper one.  An end that answers
    # LESS (below) or GREATER (above) is walked in towards the EQUAL
    # parameter; an end answers so exactly when its bracket endpoint did,
    # because bisection only moves an end of that state.
    found = met | (s_lo == 0) | (s_hi == 0)
    eq = np.where(met, out, np.where(s_lo == 0, a, b))
    lower = np.flatnonzero(found & (s_lo < 0))
    upper = np.flatnonzero(found & (s_hi > 0))
    owner = np.concatenate([lower, upper])
    outer = np.repeat(np.array([-1, 1], dtype=np.int8), [lower.size, upper.size])
    edge = _walk(side, owner, np.concatenate([a[lower], eq[upper]]),
                 np.concatenate([eq[lower], b[upper]]), per, outer, True)[0]
    a[lower] = edge[:lower.size]          # a and b become the band's edges
    b[upper] = edge[lower.size:]
    out[found] = _split(a[found], b[found], per[found])[0]
    return out


def _walk(side: SideMany, owner: np.ndarray, a: np.ndarray, b: np.ndarray, per: np.ndarray,
          outer: np.ndarray, run: np.ndarray | bool) -> tuple[np.ndarray, np.ndarray]:
    """Bisect the brackets [a_i, b_i] where ``run`` holds, in lockstep, and
    return each bracket's last midpoint (its first if it never ran) and a
    mask of the brackets that stopped on EQUAL.

    Bracket i is asked as bracket ``owner[i]`` of ``side``, and its answer
    s is read as the sign of 2s - ``outer[i]``: negative moves the lower
    end, positive the upper one.  ``outer`` 0 bisects a crossing and stops
    on EQUAL; -1 (+1) walks a band's lower (upper) edge, where EQUAL counts
    as the inner side and never stops the walk.  A bracket also stops at
    its owner's width ``per[owner[i]]`` or at adjacent floats, and its
    ends and last midpoint are then written back into ``a``, ``b`` and the
    result.  The owner array handed to ``side`` is the same object on
    every step where no bracket stops and is never written in place, so a
    side may key a plan on its identity (``ladder._round`` does).
    """
    out, wider = _split(a, b, per[owner])
    met = np.zeros(a.size, dtype=bool)
    # The running brackets k, with their owners, ends, next parameter,
    # width and the two thresholds kept compact; a bracket's state is
    # written back when it stops.  For an integer s, 2s - outer < 0 is
    # s < outer/2 rounded up, and 2s - outer > 0 is s > outer/2 rounded down.
    k = np.flatnonzero(run & wider & (a < out) & (out < b))
    j = owner[k]
    ak, bk, m, w = a[k], b[k], out[k], per[j]
    below, above = np.maximum(outer[k], 0), np.minimum(outer[k], 0)
    while k.size:
        s = side(j, m)
        lower, upper = s < below, s > above
        np.putmask(ak, lower, m)
        np.putmask(bk, upper, m)
        nxt, wider = 0.5 * (ak + bk), bk - ak > w        # _split with no abs: ak < bk
        moved = lower | upper
        go = moved & wider & (ak < nxt) & (nxt < bk)
        if not go.all():
            stop = ~go
            i = k[stop]
            a[i], b[i], out[i], met[i] = ak[stop], bk[stop], nxt[stop], ~moved[stop]
            k, ak, bk, nxt, w = k[go], ak[go], bk[go], nxt[go], w[go]
            j, below, above = owner[k], below[go], above[go]
        m = nxt
    return out, met


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
