"""Constructive cardinal-utility reconstruction on a reference segment.

The ladder fixes two anchors (value 0 and 1) on a strictly-ranked segment
and fills in rungs of equal intensity steps: level 0 walks unit steps to
both domain edges, and each deeper level bisects every step by an
intensity midpoint, then tries one extra half-step past each edge.  Rung
(i, k) has value i / 2**k by construction, and a level is kept as two
arrays, its rung indices and their parameters, from solve to report.
``build_ladder`` builds the ladders of many anchor pairs together, each
with the rungs it would get alone, in rounds of one lockstep solve each:
after level 0's walks, round k holds level k's midpoint brackets whose
two end rungs are known, the brackets of level k-1 next to the rungs the
previous round made, and level k-1's edge walks.  A reconstructed
utility evaluates any point by sliding it to its indifferent diagonal
parameter and interpolating linearly between the deepest rungs; ``evaluate_many`` solves many points in lockstep, and
``evaluate`` is that solve on one point.  The sampled checks on a ladder
(density, representation, order embedding) draw every trial's points
first and then ask the oracle and the reconstruction in batches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .axioms import (_ORDER, _PREFERENCE, QUAD, SKIP, VIOLATION, AxiomReport, Record, Witness,
                     _collect, _fold, _pt)
from .domain import BoxDomain, Segment, as_point
from .errors import ArchimedeanError, ConstructionError, DegenerateFitError, OrderingError
from .oracle import AltOracle, IntensityOrder
# run_indexed, subrng and band_bisect are unused here; perfbench/tracing.py patches them.
from .sampling import draw, run_indexed, subrng, uniforms  # noqa: F401
from .solvers import (DEFAULT_TOL_T, band_bisect, band_bisect_many,  # noqa: F401
                      indifference_param_many)

MAX_RUNGS_PER_LEVEL = 200_000
ARCHIMEDEAN_CAP = 1000      # steps an Archimedean walk may take
AFFINE_SAMPLES = 200        # points an affine fit is taken over


@dataclass(eq=False)
class DyadicLadder:
    """Rungs by level: ``levels[k]`` is two arrays in index order, the rung
    indices of level k (consecutive integers) and their segment
    parameters.  Rung (i, k) carries value i/2**k, so a report writes
    level k as its first index and its parameters (``to_dict``).

    ``oracle_calls`` is the number of compares the construction made."""

    segment: Segment
    depth: int
    levels: list[tuple[np.ndarray, np.ndarray]]
    anchor_lo: np.ndarray
    anchor_hi: np.ndarray
    tol_t: float
    oracle_calls: int = 0

    def point(self, i: int, k: int) -> np.ndarray:
        idx, t = self.levels[k]
        if not 0 <= (j := i - int(idx[0])) < len(t):
            raise KeyError(i)
        return self.segment.at(t[j])

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "tol_t": self.tol_t,
            "segment": {"p": self.segment.p.tolist(), "q": self.segment.q.tolist()},
            "anchors": {"lo": self.anchor_lo.tolist(), "hi": self.anchor_hi.tolist()},
            "levels": [{"first": int(idx[0]), "param": params.tolist()}
                       for idx, params in self.levels],
        }


def build_ladder(oracle: AltOracle, anchors: Sequence, depth: int, tol_t: float = DEFAULT_TOL_T,
                 segment: Segment | None = None) -> list[DyadicLadder]:
    """One dyadic rung grid per (y*, x*) pair of ``anchors``, anchored at
    y* (value 0) and x* (value 1).

    Every anchor must lie on the reference segment (the domain diagonal by
    default) with x* strictly preferred to y*, and the segment endpoints
    must themselves be strictly ranked -- systems that are not monotone
    along the default diagonal are rejected and need a caller-supplied
    strictly-increasing segment.  Every pair is checked, in order, before
    any rung is solved.  Then the ladders grow together, in rounds of one
    lockstep solve each (:func:`_round`).  Level 0's edge walks step until
    none fits; after that, the round that finishes level k also starts
    level k+1 on the rungs of level k that are known.  A ladder gets the
    rungs it would get alone, level by level, after the same compares,
    which its ``oracle_calls`` counts: the ladders' counts add up to the
    build's.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seg = segment or oracle.domain.diagonal()
    ladders: list[DyadicLadder] = []
    t = []
    for y_star, x_star in anchors:
        calls0 = oracle.calls
        y_star = oracle.domain.require(as_point(y_star, seg.dim), "anchor y*")
        x_star = oracle.domain.require(as_point(x_star, seg.dim), "anchor x*")
        t0, t1 = seg.param_of(y_star), seg.param_of(x_star)
        if t1 <= t0:
            raise OrderingError("anchor x* must sit above y* on the reference segment")
        if not oracle.prefers(x_star, y_star):
            raise OrderingError("anchors must be strictly ranked: x* > y*")
        if not oracle.prefers(seg.q, seg.p):
            raise OrderingError(
                "reference segment endpoints are not strictly ranked; the system is "
                "not increasing along the default diagonal -- supply a custom segment")
        ladders.append(DyadicLadder(seg, depth, [], y_star, x_star, tol_t,
                                    oracle_calls=oracle.calls - calls0))
        t += [t0, t1]
    if not (n := len(ladders)):
        return ladders
    asked = np.zeros(n, dtype=np.int64)              # each ladder's compares
    # The open level of every ladder, one after another: its parameters,
    # NaN where a rung is still to be solved, its rung count and first index.
    t, sizes, firsts = np.array(t), np.full(n, 2), np.zeros(n, dtype=np.int64)
    units = np.array([(lad.anchor_hi, lad.anchor_lo) for lad in ladders]).reshape(-1, seg.dim)
    walks, k, done = np.ones((n, 2), dtype=bool), 0, []  # walks: the open level's up, down
    while True:
        # Level k+1 starts once level k's walks have at most this round's
        # step left, if it stays within the cap should those walks fit.
        stops = np.cumsum(sizes)
        size = 2 * int((sizes + walks[:, 0] * (t[stops - 1] < 1.0)
                        + walks[:, 1] * (t[stops - sizes] > 0.0)).max()) - 1
        start = k < depth and not (k == 0 and walks.any()) and size <= MAX_RUNGS_PER_LEVEL
        if not (start or walks.any() or np.isnan(t).any()):
            if k == depth:
                break
            raise ConstructionError(f"rung cap exceeded: level {k + 1} would hold {size} rungs")
        level, nxt, added = _round(oracle, asked, seg, k, t, sizes, firsts, walks, start,
                                   units if k == 0 else None, tol_t)
        if level[1].max() > MAX_RUNGS_PER_LEVEL:
            raise ConstructionError("rung cap exceeded; anchors are too close together")
        done += [level] if start else []
        (t, sizes, firsts), walks = (nxt, walks | True) if start else (level, added & (k == 0))
        k += start
    for t, sizes, firsts in done + [(t, sizes, firsts)]:
        for lad, params, first in zip(ladders, np.split(t, np.cumsum(sizes)[:-1]), firsts.tolist()):
            lad.levels.append((np.arange(first, first + params.size), params))
    for lad, calls in zip(ladders, asked.tolist()):
        lad.oracle_calls += calls
    return ladders


def _round(oracle: AltOracle, asked: np.ndarray, seg: Segment, k: int, t: np.ndarray,
           sizes: np.ndarray, firsts: np.ndarray, walks: np.ndarray, start: bool,
           units: np.ndarray | None, tol_t: float) -> tuple:
    """One round of the ladders whose open level k is ``t``: the
    parameters of each ladder's rungs in turn, ``sizes[l]`` of them from
    index ``firsts[l]``, NaN where a rung is still to be solved.  Its
    brackets, all in one lockstep solve:

    - each NaN rung, the intensity midpoint of its two neighbours, which
      belong to level k-1: [p, lo] = [hi, p] on [lo, hi];
    - with ``start``, the midpoint of every two neighbouring rungs that
      are known, a rung of level k+1;
    - one step of each edge walk that ``walks[l]`` holds (up, down),
      against the step [uh, ul], ``units[2l], units[2l+1]`` or, without
      ``units``, level k's rungs 1 and 0.  With a the edge rung's point,
      up stops unless [q, a] >= the step and bisects [edge, 1] on
      [p, a]; down stops unless [a, p] >= the step and bisects [0, edge]
      on [a, p] with the sign negated.

    The first step asks every midpoint's lower end and every walk's fit,
    the second every midpoint's upper end and the edge of every walk that
    fits, and then all of them bisect, each as it would alone.  Every
    point but p is a known rung, a segment end or a unit point, held for
    the round (``oracle.hold``) and asked by row (``oracle.compare_rows``):
    a bracket's four held rows, p's fresh row, after the held ones, where
    p moves, or None for an argument that is p on every row.  ``asked[l]``
    counts ladder l's rows.  Returns level k completed (t, sizes, firsts),
    with ``start`` level k+1 begun (else None), NaN where its rung waits
    for the next round, and which walks added a rung."""
    n, stops = sizes.size, np.cumsum(sizes)
    starts, ladder, known = stops - sizes, np.repeat(np.arange(n), sizes), ~np.isnan(t)
    if units is None:       # the step of level k's walks: its rungs 1 and 0
        units = seg.at_many(t[np.c_[starts + 1 - firsts, starts - firsts].ravel()])
    head = [seg.q, seg.p, *units]
    pos = len(head) - 1 + np.cumsum(known)        # the held row of each known rung
    gap = np.flatnonzero(~known)
    pair = np.flatnonzero(known[:-1] & known[1:] & (ladder[:-1] == ladder[1:]) & start)
    a, b = np.r_[gap - 1, pair], np.r_[gap + 1, pair + 1]
    # e.g. two rungs on one jump of a step utility; bad[0] is True for a rung of level k-1
    if (bad := np.flatnonzero(t[b] <= t[a]) < gap.size).size:
        raise ConstructionError(f"level {k - bad[0]} rungs are not strictly increasing")
    wl, wd = np.nonzero(walks)                    # each walk's ladder, and 0 up, 1 down
    up, one = wd == 0, np.ones(a.size, dtype=np.int64)
    e = pos[edge := np.where(up, stops[wl] - 1, starts[wl])]
    # Per bracket: the held rows of its four arguments, -1 for the moving
    # point p; p's held row on the first and the second step; its sign, -1
    # for a walk down; its ladder.
    quad, (first, second, sign, owner) = np.split(np.c_[
        np.stack([-one, pos[a], pos[b], -one, pos[a], pos[b], one, ladder[a]]),
        np.stack([np.where(up, -1, e), np.where(up, e, -1), 2 + 2 * wl, 3 + 2 * wl,
                  np.where(up, 0, 1), e, np.where(up, 1, -1), wl])], [4])
    lo, hi = np.r_[t[a], np.where(up, t[edge], 0.0)], np.r_[t[b], np.where(up, 1.0, t[edge])]
    fixed = oracle.hold(head, seg.at_many(t[known]))
    out, last = np.full(lo.size, np.nan), [None]

    def plan(g: np.ndarray, moving: np.ndarray | None = None) -> tuple:
        """Brackets g's index for ``compare_rows``, moving point at held rows
        ``moving`` or else new, fresh row r after the held rows; their
        count per ladder; their signs."""
        q, sg, new = quad.take(g, axis=1), sign.take(g), moving is None
        moving = len(fixed.points) + np.arange(g.size) if new else moving
        return (tuple(None if new and (c < 0).all() else np.where(c < 0, moving, c) for c in q),
                np.bincount(owner.take(g), minlength=n), sg if sg.min() < 0 else None)

    def ask(index: tuple, counts: np.ndarray, sg: np.ndarray | None, fresh=None) -> np.ndarray:
        asked[:] += counts
        signs = oracle.compare_rows(fixed, index, fresh)
        return signs if sg is None else sg * signs

    def side(j: np.ndarray, u: np.ndarray) -> np.ndarray:
        if j is not last[0]:                      # the same j while no bracket stops
            last[:] = [j, plan(go.take(j))]
        return ask(*last[1], seg.at_many(u))

    s1 = ask(*plan(np.arange(lo.size), first))
    go = np.flatnonzero((quad[3] < 0) | ((sign * s1 >= 0) & (lo < hi)))   # W moves: a midpoint
    if go.size:
        s2, s1, rise = ask(*plan(go, second[go])), s1[go], (sign[go] > 0) & (quad[3, go] >= 0)
        out[go] = band_bisect_many(side, lo[go], hi[go], tol_t, *np.where(rise, [s2, s1], [s1, s2]))

    t[gap] = out[:gap.size]
    new = np.full((n, 2), np.nan)                 # each ladder's new up and down rung
    new[wl, wd] = out[a.size:]
    (grew_up, grew_down), added = (new == new).T, new == new
    # Ups first, so that at the border of two ladders the upper rung of
    # the first comes before the lower rung of the second.
    t = np.insert(t, np.r_[stops[grew_up], starts[grew_down]],
                  np.r_[new[grew_up, 0], new[grew_down, 1]])
    sizes, firsts = sizes + grew_up + grew_down, firsts - grew_down
    if not start:
        return (t, sizes, firsts), None, added
    # Rung 2i of level k+1 is rung i of level k, and rung 2i+1 the
    # midpoint of rungs i and i+1, solved now or, NaN, in the next round;
    # each ladder's block is one shorter than twice its level k.
    nxt = np.full(2 * t.size - n, np.nan)
    nxt[2 * np.arange(t.size) - np.repeat(np.arange(n), sizes)] = t
    lp = ladder[pair]
    nxt[2 * (pair + np.cumsum(added.sum(1))[lp] - grew_up[lp]) - lp + 1] = out[gap.size:a.size]
    return (t, sizes, firsts), (nxt, 2 * sizes - 1, 2 * firsts), added


def archimedean_count(oracle: AltOracle, x, y, z) -> tuple[int, list[np.ndarray]]:
    """Number of equal steps of size [x,y] needed to walk from x past z.

    Starting from a0=y, a1=x, each step solves [a_{i+1}, a_i] = [x,y] on
    the segment a_i -> z; the walk stops at the first k with
    [x,y] > [z, a_k] and returns (k, [a_0..a_k]).  Requires x strictly
    preferred to y and z weakly preferred to x; raises ArchimedeanError
    past ``ARCHIMEDEAN_CAP`` steps.
    """
    x = as_point(x)
    y = as_point(y, x.size)
    z = as_point(z, x.size)
    if not oracle.prefers(x, y):
        raise OrderingError("archimedean walk requires x strictly preferred to y")
    if not oracle.weakly_prefers(z, x):
        raise OrderingError("archimedean walk requires z weakly preferred to x")
    points = [y, x]
    k = 1
    while True:
        if oracle.compare(x, y, z, points[-1]) is IntensityOrder.GREATER:
            return k, points
        if k >= ARCHIMEDEAN_CAP:
            raise ArchimedeanError(f"no finite step count within cap={ARCHIMEDEAN_CAP}")
        a = points[-1]
        seg = Segment(a, z)

        def side(_j: np.ndarray, t: np.ndarray) -> np.ndarray:     # one bracket: one row
            return oracle.compare_batch(seg.at_many(t), a[None], x[None], y[None])

        t = band_bisect_many(side, [0.0], [1.0], DEFAULT_TOL_T)
        points.append(seg.at(float(t[0])))
        k += 1


@dataclass(eq=False)
class ReconstructedUtility(Record):
    """Piecewise-linear utility over the ladder's deepest level.

    Values are in anchor units: 0 at y*, 1 at x*.  Points outside the
    rung range are clamped to the nearest edge value and counted in
    ``clamped`` (the edge strips are narrower than one rung step).
    """

    oracle: AltOracle
    ladder: DyadicLadder

    def __post_init__(self) -> None:
        idx, self._params = self.ladder.levels[self.ladder.depth]
        self._values = idx / 2.0 ** self.ladder.depth
        if np.any(np.diff(self._params) <= 0):
            raise ConstructionError("ladder rungs are not strictly increasing along the segment")
        self.clamped = 0

    @property
    def depth(self) -> int:
        return self.ladder.depth

    @property
    def tol_t(self) -> float:
        return self.ladder.tol_t

    @property
    def interpolation_budget(self) -> float:
        """Value-units error budget of one evaluation (one rung step)."""
        return 2.0 ** (-self.ladder.depth)

    def evaluate(self, x) -> float:
        return float(self.evaluate_many([x])[0])

    def evaluate_many(self, xs) -> np.ndarray:
        """Values of every point of ``xs``: :func:`evaluate_together` of this
        reconstruction alone."""
        return evaluate_together([self], xs)[0]

    def __call__(self, x) -> float:
        return self.evaluate(x)

    def to_dict(self) -> dict:
        return {
            "ladder": self.ladder.to_dict(),
            "tol_t": self.tol_t,
            "eps_eq": self.oracle.eps_eq,
            "oracle": self.oracle.name,
            "oracle_calls": self.ladder.oracle_calls,
            "clamped_evaluations": self.clamped,
        }


def evaluate_together(recons: Sequence[ReconstructedUtility], xs) -> list[np.ndarray]:
    """Per reconstruction r of ``recons`` (one oracle, segment and tol_t),
    the values of the points of ``xs``: a point indifferent to an anchor of
    r takes its value, and the others, solved once for all r in one lockstep
    solve, are interpolated between r's rungs or clamped to an edge value
    (and counted).  The points and every anchor are held once
    (``oracle.hold``), and the anchor checks and the solve ask through
    that ``Held``.  A point's values do not depend on the other
    points."""
    oracle = recons[0].oracle
    xs = oracle.domain.require_many(xs)
    n = len(xs)
    fixed = oracle.hold(xs, [a for r in recons for a in (r.ladder.anchor_lo, r.ladder.anchor_hi)])
    parts, off = [], np.zeros(n, dtype=bool)     # off: off an anchor of some r
    for r, row in zip(recons, range(n, len(fixed.points), 2)):
        values, rest = np.empty(n), np.arange(n)
        for anchor, value in ((row, 0.0), (row + 1, 1.0)):
            a = np.full(rest.size, anchor)
            equal = oracle.compare_rows(fixed, (rest, a, a, a)) == 0
            values[rest[equal]] = value
            rest = rest[~equal]
        parts.append((values, rest))
        off[rest] = True
    union = np.flatnonzero(off)
    t_all, clamp_all = indifference_param_many(oracle, recons[0].ladder.segment, fixed,
                                               recons[0].tol_t, union)
    for r, (values, rest) in zip(recons, parts):
        k = np.searchsorted(union, rest)
        t, clamp, params, vals = t_all[k], clamp_all[k], r._params, r._values
        below = (clamp < 0) | (t <= params[0])
        above = ~below & ((clamp > 0) | (t >= params[-1]))
        r.clamped += int(np.count_nonzero(
            (below & ((clamp < 0) | (t < params[0])))
            | (above & ((clamp > 0) | (t > params[-1])))))
        j = np.clip(np.searchsorted(params, t), 1, params.size - 1)
        frac = (t - params[j - 1]) / (params[j] - params[j - 1])
        inside = vals[j - 1] + frac * (vals[j] - vals[j - 1])
        values[rest] = np.where(below, vals[0], np.where(above, vals[-1], inside))
    return [values for values, _ in parts]


def reconstruct_utility(oracle: AltOracle, y_star=None, x_star=None, depth: int = 10,
                        segment: Segment | None = None) -> ReconstructedUtility:
    """Build a ladder (anchors default to segment params 0.25/0.75) and wrap it."""
    seg = segment or oracle.domain.diagonal()
    y_star = seg.at(0.25) if y_star is None else y_star
    x_star = seg.at(0.75) if x_star is None else x_star
    ladder, = build_ladder(oracle, [(y_star, x_star)], depth, segment=seg)
    return ReconstructedUtility(oracle, ladder)


@dataclass
class AffineFit(Record):
    """Least-squares fit of one reconstruction onto another."""

    alpha: float
    beta: float
    max_residual: float
    samples: int
    threshold: float
    verdict: str


def affine_draw(domain: BoxDomain, seed: int, quads: np.ndarray | None = None) -> np.ndarray:
    """The affine fit's ``AFFINE_SAMPLES`` points under ``seed``: trial i's
    first point, as :func:`representation_spot_check` draws it.  Given
    ``quads``, the spot check's quadruples under ``seed``, trial i's point
    is ``quads[i, 0]``, and only the trials past them are drawn."""
    if quads is None:
        return draw(domain, None, seed, AFFINE_SAMPLES, 1)[0][:, 0]
    have = quads[:AFFINE_SAMPLES, 0]
    u = uniforms(seed, np.arange(len(have), AFFINE_SAMPLES), domain.dim)
    return np.concatenate((have, domain.lower + u * domain.extent))


def verify_affine_uniqueness(recon_a: ReconstructedUtility, recon_b: ReconstructedUtility,
                             seed: int = 0, *, valued: tuple | None = None) -> AffineFit:
    """Fit u_b ~ alpha*u_a + beta over the ``AFFINE_SAMPLES`` points of
    :func:`affine_draw`, by least squares in closed form from centred sums.

    ``recon_a`` and ``recon_b`` reconstruct one system from two anchor
    pairs; :func:`build_ladder` builds both ladders in one solve, and
    :func:`evaluate_together` values both at the points in one solve.  A
    caller that has those values passes them as ``valued``, (u_a, u_b),
    and nothing is drawn or valued here.  A faithful system admits only
    positive affine rescalings, so the fit must have alpha > 0 and
    residuals within the interpolation budget: one rung step of u_b plus
    one of u_a carried through alpha, 2**-depth_b + |alpha| * 2**-depth_a.
    """
    if valued is None:
        points = affine_draw(recon_a.oracle.domain, seed)
        solve = [(r.oracle, r.ladder.segment, r.tol_t) for r in (recon_a, recon_b)]
        valued = (evaluate_together([recon_a, recon_b], points) if solve[0] == solve[1]
                  else [r.evaluate_many(points) for r in (recon_a, recon_b)])
    u_a, u_b = valued
    m_a, m_b = u_a.mean(), u_b.mean()
    d_a = u_a - m_a
    if (d_a * d_a).mean() < 1e-18:
        raise DegenerateFitError("no utility variance across samples; cannot fit")
    alpha = float((d_a * (u_b - m_b)).sum() / (d_a * d_a).sum())
    beta = float(m_b - alpha * m_a)
    residual = float(np.max(np.abs(u_b - (alpha * u_a + beta))))
    threshold = recon_b.interpolation_budget + abs(alpha) * recon_a.interpolation_budget
    verdict = "pass" if (alpha > 0 and residual <= threshold) else "fail"
    return AffineFit(alpha, beta, residual, len(u_a), threshold, verdict)


def check_density(oracle: AltOracle, ladder: DyadicLadder, points: np.ndarray | None = None,
                  trials: int = 200, seed: int = 0) -> AxiomReport:
    """Between any sampled strict pair more than two rung steps apart there
    must be a rung strictly between them (oracle-checked).  The ladder
    needs depth >= 1.

    Every trial's pair is drawn first, then ranked and valued in batches;
    the rungs nearest the pair's reconstructed midpoint are tried first,
    in lockstep rounds over the trials."""
    if ladder.depth < 1:
        raise ValueError(f"ladder depth {ladder.depth} below the minimum 1")
    recon = ReconstructedUtility(oracle, ladder)
    gap_threshold = 2.0 ** (1 - ladder.depth)
    rung_points = ladder.segment.at_many(recon._params)
    rung_values = recon._values

    pairs, _ = draw(oracle.domain, points, seed, trials, 2)
    a, b = pairs[:, 0], pairs[:, 1]
    pref = oracle.compare_batch(a, b, b, b)
    hi, lo = np.where(pref[:, None] > 0, a, b), np.where(pref[:, None] > 0, b, a)
    strict = np.flatnonzero(pref != 0)
    u_hi, u_lo = recon.evaluate_many(np.concatenate([hi[strict], lo[strict]])).reshape(2, -1)
    gap = u_hi - u_lo
    wide = gap > gap_threshold
    idx, gap, mid = strict[wide], gap[wide], u_lo[wide] + 0.5 * gap[wide]
    order = np.array([np.argsort(np.abs(rung_values - m)) for m in mid.tolist()],
                     dtype=np.intp).reshape(idx.size, rung_values.size)
    found = np.zeros(idx.size, dtype=bool)
    for r in range(rung_values.size):        # round r: each open trial's r-th rung
        q = np.flatnonzero(~found)
        if not q.size:
            break
        zp = rung_points[order[q, r]]
        above = oracle.compare_batch(hi[idx[q]], zp, zp, zp) > 0
        q, zp, lo_q = q[above], zp[above], lo[idx[q[above]]]
        found[q[oracle.compare_batch(zp, lo_q, lo_q, lo_q) > 0]] = True

    tags = np.full(trials, SKIP, dtype=object)
    tags[idx] = np.where(found, None, VIOLATION)
    return _collect("density", trials, seed, *_fold(tags, lambda i: Witness(
        {"hi": _pt(hi[i]), "lo": _pt(lo[i])},
        {"reconstructed_gap": f"{gap[np.searchsorted(idx, i)]:.6g}"})),
                    extras={"gap_threshold": gap_threshold, "depth": ladder.depth})


def representation_spot_check(recon: ReconstructedUtility, trials: int = 1000,
                              seed: int = 0, points: np.ndarray | None = None, *,
                              valued: tuple | None = None) -> AxiomReport:
    """Reconstructed value differences must reproduce the oracle trichotomy
    on random quadruples, up to a dead band of four rung steps, 2**(2 - depth).

    Every trial's quadruple is drawn first, ``draw(domain, points, seed,
    trials, 4)[0]``, so that all 4 * trials reconstructed values and all
    oracle answers come from batched calls.  A caller that has drawn and
    valued them passes ``valued``, (quads, u) with u of shape (trials, 4),
    and nothing is drawn or valued here."""
    oracle = recon.oracle
    dead_band = 2.0 ** (2 - recon.depth)
    if valued is None:
        quads = draw(oracle.domain, points, seed, trials, 4)[0]
        valued = quads, recon.evaluate_many(quads.reshape(-1, oracle.dim)).reshape(trials, 4)
    quads, u = valued
    d_hat = (u[:, 0] - u[:, 1]) - (u[:, 2] - u[:, 3])
    judged = np.flatnonzero(np.abs(d_hat) > dead_band)
    predicted = np.where(d_hat > 0, 1, -1)
    answers = predicted.copy()                  # a trial in the band is not asked
    answers[judged] = oracle.compare_batch(*(quads[judged, k] for k in range(4)))

    def witness(i: int) -> Witness:
        return Witness({n: _pt(p) for n, p in zip(QUAD, quads[i])},
                       {"oracle": _ORDER[answers[i]], "reconstruction": _ORDER[predicted[i]],
                        "value_difference": f"{d_hat[i]:.6g}"})
    return _collect("representation", trials, seed,
                    *_fold(np.where(answers != predicted, VIOLATION, None), witness),
                    extras={"dead_band": dead_band, "in_band": trials - judged.size})


def order_embedding_check(recon: ReconstructedUtility, trials: int = 1000,
                          seed: int = 0) -> AxiomReport:
    """Reconstructed values must rank pairs exactly as the derived order.

    Every trial's pair is drawn first; one ``evaluate_many`` values all of
    them and one ``compare_batch`` ranks the pairs whose values differ by
    more than the dead band of two rung steps, 2**(1 - depth)."""
    oracle = recon.oracle
    dead_band = 2.0 ** (1 - recon.depth)

    pairs, _ = draw(oracle.domain, None, seed, trials, 2)
    u = recon.evaluate_many(pairs.reshape(-1, oracle.dim)).reshape(trials, 2)
    d = u[:, 0] - u[:, 1]
    judged = np.flatnonzero(np.abs(d) > dead_band)
    a, b = pairs[judged, 0], pairs[judged, 1]
    expected = np.where(d > 0, 1, -1)
    answers = np.zeros(trials, dtype=np.int8)
    answers[judged] = oracle.compare_batch(a, b, b, b)
    tags = np.full(trials, "in-band", dtype=object)
    tags[judged] = np.where(answers[judged] == expected[judged], None, VIOLATION)
    violations, counts = _fold(tags, lambda i: Witness(
        {"a": _pt(pairs[i, 0]), "b": _pt(pairs[i, 1])},
        {"oracle": _PREFERENCE[answers[i]], "reconstruction": _PREFERENCE[expected[i]],
         "value_difference": f"{d[i]:.6g}"}))
    return _collect("order-embedding", trials, seed, violations, counts,
                    extras={"dead_band": dead_band, "in_band": counts["in-band"]})
