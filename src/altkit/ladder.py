"""Constructive cardinal-utility reconstruction on a reference segment.

The ladder fixes two anchors (value 0 and 1) on a strictly-ranked segment
and fills in rungs of equal intensity steps: level 0 walks unit steps to
both domain edges, and each deeper level bisects every step by an
intensity midpoint, then tries one extra half-step past each edge.  Rung
(i, k) has value i / 2**k by construction.  ``build_ladder`` builds the
ladders of many anchor pairs together, as the brackets of one lockstep
solve per level and per edge-walk step, each with the rungs it would get
alone.  A reconstructed utility evaluates any point by sliding it to its
indifferent diagonal parameter and interpolating linearly between the
deepest rungs; ``evaluate_many`` solves many points in lockstep, and
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
from .domain import Segment, as_point
from .errors import ArchimedeanError, ConstructionError, DegenerateFitError, OrderingError
from .oracle import AltOracle, IntensityOrder
# run_indexed, subrng and band_bisect are unused here; perfbench/tracing.py patches them.
from .sampling import draw, run_indexed, subrng  # noqa: F401
from .solvers import (DEFAULT_TOL_T, band_bisect, band_bisect_many,  # noqa: F401
                      indifference_param_many, pinned_rows)

MAX_RUNGS_PER_LEVEL = 200_000
ARCHIMEDEAN_CAP = 1000      # steps an Archimedean walk may take
AFFINE_SAMPLES = 200        # points an affine fit is taken over


@dataclass(eq=False)
class DyadicLadder:
    """Rung parameters by (level, index); rung (i, k) carries value i/2**k.

    ``oracle_calls`` is the number of compares the construction made."""

    segment: Segment
    depth: int
    levels: list[dict[int, float]]
    anchor_lo: np.ndarray
    anchor_hi: np.ndarray
    tol_t: float
    oracle_calls: int = 0

    def point(self, i: int, k: int) -> np.ndarray:
        return self.segment.at(self.levels[k][i])

    @staticmethod
    def value(i: int, k: int) -> float:
        return i / (1 << k)

    def index_range(self, k: int) -> tuple[int, int]:
        idx = self.levels[k]
        return min(idx), max(idx)

    def rungs(self, k: int | None = None) -> list[tuple[int, float]]:
        level = self.levels[self.depth if k is None else k]
        return sorted(level.items())

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "tol_t": self.tol_t,
            "segment": {"p": self.segment.p.tolist(), "q": self.segment.q.tolist()},
            "anchors": {"lo": self.anchor_lo.tolist(), "hi": self.anchor_hi.tolist()},
            "levels": [
                {str(i): {"param": t, "value": self.value(i, k)}
                 for i, t in sorted(level.items())}
                for k, level in enumerate(self.levels)
            ],
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
    any rung is solved.  Then each level bisects the steps of every ladder
    in one lockstep solve, and all edge walks step together.  A ladder
    gets the rungs it would get alone, after the same compares, which its
    ``oracle_calls`` counts: the ladders' counts add up to the build's.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seg = segment or oracle.domain.diagonal()
    ladders: list[DyadicLadder] = []
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
        ladders.append(DyadicLadder(seg, depth, [{0: t0, 1: t1}], y_star, x_star, tol_t,
                                    oracle_calls=oracle.calls - calls0))
    asked = np.zeros(len(ladders), dtype=np.int64)

    def ask(owner: np.ndarray, *quad: np.ndarray) -> np.ndarray:
        """compare_batch of ``quad``, whose row r belongs to ladder owner[r]."""
        asked[:] += np.bincount(owner, minlength=asked.size)
        return oracle.compare_batch(*quad)

    _grow(ask, seg, [lad.levels[0] for lad in ladders],
          np.array([lad.anchor_lo for lad in ladders]),
          np.array([lad.anchor_hi for lad in ladders]), tol_t)

    for k in range(1, depth + 1):
        prevs = [lad.levels[-1] for lad in ladders]
        if (size := 2 * max(map(len, prevs), default=0) - 1) > MAX_RUNGS_PER_LEVEL:
            raise ConstructionError(f"rung cap exceeded: level {k} would hold {size} rungs")
        # Every step of every ladder's level is bisected by its intensity
        # midpoint, all steps in lockstep.
        inner = [sorted(prev)[:-1] for prev in prevs]
        sizes = [len(idx) for idx in inner]
        owner = np.repeat(np.arange(len(prevs)), sizes)
        t_lo = np.array([prev[i] for prev, idx in zip(prevs, inner) for i in idx])
        t_hi = np.array([prev[i + 1] for prev, idx in zip(prevs, inner) for i in idx])
        if np.any(t_hi <= t_lo):         # e.g. two rungs on one jump of a step utility
            raise ConstructionError(f"level {k - 1} rungs are not strictly increasing")
        ends = pinned_rows(seg.at_many(t_lo), seg.at_many(t_hi))

        def side(j: np.ndarray, t: np.ndarray) -> np.ndarray:
            p = seg.at_many(t)
            return ask(owner[j], p, *ends(j), p)

        mids = band_bisect_many(side, t_lo, t_hi, tol_t)
        curs = []
        for prev, idx, part in zip(prevs, inner, np.split(mids, np.cumsum(sizes)[:-1])):
            cur = {2 * i: t for i, t in prev.items()}
            cur.update(zip((2 * i + 1 for i in idx), part.tolist()))
            curs.append(cur)
        # One extra half-step may fit past each edge; by construction a
        # second one never does.
        _grow(ask, seg, curs, seg.at_many(np.array([cur[0] for cur in curs])),
              seg.at_many(np.array([cur[1] for cur in curs])), tol_t, limit=1)
        for lad, cur in zip(ladders, curs):
            lad.levels.append(cur)

    for lad, n in zip(ladders, asked.tolist()):
        lad.oracle_calls += n
    return ladders


def _grow(ask, seg: Segment, levels: list[dict[int, float]], unit_lo: np.ndarray,
          unit_hi: np.ndarray, tol_t: float, limit: int | None = None) -> None:
    """Add rungs past both edges of each ``levels[l]`` while a full step
    [unit_hi[l], unit_lo[l]] fits before the segment's end, at most
    ``limit`` on each side.

    The walks up from max(level) and down from min(level) of every level
    are independent, so each of their steps is one lockstep solve of all
    of them; ``ask`` is ``compare_batch`` told the level of each row.
    With a the edge rung's point, up stops unless [q, a] >= the step and
    bisects [edge, 1] on [seg.at(t), a]; down stops unless [a, p] >= the
    step and bisects [0, edge] on [a, seg.at(t)], with the sign negated.
    """
    walk = np.tile([1, -1], len(levels))      # +1 up, -1 down
    owner = np.repeat(np.arange(len(levels)), 2)
    units = pinned_rows(unit_hi, unit_lo)     # the first step asks every level's step

    def quad(j: np.ndarray, p: np.ndarray) -> np.ndarray:
        """[p, a] for walks j up and [a, p] for walks j down, against their step."""
        w, o = walk[j, None] > 0, owner[j]
        return ask(o, np.where(w, p, a[j]), np.where(w, a[j], p), *units(o))

    added = 0
    while walk.size and (limit is None or added < limit):
        edge = np.array([max(levels[o]) if w > 0 else min(levels[o])
                         for w, o in zip(walk.tolist(), owner.tolist())])
        t = np.array([levels[o][i] for o, i in zip(owner.tolist(), edge.tolist())])
        a = seg.at_many(t)
        state = quad(np.arange(walk.size), np.where(walk[:, None] > 0, seg.q, seg.p))
        keep = (state >= 0) & np.where(walk > 0, t < 1.0, t > 0.0)
        walk, owner, edge, t, a, state = (v[keep] for v in (walk, owner, edge, t, a, state))
        if not walk.size:
            return
        up = walk > 0

        def side(j: np.ndarray, u: np.ndarray) -> np.ndarray:
            return walk[j] * quad(j, seg.at_many(u))

        end = side(np.arange(walk.size), t)
        new = band_bisect_many(side, np.where(up, t, 0.0), np.where(up, 1.0, t), tol_t,
                               np.where(up, end, -state), np.where(up, state, end))
        for o, i, u in zip(owner.tolist(), (edge + walk).tolist(), new.tolist()):
            levels[o][i] = u
        added += 1
        if any(len(levels[o]) > MAX_RUNGS_PER_LEVEL for o in set(owner.tolist())):
            raise ConstructionError("rung cap exceeded; anchors are too close together")


def archimedean_count(oracle: AltOracle, x, y, z,
                      tol_t: float = DEFAULT_TOL_T) -> tuple[int, list[np.ndarray]]:
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

        t = band_bisect_many(side, [0.0], [1.0], tol_t)
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
    tol_t: float = DEFAULT_TOL_T

    def __post_init__(self) -> None:
        deepest = self.ladder.rungs()
        self._params = np.array([t for _, t in deepest])
        self._values = np.array([self.ladder.value(i, self.ladder.depth) for i, _ in deepest])
        if np.any(np.diff(self._params) <= 0):
            raise ConstructionError("ladder rungs are not strictly increasing along the segment")
        self.clamped = 0

    @property
    def depth(self) -> int:
        return self.ladder.depth

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
    (and counted).  A point's values do not depend on the other points."""
    oracle = recons[0].oracle
    xs = oracle.domain.require_many(xs)
    parts, off = [], np.zeros(len(xs), dtype=bool)     # off: off an anchor of some r
    for r in recons:
        values, rest = np.empty(len(xs)), np.arange(len(xs))
        for anchor, value in ((r.ladder.anchor_lo, 0.0), (r.ladder.anchor_hi, 1.0)):
            a = np.broadcast_to(anchor, (rest.size, oracle.dim))
            equal = oracle.compare_batch(xs[rest], a, a, a) == 0
            values[rest[equal]] = value
            rest = rest[~equal]
        parts.append((values, rest))
        off[rest] = True
    union = np.flatnonzero(off)
    t_all, clamp_all = indifference_param_many(oracle, recons[0].ladder.segment, xs[union],
                                               recons[0].tol_t)
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
                        tol_t: float = DEFAULT_TOL_T,
                        segment: Segment | None = None) -> ReconstructedUtility:
    """Build a ladder (anchors default to segment params 0.25/0.75) and wrap it."""
    seg = segment or oracle.domain.diagonal()
    y_star = seg.at(0.25) if y_star is None else y_star
    x_star = seg.at(0.75) if x_star is None else x_star
    ladder, = build_ladder(oracle, [(y_star, x_star)], depth, tol_t, seg)
    return ReconstructedUtility(oracle, ladder, tol_t)


@dataclass
class AffineFit(Record):
    """Least-squares fit of one reconstruction onto another."""

    alpha: float
    beta: float
    max_residual: float
    samples: int
    threshold: float
    verdict: str


def verify_affine_uniqueness(recon_a: ReconstructedUtility, recon_b: ReconstructedUtility,
                             seed: int = 0) -> AffineFit:
    """Fit u_b ~ alpha*u_a + beta over ``AFFINE_SAMPLES`` points of the box.

    ``recon_a`` and ``recon_b`` reconstruct one system from two anchor
    pairs; :func:`build_ladder` builds both ladders in one solve.  A
    faithful system admits only positive affine rescalings, so the fit
    must have alpha > 0 and residuals within the interpolation budget: one
    rung step of u_b plus one of u_a carried through alpha,
    2**-depth_b + |alpha| * 2**-depth_a.
    """
    rng_points = draw(recon_a.oracle.domain, None, seed, AFFINE_SAMPLES, 1)[0][:, 0]
    solve = [(r.oracle, r.ladder.segment, r.tol_t) for r in (recon_a, recon_b)]
    u_a, u_b = (evaluate_together([recon_a, recon_b], rng_points) if solve[0] == solve[1]
                else [r.evaluate_many(rng_points) for r in (recon_a, recon_b)])
    if float(np.var(u_a)) < 1e-18:
        raise DegenerateFitError("no utility variance across samples; cannot fit")
    alpha, beta = np.polyfit(u_a, u_b, 1)
    residual = float(np.max(np.abs(u_b - (alpha * u_a + beta))))
    threshold = recon_b.interpolation_budget + abs(float(alpha)) * recon_a.interpolation_budget
    verdict = "pass" if (alpha > 0 and residual <= threshold) else "fail"
    return AffineFit(float(alpha), float(beta), residual, AFFINE_SAMPLES, threshold, verdict)


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
    recon = ReconstructedUtility(oracle, ladder, ladder.tol_t)
    gap_threshold = 2.0 ** (1 - ladder.depth)
    rung_points = ladder.segment.at_many(np.array([t for _, t in ladder.rungs()]))
    rung_values = np.array([ladder.value(i, ladder.depth) for i, _ in ladder.rungs()])

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
                              seed: int = 0, points: np.ndarray | None = None) -> AxiomReport:
    """Reconstructed value differences must reproduce the oracle trichotomy
    on random quadruples, up to a dead band of four rung steps, 2**(2 - depth)."""
    oracle = recon.oracle
    dead_band = 2.0 ** (2 - recon.depth)
    # Every trial's quadruple is drawn first, so that all 4 * trials
    # reconstructed values and all oracle answers come from batched calls.
    quads, _ = draw(oracle.domain, points, seed, trials, 4)
    u = recon.evaluate_many(quads.reshape(-1, oracle.dim)).reshape(trials, 4)
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
