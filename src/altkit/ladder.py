"""Constructive cardinal-utility reconstruction on a reference segment.

The ladder fixes two anchors (value 0 and 1) on a strictly-ranked segment
and fills in rungs of equal intensity steps: level 0 walks unit steps to
both domain edges, and each deeper level bisects every step by an
intensity midpoint, then tries one extra half-step past each edge.  The
walks up and down step together, as two brackets of one lockstep solve.  Rung
(i, k) has value i / 2**k by construction.  A reconstructed utility
evaluates any point by sliding it to its indifferent diagonal parameter
and interpolating linearly between the deepest rungs; ``evaluate_many``
solves many points in lockstep, and ``evaluate`` is that solve on one
point.  The sampled checks on a ladder (density, representation, order
embedding) draw every trial's points first and then ask the oracle and
the reconstruction in batches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .axioms import (_PREFERENCE, QUAD, SKIP, WITNESS_CAP, AxiomReport, Record, Witness,
                     _collect, _fold, _pt)
from .domain import Segment, as_point
from .errors import ArchimedeanError, ConstructionError, DegenerateFitError, OrderingError
from .oracle import AltOracle, IntensityOrder
# run_indexed, subrng and band_bisect are unused here; perfbench/tracing.py patches them.
from .sampling import draw, run_indexed, subrng  # noqa: F401
from .solvers import (DEFAULT_TOL_T, band_bisect, band_bisect_many,  # noqa: F401
                      indifference_param_many, pinned_rows)

GREATER, EQUAL, LESS = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS

MAX_RUNGS_PER_LEVEL = 200_000


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

    def param(self, i: int, k: int) -> float:
        return self.levels[k][i]

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


def build_ladder(oracle: AltOracle, y_star, x_star, depth: int,
                 tol_t: float = DEFAULT_TOL_T, segment: Segment | None = None) -> DyadicLadder:
    """Build the dyadic rung grid anchored at y* (value 0) and x* (value 1).

    Both anchors must lie on the reference segment (the domain diagonal by
    default) with x* strictly preferred to y*, and the segment endpoints
    must themselves be strictly ranked -- systems that are not monotone
    along the default diagonal are rejected and need a caller-supplied
    strictly-increasing segment.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    calls0 = oracle.calls
    seg = segment or oracle.domain.diagonal()
    y_star = oracle.domain.require(as_point(y_star, seg.dim), "anchor y*")
    x_star = oracle.domain.require(as_point(x_star, seg.dim), "anchor x*")
    t0 = seg.param_of(y_star)
    t1 = seg.param_of(x_star)
    if t1 <= t0:
        raise OrderingError("anchor x* must sit above y* on the reference segment")
    if not oracle.prefers(x_star, y_star):
        raise OrderingError("anchors must be strictly ranked: x* > y*")
    if not oracle.prefers(seg.q, seg.p):
        raise OrderingError(
            "reference segment endpoints are not strictly ranked; the system is "
            "not increasing along the default diagonal -- supply a custom segment")

    level0: dict[int, float] = {0: t0, 1: t1}
    _grow(oracle, seg, level0, y_star, x_star, tol_t)
    levels = [level0]

    for k in range(1, depth + 1):
        prev = levels[-1]
        if (size := 2 * len(prev) - 1) > MAX_RUNGS_PER_LEVEL:
            raise ConstructionError(f"rung cap exceeded: level {k} would hold {size} rungs")
        cur = {2 * i: t for i, t in prev.items()}
        # Every step of the level is bisected by its intensity midpoint,
        # all steps in lockstep.
        inner = sorted(prev)[:-1]
        t_lo = np.array([prev[i] for i in inner])
        t_hi = np.array([prev[i + 1] for i in inner])
        if np.any(t_hi <= t_lo):         # e.g. two rungs on one jump of a step utility
            raise ConstructionError(f"level {k - 1} rungs are not strictly increasing")
        ends = pinned_rows(seg.at_many(t_lo), seg.at_many(t_hi))

        def side(j: np.ndarray, t: np.ndarray) -> np.ndarray:
            p = seg.at_many(t)
            return oracle.compare_batch(p, *ends(j), p)

        mids = band_bisect_many(side, t_lo, t_hi, tol_t)
        cur.update(zip((2 * i + 1 for i in inner), mids.tolist()))
        # One extra half-step may fit past each edge; by construction a
        # second one never does.
        unit_lo_pt, unit_hi_pt = seg.at(cur[0]), seg.at(cur[1])
        _grow(oracle, seg, cur, unit_lo_pt, unit_hi_pt, tol_t, limit=1)
        levels.append(cur)

    return DyadicLadder(seg, depth, levels, y_star, x_star, tol_t,
                        oracle_calls=oracle.calls - calls0)


def _grow(oracle: AltOracle, seg: Segment, level: dict[int, float], unit_lo: np.ndarray,
          unit_hi: np.ndarray, tol_t: float, limit: int | None = None) -> None:
    """Add rungs past both edges of ``level`` while a full step [unit_hi,
    unit_lo] fits before the segment's end, at most ``limit`` on each side.

    The walk up from max(level) and the walk down from min(level) are
    independent, so each of their steps is one lockstep solve of both.
    With a the edge rung's point, up stops unless [q, a] >= the step and
    bisects [edge, 1] on [seg.at(t), a]; down stops unless [a, p] >= the
    step and bisects [0, edge] on [a, seg.at(t)], with the sign negated.
    """
    walk = np.array([1, -1])                  # +1 up, -1 down

    def ask(j: np.ndarray, p: np.ndarray) -> np.ndarray:
        """[p, a] for walks j up and [a, p] for walks j down, against the step."""
        w, rows = walk[j, None] > 0, p.shape
        return oracle.compare_batch(np.where(w, p, a[j]), np.where(w, a[j], p),
                                    np.broadcast_to(unit_hi, rows), np.broadcast_to(unit_lo, rows))

    added = 0
    while walk.size and (limit is None or added < limit):
        edge = np.array([max(level) if w > 0 else min(level) for w in walk.tolist()])
        t = np.array([level[i] for i in edge.tolist()])
        a = seg.at_many(t)
        state = ask(np.arange(walk.size), np.where(walk[:, None] > 0, seg.q, seg.p))
        keep = (state >= 0) & np.where(walk > 0, t < 1.0, t > 0.0)
        walk, edge, t, a, state = (v[keep] for v in (walk, edge, t, a, state))
        if not walk.size:
            return
        up = walk > 0

        def side(j: np.ndarray, u: np.ndarray) -> np.ndarray:
            return walk[j] * ask(j, seg.at_many(u))

        end = side(np.arange(walk.size), t)
        new = band_bisect_many(side, np.where(up, t, 0.0), np.where(up, 1.0, t), tol_t,
                               np.where(up, end, -state), np.where(up, state, end))
        level.update(zip((edge + walk).tolist(), new.tolist()))
        added += 1
        if len(level) > MAX_RUNGS_PER_LEVEL:
            raise ConstructionError("rung cap exceeded; anchors are too close together")


def archimedean_count(oracle: AltOracle, x, y, z, cap: int = 1000,
                      tol_t: float = DEFAULT_TOL_T) -> tuple[int, list[np.ndarray]]:
    """Number of equal steps of size [x,y] needed to walk from x past z.

    Starting from a0=y, a1=x, each step solves [a_{i+1}, a_i] = [x,y] on
    the segment a_i -> z; the walk stops at the first k with
    [x,y] > [z, a_k] and returns (k, [a_0..a_k]).  Requires x strictly
    preferred to y and z weakly preferred to x; raises ArchimedeanError
    past ``cap`` steps.
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
        if oracle.compare(x, y, z, points[-1]) is GREATER:
            return k, points
        if k >= cap:
            raise ArchimedeanError(f"no finite step count within cap={cap}")
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
        """Values of every point of ``xs``.  A point indifferent to an
        anchor takes its value; the others are solved to their indifferent
        segment parameters in lockstep and interpolated between rungs, or
        clamped to an edge value (and counted) outside the rung range.  A
        point gets the same value after the same number of compares
        whatever the other points are."""
        oracle, ladder = self.oracle, self.ladder
        xs = oracle.domain.require_many(xs)
        values = np.empty(len(xs))
        rest = np.arange(len(xs))
        for anchor, value in ((ladder.anchor_lo, 0.0), (ladder.anchor_hi, 1.0)):
            a = np.broadcast_to(anchor, (rest.size, oracle.dim))
            equal = oracle.compare_batch(xs[rest], a, a, a) == 0
            values[rest[equal]] = value
            rest = rest[~equal]
        t, clamp = indifference_param_many(oracle, ladder.segment, xs[rest], self.tol_t)
        params, vals = self._params, self._values
        below = (clamp < 0) | (t <= params[0])
        above = ~below & ((clamp > 0) | (t >= params[-1]))
        self.clamped += int(np.count_nonzero(
            (below & ((clamp < 0) | (t < params[0])))
            | (above & ((clamp > 0) | (t > params[-1])))))
        j = np.clip(np.searchsorted(params, t), 1, params.size - 1)
        frac = (t - params[j - 1]) / (params[j] - params[j - 1])
        inside = vals[j - 1] + frac * (vals[j] - vals[j - 1])
        values[rest] = np.where(below, vals[0], np.where(above, vals[-1], inside))
        return values

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


def reconstruct_utility(oracle: AltOracle, y_star=None, x_star=None, depth: int = 10,
                        tol_t: float = DEFAULT_TOL_T, segment: Segment | None = None,
                        anchor_params: tuple[float, float] = (0.25, 0.75)) -> ReconstructedUtility:
    """Build a ladder (anchors default to diagonal params 0.25/0.75) and wrap it."""
    seg = segment or oracle.domain.diagonal()
    if y_star is None:
        y_star = seg.at(anchor_params[0])
    if x_star is None:
        x_star = seg.at(anchor_params[1])
    ladder = build_ladder(oracle, y_star, x_star, depth, tol_t, seg)
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


def verify_affine_uniqueness(recon_a: ReconstructedUtility, anchors_b: Sequence,
                             samples: int = 200, seed: int = 0,
                             threshold: float | None = None) -> AffineFit:
    """Reconstruct again from other anchor params and fit u_b ~ alpha*u_a + beta.

    ``anchors_b`` is a (lo, hi) parameter pair on the reference segment of
    ``recon_a``; the second reconstruction uses that segment and the
    oracle, depth and tolerance of ``recon_a``.  A faithful system admits
    only positive affine rescalings, so the fit must have alpha > 0 and
    residuals within the interpolation budget: one rung step of u_b plus
    one of u_a carried through alpha, (1 + |alpha|) * 2**-depth, unless
    ``threshold`` is given.
    """
    oracle = recon_a.oracle
    recon_b = reconstruct_utility(oracle, depth=recon_a.depth, tol_t=recon_a.tol_t,
                                  segment=recon_a.ladder.segment,
                                  anchor_params=(float(anchors_b[0]), float(anchors_b[1])))
    rng_points = draw(oracle.domain, None, seed, samples, 1)[0][:, 0]
    u_a = recon_a.evaluate_many(rng_points)
    u_b = recon_b.evaluate_many(rng_points)
    if float(np.var(u_a)) < 1e-18:
        raise DegenerateFitError("no utility variance across samples; cannot fit")
    alpha, beta = np.polyfit(u_a, u_b, 1)
    residual = float(np.max(np.abs(u_b - (alpha * u_a + beta))))
    if threshold is None:
        threshold = (1.0 + abs(float(alpha))) * recon_a.interpolation_budget
    verdict = "pass" if (alpha > 0 and residual <= threshold) else "fail"
    return AffineFit(float(alpha), float(beta), residual, samples, threshold, verdict)


def check_density(oracle: AltOracle, ladder: DyadicLadder, points: np.ndarray | None = None,
                  trials: int = 200, seed: int = 0, min_depth: int = 1) -> AxiomReport:
    """Between any sampled strict pair more than two rung steps apart there
    must be a rung strictly between them (oracle-checked).

    Every trial's pair is drawn first, then ranked and valued in batches;
    the rungs nearest the pair's reconstructed midpoint are tried first,
    in lockstep rounds over the trials."""
    if ladder.depth < min_depth:
        raise ValueError(f"ladder depth {ladder.depth} below configured minimum {min_depth}")
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

    results: list = [SKIP] * trials
    for q, i in enumerate(idx.tolist()):
        results[i] = None if found[q] else Witness(
            {"hi": _pt(hi[i]), "lo": _pt(lo[i])}, {"reconstructed_gap": f"{gap[q]:.6g}"})
    return _collect("density", trials, seed, *_fold(results, WITNESS_CAP),
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
    answers = oracle.compare_batch(*(quads[judged, k] for k in range(4)))
    results: list = [None] * trials
    for i, c in zip(judged.tolist(), answers.tolist()):
        predicted = GREATER if d_hat[i] > 0 else LESS
        if c != predicted.sign:
            results[i] = Witness({n: _pt(p) for n, p in zip(QUAD, quads[i])},
                                 {"oracle": (LESS, EQUAL, GREATER)[c + 1].value,
                                  "reconstruction": predicted.value,
                                  "value_difference": f"{d_hat[i]:.6g}"})

    return _collect("representation", trials, seed, *_fold(results, WITNESS_CAP),
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
    answers = oracle.compare_batch(a, b, b, b)
    results: list = ["in-band"] * trials
    for i, p in zip(judged.tolist(), answers.tolist()):
        expected = 1 if d[i] > 0 else -1
        results[i] = None if p == expected else Witness(
            {"a": _pt(pairs[i, 0]), "b": _pt(pairs[i, 1])},
            {"oracle": _PREFERENCE[p], "reconstruction": _PREFERENCE[expected],
             "value_difference": f"{d[i]:.6g}"})

    violations, counts = _fold(results, WITNESS_CAP)
    return _collect("order-embedding", trials, seed, violations, counts,
                    extras={"dead_band": dead_band, "in_band": counts["in-band"]})
