"""Constructive cardinal-utility reconstruction on a reference segment.

The ladder fixes two anchors (value 0 and 1) on a strictly-ranked segment
and fills in rungs of equal intensity steps: level 0 walks unit steps to
both domain edges, and each deeper level bisects every step by an
intensity midpoint, then tries one extra half-step past each edge.  Rung
(i, k) has value i / 2**k by construction.  A reconstructed utility
evaluates any point by sliding it to its indifferent diagonal parameter
and interpolating linearly between the deepest rungs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .axioms import WITNESS_CAP, AxiomReport, Witness, _collect, _pt, to_json
from .domain import Segment, as_point
from .errors import ArchimedeanError, ConstructionError, DegenerateFitError, OrderingError
from .oracle import AltOracle, IntensityOrder, Preference
from .sampling import Sampler, checked_sampler, run_indexed, subrng
from .solvers import DEFAULT_TOL_T, band_bisect, indifference_param

GREATER, EQUAL, LESS = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS

MAX_RUNGS_PER_LEVEL = 200_000


@dataclass(eq=False)
class DyadicLadder:
    """Rung parameters by (level, index); rung (i, k) carries value i/2**k."""

    segment: Segment
    depth: int
    levels: list[dict[int, float]]
    anchor_lo: np.ndarray
    anchor_hi: np.ndarray
    tol_t: float

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

    def grow_up(level: dict[int, float], unit_lo: np.ndarray, unit_hi: np.ndarray,
                limit: int | None = None) -> None:
        """Append rungs above max(level) while a full step fits before seg.q."""
        added = 0
        while limit is None or added < limit:
            i = max(level)
            a = seg.at(level[i])
            state = oracle.compare(seg.q, a, unit_hi, unit_lo)
            if state is LESS:
                return
            if level[i] >= 1.0:
                return

            def side(t: float) -> IntensityOrder:
                return oracle.compare(seg.at(t), a, unit_hi, unit_lo)

            level[i + 1] = band_bisect(side, level[i], 1.0, tol_t, hi_state=state)
            added += 1
            if len(level) > MAX_RUNGS_PER_LEVEL:
                raise ConstructionError("rung cap exceeded; anchors are too close together")

    def grow_down(level: dict[int, float], unit_lo: np.ndarray, unit_hi: np.ndarray,
                  limit: int | None = None) -> None:
        added = 0
        while limit is None or added < limit:
            j = min(level)
            a = seg.at(level[j])
            state = oracle.compare(a, seg.p, unit_hi, unit_lo)
            if state is LESS:
                return
            if level[j] <= 0.0:
                return

            def side(t: float) -> IntensityOrder:
                return oracle.compare(a, seg.at(t), unit_hi, unit_lo).flipped()

            level[j - 1] = band_bisect(side, 0.0, level[j], tol_t, lo_state=state.flipped())
            added += 1
            if len(level) > MAX_RUNGS_PER_LEVEL:
                raise ConstructionError("rung cap exceeded; anchors are too close together")

    level0: dict[int, float] = {0: t0, 1: t1}
    grow_up(level0, y_star, x_star)
    grow_down(level0, y_star, x_star)
    levels = [level0]

    for _ in range(depth):
        prev = levels[-1]
        cur = {2 * i: t for i, t in prev.items()}
        for i in sorted(prev)[:-1]:
            t_lo, t_hi = prev[i], prev[i + 1]
            lo_pt, hi_pt = seg.at(t_lo), seg.at(t_hi)

            def side(t: float) -> IntensityOrder:
                p = seg.at(t)
                return oracle.compare(p, lo_pt, hi_pt, p)

            cur[2 * i + 1] = band_bisect(side, t_lo, t_hi, tol_t)
        # One extra half-step may fit past each edge; by construction a
        # second one never does.
        unit_lo_pt, unit_hi_pt = seg.at(cur[0]), seg.at(cur[1])
        grow_up(cur, unit_lo_pt, unit_hi_pt, limit=1)
        grow_down(cur, unit_lo_pt, unit_hi_pt, limit=1)
        levels.append(cur)

    return DyadicLadder(seg, depth, levels, y_star, x_star, tol_t)


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

        def side(t: float) -> IntensityOrder:
            return oracle.compare(seg.at(t), a, x, y)

        t = band_bisect(side, 0.0, 1.0, tol_t)
        points.append(seg.at(t))
        k += 1


@dataclass(eq=False)
class ReconstructedUtility:
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

    def evaluate_detailed(self, x) -> tuple[float, bool]:
        x = self.oracle.domain.require(x)
        if self.oracle.indifferent(x, self.ladder.anchor_lo):
            return 0.0, False
        if self.oracle.indifferent(x, self.ladder.anchor_hi):
            return 1.0, False
        t, clamp = indifference_param(self.oracle, self.ladder.segment, x, self.tol_t)
        params, values = self._params, self._values
        if clamp < 0 or t <= params[0]:
            out_of_range = clamp < 0 or t < params[0]
            if out_of_range:
                self.clamped += 1
            return float(values[0]), out_of_range
        if clamp > 0 or t >= params[-1]:
            out_of_range = clamp > 0 or t > params[-1]
            if out_of_range:
                self.clamped += 1
            return float(values[-1]), out_of_range
        j = int(np.searchsorted(params, t))
        frac = (t - params[j - 1]) / (params[j] - params[j - 1])
        return float(values[j - 1] + frac * (values[j] - values[j - 1])), False

    def evaluate(self, x) -> float:
        return self.evaluate_detailed(x)[0]

    def __call__(self, x) -> float:
        return self.evaluate(x)

    def to_dict(self) -> dict:
        return {
            "ladder": self.ladder.to_dict(),
            "tol_t": self.tol_t,
            "eps_eq": self.oracle.eps_eq,
            "oracle": self.oracle.name,
            "oracle_calls": self.oracle.calls,
            "clamped_evaluations": self.clamped,
        }

    to_json = to_json


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
class AffineFit:
    """Least-squares fit of one reconstruction onto another."""

    alpha: float
    beta: float
    max_residual: float
    samples: int
    threshold: float
    verdict: str

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta,
                "max_residual": self.max_residual, "samples": self.samples,
                "threshold": self.threshold, "verdict": self.verdict}


def verify_affine_uniqueness(recon_a: ReconstructedUtility, anchors_b: Sequence,
                             samples: int = 200, seed: int = 0,
                             threshold: float = 5e-3) -> AffineFit:
    """Reconstruct again from other anchor params and fit u_b ~ alpha*u_a + beta.

    ``anchors_b`` is a (lo, hi) parameter pair on the reference segment of
    ``recon_a``; the second reconstruction uses that segment and the
    oracle, depth and tolerance of ``recon_a``.  A faithful system admits
    only positive affine rescalings, so the fit must have alpha > 0 and
    residuals within the interpolation budget.
    """
    oracle = recon_a.oracle
    recon_b = reconstruct_utility(oracle, depth=recon_a.depth, tol_t=recon_a.tol_t,
                                  segment=recon_a.ladder.segment,
                                  anchor_params=(float(anchors_b[0]), float(anchors_b[1])))
    rng_points = [oracle.domain.sample(subrng(seed, i)) for i in range(samples)]
    u_a = np.array([recon_a(p) for p in rng_points])
    u_b = np.array([recon_b(p) for p in rng_points])
    if float(np.var(u_a)) < 1e-18:
        raise DegenerateFitError("no utility variance across samples; cannot fit")
    alpha, beta = np.polyfit(u_a, u_b, 1)
    residual = float(np.max(np.abs(u_b - (alpha * u_a + beta))))
    verdict = "pass" if (alpha > 0 and residual <= threshold) else "fail"
    return AffineFit(float(alpha), float(beta), residual, samples, threshold, verdict)


def check_density(oracle: AltOracle, ladder: DyadicLadder, sampler: Sampler | None = None,
                  trials: int = 200, seed: int = 0, min_depth: int = 1,
                  witness_cap: int = WITNESS_CAP) -> AxiomReport:
    """Between any sampled strict pair more than two rung steps apart there
    must be a rung strictly between them (oracle-checked)."""
    if ladder.depth < min_depth:
        raise ValueError(f"ladder depth {ladder.depth} below configured minimum {min_depth}")
    sample = checked_sampler(oracle.domain, sampler)
    recon = ReconstructedUtility(oracle, ladder, ladder.tol_t)
    gap_threshold = 2.0 ** (1 - ladder.depth)
    rung_points = [ladder.segment.at(t) for _, t in ladder.rungs()]
    rung_values = np.array([ladder.value(i, ladder.depth) for i, _ in ladder.rungs()])

    def trial(i: int):
        rng = subrng(seed, i)
        a, b = sample(rng), sample(rng)
        p = oracle.preference(a, b)
        if p is Preference.INDIFFERENT:
            return "skip"
        hi, lo = (a, b) if p is Preference.PREFER else (b, a)
        gap = recon(hi) - recon(lo)
        if gap <= gap_threshold:
            return "skip"
        mid = recon(lo) + 0.5 * gap
        for j in np.argsort(np.abs(rung_values - mid)):
            zp = rung_points[j]
            if oracle.prefers(hi, zp) and oracle.prefers(zp, lo):
                return None
        return Witness({"hi": _pt(hi), "lo": _pt(lo)},
                       {"reconstructed_gap": f"{gap:.6g}"})

    return _collect("density", trials, seed, run_indexed(trial, trials),
                    witness_cap=witness_cap,
                    extras={"gap_threshold": gap_threshold, "depth": ladder.depth})


def representation_spot_check(recon: ReconstructedUtility, trials: int = 1000,
                              seed: int = 0, dead_band: float | None = None,
                              sampler: Sampler | None = None) -> AxiomReport:
    """Reconstructed value differences must reproduce the oracle trichotomy
    on random quadruples, up to a dead band of a few rung steps."""
    oracle = recon.oracle
    if dead_band is None:
        dead_band = 2.0 ** (2 - recon.depth)
    sample = checked_sampler(oracle.domain, sampler)
    in_band = 0

    def trial(i: int):
        nonlocal in_band
        rng = subrng(seed, i)
        pts = [sample(rng) for _ in range(4)]
        d_hat = (recon(pts[0]) - recon(pts[1])) - (recon(pts[2]) - recon(pts[3]))
        if abs(d_hat) <= dead_band:
            in_band += 1
            return None
        c = oracle.compare(*pts)
        predicted = GREATER if d_hat > 0 else LESS
        if c is not predicted:
            names = ("x", "y", "z", "w")
            return Witness({n: _pt(p) for n, p in zip(names, pts)},
                           {"oracle": c.value, "reconstruction": predicted.value,
                            "value_difference": f"{d_hat:.6g}"})
        return None

    report = _collect("representation", trials, seed, run_indexed(trial, trials),
                      extras={"dead_band": dead_band})
    report.extras["in_band"] = in_band
    return report


def order_embedding_check(recon: ReconstructedUtility, trials: int = 1000,
                          seed: int = 0, dead_band: float | None = None) -> AxiomReport:
    """Reconstructed values must rank pairs exactly as the derived order."""
    oracle = recon.oracle
    if dead_band is None:
        dead_band = 2.0 ** (1 - recon.depth)
    in_band = 0

    def trial(i: int):
        nonlocal in_band
        rng = subrng(seed, i)
        a = oracle.domain.sample(rng)
        b = oracle.domain.sample(rng)
        d = recon(a) - recon(b)
        if abs(d) <= dead_band:
            in_band += 1
            return None
        p = oracle.preference(a, b)
        expected = Preference.PREFER if d > 0 else Preference.DISPREFER
        if p is not expected:
            return Witness({"a": _pt(a), "b": _pt(b)},
                           {"oracle": p.value, "reconstruction": expected.value,
                            "value_difference": f"{d:.6g}"})
        return None

    report = _collect("order-embedding", trials, seed, run_indexed(trial, trials),
                      extras={"dead_band": dead_band})
    report.extras["in_band"] = in_band
    return report
