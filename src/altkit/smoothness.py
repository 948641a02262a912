"""Differentiability diagnostics along the main diagonal and across it.

Line smoothness looks at the diagonal restriction: the intensity
midpoint f(a,b) of the scales b-a and b+a must approach b faster than a,
so the quotient (b - f(a,b))/a vanishes.  A geometric step schedule,
solved in one lockstep call, plus Richardson extrapolation turns that
limit into a verdict with an honest error bar.  Debreu-style smoothness
of indifference sets is proxied by numerically differentiating the
calibration map a(x) -- the diagonal scale whose multiple of (1,...,1)
is indifferent to x -- and flagging step-halving drift or one-sided
disagreement (kinks); the difference stencils of all its trials are
calibrated in one lockstep solve.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .axioms import SKIP, VIOLATION, AxiomReport, Record, Witness, _collect, _fold, _pt
from .domain import Segment
from .errors import AltkitError, ConstructionError, DomainError, OrderingError, RangeError
from .oracle import AltOracle
# run_indexed and subrng are unused here; perfbench/tracing.py patches them.
from .sampling import cycled, draw, run_indexed, subrng  # noqa: F401
from .solvers import DEFAULT_TOL_T, band_bisect_many, indifference_param_many

LINE_SMOOTH = "line-smooth"
NOT_LINE_SMOOTH = "not-line-smooth"
INCONCLUSIVE = "inconclusive"

DEFAULT_QUOTIENT_FLOOR = 1e-3
REL_TOL = 1e-2          # Debreu proxy: step-halving drift allowed
ONE_SIDED_TOL = 5e-2    # Debreu proxy: one-sided disagreement allowed
SOLVE_F_SCALE_TOL = 1e-8
SOLVE_F_RELATIVE_TOL = 1e-4


def diagonal_point(box, b: float) -> np.ndarray:
    """The point b*(1,...,1), validated against the box."""
    p = np.full(box.dim, float(b))
    return box.require(p, f"diagonal point {b}*e")


def _midpoints(oracle: AltOracle, b: float, steps: list[float],
               tol: float | None = None) -> tuple[list[float], AltkitError | None]:
    """Scales f(a, b) of :func:`solve_f` for the steps a, solved in one
    lockstep call, up to the first step in order that fails, and its
    failure (None if none fails): a diagonal point off the box, then
    (b+a)*e not strictly preferred to (b-a)*e, then no z > y > x.  The
    steps after a failure are asked too, up to the first off the box."""
    box, ends, tols, stop = oracle.domain, [], [], None
    for a in steps:
        if not 0 < a < b:
            raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
        try:
            ends.append((diagonal_point(box, b - a), diagonal_point(box, b + a)))
        except DomainError as off:
            stop = off
            break
        step_tol = min(SOLVE_F_SCALE_TOL, a * SOLVE_F_RELATIVE_TOL) if tol is None else tol
        if not step_tol > 0:
            raise ValueError("tol must be > 0")
        tols.append(step_tol / (2.0 * a))
    if not ends:
        return [], stop
    x, z = np.array(ends).transpose(1, 0, 2)
    pre = oracle.compare_batch(z, x, x, x) > 0           # z strictly preferred to x
    live = np.flatnonzero(pre)
    x, z = x[live], z[live]
    n, fixed = live.size, oracle.hold(x, z)

    def side(j: np.ndarray, t: np.ndarray) -> np.ndarray:
        xj = x.take(j, axis=0)
        y = xj + t[:, None] * (z.take(j, axis=0) - xj)
        return oracle.compare_rows(fixed, (None, j, j + n, None), y)

    t = band_bisect_many(side, np.zeros(n), np.ones(n), np.array(tols)[live],
                         np.full(n, -1), np.ones(n))
    y = x + t[:, None] * (z - x)
    post = (oracle.compare_batch(z, y, y, y) > 0) & (oracle.compare_batch(y, x, x, x) > 0)
    good = pre.copy()
    good[live] = post
    n = int(np.argmin(np.append(good, False)))           # the first failing step
    if n < good.size:
        stop = (ConstructionError("midpoint post-check failed: z > y > x is not strict")
                if pre[n] else OrderingError("solve_midpoint requires z strictly preferred to x"))
    return y[:n, 0].tolist(), stop


def solve_f(oracle: AltOracle, a: float, b: float, tol: float | None = None) -> float:
    """Diagonal scale f with [f*e, (b-a)*e] = [(b+a)*e, f*e].

    The solution is the intensity midpoint of the scales b-a and b+a;
    concavity pins it to [b-a, b+a] but only 0 < a < b, domain membership
    and (b+a)*e > (b-a)*e are required, and it is post-checked to lie
    strictly between them.  ``tol`` is in scale units and defaults to
    min(1e-8, a*1e-4) so the quotient (b-f)/a stays resolvable as a
    shrinks.
    """
    fs, stop = _midpoints(oracle, b, [a], tol)
    if stop is not None:
        raise stop
    return fs[0]


@dataclass
class SmoothnessReport(Record):
    """Quotient table along the step schedule plus the extrapolated limit;
    ``oracle_calls`` is the number of compares the estimate made."""

    b: float
    rows: list[tuple[float, float, float]]  # (a, f(a,b), (b-f)/a)
    estimate: float | None
    uncertainty: float | None
    floor: float
    verdict: str
    oracle: str = ""
    oracle_calls: int = 0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**super().to_dict(),
                "rows": [{"a": a, "f": f, "quotient": q} for a, f, q in self.rows]}

    def csv_rows(self) -> list[list]:
        return [["a", "f", "quotient"]] + [[a, f, q] for a, f, q in self.rows]


def line_smoothness_limit(oracle: AltOracle, b: float) -> SmoothnessReport:
    """Estimate lim_{a->0} (b - f(a,b))/a along the steps b/2**4 down to
    b/2**16.

    Richardson-extrapolates the last four quotients (each halving of
    a cancels the first-order term); the spread of the extrapolants is
    the reported uncertainty.  Not-line-smooth requires the estimate to
    clear both ``DEFAULT_QUOTIENT_FLOOR`` and three times its uncertainty;
    line-smooth requires estimate and uncertainty both under the floor;
    anything else is inconclusive.
    """
    schedule = [float(b * 2.0 ** (-k)) for k in range(4, 17)]
    floor = DEFAULT_QUOTIENT_FLOOR
    calls0 = oracle.calls
    fs, stop = _midpoints(oracle, b, schedule)
    rows = [(a, f, (b - f) / a) for a, f in zip(schedule, fs)]
    extras = {} if stop is None else {"truncated_at": schedule[len(rows)],
                                      "truncation_reason": str(stop)}

    if len(rows) < 2:
        return SmoothnessReport(b, rows, None, None, floor, INCONCLUSIVE,
                                oracle.name, oracle.calls - calls0, extras)
    qs = [q for _, _, q in rows[-4:]]
    extrapolants = [2.0 * q2 - q1 for q1, q2 in zip(qs, qs[1:])]
    estimate = float(np.mean(extrapolants))
    uncertainty = float((max(extrapolants) - min(extrapolants)) / 2.0)
    if abs(estimate) > 3.0 * uncertainty and abs(estimate) > floor:
        verdict = NOT_LINE_SMOOTH
    elif abs(estimate) <= floor and uncertainty <= floor:
        verdict = LINE_SMOOTH
    else:
        verdict = INCONCLUSIVE
    return SmoothnessReport(b, rows, estimate, uncertainty, floor, verdict,
                            oracle.name, oracle.calls - calls0, extras)


def _scales(oracle: AltOracle, xs: np.ndarray, tol_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal scales a(x) of the rows of ``xs``, solved in lockstep, and
    their clamps (nonzero where no diagonal multiple in the box matches)."""
    box = oracle.domain
    c_lo, c_hi = box.diagonal_scale_range()
    seg = Segment(np.full(box.dim, c_lo), np.full(box.dim, c_hi))
    t, clamp = indifference_param_many(oracle, seg, xs, tol_t)
    return c_lo + t * (c_hi - c_lo), clamp


def calibrate(oracle: AltOracle, x) -> float:
    """Diagonal scale a(x) with x indifferent to a(x)*(1,...,1).

    Unique for monotone systems.  RangeError when no diagonal multiple
    inside the box matches x.
    """
    x = oracle.domain.require(x)
    (a,), (clamp,) = _scales(oracle, x[None], DEFAULT_TOL_T)
    if clamp != 0:
        side = "below" if clamp < 0 else "above"
        raise RangeError(f"point ranks {side} every diagonal multiple in the box")
    return float(a)


def debreu_smoothness_proxy(oracle: AltOracle, points: np.ndarray | None = None,
                            trials: int = 50, seed: int = 0,
                            h_fraction: float = 1e-3,
                            tol_t: float = DEFAULT_TOL_T) -> AxiomReport:
    """Numeric stand-in for smooth indifference sets: differentiate a(x).

    At each sampled point and axis, the calibration derivative is
    estimated by central differences at steps h and h/2; a violation is
    flagged when halving the step moves the estimate by more than
    ``REL_TOL`` (relative), or when the left and right one-sided h/2
    differences disagree by more than ``ONE_SIDED_TOL`` (a kink).  A
    sampled proxy only: kinks on sets the sample misses go undetected.

    Every trial's point is drawn first (2h inside the box) or taken from
    ``points``, in order and cycling; the stencils of all trials are
    calibrated in one lockstep solve.  A trial is skipped when a stencil
    point it reaches is off the box or has no calibration.
    """
    if not h_fraction > 0:
        raise ValueError("h_fraction must be > 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    box = oracle.domain
    h_vec = h_fraction * box.extent
    if points is None:
        xs, _ = draw(box.shrunk(2.0 * h_vec), None, seed, trials, 1)
    else:               # unchecked: a trial whose stencil leaves the box is skipped
        xs = cycled(points, trials, box.dim)[:, None]
    # Row 0 of a trial's stencil is x; rows 1 + 4*axis ... 4 + 4*axis move x
    # along the axis by +h, -h, +h/2 and -h/2.
    stencil = np.repeat(xs, 1 + 4 * box.dim, axis=1)
    for axis in range(box.dim):
        stencil[:, 1 + 4 * axis:5 + 4 * axis, axis] += np.array([1, -1, 0.5, -0.5]) * h_vec[axis]
    rows = stencil.reshape(-1, box.dim)
    ok = np.flatnonzero(box.inside(rows))
    scales = np.full(len(rows), np.nan)          # NaN: no calibration
    try:
        a, clamp = _scales(oracle, rows[ok], tol_t)
        scales[ok[clamp == 0]] = a[clamp == 0]
    except DomainError:
        pass                                     # the box holds no diagonal ray

    # Per trial and axis, the h and h/2 central and the h/2 one-sided
    # differences.  Axes are judged in order: a trial skips at the first with
    # a NaN scale, fails at the first with drift or else a kink, or holds.
    a = scales.reshape(trials, -1)
    a0 = a[:, :1]
    a_p, a_m, a_ph, a_mh = (a[:, 1 + k::4] for k in range(4))
    d1, d2 = (a_p - a_m) / (2.0 * h_vec), (a_ph - a_mh) / h_vec
    left, right = (a0 - a_mh) / (0.5 * h_vec), (a_ph - a0) / (0.5 * h_vec)
    scale = np.fmax(1.0, np.abs(d2))             # fmax keeps 1.0 over NaN, as max does
    code = np.select([np.isnan(a[:, 1:]).reshape(trials, box.dim, 4).any(axis=2),
                      np.abs(d2 - d1) > REL_TOL * scale,
                      np.abs(left - right) > ONE_SIDED_TOL * scale], [1, 2, 3], 0)
    axis = (code != 0).argmax(axis=1)
    code = code[np.arange(trials), axis]
    tags = np.where(np.isnan(a0[:, 0]) | (code == 1), SKIP, np.where(code > 1, VIOLATION, None))

    def witness(i: int) -> Witness:
        k = axis[i]
        outputs = {"axis": str(k), "central_h": f"{d1[i, k]:.6g}",
                   "central_h2": f"{d2[i, k]:.6g}", "left": f"{left[i, k]:.6g}",
                   "right": f"{right[i, k]:.6g}"}
        return Witness({"x": _pt(xs[i, 0])}, outputs,
                       note="step-halving drift" if code[i] == 2 else "one-sided kink")

    return _collect("debreu-smoothness-proxy", trials, seed, *_fold(tags, witness), proxy=True,
                    extras={"h_fraction": h_fraction, "rel_tol": REL_TOL,
                            "one_sided_tol": ONE_SIDED_TOL})
