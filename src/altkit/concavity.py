"""Concavity diagnosis from intensity comparisons.

The generalized first law of diminishing marginal utility says the gain
from x to the midpoint z=(x+y)/2 is at least the gain from z on to y;
for represented systems this holds iff the utility is concave (strictly,
when strict for distinct pairs).  The oracle-side checker draws the pairs
of all its trials at once and asks the law of all of them in one batch.  A
value-side checker certifies midpoint concavity of any real-valued
function (e.g. a reconstruction), valuing every point of every trial in
one ``evaluate_many`` call when the function has one, with an optional
dyadic sweep over chord parameters m/2**l.  The round-trip driver ties
the two to a fixture's ground-truth tag.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .axioms import VIOLATION, WITNESS_CAP, Record, Witness, _fold, _pt
from .domain import BoxDomain, Segment
from .errors import ConfigError
from .fixtures import (CONCAVE, NON_CONCAVE, STRICTLY_CONCAVE, UtilitySpec,
                       evaluate_points, make_difference_oracle)
from .ladder import reconstruct_utility
from .oracle import AltOracle, IntensityOrder
# run_indexed and subrng are unused here; perfbench/tracing.py patches them.
from .sampling import draw, run_indexed, subrng  # noqa: F401

GREATER, EQUAL, LESS = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS

HOLDS = "holds"
HOLDS_STRICTLY = "holds-strictly"
FAILS = "fails"

STRICTNESS_FLOOR_FRACTION = 1e-6  # of the box diameter


@dataclass
class ConcavityVerdict(Record):
    """Outcome of a midpoint-law scan: holds / holds-strictly / fails."""

    law: str
    verdict: str
    trials: int
    seed: int
    violations: list[Witness]
    violation_count: int
    strict_count: int
    equal_count: int
    below_floor: int
    floor: float
    dyadic_depth: int | None = None
    extras: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict != FAILS

    @property
    def strict(self) -> bool:
        return self.verdict == HOLDS_STRICTLY


def _judge(law: str, trials: int, seed: int, violations: list[Witness], counts: Counter,
           floor: float, dyadic_depth: int | None = None,
           extras: dict | None = None) -> ConcavityVerdict:
    """The verdict of a fold's output: it fails on any violation and holds
    strictly when some above-floor trial was strict and none equal."""
    if counts[VIOLATION]:
        verdict = FAILS
    elif counts["strict"] and not counts["equal"]:
        verdict = HOLDS_STRICTLY
    else:
        verdict = HOLDS
    return ConcavityVerdict(law, verdict, trials, seed, violations, counts[VIOLATION],
                            counts["strict"], counts["equal"], counts["below-floor"],
                            floor, dyadic_depth, extras or {})


def check_gossen_law(oracle: AltOracle, points: np.ndarray | None = None,
                     trials: int = 1000, seed: int = 0,
                     floor: float | None = None) -> ConcavityVerdict:
    """Sample pairs and assert the midpoint gain law [z,x] >= [y,z], z=(x+y)/2.

    Both endpoints are drawn uniformly on the box; pairs closer than
    ``floor`` (default 1e-6 of the box diameter) never count toward
    strictness.  Every trial's pair is drawn at once, trial i from its
    stream under ``seed``, and one ``compare_batch`` asks the law of all
    of them.  Given ``points``, its rows, in order and cycling, are the
    endpoints of the trials.
    """
    box = oracle.domain
    if floor is None:
        floor = STRICTNESS_FLOOR_FRACTION * box.diameter
    pairs, _ = draw(box, points, seed, trials, 2)
    x, y = pairs[:, 0], pairs[:, 1]
    z = 0.5 * (x + y)
    law = oracle.compare_batch(z, x, y, z)
    results: list = []
    for i, out in enumerate(law.tolist()):
        if out < 0:
            results.append(Witness({"x": _pt(x[i]), "y": _pt(y[i]), "z": _pt(z[i])},
                                   {"midpoint_law": LESS.value}))
        elif float(np.linalg.norm(x[i] - y[i])) < floor:
            results.append("below-floor")
        else:
            results.append("strict" if out > 0 else "equal")

    return _judge("gossen-first-law", trials, seed, *_fold(results, WITNESS_CAP), floor,
                  extras={"parameterization": "pair", "oracle": oracle.name})


def _dyadic_params(depth: int) -> list[float]:
    """All fractions m/2**l for l<=depth with odd m, ascending (1/2 first level)."""
    ts: set[float] = set()
    for level in range(1, depth + 1):
        scale = 1 << level
        ts.update(m / scale for m in range(1, scale, 2))
    return sorted(ts)


def check_midpoint_concavity(u_fn, domain: BoxDomain, points: np.ndarray | None = None,
                             trials: int = 200, seed: int = 0,
                             tol: float = 0.0, dyadic_depth: int | None = None,
                             floor: float | None = None) -> ConcavityVerdict:
    """Assert u((x+y)/2) >= (u(x)+u(y))/2 - tol on sampled pairs.

    With ``dyadic_depth`` set, all chord parameters m/2**l up to that
    level are checked against the chord (full-interval concavity on a
    dyadic grid); otherwise only the midpoint.  Strictness requires a
    margin beyond ``tol`` (floored at float-noise scale) on every pair
    farther apart than ``floor``.  ``points`` cycle as in the Gossen law.
    """
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if floor is None:
        floor = STRICTNESS_FLOOR_FRACTION * domain.diameter
    ts = np.array(_dyadic_params(dyadic_depth) if dyadic_depth else [0.5])
    pairs, _ = draw(domain, points, seed, trials, 2)
    x, y = pairs[:, 0], pairs[:, 1]
    chord = x[:, None] + ts[:, None] * (y - x)[:, None]
    values = evaluate_points(u_fn, np.concatenate([x, y, chord.reshape(-1, domain.dim)]))
    ux, uy, up = values[:trials], values[trials:2 * trials], values[2 * trials:]
    margin = up.reshape(trials, ts.size) - ((1.0 - ts) * ux[:, None] + ts * uy[:, None])
    # fmax and fmin skip NaN, as max and min over Python floats do.
    tol_eff = np.fmax(tol, 1e-12 * (1.0 + np.abs(ux) + np.abs(uy)))[:, None]
    bad = margin < -tol_eff
    worst = np.fmin.reduce(margin - tol_eff, axis=1, initial=np.inf)

    results: list = []
    for i in range(trials):
        if bad[i].any():
            j = int(bad[i].argmax())
            results.append(Witness({"x": _pt(x[i]), "y": _pt(y[i]), "point": _pt(chord[i, j])},
                                   {"chord_parameter": f"{ts[j]:.10g}",
                                    "margin": f"{margin[i, j]:.6g}"}))
        elif float(np.linalg.norm(x[i] - y[i])) < floor:
            results.append("below-floor")
        else:
            results.append("strict" if worst[i] > 0 else "equal")
    return _judge("midpoint-concavity", trials, seed, *_fold(results, WITNESS_CAP), floor,
                  dyadic_depth=dyadic_depth, extras={"tol": tol})


def concavity_roundtrip(spec: UtilitySpec, domain: BoxDomain | None = None,
                        trials: int = 2000, seed: int = 0,
                        depth: int = 8, segment: Segment | None = None,
                        floor: float | None = None) -> dict:
    """Tie the oracle-side law, the reconstruction, and the ground-truth tag.

    Builds a difference oracle for the fixture, runs the midpoint gain
    law on it, reconstructs a utility, and certifies midpoint concavity
    of the reconstruction (tolerance: twice the interpolation budget).
    Strictness agreement is judged from the oracle-side law only; the
    piecewise-linear reconstruction is flat within a rung, so it cannot
    witness strictness.  Non-monotone fixtures need a caller-supplied
    strictly-increasing ``segment``.
    """
    if spec.concavity not in (CONCAVE, STRICTLY_CONCAVE, NON_CONCAVE):
        raise ConfigError(f"fixture {spec.name!r} carries no usable concavity tag")
    oracle = make_difference_oracle(spec, domain)
    gossen = check_gossen_law(oracle, trials=trials, seed=seed, floor=floor)
    recon = reconstruct_utility(oracle, depth=depth, segment=segment)
    midpoint = check_midpoint_concavity(
        recon, oracle.domain, trials=max(1, trials // 10), seed=seed + 1,
        tol=2.0 * recon.interpolation_budget)

    tag_concave = spec.concavity in (CONCAVE, STRICTLY_CONCAVE)
    tag_strict = spec.concavity == STRICTLY_CONCAVE
    mismatches = []
    if gossen.holds != tag_concave:
        mismatches.append(f"gossen law verdict {gossen.verdict!r} vs tag {spec.concavity!r}")
    if midpoint.holds != tag_concave:
        mismatches.append(f"midpoint verdict {midpoint.verdict!r} vs tag {spec.concavity!r}")
    # One-sided strictness check: sampling can refute a claimed strictness
    # by exhibiting an above-floor equality, but finding no equality never
    # certifies non-strictness (flat directions can be arbitrarily thin),
    # so a strict verdict against a plain concave tag is not a mismatch.
    if tag_strict and gossen.holds and not gossen.strict:
        mismatches.append(f"strictness {gossen.verdict!r} vs tag {spec.concavity!r}")
    return {
        "fixture": spec.name,
        "tag": spec.concavity,
        "gossen": gossen.to_dict(),
        "midpoint": midpoint.to_dict(),
        "reconstruction_depth": depth,
        "agree": not mismatches,
        "mismatches": mismatches,
    }
