"""Randomized axiom checkers for intensity-comparison oracles.

Each axiom is written once, as a draw and a predicate.  The draw turns a
per-trial generator into the points of one candidate instance; the
predicate asks the oracle whether that instance violates the axiom and
returns a ``Witness``, ``None`` (it holds) or ``SKIP`` (its premise did
not hold).  Every checker runs its predicate over seeded draws in one
trial loop, and ``replay_witness`` runs the same predicate on the points
of a stored witness.  Sub-seeds are derived per trial index, so a report
regenerated from its stored seed is bit-identical.

The continuity check is a necessary-condition proxy (strict outcomes must
survive small coordinate perturbations); its reports carry ``proxy=True``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .oracle import AltOracle, IntensityOrder, Preference
from .sampling import Sampler, checked_sampler, run_indexed, subrng
from .solvers import band_bisect

GREATER, EQUAL, LESS = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS

WITNESS_CAP = 10
DEFAULT_DELTA = 1e-8
DEFAULT_PROBES = 8

SKIP = "skip"
QUAD = ("x", "y", "z", "w")


def to_json(report, **kwargs) -> str:
    """JSON text of a report's ``to_dict()``; sorted keys and indent 2 by default."""
    kwargs.setdefault("sort_keys", True)
    kwargs.setdefault("indent", 2)
    return json.dumps(report.to_dict(), **kwargs)


@dataclass
class Witness:
    """A violating instance: the points involved and the oracle's answers."""

    points: dict[str, list[float]]
    outputs: dict[str, str]
    note: str = ""

    def to_dict(self) -> dict:
        return {"points": self.points, "outputs": self.outputs, "note": self.note}

    @classmethod
    def from_dict(cls, d: dict) -> "Witness":
        return cls(d["points"], d["outputs"], d.get("note", ""))


@dataclass
class AxiomReport:
    axiom: str
    trials: int
    seed: int
    verdict: str                       # "pass" | "fail"
    violations: list[Witness]
    violation_count: int
    proxy: bool = False
    skipped: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "trials": self.trials,
            "seed": self.seed,
            "verdict": self.verdict,
            "violations": [w.to_dict() for w in self.violations],
            "violation_count": self.violation_count,
            "proxy": self.proxy,
            "skipped": self.skipped,
            "extras": self.extras,
        }

    to_json = to_json


def _pt(p: np.ndarray) -> list[float]:
    return [float(v) for v in p]


def _pts(points: dict) -> dict[str, list[float]]:
    return {name: _pt(p) for name, p in points.items()}


def _collect(axiom: str, trials: int, seed: int, results: list,
             proxy: bool = False, witness_cap: int = WITNESS_CAP,
             extras: dict | None = None) -> AxiomReport:
    """Fold per-trial results (None | SKIP | Witness) into a report."""
    violations: list[Witness] = []
    count = 0
    skipped = 0
    for r in results:
        if r is None:
            continue
        if r == SKIP:
            skipped += 1
            continue
        count += 1
        if len(violations) < witness_cap:
            violations.append(r)
    return AxiomReport(axiom, trials, seed, "fail" if count else "pass",
                       violations, count, proxy, skipped, extras or {})


def _bisect_to_equal(side: Callable[[float], IntensityOrder], lo: float, hi: float,
                     s_lo: IntensityOrder, s_hi: IntensityOrder, tol: float) -> float | None:
    """A parameter in [lo, hi] where ``side`` answers EQUAL, if the endpoint
    answers straddle EQUAL in either orientation; otherwise None."""
    if s_lo is not GREATER and s_hi is not LESS:
        return band_bisect(side, lo, hi, tol, lo_state=s_lo, hi_state=s_hi, refine=False)
    if s_lo is not LESS and s_hi is not GREATER:
        return band_bisect(lambda t: side(t).flipped(), lo, hi, tol,
                           lo_state=s_lo.flipped(), hi_state=s_hi.flipped(), refine=False)
    return None


def _scan_for_equal(side: Callable[[float], IntensityOrder],
                    s_first: IntensityOrder, s_last: IntensityOrder,
                    tol: float, subintervals: int = 16) -> float | None:
    """Parameter where a possibly non-monotone trichotomy answers EQUAL.

    Evaluates ``side`` on a uniform grid, then bisects the first adjacent
    pair whose answers straddle EQUAL (in either orientation).  Returns
    None when no straddle exists, i.e. the target value is out of reach.
    """
    ts = [j / subintervals for j in range(subintervals + 1)]
    states = [s_first] + [side(t) for t in ts[1:-1]] + [s_last]
    for t, st in zip(ts, states):
        if st is EQUAL:
            return t
    for j in range(subintervals):
        s = _bisect_to_equal(side, ts[j], ts[j + 1], states[j], states[j + 1], tol)
        if s is not None:
            return s
    return None


def _draw_triple(oracle: AltOracle, sample: Sampler):
    return lambda rng: {"x": sample(rng), "y": sample(rng), "z": sample(rng)}


def _draw_crossover(oracle: AltOracle, sample: Sampler, tol_t: float):
    """Sample (x, y, z), then solve for w on the domain diagonal so that
    [z,w] matches [x,y]; w is left out when no diagonal point matches."""
    diag = oracle.domain.diagonal()
    # Probe once whether preference is monotone along the diagonal; if it
    # is, a failed endpoint bracket means the target is genuinely out of
    # range and the per-trial fallback scan can be skipped.
    corners = [diag.at(k / 8) for k in range(9)]
    steps = [oracle.compare(corners[k + 1], corners[k], corners[k], corners[k]).sign
             for k in range(8)]
    diag_monotone = all(s >= 0 for s in steps) or all(s <= 0 for s in steps)

    def draw(rng):
        x, y, z = sample(rng), sample(rng), sample(rng)

        # w runs down the diagonal so that [z,w] rises with s when the
        # system is increasing along the diagonal.
        def side(s: float) -> IntensityOrder:
            return oracle.compare(z, diag.at(1.0 - s), x, y)

        s0, s1 = side(0.0), side(1.0)
        s = _bisect_to_equal(side, 0.0, 1.0, s0, s1, tol_t)
        if s is None and not diag_monotone:
            s = _scan_for_equal(side, s0, s1, tol_t)
        points = {"x": x, "y": y, "z": z}
        if s is not None:
            points["w"] = diag.at(1.0 - s)
        return points
    return draw


def _draw_perturbed(oracle: AltOracle, sample: Sampler, delta: float, probes: int):
    """Sample a quadruple x, y, z, w; ``moved`` lazily yields ``probes``
    copies of it, each coordinate moved by up to ``delta`` of the box
    extent and clipped to the box.  The copies are drawn only if the
    predicate asks for them, so a skipped trial does not pay for them."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if delta > 0.1:
        raise ValueError("delta must be small relative to the domain (<= 0.1)")
    if probes < 1:
        raise ValueError("probes must be >= 1")
    box = oracle.domain
    radius = delta * box.extent

    def draw(rng):
        quad = [sample(rng) for _ in range(4)]

        def moved():
            shifts = rng.uniform(-1.0, 1.0, (probes, 4, box.dim)) * radius
            yield from np.clip(np.asarray(quad) + shifts, box.lower, box.upper)
        return {**dict(zip(QUAD, quad)), "moved": moved()}
    return draw


def _draw_dominating(oracle: AltOracle, sample: Sampler):
    """Sample y, then x above y on every axis, inside the box."""
    box = oracle.domain

    def draw(rng):
        y = sample(rng)
        frac = 1e-6 + rng.random(box.dim) * (1.0 - 2e-6)
        return {"x": y + frac * (box.upper - y), "y": y}
    return draw


def _consistency(oracle: AltOracle, p: dict):
    pref = oracle.compare(p["x"], p["y"], p["y"], p["y"])
    shifted = oracle.compare(p["x"], p["z"], p["y"], p["z"])
    if pref.sign != shifted.sign:
        return Witness(_pts(p), {"preference": pref.value, "shifted": shifted.value})
    return None


def _second_consistency(oracle: AltOracle, p: dict):
    pref = oracle.compare(p["x"], p["y"], p["y"], p["y"])
    mirrored = oracle.compare(p["z"], p["y"], p["z"], p["x"])
    if pref.sign != mirrored.sign:
        return Witness(_pts(p), {"preference": pref.value, "mirrored": mirrored.value})
    return None


def _crossover(oracle: AltOracle, p: dict):
    """[z,w] = [x,y] implies [x,z] = [y,w] (checked when w is present),
    and [x,x] = [y,y] always.  SKIP when no Equal premise was found."""
    x, y = p["x"], p["y"]
    manufactured = False
    if "w" in p:
        premise = oracle.compare(p["z"], p["w"], x, y)
        if premise is EQUAL:
            manufactured = True
            swapped = oracle.compare(x, p["z"], y, p["w"])
            if swapped is not EQUAL:
                return Witness(_pts(p), {"premise": premise.value, "swapped": swapped.value},
                               note="rebracket")
    null = oracle.compare(x, x, y, y)
    if null is not EQUAL:
        return Witness({"x": _pt(x), "y": _pt(y)}, {"null_brackets": null.value},
                       note="null-brackets")
    return None if manufactured else SKIP


def _continuity(oracle: AltOracle, p: dict):
    """A GREATER answer on x, y, z, w must not turn LESS on any moved copy:
    those of ``moved`` from a draw, or the one stored in a witness as
    ``x_moved`` ... ``w_moved``.  SKIP when the answer is not GREATER."""
    quad = [p[n] for n in QUAD]
    base = oracle.compare(*quad)
    if base is not GREATER:
        return SKIP
    copies = p["moved"] if "moved" in p else [[p[n + "_moved"] for n in QUAD]]
    for moved in copies:
        flipped = oracle.compare(*moved)
        if flipped is LESS:
            points = {n: _pt(v) for n, v in zip(QUAD, quad)}
            points.update({n + "_moved": _pt(v) for n, v in zip(QUAD, moved)})
            return Witness(points, {"base": base.value, "perturbed": flipped.value})
    return None


def _monotonicity(oracle: AltOracle, p: dict):
    """x above y on every axis implies x strictly preferred to y."""
    if not np.all(p["x"] > p["y"]):
        return SKIP
    pref = oracle.preference(p["x"], p["y"])
    if pref is not Preference.PREFER:
        return Witness(_pts(p), {"preference": pref.value})
    return None


_RULES = {
    "consistency": (_draw_triple, _consistency),
    "crossover": (_draw_crossover, _crossover),
    "second-consistency": (_draw_triple, _second_consistency),
    "continuity-proxy": (_draw_perturbed, _continuity),
    "monotonicity": (_draw_dominating, _monotonicity),
}


def _trials(axiom: str, oracle: AltOracle, sampler: Sampler | None, trials: int,
            seed: int, **params) -> list:
    """The trial loop of every checker: trial i draws one instance from
    substream (seed, i) and applies the axiom's predicate to it."""
    draw_for, violation = _RULES[axiom]
    draw = draw_for(oracle, checked_sampler(oracle.domain, sampler), **params)
    return run_indexed(lambda i: violation(oracle, draw(subrng(seed, i))), trials)


def check_consistency(oracle: AltOracle, sampler: Sampler | None = None,
                      trials: int = 1000, seed: int = 0,
                      witness_cap: int = WITNESS_CAP) -> AxiomReport:
    """Shifting both sides by a common reference point z must preserve the
    derived order: x weakly preferred to y iff [x,z] >= [y,z].  Applied to
    the pair in both orders this is an exact sign match between the
    preference trichotomy and the shifted comparison.
    """
    results = _trials("consistency", oracle, sampler, trials, seed)
    return _collect("consistency", trials, seed, results, witness_cap=witness_cap)


def check_second_consistency(oracle: AltOracle, sampler: Sampler | None = None,
                             trials: int = 1000, seed: int = 0,
                             witness_cap: int = WITNESS_CAP) -> AxiomReport:
    """Mirror form of consistency on the second slot: x weakly preferred
    to y iff [z,y] >= [z,x]."""
    results = _trials("second-consistency", oracle, sampler, trials, seed)
    return _collect("second-consistency", trials, seed, results, witness_cap=witness_cap)


def check_crossover(oracle: AltOracle, sampler: Sampler | None = None,
                    trials: int = 1000, seed: int = 0,
                    witness_cap: int = WITNESS_CAP, tol_t: float = 1e-10) -> AxiomReport:
    """Equally strong improvements stay equally strong when the inner
    points are exchanged: [x,y] = [z,w] implies [x,z] = [y,w].

    Random quadruples almost never satisfy the Equal premise, so each
    trial manufactures one: after sampling (x, y, z), the fourth point w
    is solved for on the domain diagonal until [z,w] matches [x,y].  For
    systems that are not monotone along the diagonal the solve falls back
    to a coarse bracketing scan before bisecting.  Samples whose target
    cannot be bracketed on the diagonal are counted as skipped, not
    failed.  Each trial also asserts the degenerate consequence
    [x,x] = [y,y].
    """
    results = _trials("crossover", oracle, sampler, trials, seed, tol_t=tol_t)
    manufactured = sum(1 for r in results
                       if r is None or (isinstance(r, Witness) and r.note == "rebracket"))
    return _collect("crossover", trials, seed, results, witness_cap=witness_cap,
                    extras={"manufactured": manufactured})


def check_continuity_proxy(oracle: AltOracle, sampler: Sampler | None = None,
                           trials: int = 1000, seed: int = 0, delta: float = DEFAULT_DELTA,
                           probes: int = DEFAULT_PROBES,
                           witness_cap: int = WITNESS_CAP) -> AxiomReport:
    """Necessary-condition proxy for closedness of the relation: a strictly
    GREATER outcome must not flip to LESS under coordinate perturbations of
    relative size ``delta``.  Perturbed points are clipped to the box.

    ``delta`` must be positive and small relative to the domain; it
    defaults to just above the equality dead band so that continuous
    systems keep comfortable margins while jump discontinuities still flip.
    """
    results = _trials("continuity-proxy", oracle, sampler, trials, seed,
                      delta=delta, probes=probes)
    return _collect("continuity-proxy", trials, seed, results, proxy=True,
                    witness_cap=witness_cap, extras={"delta": delta, "probes": probes})


def check_monotonicity(oracle: AltOracle, sampler: Sampler | None = None,
                       trials: int = 1000, seed: int = 0,
                       witness_cap: int = WITNESS_CAP) -> AxiomReport:
    """Coordinatewise strict dominance must imply strict preference."""
    results = _trials("monotonicity", oracle, sampler, trials, seed)
    return _collect("monotonicity", trials, seed, results, witness_cap=witness_cap)


_CHECKERS: dict[str, Callable] = {
    "consistency": check_consistency,
    "crossover": check_crossover,
    "second-consistency": check_second_consistency,
    "continuity-proxy": check_continuity_proxy,
    "monotonicity": check_monotonicity,
}

ALL_AXIOMS = tuple(_CHECKERS)


def run_axiom_suite(oracle: AltOracle, axioms=ALL_AXIOMS, trials: int = 1000,
                    seed: int = 0, delta: float = DEFAULT_DELTA,
                    probes: int = DEFAULT_PROBES) -> dict[str, AxiomReport]:
    """Run several checkers with a shared master seed; ``delta`` and
    ``probes`` go to the continuity proxy."""
    reports = {}
    for name in axioms:
        params = {"delta": delta, "probes": probes} if name == "continuity-proxy" else {}
        reports[name] = _CHECKERS[name](oracle, trials=trials, seed=seed, **params)
    return reports


def replay_witness(oracle: AltOracle, axiom: str, witness: Witness) -> bool:
    """Re-evaluate a stored witness with the axiom's own predicate; True iff
    it still violates the axiom."""
    if axiom not in _RULES:
        raise ValueError(f"no replay rule for axiom {axiom!r}")
    pts = {k: np.asarray(v, dtype=float) for k, v in witness.points.items()}
    return isinstance(_RULES[axiom][1](oracle, pts), Witness)
