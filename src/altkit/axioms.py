"""Randomized axiom checkers for intensity-comparison oracles.

Each axiom is written once, as a draw and a predicate, and every checker
runs in two phases.  In the draw phase one ``sampling.draw`` call gives
every trial the points of one candidate instance, from trial i's own
stream (computed for all trials at once; ``subrng(seed, i)`` is the
one-trial reference the tests use) or, when the caller passes
``points``, from those rows in order, cycling; the draws are stacked
into one array per point name, one row per trial.  In the predicate
phase the axiom's predicate asks each of its stages with one
``compare_batch`` over the trials that earlier stages left undecided,
and returns per trial a ``Witness``, ``None`` (it holds) or ``SKIP`` (its
premise did not hold).  Every trial is asked what a loop over single
trials would ask it, so reports and compare counts do not depend on the
batching; ``replay_witness`` runs the same predicate on a batch of one,
the points of a stored witness.  Streams are derived per trial index, so
a report regenerated from its stored seed is bit-identical.

Crossover's draw also solves for its fourth point: the diagonal brackets
of all trials are bisected in lockstep (``solvers.band_bisect_many``).

The continuity check is a necessary-condition proxy (strict outcomes must
survive small coordinate perturbations); its reports carry ``proxy=True``.
"""
from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

import numpy as np

from .oracle import AltOracle, IntensityOrder, Preference
# run_indexed, subrng and band_bisect are unused here; perfbench/tracing.py patches them.
from .sampling import draw, run_indexed, subrng  # noqa: F401
from .solvers import DEFAULT_TOL_T, SideMany, band_bisect, band_bisect_many  # noqa: F401

GREATER, EQUAL, LESS = IntensityOrder.GREATER, IntensityOrder.EQUAL, IntensityOrder.LESS

WITNESS_CAP = 10
DEFAULT_DELTA = 1e-8
DEFAULT_PROBES = 8
MAX_DELTA = 0.1          # the continuity proxy's largest perturbation fraction
# Crossover's fallback scan asks SCAN_CHUNK trials per batch, each at the
# SCAN_SUBINTERVALS - 1 interior points of a uniform grid on the diagonal.
SCAN_SUBINTERVALS, SCAN_CHUNK = 16, 64

SKIP = "skip"
VIOLATION = "violation"
QUAD = ("x", "y", "z", "w")

# Names of int8 comparison signs in witness outputs.
_ORDER = {o.sign: o.value for o in IntensityOrder}
_PREFERENCE = {1: Preference.PREFER.value, 0: Preference.INDIFFERENT.value,
               -1: Preference.DISPREFER.value}


# The report writer writes out the parts it has gathered at the end of a
# container once there are this many.
FLUSH_PARTS = 4096


def _literal(o) -> str:
    """JSON text of a scalar that is not a str, as ``json`` writes it."""
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


class Record:
    """Base of the report dataclasses.  ``to_dict`` is a shallow copy of
    the fields in which a list of records becomes a list of dicts.

    Every report is written by ``dump``, which streams a document to a
    text file, ``FLUSH_PARTS`` parts at a time, in the bytes of
    ``json.dumps(doc, sort_keys=True, indent=2)``:
    dicts with sorted keys, lists and tuples, str, int, bool, float
    (NaN and the infinities as ``json`` spells them) and None.  Any other
    type raises TypeError.  ``dumps`` is the same text as a string."""

    def to_dict(self) -> dict:
        d = dict(vars(self))
        for name, value in d.items():
            if isinstance(value, list) and value and isinstance(value[0], Record):
                d[name] = [r.to_dict() for r in value]
        return d

    def to_json(self) -> str:
        return self.dumps(self.to_dict())

    @staticmethod
    def dumps(doc) -> str:
        buf = io.StringIO()
        Record.dump(doc, buf)
        return buf.getvalue()

    @staticmethod
    def dump(doc, fh) -> None:
        parts: list[str] = []
        put = parts.append

        # Dicts and lists have a loop each, with scalars written in place:
        # the per-value work is the writer's cost, and one shared loop over
        # (key text, value) pairs was measurably slower.
        def emit(o, pad: str) -> None:
            inner = pad + "  "
            if isinstance(o, dict):
                if not o:
                    put("{}")
                    return
                put("{")
                sep = inner
                for k in sorted(o):
                    put(sep + _quote(k if isinstance(k, str) else _literal(k)) + ": ")
                    sep = "," + inner
                    v = o[k]
                    if isinstance(v, (dict, list, tuple)):
                        emit(v, inner)
                    elif isinstance(v, str):
                        put(_quote(v))
                    else:
                        put(_literal(v))
                put(pad + "}")
            elif isinstance(o, (list, tuple)):
                if not o:
                    put("[]")
                    return
                put("[")
                sep = inner
                for v in o:
                    put(sep)
                    sep = "," + inner
                    if isinstance(v, (dict, list, tuple)):
                        emit(v, inner)
                    elif isinstance(v, str):
                        put(_quote(v))
                    else:
                        put(_literal(v))
                put(pad + "]")
            else:
                put(_quote(o) if isinstance(o, str) else _literal(o))
            if len(parts) >= FLUSH_PARTS:
                fh.write("".join(parts))
                parts.clear()

        emit(doc, "\n")
        fh.write("".join(parts))


@dataclass
class Witness(Record):
    """A violating instance: the points involved and the oracle's answers."""

    points: dict[str, list[float]]
    outputs: dict[str, str]
    note: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> "Witness":
        return cls(d["points"], d["outputs"], d.get("note", ""))


@dataclass
class AxiomReport(Record):
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


def _pt(p: np.ndarray) -> list[float]:
    return [float(v) for v in p]


def _row(points: dict, i: int, names) -> dict[str, list[float]]:
    """The points ``names`` of trial ``i`` in a batch, as lists."""
    return {name: _pt(points[name][i]) for name in names}


def _fold(results, witness_cap: int) -> tuple[list[Witness], Counter]:
    """Count per-trial outcomes.  A trial returns None when the property
    holds, a ``Witness`` for a violation (counted as VIOLATION; the first
    ``witness_cap`` are kept) or a tag string such as SKIP, counted under
    itself."""
    witnesses: list[Witness] = []
    counts: Counter = Counter()
    for r in results:
        if isinstance(r, Witness):
            if len(witnesses) < witness_cap:
                witnesses.append(r)
            r = VIOLATION
        if r is not None:
            counts[r] += 1
    return witnesses, counts


def _collect(axiom: str, trials: int, seed: int, violations: list[Witness],
             counts: Counter, proxy: bool = False, extras: dict | None = None) -> AxiomReport:
    """The report of a fold's output: it fails on any violation."""
    return AxiomReport(axiom, trials, seed, "fail" if counts[VIOLATION] else "pass",
                       violations, counts[VIOLATION], proxy, counts[SKIP], extras or {})


def _bisect_to_equal(side: SideMany, lo: np.ndarray, hi: np.ndarray, s_lo: np.ndarray,
                     s_hi: np.ndarray, tol: float) -> np.ndarray:
    """Per bracket j, a parameter in [lo_j, hi_j] where ``side`` answers
    EQUAL, if the endpoint answers straddle EQUAL in either orientation;
    NaN otherwise.  The brackets are bisected in lockstep, each in the
    orientation in which its answers rise, and the first EQUAL wins."""
    up = (s_lo <= 0) & (s_hi >= 0)
    live = np.flatnonzero(up | ((s_lo >= 0) & (s_hi <= 0)))
    orient = np.where(up[live], 1, -1).astype(np.int8)
    out = np.full(len(lo), np.nan)
    out[live] = band_bisect_many(lambda j, t: orient[j] * side(live[j], t),
                                 lo[live], hi[live], tol, lo_state=orient * s_lo[live],
                                 hi_state=orient * s_hi[live], refine=False)
    return out


def _scan_for_equal(side: SideMany, s_first: np.ndarray, s_last: np.ndarray,
                    tol: float) -> np.ndarray:
    """Per trial, a parameter where a possibly non-monotone trichotomy
    answers EQUAL, or NaN when the target value is out of reach.

    The trials are asked the interior points of a uniform grid, one batch
    per ``SCAN_CHUNK`` trials, in trial order; a grid point answering
    EQUAL is taken as it is, otherwise the first adjacent pair whose
    answers straddle EQUAL is bisected.
    """
    n, k = len(s_first), SCAN_SUBINTERVALS
    ts = np.arange(k + 1) / k
    states = np.empty((n, k + 1), dtype=np.int8)
    states[:, 0], states[:, -1] = s_first, s_last
    for start in range(0, n, SCAN_CHUNK):
        rows = np.arange(start, min(start + SCAN_CHUNK, n))
        states[rows, 1:-1] = side(np.repeat(rows, k - 1),
                                  np.tile(ts[1:-1], rows.size)).reshape(rows.size, -1)
    out = np.full(n, np.nan)
    equal = states == 0
    hit = equal.any(axis=1)
    out[hit] = ts[equal[hit].argmax(axis=1)]
    straddle = (states[:, :-1] * states[:, 1:] < 0) & ~hit[:, None]
    rows = np.flatnonzero(straddle.any(axis=1))
    j = straddle[rows].argmax(axis=1)
    out[rows] = _bisect_to_equal(lambda k, t: side(rows[k], t), ts[j], ts[j + 1],
                                 states[rows, j], states[rows, j + 1], tol)
    return out


def _draw_triple(oracle: AltOracle, points: np.ndarray | None, seed: int,
                 trials: int) -> dict[str, np.ndarray]:
    xyz, _ = draw(oracle.domain, points, seed, trials, 3)
    return dict(zip("xyz", xyz.transpose(1, 0, 2)))


def _draw_crossover(oracle: AltOracle, points: np.ndarray | None, seed: int,
                    trials: int) -> dict[str, np.ndarray]:
    """Sample (x, y, z), then solve for w on the domain diagonal so that
    [z,w] matches [x,y]; w is NaN where no diagonal point matches."""
    diag = oracle.domain.diagonal()
    # Probe once whether preference is monotone along the diagonal; if it
    # is, a failed endpoint bracket means the target is genuinely out of
    # range and the fallback scan can be skipped.
    corners = diag.at_many(np.arange(9) / 8)
    lower = corners[:-1]
    steps = oracle.compare_batch(corners[1:], lower, lower, lower)
    diag_monotone = bool((steps >= 0).all() or (steps <= 0).all())
    p = _draw_triple(oracle, points, seed, trials)
    x, y, z = p["x"], p["y"], p["z"]

    # w runs down the diagonal so that [z,w] rises with s when the
    # system is increasing along the diagonal.
    def side(j: np.ndarray, s: np.ndarray) -> np.ndarray:
        return oracle.compare_batch(z[j], diag.at_many(1.0 - s), x[j], y[j])

    every = np.arange(trials)
    lo, hi = np.zeros(trials), np.ones(trials)
    s0, s1 = side(every, lo), side(every, hi)
    s = _bisect_to_equal(side, lo, hi, s0, s1, DEFAULT_TOL_T)
    if not diag_monotone:
        miss = np.flatnonzero(np.isnan(s))
        s[miss] = _scan_for_equal(lambda j, t: side(miss[j], t), s0[miss], s1[miss], DEFAULT_TOL_T)
    p["w"] = diag.at_many(1.0 - s)
    return p


def _draw_perturbed(oracle: AltOracle, points: np.ndarray | None, seed: int, trials: int,
                    delta: float, probes: int) -> dict[str, np.ndarray]:
    """Sample a quadruple x, y, z, w and ``moved``: ``probes`` copies of
    it, each coordinate moved by up to ``delta`` of the box extent and
    clipped to the box.  A trial draws its copies' moves, 2u - 1 from
    uniforms u, right after its quadruple, from its own stream."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if delta > MAX_DELTA:
        raise ValueError(f"delta must be small relative to the domain (<= {MAX_DELTA})")
    if probes < 1:
        raise ValueError("probes must be >= 1")
    box = oracle.domain
    quad, u = draw(box, points, seed, trials, 4, probes * 4 * box.dim)
    moved = u.reshape(trials, probes, 4, box.dim)   # a view: the copies are made in u
    moved *= 2.0
    moved -= 1.0
    moved *= delta * box.extent
    moved += quad[:, None]
    np.clip(moved, box.lower, box.upper, out=moved)
    return {**dict(zip(QUAD, quad.transpose(1, 0, 2))), "moved": moved}


def _draw_dominating(oracle: AltOracle, points: np.ndarray | None, seed: int,
                     trials: int) -> dict[str, np.ndarray]:
    """Sample y, then x above y on every axis, inside the box."""
    box = oracle.domain
    y, r = draw(box, points, seed, trials, 1, box.dim)
    y = y[:, 0]
    frac = 1e-6 + r * (1.0 - 2e-6)
    return {"x": y + frac * (box.upper - y), "y": y}


def _sign_match(label: str, quad: Callable):
    """Predicate of the two consistency axioms: the preference of x over
    y ([x,y] against [y,y]) and the comparison of ``quad(x, y, z)`` must
    have the same sign; a witness names the latter ``label``."""
    def predicate(oracle: AltOracle, p: dict) -> list:
        x, y, z = p["x"], p["y"], p["z"]
        pref = oracle.compare_batch(x, y, y, y)
        other = oracle.compare_batch(*quad(x, y, z))
        out: list = [None] * len(x)
        for i in np.flatnonzero(pref != other):
            out[i] = Witness(_row(p, i, "xyz"), {"preference": _ORDER[pref[i]],
                                                 label: _ORDER[other[i]]})
        return out
    return predicate


# x weakly preferred to y iff [x,z] >= [y,z]; and iff [z,y] >= [z,x].
_consistency = _sign_match("shifted", lambda x, y, z: (x, z, y, z))
_second_consistency = _sign_match("mirrored", lambda x, y, z: (z, y, z, x))


def _crossover(oracle: AltOracle, p: dict) -> list:
    """[z,w] = [x,y] implies [x,z] = [y,w] (checked where w is given and
    not NaN), and [x,x] = [y,y] always.  SKIP when no Equal premise was
    found."""
    x, y, w = p["x"], p["y"], p.get("w")
    out: list = [SKIP] * len(x)
    rebracket = np.zeros(len(x), dtype=bool)
    if w is not None:
        j = np.flatnonzero(~np.isnan(w[:, 0]))
        premise = oracle.compare_batch(p["z"][j], w[j], x[j], y[j])
        j = j[premise == 0]
        swapped = oracle.compare_batch(x[j], p["z"][j], y[j], w[j])
        for i in j:
            out[i] = None
        for i, s in zip(j[swapped != 0], swapped[swapped != 0]):
            out[i] = Witness(_row(p, i, QUAD), {"premise": EQUAL.value, "swapped": _ORDER[s]},
                             note="rebracket")
            rebracket[i] = True
    rest = np.flatnonzero(~rebracket)
    xr, yr = x[rest], y[rest]
    null = oracle.compare_batch(xr, xr, yr, yr)
    for i, s in zip(rest[null != 0], null[null != 0]):
        out[i] = Witness(_row(p, i, ("x", "y")), {"null_brackets": _ORDER[s]},
                         note="null-brackets")
    return out


def _continuity(oracle: AltOracle, p: dict) -> list:
    """A GREATER answer on x, y, z, w must not turn LESS on any moved copy:
    those of ``moved`` from a draw, or the one stored in a witness as
    ``x_moved`` ... ``w_moved``.  Probe k is asked of every GREATER trial
    that no earlier probe flipped.  SKIP when the answer is not GREATER."""
    if "moved" in p:
        moved = p["moved"]
    else:
        moved = np.stack([p[n + "_moved"] for n in QUAD], axis=1)[:, None]
    base = oracle.compare_batch(*(p[n] for n in QUAD))
    out: list = [None if b > 0 else SKIP for b in base]
    live = np.flatnonzero(base > 0)
    for k in range(moved.shape[1]):
        if not live.size:
            break
        copies = moved[live, k]
        flipped = oracle.compare_batch(*copies.transpose(1, 0, 2)) < 0
        for i, copy in zip(live[flipped], copies[flipped]):
            points = _row(p, i, QUAD)
            points.update({n + "_moved": _pt(v) for n, v in zip(QUAD, copy)})
            out[i] = Witness(points, {"base": GREATER.value, "perturbed": LESS.value})
        live = live[~flipped]
    return out


def _monotonicity(oracle: AltOracle, p: dict) -> list:
    """x above y on every axis implies x strictly preferred to y."""
    x, y = p["x"], p["y"]
    dominates = np.all(x > y, axis=1)
    out: list = [None if d else SKIP for d in dominates]
    j = np.flatnonzero(dominates)
    yj = y[j]
    pref = oracle.compare_batch(x[j], yj, yj, yj)
    for i, s in zip(j[pref <= 0], pref[pref <= 0]):
        out[i] = Witness(_row(p, i, ("x", "y")), {"preference": _PREFERENCE[s]})
    return out


_RULES = {
    "consistency": (_draw_triple, _consistency),
    "crossover": (_draw_crossover, _crossover),
    "second-consistency": (_draw_triple, _second_consistency),
    "continuity-proxy": (_draw_perturbed, _continuity),
    "monotonicity": (_draw_dominating, _monotonicity),
}


def _trials(axiom: str, oracle: AltOracle, points: np.ndarray | None, trials: int,
            seed: int, **params) -> list:
    """The two phases of every checker: draw the instances of all trials
    (trial i from its stream under ``seed``, its points from ``points``
    when given), then apply the axiom's predicate to all of them at once."""
    draw_for, violation = _RULES[axiom]
    return violation(oracle, draw_for(oracle, points, seed, trials, **params))


def check_consistency(oracle: AltOracle, points: np.ndarray | None = None,
                      trials: int = 1000, seed: int = 0) -> AxiomReport:
    """Shifting both sides by a common reference point z must preserve the
    derived order: x weakly preferred to y iff [x,z] >= [y,z].  Applied to
    the pair in both orders this is an exact sign match between the
    preference trichotomy and the shifted comparison.
    """
    results = _trials("consistency", oracle, points, trials, seed)
    return _collect("consistency", trials, seed, *_fold(results, WITNESS_CAP))


def check_second_consistency(oracle: AltOracle, points: np.ndarray | None = None,
                             trials: int = 1000, seed: int = 0) -> AxiomReport:
    """Mirror form of consistency on the second slot: x weakly preferred
    to y iff [z,y] >= [z,x]."""
    results = _trials("second-consistency", oracle, points, trials, seed)
    return _collect("second-consistency", trials, seed, *_fold(results, WITNESS_CAP))


def check_crossover(oracle: AltOracle, points: np.ndarray | None = None,
                    trials: int = 1000, seed: int = 0) -> AxiomReport:
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
    results = _trials("crossover", oracle, points, trials, seed)
    manufactured = sum(1 for r in results
                       if r is None or (isinstance(r, Witness) and r.note == "rebracket"))
    return _collect("crossover", trials, seed, *_fold(results, WITNESS_CAP),
                    extras={"manufactured": manufactured})


def check_continuity_proxy(oracle: AltOracle, points: np.ndarray | None = None,
                           trials: int = 1000, seed: int = 0, delta: float = DEFAULT_DELTA,
                           probes: int = DEFAULT_PROBES) -> AxiomReport:
    """Necessary-condition proxy for closedness of the relation: a strictly
    GREATER outcome must not flip to LESS under coordinate perturbations of
    relative size ``delta``.  Perturbed points are clipped to the box.

    ``delta`` must be positive and small relative to the domain; it
    defaults to just above the equality dead band so that continuous
    systems keep comfortable margins while jump discontinuities still flip.
    """
    results = _trials("continuity-proxy", oracle, points, trials, seed,
                      delta=delta, probes=probes)
    return _collect("continuity-proxy", trials, seed, *_fold(results, WITNESS_CAP),
                    proxy=True, extras={"delta": delta, "probes": probes})


def check_monotonicity(oracle: AltOracle, points: np.ndarray | None = None,
                       trials: int = 1000, seed: int = 0) -> AxiomReport:
    """Coordinatewise strict dominance must imply strict preference."""
    results = _trials("monotonicity", oracle, points, trials, seed)
    return _collect("monotonicity", trials, seed, *_fold(results, WITNESS_CAP))


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
    """Re-evaluate a stored witness with the axiom's own predicate, on a
    batch of one; True iff it still violates the axiom."""
    if axiom not in _RULES:
        raise ValueError(f"no replay rule for axiom {axiom!r}")
    pts = {k: np.asarray(v, dtype=float)[None] for k, v in witness.points.items()}
    return isinstance(_RULES[axiom][1](oracle, pts)[0], Witness)
