"""Randomized axiom checkers for intensity-comparison oracles.

Each axiom is written once, as a draw and a predicate, and every checker
runs in two phases.  In the draw phase one ``sampling.draw`` call gives
every trial the points of one candidate instance, from the leading
uniforms of trial i's own stream (computed for all trials at once;
``subrng(seed, i)`` is the one-trial reference the tests use) or, when
the caller passes ``points``, from those rows in order, cycling; the
draws are stacked into one array per point name, one row per trial.
The continuity proxy's moved copies are the one exception: its draw
gives only the quadruple, and its predicate draws the moves of the
trials whose base answer needs them, from further on in their streams.
``run_axiom_suite`` computes the leading uniforms once and hands that
array to each of its checkers' draws.  In the predicate
phase the axiom's predicate asks each of its stages with one
``compare_batch`` over the trials that earlier stages left undecided,
and tags each trial ``None`` (it holds), ``SKIP`` (its premise did not
hold) or ``VIOLATION``; a ``Witness`` is built only for the first
``WITNESS_CAP`` violations, which a report keeps.  Every trial is asked
what a loop over single trials would ask it, so reports and compare
counts do not depend on the batching; ``replay_witness`` runs the same predicate on a batch of one,
the points of a stored witness.  Streams are derived per trial index, so
a report regenerated from its stored seed is bit-identical.

Crossover's draw also solves for its fourth point: the diagonal brackets
of all trials are bisected in lockstep (``solvers.band_bisect_many``),
with z, x and y held (``AltOracle.hold``) and asked by row index
(``AltOracle.compare_rows``), so that only the diagonal point is new at
each step; its predicate asks through the same held points, so that
only w is new.

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
from .sampling import draw, run_indexed, subrng, uniforms  # noqa: F401
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


# The report writer writes out the parts it has gathered after an element
# of a container once there are this many.
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

        # A dict's finite floats and strs and a list's finite floats, the
        # bulk of a report, are written in place; a float's repr ends in "n"
        # or "f" only for NaN and the infinities, which, like every other
        # value, go through emit.
        def emit(o, pad: str) -> None:
            inner = pad + "  "
            if isinstance(o, dict):
                sep = "{"
                for k in sorted(o):
                    put(sep + inner + _quote(k if isinstance(k, str) else _literal(k)) + ": ")
                    sep, v = ",", o[k]
                    if type(v) is float and (r := float.__repr__(v))[-1] not in "nf":
                        put(r)
                    elif type(v) is str:
                        put(_quote(v))
                    else:
                        emit(v, inner)
                    if len(parts) >= FLUSH_PARTS:
                        fh.write("".join(parts))
                        parts.clear()
                put(pad + "}" if o else "{}")
            elif isinstance(o, (list, tuple)):
                sep = "["
                for v in o:
                    put(sep + inner)
                    sep = ","
                    if type(v) is float and (r := float.__repr__(v))[-1] not in "nf":
                        put(r)
                    else:
                        emit(v, inner)
                    if len(parts) >= FLUSH_PARTS:
                        fh.write("".join(parts))
                        parts.clear()
                put(pad + "]" if o else "[]")
            else:
                put(_quote(o) if isinstance(o, str) else _literal(o))

        emit(doc, "\n")
        fh.write("".join(parts))


@dataclass
class Witness(Record):
    """A violating instance: the points involved and the oracle's answers."""

    points: dict[str, list[float]]
    outputs: dict[str, str]
    note: str = ""


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


def _fold(tags: np.ndarray, witness: Callable[[int], Witness]) -> tuple[list[Witness], Counter]:
    """Fold a predicate's output: count its per-trial tags, None where the
    property holds (not counted) and VIOLATION, SKIP or another string each
    under itself, and build with ``witness(i)`` the witnesses a report
    keeps, those of the first ``WITNESS_CAP`` VIOLATION trials i in trial
    order, and no others."""
    counts = Counter(tags.tolist())
    counts.pop(None, None)
    return [witness(i) for i in np.flatnonzero(tags == VIOLATION)[:WITNESS_CAP].tolist()], counts


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
                 trials: int, prefix=None) -> dict[str, np.ndarray]:
    xyz, _ = draw(oracle.domain, points, seed, trials, 3, prefix=prefix)
    return dict(zip("xyz", xyz.transpose(1, 0, 2)))


def _draw_crossover(oracle: AltOracle, points: np.ndarray | None, seed: int,
                    trials: int, prefix=None) -> dict[str, np.ndarray]:
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
    p = _draw_triple(oracle, points, seed, trials, prefix)
    fixed = p["held"] = oracle.hold(p["z"], p["x"], p["y"])

    # w runs down the diagonal so that [z,w] rises with s when the
    # system is increasing along the diagonal.
    def side(j: np.ndarray, s: np.ndarray) -> np.ndarray:
        return oracle.compare_rows(fixed, (j, None, j + trials, j + 2 * trials),
                                   diag.at_many(1.0 - s))

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
                    delta: float = DEFAULT_DELTA, probes: int = DEFAULT_PROBES,
                    prefix=None) -> dict:
    """Sample a quadruple x, y, z, w, and give ``move``, which makes the
    ``probes`` moved copies of the quadruples of the trials it is given:
    each coordinate moved by up to ``delta`` of the box extent, 2u - 1
    from uniforms u, and clipped to the box.  A trial's moves are the
    uniforms of its own stream right after its quadruple's, or its first
    ones when ``points`` are given; the predicate asks for them only of
    the trials that need them.  Its ``extras`` are ``delta`` and ``probes``."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if delta > MAX_DELTA:
        raise ValueError(f"delta must be small relative to the domain (<= {MAX_DELTA})")
    if probes < 1:
        raise ValueError("probes must be >= 1")
    box = oracle.domain
    quad, _ = draw(box, points, seed, trials, 4, prefix=prefix)
    start = 4 * box.dim if points is None else 0

    def move(rows: np.ndarray) -> np.ndarray:
        moved = uniforms(seed, rows, probes * 4 * box.dim, start)
        moved = moved.reshape(len(rows), probes, 4, box.dim)
        moved *= 2.0
        moved -= 1.0
        moved *= delta * box.extent
        moved += quad[rows, None]
        np.clip(moved, box.lower, box.upper, out=moved)
        return moved
    return {**dict(zip(QUAD, quad.transpose(1, 0, 2))), "move": move,
            "extras": {"delta": delta, "probes": probes}}


def _draw_dominating(oracle: AltOracle, points: np.ndarray | None, seed: int,
                     trials: int, prefix=None) -> dict[str, np.ndarray]:
    """Sample y, then x above y on every axis, inside the box."""
    box = oracle.domain
    y, r = draw(box, points, seed, trials, 1, box.dim, prefix=prefix)
    y = y[:, 0]
    frac = 1e-6 + r * (1.0 - 2e-6)
    return {"x": y + frac * (box.upper - y), "y": y}


def _sign_match(label: str, quad: Callable):
    """Predicate of the two consistency axioms: the preference of x over
    y ([x,y] against [y,y]) and the comparison of ``quad(x, y, z)`` must
    have the same sign; a witness names the latter ``label``."""
    def predicate(oracle: AltOracle, p: dict) -> tuple:
        x, y, z = p["x"], p["y"], p["z"]
        pref = oracle.compare_batch(x, y, y, y)
        other = oracle.compare_batch(*quad(x, y, z))
        return np.where(pref != other, VIOLATION, None), lambda i: Witness(
            _row(p, i, "xyz"), {"preference": _ORDER[pref[i]], label: _ORDER[other[i]]})
    return predicate


# x weakly preferred to y iff [x,z] >= [y,z]; and iff [z,y] >= [z,x].
_consistency = _sign_match("shifted", lambda x, y, z: (x, z, y, z))
_second_consistency = _sign_match("mirrored", lambda x, y, z: (z, y, z, x))


def _crossover(oracle: AltOracle, p: dict) -> tuple:
    """[z,w] = [x,y] implies [x,z] = [y,w] (checked where w is given and
    not NaN), and [x,x] = [y,y] always.  SKIP when no Equal premise was
    found.  ``p["extras"]`` counts the premises found, less null failures.

    Every compare asks z, x and y by row of ``p["held"]``, the draw's held
    points, which the draw's solve valued, so that only w is valued here;
    a witness holds its own (with x for an absent z, which only w's
    compares ask)."""
    x, y, w = p["x"], p["y"], p.get("w")
    n = len(x)
    fixed = p["held"] if "held" in p else oracle.hold(p.get("z", x), x, y)
    premise = np.zeros(n, dtype=bool)
    swapped = np.zeros(n, dtype=np.int8)
    if w is not None:
        j = np.flatnonzero(~np.isnan(w[:, 0]))
        j = j[oracle.compare_rows(fixed, (j, None, j + n, j + 2 * n), w.take(j, axis=0)) == 0]
        premise[j] = True
        swapped[j] = oracle.compare_rows(fixed, (j + n, j, j + 2 * n, None), w.take(j, axis=0))
    rest = np.flatnonzero(swapped == 0)        # a failed rebracket is not asked again
    xr, yr = rest + n, rest + 2 * n
    null = np.zeros(n, dtype=np.int8)
    null[rest] = oracle.compare_rows(fixed, (xr, xr, yr, yr))
    p["extras"] = {"manufactured": int(np.count_nonzero(premise & (null == 0)))}
    tags = np.where(premise, None, SKIP)
    tags[(swapped != 0) | (null != 0)] = VIOLATION

    def witness(i: int) -> Witness:
        if swapped[i]:
            return Witness(_row(p, i, QUAD), {"premise": EQUAL.value,
                                              "swapped": _ORDER[swapped[i]]}, note="rebracket")
        return Witness(_row(p, i, ("x", "y")), {"null_brackets": _ORDER[null[i]]},
                       note="null-brackets")
    return tags, witness


def _continuity(oracle: AltOracle, p: dict) -> tuple:
    """A GREATER answer on x, y, z, w must not turn LESS on any moved copy:
    those that ``move`` from a draw makes for the GREATER trials, or the
    one stored in a witness as ``x_moved`` ... ``w_moved``.  Probe k is
    asked of every GREATER trial that no earlier probe flipped.  SKIP when
    the answer is not GREATER."""
    base = oracle.compare_batch(*(p[n] for n in QUAD))
    tags = np.where(base > 0, None, SKIP)
    greater = np.flatnonzero(base > 0)
    if "move" in p:
        moved = p["move"](greater)                 # row r belongs to trial greater[r]
    else:
        moved = np.stack([p[n + "_moved"] for n in QUAD], axis=1)[greater, None]
    probe = np.zeros(len(base), dtype=np.intp)     # the probe that flipped a trial
    live = np.arange(len(greater))
    for k in range(moved.shape[1]):
        if not live.size:
            break
        flipped = oracle.compare_batch(*moved[live, k].transpose(1, 0, 2)) < 0
        probe[greater[live[flipped]]] = k
        tags[greater[live[flipped]]] = VIOLATION
        live = live[~flipped]

    def witness(i: int) -> Witness:
        points = _row(p, i, QUAD)
        r = np.searchsorted(greater, i)
        points.update({n + "_moved": _pt(v) for n, v in zip(QUAD, moved[r, probe[i]])})
        return Witness(points, {"base": GREATER.value, "perturbed": LESS.value})
    return tags, witness


def _monotonicity(oracle: AltOracle, p: dict) -> tuple:
    """x above y on every axis implies x strictly preferred to y."""
    x, y = p["x"], p["y"]
    dominates = np.all(x > y, axis=1)
    j = np.flatnonzero(dominates)
    yj = y[j]
    pref = np.ones(len(x), dtype=np.int8)
    pref[j] = oracle.compare_batch(x[j], yj, yj, yj)
    tags = np.where(dominates, None, SKIP)
    tags[pref <= 0] = VIOLATION
    return tags, lambda i: Witness(_row(p, i, ("x", "y")), {"preference": _PREFERENCE[pref[i]]})


# Per axiom: its draw, its predicate, and how many leading uniforms of a
# trial's stream its draw reads, in units of the dimension.
_RULES = {
    "consistency": (_draw_triple, _consistency, 3),
    "crossover": (_draw_crossover, _crossover, 3),
    "second-consistency": (_draw_triple, _second_consistency, 3),
    "continuity-proxy": (_draw_perturbed, _continuity, 4),
    "monotonicity": (_draw_dominating, _monotonicity, 2),
}


def _check(axiom: str, oracle: AltOracle, points: np.ndarray | None, trials: int, seed: int,
           **params) -> AxiomReport:
    """The two phases of every checker: draw the instances of all trials
    (trial i from its stream under ``seed``, its points from ``points``
    when given), then apply the axiom's predicate to all of them at once.
    ``params`` go to the draw.  The report carries the ``extras`` that the
    draw or the predicate left in the draw's dict."""
    draw_for, violation, _ = _RULES[axiom]
    p = draw_for(oracle, points, seed, trials, **params)
    judged = _fold(*violation(oracle, p))
    return _collect(axiom, trials, seed, *judged, axiom == "continuity-proxy", p.get("extras"))


def check_consistency(oracle: AltOracle, points: np.ndarray | None = None,
                      trials: int = 1000, seed: int = 0) -> AxiomReport:
    """Shifting both sides by a common reference point z must preserve the
    derived order: x weakly preferred to y iff [x,z] >= [y,z].  Applied to
    the pair in both orders this is an exact sign match between the
    preference trichotomy and the shifted comparison.
    """
    return _check("consistency", oracle, points, trials, seed)


def check_second_consistency(oracle: AltOracle, points: np.ndarray | None = None,
                             trials: int = 1000, seed: int = 0) -> AxiomReport:
    """Mirror form of consistency on the second slot: x weakly preferred
    to y iff [z,y] >= [z,x]."""
    return _check("second-consistency", oracle, points, trials, seed)


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
    return _check("crossover", oracle, points, trials, seed)


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
    return _check("continuity-proxy", oracle, points, trials, seed, delta=delta, probes=probes)


def check_monotonicity(oracle: AltOracle, points: np.ndarray | None = None,
                       trials: int = 1000, seed: int = 0) -> AxiomReport:
    """Coordinatewise strict dominance must imply strict preference."""
    return _check("monotonicity", oracle, points, trials, seed)


def _runner(axiom: str) -> Callable:
    def check(oracle, points=None, trials=1000, seed=0, **params) -> AxiomReport:
        return _check(axiom, oracle, points, trials, seed, **params)
    return check


# Per axiom, its checker with the draw's parameters (``prefix`` among them)
# as keywords: what ``run_axiom_suite`` calls.
_CHECKERS: dict[str, Callable] = {axiom: _runner(axiom) for axiom in _RULES}

ALL_AXIOMS = tuple(_CHECKERS)


def run_axiom_suite(oracle: AltOracle, axioms=ALL_AXIOMS, trials: int = 1000,
                    seed: int = 0, delta: float = DEFAULT_DELTA,
                    probes: int = DEFAULT_PROBES) -> dict[str, AxiomReport]:
    """Run several checkers with a shared master seed; ``delta`` and
    ``probes`` go to the continuity proxy.  The leading uniforms of each
    trial's stream are computed once, as one read-only array as wide as
    the widest draw of the axioms asks, and each checker's draw reads its
    own column prefix of it: the reports are those of the checkers run
    alone."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    axioms = tuple(axioms)
    width = max((_RULES[name][2] for name in axioms), default=0)
    prefix = uniforms(seed, trials, width * oracle.domain.dim)
    prefix.flags.writeable = False
    reports = {}
    for name in axioms:
        params = {"delta": delta, "probes": probes} if name == "continuity-proxy" else {}
        reports[name] = _CHECKERS[name](oracle, trials=trials, seed=seed, prefix=prefix, **params)
    return reports


def replay_witness(oracle: AltOracle, axiom: str, witness: Witness) -> bool:
    """Re-evaluate a stored witness with the axiom's own predicate, on a
    batch of one; True iff it still violates the axiom."""
    if axiom not in _RULES:
        raise ValueError(f"no replay rule for axiom {axiom!r}")
    pts = {k: np.asarray(v, dtype=float)[None] for k, v in witness.points.items()}
    return _RULES[axiom][1](oracle, pts)[0][0] == VIOLATION
