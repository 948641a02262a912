"""Per-layer tracing of altkit from outside its sources.

``traced(tracer)`` swaps altkit's public functions for wrappers that
record a span around each call (name, start, end, parent, thread) and
count oracle compares and utility-evaluator calls at the same boundary.
Nothing under ``src/`` changes, and the originals are put back when the
block ends.  Hot calls (compare, ``Segment.at``, ``subrng``, bisections)
are folded into per-name totals as they end; the coarse spans are kept
one by one and written out once, with ``Tracer.write``.

A span's self time is its duration minus the part covered by its child
spans: children on the same thread are summed, children on worker threads
(trials under ``run_indexed``) are merged as intervals first, because they
overlap.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter

COMPARE, EVALUATOR = 0, 1

# Spans kept one by one; every other span only adds to its name's totals.
KEPT = ("cli.main", "fixtures.setup", "axioms.", "ladder.build_ladder",
        "ladder.spot_check", "ladder.affine", "concavity.gossen", "smoothness.line",
        "smoothness.debreu", "diffcalc.alep", "sampling.run_indexed")


@dataclasses.dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    compares: int = 0      # oracle compares made inside the spans
    evaluators: int = 0    # utility-evaluator calls made inside the spans
    items: int = 0         # trials, points or side evaluations, by span

    def add(self, other: "Totals") -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class _Thread:
    """What one thread records; only that thread writes it."""

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        self.stack: list[_Span] = []
        self.counts = [0, 0]
        self.totals: dict[str, Totals] = {}

    def totals_of(self, name: str) -> Totals:
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = Totals()
        return t


class _Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "child_s",
                 "cross", "counts0", "local")

    def __init__(self, sid, name, parent, thread, counts0, local):
        self.id, self.name, self.parent, self.thread = sid, name, parent, thread
        self.counts0, self.local = counts0, local
        self.child_s = 0.0
        self.cross: list[tuple[float, float]] = []


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


class Tracer:
    """Spans and counters of one traced round.

    Counters and totals are per thread and summed when read, so the hot
    path takes no lock.  ``local=False`` spans read the counters of every
    thread; they enclose whole ``run_indexed`` calls, so no worker thread
    is counting when they start or end.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Thread] = []
        self._ids = itertools.count()
        self.kept: list[dict] = []

    def _state(self) -> _Thread:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def _global_counts(self) -> list[int]:
        return [sum(t.counts[i] for t in self._threads) for i in (COMPARE, EVALUATOR)]

    def evaluator_calls(self) -> int:
        return self._global_counts()[EVALUATOR]

    def get(self, name: str) -> Totals:
        out = Totals()
        for t in self._threads:
            if name in t.totals:
                out.add(t.totals[name])
        return out

    # -- spans --------------------------------------------------------------

    def enter(self, name: str, parent: _Span | None = None,
              local: bool = True) -> _Span:
        st = self._state()
        if parent is None and st.stack:
            parent = st.stack[-1]
        counts0 = list(st.counts) if local else self._global_counts()
        span = _Span(next(self._ids), name, parent, st.ident, counts0, local)
        st.stack.append(span)
        span.start = perf_counter()
        return span

    def exit(self, span: _Span, items: int = 0) -> None:
        span.end = perf_counter()
        st = self._state()
        st.stack.pop()
        counts1 = st.counts if span.local else self._global_counts()
        dur = span.end - span.start
        parent = span.parent
        if parent is not None:
            if parent.thread == span.thread:
                parent.child_s += dur
            else:
                parent.cross.append((span.start, span.end))
        t = st.totals_of(span.name)
        t.calls += 1
        t.total_s += dur
        t.self_s += dur - span.child_s - _covered(span.cross)
        t.compares += counts1[COMPARE] - span.counts0[COMPARE]
        t.evaluators += counts1[EVALUATOR] - span.counts0[EVALUATOR]
        t.items += items
        if span.name.startswith(KEPT):
            self.kept.append({"id": span.id, "name": span.name,
                              "parent": None if parent is None else parent.id,
                              "thread": span.thread, "start": span.start,
                              "end": span.end})

    def wrap(self, name: str, fn, local: bool = True):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.enter(name, local=local)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(span)
        return wrapper

    def leaf(self, name: str, fn, counter: int | None = None):
        """Cheaper wrapper for hot calls that contain no traced span: adds
        its time and evaluator count to the totals and the parent, and keeps
        no span object."""
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if counter is not None:
                st.counts[counter] += 1
            evaluators = st.counts[EVALUATOR]
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                t = st.totals_of(name)
                t.calls += 1
                t.total_s += dur
                t.self_s += dur
                t.evaluators += st.counts[EVALUATOR] - evaluators
                if st.stack:
                    st.stack[-1].child_s += dur
        return wrapper

    def write(self, path: Path) -> None:
        """Write the kept spans, then one line of totals per span name."""
        names = sorted({n for t in self._threads for n in t.totals})
        with path.open("w") as fh:
            for rec in self.kept:
                fh.write(json.dumps(rec) + "\n")
            for name in names:
                fh.write(json.dumps({"totals": name, **dataclasses.asdict(self.get(name))})
                         + "\n")


class _Checker:
    """Span around an axiom checker.  ``run_axiom_suite`` reads the
    checker's ``__code__`` to pick keyword arguments, so this exposes the
    original's."""

    def __init__(self, tracer: Tracer, name: str, fn) -> None:
        self._tracer, self._name, self._fn = tracer, name, fn
        self.__code__ = fn.__code__

    def __call__(self, *args, **kwargs):
        span = self._tracer.enter(self._name, local=False)
        try:
            return self._fn(*args, **kwargs)
        finally:
            self._tracer.exit(span, items=kwargs.get("trials", 0))


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from altkit import (axioms, cli, concavity, domain, fixtures, ladder, oracle,
                        sampling, smoothness, solvers)

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                      else getattr(owner, attr)))
        setattr(owner, attr, new)

    def counted(fn):
        # Evaluators run inside a traced compare, set-up or alep span, so the
        # calling thread's record exists.
        tls = tracer._tls

        def evaluator(*args):
            tls.st.counts[EVALUATOR] += 1
            return fn(*args)
        return evaluator

    # fixtures: count every evaluator call of every oracle built from here on.
    def setup_span(factory):
        def make(spec, *args, **kwargs):
            spec = dataclasses.replace(spec, evaluator=counted(spec.evaluator))
            span = tracer.enter("fixtures.setup", local=False)
            try:
                return factory(spec, *args, **kwargs)
            finally:
                tracer.exit(span)
        return make

    patch(fixtures, "make_difference_oracle", setup_span(fixtures.make_difference_oracle))
    patch(fixtures, "make_intensity_oracle", setup_span(fixtures.make_intensity_oracle))

    # oracle
    patch(oracle.AltOracle, "compare",
          tracer.leaf("oracle.compare", oracle.AltOracle.compare, counter=COMPARE))

    # domain
    patch(domain.Segment, "at", tracer.leaf("domain.segment_at", domain.Segment.at))
    patch(domain.BoxDomain, "sample", tracer.leaf("domain.sample", domain.BoxDomain.sample))

    # sampling
    subrng = tracer.leaf("sampling.subrng", sampling.subrng)
    for mod in (sampling, axioms, ladder, concavity, smoothness):
        patch(mod, "subrng", subrng)
    run_indexed = sampling.run_indexed

    def traced_run_indexed(fn, n, workers=1):
        outer = tracer.enter("sampling.run_indexed")

        def trial(i):
            span = tracer.enter("sampling.trial", parent=outer)
            try:
                return fn(i)
            finally:
                tracer.exit(span)
        try:
            return run_indexed(trial, n, workers)
        finally:
            tracer.exit(outer, items=n)
    for mod in (sampling, axioms, ladder, concavity, smoothness):
        patch(mod, "run_indexed", traced_run_indexed)

    # solvers
    band_bisect = solvers.band_bisect

    def traced_band_bisect(side, *args, **kwargs):
        evals = 0

        def counted_side(t):
            nonlocal evals
            evals += 1
            return side(t)
        span = tracer.enter("solvers.band_bisect")
        try:
            return band_bisect(counted_side, *args, **kwargs)
        finally:
            tracer.exit(span, items=evals)
    for mod in (solvers, axioms, ladder):
        patch(mod, "band_bisect", traced_band_bisect)

    # axioms
    for name, fn in list(axioms._CHECKERS.items()):
        axioms._CHECKERS[name] = _Checker(tracer, f"axioms.{name}", fn)
        saved.append((axioms._CHECKERS, name, fn))

    # ladder
    patch(ladder, "build_ladder", tracer.wrap("ladder.build_ladder", ladder.build_ladder,
                                              local=False))
    patch(ladder.ReconstructedUtility, "evaluate",
          tracer.wrap("ladder.evaluate", ladder.ReconstructedUtility.evaluate))
    patch(cli, "representation_spot_check",
          tracer.wrap("ladder.spot_check", cli.representation_spot_check, local=False))
    patch(cli, "verify_affine_uniqueness",
          tracer.wrap("ladder.affine", cli.verify_affine_uniqueness, local=False))

    # concavity
    gossen = cli.check_gossen_law

    def traced_gossen(*args, **kwargs):
        span = tracer.enter("concavity.gossen", local=False)
        try:
            return gossen(*args, **kwargs)
        finally:
            tracer.exit(span, items=kwargs.get("trials", 0))
    patch(cli, "check_gossen_law", traced_gossen)

    # smoothness
    patch(cli, "line_smoothness_limit",
          tracer.wrap("smoothness.line", cli.line_smoothness_limit, local=False))
    patch(cli, "debreu_smoothness_proxy",
          tracer.wrap("smoothness.debreu", cli.debreu_smoothness_proxy, local=False))
    patch(smoothness, "solve_f", tracer.wrap("smoothness.solve_f", smoothness.solve_f))
    patch(smoothness, "calibrate", tracer.wrap("smoothness.calibrate", smoothness.calibrate))

    # diffcalc: alep calls the utility directly, without an oracle.
    alep = cli.alep_classify

    def traced_alep(u_fn, points, *args, **kwargs):
        span = tracer.enter("diffcalc.alep", local=False)
        try:
            return alep(counted(u_fn), points, *args, **kwargs)
        finally:
            tracer.exit(span, items=len(points))
    patch(cli, "alep_classify", traced_alep)

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer, report_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced round, keyed by metric name."""
    compare, at, bisect = t.get("oracle.compare"), t.get("domain.segment_at"), \
        t.get("solvers.band_bisect")
    subrng, calib = t.get("sampling.subrng"), t.get("smoothness.calibrate")
    evaluate, build = t.get("ladder.evaluate"), t.get("ladder.build_ladder")
    gossen, alep = t.get("concavity.gossen"), t.get("diffcalc.alep")
    m = {
        "sampling.subrng.calls": subrng.calls,
        "sampling.subrng.us_per_call": 1e6 * _ratio(subrng.total_s, subrng.calls),
        "sampling.run_indexed.overhead_s": t.get("sampling.run_indexed").self_s,
        "oracle.compare.calls": compare.calls,
        "oracle.compare.us_per_call": 1e6 * _ratio(compare.total_s, compare.calls),
        "fixtures.evaluator.calls": t.evaluator_calls(),
        "fixtures.evaluator.calls_per_compare": _ratio(compare.evaluators, compare.calls),
        "fixtures.setup.evaluator_calls": t.get("fixtures.setup").evaluators,
        "solvers.band_bisect.calls": bisect.calls,
        "solvers.band_bisect.side_evals_per_solve": _ratio(bisect.items, bisect.calls),
        "solvers.band_bisect.self_s": bisect.self_s,
        "domain.segment_at.calls": at.calls,
        "domain.segment_at.s": at.total_s,
        "domain.sample.calls": t.get("domain.sample").calls,
    }
    for axiom in ("consistency", "crossover", "second-consistency", "continuity-proxy",
                  "monotonicity"):
        c = t.get(f"axioms.{axiom}")
        m[f"axioms.{axiom}.s"] = c.total_s
        m[f"axioms.{axiom}.oracle_calls_per_trial"] = _ratio(c.compares, c.items)
    m.update({
        "ladder.build_ladder.s": build.total_s,
        "ladder.build_ladder.oracle_calls": build.compares,
        "ladder.evaluate.calls": evaluate.calls,
        "ladder.evaluate.oracle_calls_per_eval": _ratio(evaluate.compares, evaluate.calls),
        "ladder.spot_check.s": t.get("ladder.spot_check").total_s,
        "ladder.affine.s": t.get("ladder.affine").total_s,
        "concavity.gossen.s": gossen.total_s,
        "concavity.gossen.oracle_calls_per_trial": _ratio(gossen.compares, gossen.items),
        "smoothness.line.s": t.get("smoothness.line").total_s,
        "smoothness.line.oracle_calls": t.get("smoothness.line").compares,
        "smoothness.calibrate.calls": calib.calls,
        "smoothness.calibrate.oracle_calls_per_call": _ratio(calib.compares, calib.calls),
        "smoothness.debreu.s": t.get("smoothness.debreu").total_s,
        "diffcalc.alep.s": alep.total_s,
        "diffcalc.alep.evaluator_calls_per_point": _ratio(alep.evaluators, alep.items),
        "cli.self_s": t.get("cli.main").self_s,
        "cli.report_bytes": report_bytes,
    })
    return m
