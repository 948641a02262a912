"""Seeded sampling utilities.

Every randomized checker derives one independent substream per trial
index from its master seed and runs its trials in index order on the
calling thread, so reports are reproducible bit-for-bit.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .domain import BoxDomain

Sampler = Callable[[np.random.Generator], np.ndarray]


def subrng(seed: int, index: int) -> np.random.Generator:
    """Generator for sample ``index`` of the stream rooted at ``seed``.

    Seeding on the pair (seed, index) gives statistically independent
    substreams without the extra hashing cost of spawn keys.
    """
    return np.random.default_rng((seed, index))


def checked_sampler(box: BoxDomain, sampler: Sampler | None) -> Sampler:
    """``box.sample`` when no sampler is given (its draws are inside the
    box by construction); otherwise ``sampler`` with every draw required
    to lie in ``box``."""
    if sampler is None:
        return box.sample
    return lambda rng: box.require(sampler(rng), "sampled point")


class PointRows(NamedTuple):
    """Points for many trials: ``draw(rng, k)`` draws a trial's k points
    from its generator as the rows of an array, and ``finish`` maps the
    stacked draws of all trials to the points.  Together they give the
    points that k calls of ``checked_sampler(box, sampler)`` draw."""

    draw: Callable[[np.random.Generator, int], np.ndarray]
    finish: Callable[[np.ndarray], np.ndarray]


def point_rows(box: BoxDomain, sampler: Sampler | None) -> PointRows:
    """The ``PointRows`` of ``sampler``, or of ``box.sample`` when None:
    then one ``rng.random`` call draws a trial's uniforms, which consumes
    the stream as k calls of ``box.sample`` do, and ``finish`` scales all
    of them to the box at once with the same arithmetic."""
    if sampler is None:
        return PointRows(lambda rng, k: rng.random((k, box.dim)),
                         lambda u: box.lower + u * box.extent)
    sample = checked_sampler(box, sampler)
    return PointRows(lambda rng, k: np.array([sample(rng) for _ in range(k)]),
                     lambda points: points)


def cycle_sampler(points: Sequence) -> Sampler:
    """Sampler that replays a fixed list of points, cycling; useful for
    injecting hand-constructed witnesses into the randomized checkers."""
    pts = [np.asarray(p, dtype=float) for p in points]
    state = {"i": 0}

    def sample(_rng: np.random.Generator) -> np.ndarray:
        p = pts[state["i"] % len(pts)]
        state["i"] += 1
        return p.copy()
    return sample


def run_indexed(fn: Callable[[int], object], n: int, _unused: object = None) -> list:
    """``[fn(0), ..., fn(n - 1)]`` for a trial count ``n >= 1``, evaluated
    in index order on the calling thread.  The optional third argument is
    ignored; it keeps the call form of the former worker-count parameter,
    which perfbench's tracer still uses."""
    if n < 1:
        raise ValueError("trials must be >= 1")
    return [fn(i) for i in range(n)]
