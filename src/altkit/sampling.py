"""Seeded sampling: one counter-based stream per trial.

Trial i of a run with master seed s reads the Philox4x64-10 stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11)
keyed by (s, 0) from counter (0, 0, i, 0): its block j is the block that
numpy's ``Philox(key=(s, 0), counter=(0, 0, i, 0))`` emits j-th, and a
uniform is ``(word >> 11) * 2**-53``, as ``Generator.random`` makes it.
``uniforms`` computes the streams of all trials at once over uint64
arrays, and every draw in altkit goes through it.  ``subrng(seed, i)``
is a numpy Generator on trial i's stream: the reference the tests check
``uniforms`` against, since nothing in altkit draws one trial at a time.
A trial's values do not depend on how many trials run or how they are
batched, so reports are reproducible bit for bit.
"""
from __future__ import annotations

import operator
from typing import Callable

import numpy as np

from .domain import BoxDomain

# Philox blocks computed per pass of ``uniforms``; bounds its working memory.
BLOCK_CHUNK = 2048

_MASK64 = (1 << 64) - 1
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157      # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B      # key increments (Weyl)


def check_seed(seed) -> int:
    """``seed`` as a Python int, which must lie in [0, 2**64)."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    return seed


def _mulhi(m: int, x: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products m * x, summed from the 32-bit
    halves of both factors."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _32
    hi_lo, lo_hi = m_hi * x_lo, m_lo * x_hi
    carry = ((m_lo * x_lo) >> _32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    return m_hi * x_hi + (hi_lo >> _32) + (lo_hi >> _32) + (carry >> _32)


def _philox(ctr: list, seed: int) -> list:
    """The four output words of Philox4x64-10 on counters ``ctr`` (four
    uint64 arrays or scalars, least significant first) under key (seed, 0)."""
    k0, k1 = seed, 0
    for r in range(10):
        if r:
            k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
        c0, c2 = ctr[0], ctr[2]
        ctr = [_mulhi(_M1, c2) ^ ctr[1] ^ np.uint64(k0), c2 * np.uint64(_M1),
               _mulhi(_M0, c0) ^ ctr[3] ^ np.uint64(k1), c0 * np.uint64(_M0)]
    return ctr


def uniforms(seed: int, trials: int, n: int) -> np.ndarray:
    """Array (trials, n) whose row i holds the first n uniforms on [0, 1)
    of trial i's stream, computed ``BLOCK_CHUNK`` blocks at a time."""
    seed = check_seed(seed)
    blocks = -(-n // 4)
    out = np.empty((trials, n))
    step = max(1, BLOCK_CHUNK // max(blocks, 1))
    j = np.arange(1, blocks + 1, dtype=np.uint64)    # numpy steps the counter first
    for start in range(0, trials, step):
        i = np.arange(start, min(start + step, trials), dtype=np.uint64)
        ctr = [np.tile(j, i.size), np.uint64(0), np.repeat(i, blocks), np.uint64(0)]
        words = np.stack(_philox(ctr, seed), axis=-1).reshape(i.size, 4 * blocks)
        out[start:start + i.size] = (words[:, :n] >> np.uint64(11)) * 2.0 ** -53
    return out


def subrng(seed: int, index: int) -> np.random.Generator:
    """Generator on the stream of trial ``index`` under master ``seed``."""
    key = np.array([check_seed(seed), 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(
        key=key, counter=np.array([0, 0, index, 0], dtype=np.uint64)))


def cycled(points, n: int, dim: int) -> np.ndarray:
    """n rows: those of the (rows, dim) array ``points``, in order, cycling."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != dim or not len(P):
        raise ValueError(f"points of shape {P.shape} are not rows of dimension {dim}")
    return np.resize(P, (n, dim))


def draw(box: BoxDomain, points, seed: int, trials: int, k: int,
         m: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Points (trials, k, dim) and uniforms (trials, m), from one ``uniforms``
    call: trial i's stream gives its k points, in the arithmetic of
    ``box.sample``, and then its m uniforms.  Given ``points``, its rows,
    ``cycled`` and each required to lie in ``box``, are the points instead."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = k * box.dim if points is None else 0
    u = uniforms(seed, trials, n + m)
    if points is None:
        X = box.lower + u[:, :n].reshape(trials, k, box.dim) * box.extent
    else:
        X = box.require_many(cycled(points, trials * k, box.dim), "sampled point")
    return X.reshape(trials, k, box.dim), u[:, n:]


def run_indexed(fn: Callable[[int], object], n: int, _unused: object = None) -> list:
    """``[fn(0), ..., fn(n - 1)]`` for a trial count ``n >= 1``, evaluated
    in index order on the calling thread.  No path in altkit calls it; it
    stays because perfbench's tracer patches it by name, and the optional
    third argument, ignored, is the worker count that tracer passes."""
    if n < 1:
        raise ValueError("trials must be >= 1")
    return [fn(i) for i in range(n)]
