"""Points, axis-aligned box domains, and straight segments.

Points are plain 1-D float ndarrays; :func:`as_point` normalizes and
validates them.  Boxes are closed products of intervals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, DomainError


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Return ``coords`` as a finite 1-D float array, validating shape."""
    if type(coords) is np.ndarray and coords.dtype == np.float64 and coords.ndim == 1:
        x = coords
    else:
        if type(coords) is bool or isinstance(coords, (list, tuple)) and bool in map(type, coords):
            raise ValueError(f"point coordinates must be numbers, not bools: {coords!r}")
        x = np.asarray(coords, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.ndim != 1:
            raise ValueError(f"point must be one-dimensional, got shape {x.shape}")
    if dim is not None and x.size != dim:
        raise ValueError(f"point has dimension {x.size}, expected {dim}")
    for v in x:
        if not math.isfinite(v):
            raise ValueError(f"point has non-finite coordinates: {x!r}")
    return x


def norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, an overflow giving inf.  The
    squares are added left to right, as Python floats would be, in any
    dimension and memory layout: no BLAS, no fused multiply-add, and so
    the same bits on every host."""
    with np.errstate(over="ignore"):
        return np.sqrt(reduce(np.add, np.moveaxis(D * D, -1, 0), 0.0))


@dataclass(eq=False)
class BoxDomain:
    """Closed convex box ``prod_i [lower_i, upper_i]`` in R^n."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.lower = as_point(self.lower)
        self.upper = as_point(self.upper, dim=self.lower.size)
        if np.any(self.upper <= self.lower):
            raise ValueError("box needs lower < upper on every axis")
        if not np.isfinite(norms(np.stack([self.extent, self.lower, self.upper]))).all():
            raise ValueError("box too large: the norm of its extent or a corner overflows")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def extent(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def diameter(self) -> float:
        return float(norms(self.extent))

    def inside(self, X: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Per row of the (N, dim) array ``X``, whether it lies in the box
        shrunk by ``margin`` on every face.  A row with a NaN coordinate is
        outside."""
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"points of shape {X.shape} are not rows of dimension {self.dim}")
        return ((X >= self.lower + margin) & (X <= self.upper - margin)).all(axis=1)

    def contains(self, x) -> bool:
        """Whether the point ``x`` lies in the box."""
        return bool(self.inside(as_point(x, dim=self.dim)[None])[0])

    def require(self, x, what: str = "point") -> np.ndarray:
        x = as_point(x, dim=self.dim)
        if not self.contains(x):
            raise DomainError(f"{what} {x.tolist()} is outside the domain "
                              f"[{self.lower.tolist()}, {self.upper.tolist()}]")
        return x

    def require_many(self, xs, what: str = "point") -> np.ndarray:
        """The points of ``xs`` as an (N, dim) array, each one checked as
        :meth:`require` checks it: shape, finiteness and bounds, for all
        rows at once.  If any point fails, the points are replayed through
        :meth:`require`, so the first bad one raises its error."""
        try:
            X = np.asarray(xs, dtype=float)
        except (TypeError, ValueError):
            X = None
        if X is not None and X.ndim == 1 and (self.dim == 1 or X.size == 0):
            X = X.reshape(-1, self.dim)
        if X is not None and X.ndim == 2 and X.shape[1] == self.dim and self.inside(X).all():
            return X
        return np.array([self.require(x, what) for x in xs]).reshape(-1, self.dim)

    # Unused in altkit; perfbench/tracing.py patches it by name.
    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.lower + rng.random(self.dim) * self.extent

    def lattice(self, per_axis: int) -> np.ndarray:
        """Regular grid of ``per_axis`` points per axis, corners included,
        as rows in C order.  The result is allocated first, so a grid too
        large for memory fails before any other work; one whose size in
        bytes numpy cannot index raises ConfigError."""
        count = per_axis ** self.dim
        if count * self.dim * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"a lattice of {per_axis} points per axis in dimension "
                              f"{self.dim} has {count} points, too many for one array")
        out = np.empty((count, self.dim))
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(self.lower, self.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1, out=out)

    def diagonal(self) -> "Segment":
        """Main diagonal, lower corner to upper corner."""
        return Segment(self.lower.copy(), self.upper.copy())

    def diagonal_scale_range(self) -> tuple[float, float]:
        """Range of scales c for which c*(1,...,1) stays inside the box."""
        c_lo = float(np.max(self.lower))
        c_hi = float(np.min(self.upper))
        if c_lo >= c_hi:
            raise DomainError("box does not contain a c*(1,...,1) ray segment")
        return c_lo, c_hi

    def shrunk(self, margin) -> "BoxDomain":
        """Closed box inset by ``margin`` (scalar or per-axis) on every face."""
        m = np.broadcast_to(np.asarray(margin, dtype=float), (self.dim,))
        return BoxDomain(self.lower + m, self.upper - m)


@dataclass(eq=False)
class Segment:
    """Straight segment p -> q, parameterized by t in [0, 1]."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        self.p = as_point(self.p)
        self.q = as_point(self.q, dim=self.p.size)
        self._dir = self.q - self.p
        if not np.any(self._dir):
            raise ValueError("segment endpoints coincide")

    @property
    def dim(self) -> int:
        return self.p.size

    def at(self, t: float) -> np.ndarray:
        return self.p + t * self._dir

    def at_many(self, t: np.ndarray) -> np.ndarray:
        """Rows ``at(t_i)`` for a 1-D array of parameters, bit-identical to
        :meth:`at` row by row, in a column-major array."""
        out = np.empty((len(t), self.dim), order="F")
        np.multiply.outer(t, self._dir, out=out)
        out += self.p
        return out

    def param_of(self, x) -> float:
        """Parameter of a point that must lie on the segment: an orthogonal
        projection residual beyond 1e-9 * (1 + |x|) raises ``DomainError``."""
        x = as_point(x, dim=self.dim)
        t = float(((x - self.p) * self._dir).sum() / (self._dir * self._dir).sum())
        atol = 1e-9 * (1.0 + float(norms(x)))
        residual = float(norms(x - self.at(t)))
        if residual > atol:
            raise DomainError(f"point {x.tolist()} is off the segment (residual {residual:.3e})")
        if t < -atol or t > 1.0 + atol:
            raise DomainError(f"point {x.tolist()} projects outside the segment (t={t:.6f})")
        return min(max(t, 0.0), 1.0)
