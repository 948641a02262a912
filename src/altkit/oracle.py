"""Intensity-comparison oracles and the preference order they induce.

An oracle answers four-point queries: is the improvement from y to x at
least as strong as the improvement from w to z?  Everything downstream
(axiom checks, reconstruction, concavity and smoothness diagnostics)
consumes only this trichotomy.  The two-point weak order is recovered by
comparing an improvement against the null bracket: x is weakly preferred
to y exactly when [x,y] >= [y,y].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .domain import BoxDomain


class IntensityOrder(Enum):
    GREATER = "greater"
    EQUAL = "equal"
    LESS = "less"

    @property
    def sign(self) -> int:
        return _SIGNS[self]


_SIGNS = {IntensityOrder.GREATER: 1, IntensityOrder.EQUAL: 0, IntensityOrder.LESS: -1}


_INF, _NEG_INF = math.inf, -math.inf


def classify(delta: float, eps: float) -> IntensityOrder:
    """Trichotomy of a signed magnitude with a symmetric dead band.

    A NaN or infinite ``delta`` raises ValueError: it carries no order, and
    answering EQUAL would hide a broken evaluator."""
    if delta > eps:
        if delta < _INF:
            return IntensityOrder.GREATER
    elif delta < -eps:
        if delta > _NEG_INF:
            return IntensityOrder.LESS
    elif delta == delta:
        return IntensityOrder.EQUAL
    raise ValueError(f"non-finite intensity difference {delta}")


def classify_many(delta: np.ndarray, eps: float) -> np.ndarray:
    """``classify(d, eps).sign`` for each entry of an array of finite
    deltas, as int8."""
    return (delta > eps).astype(np.int8) - (delta < -eps).astype(np.int8)


class Preference(Enum):
    PREFER = "prefer"
    INDIFFERENT = "indifferent"
    DISPREFER = "disprefer"

_PREF_FROM_INTENSITY = {
    IntensityOrder.GREATER: Preference.PREFER,
    IntensityOrder.EQUAL: Preference.INDIFFERENT,
    IntensityOrder.LESS: Preference.DISPREFER,
}

Comparator = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], IntensityOrder]
# Row-wise comparator over (N, dim) arrays: int8[N] of signs (+1, 0, -1).
BatchComparator = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
# Per argument of a compare: row indices into the held points, or None.
Index = tuple[np.ndarray | None, ...]


def gather(held: np.ndarray, index: Index, fresh: np.ndarray | None) -> list[np.ndarray]:
    """The four arguments of :meth:`AltOracle.compare_rows`: for each entry
    i of ``index``, row i[r] of ``held`` and ``fresh`` stacked, held
    first, for each r; ``fresh`` itself where i is None."""
    stacked = held if fresh is None else np.concatenate((held, fresh))
    return [fresh if i is None else stacked.take(i, axis=0) for i in index]


@dataclass(eq=False)
class Held:
    """A solve's fixed points, made by :meth:`AltOracle.hold` and owned by
    the solve: ``points``, a read-only C-order copy, and ``values``, where
    a difference oracle keeps their values, taken on first use.  Both go
    when the solve drops this object."""

    points: np.ndarray
    oracle: AltOracle
    values: np.ndarray | None = None


@dataclass(eq=False)
class AltOracle:
    """Black-box four-point comparator over a box domain.

    ``comparator`` must be total and deterministic on domain^4.  The call
    counter counts every compare made through this object; results never
    depend on it.  ``batch``, when given, answers many quadruples at once
    and must agree with ``comparator`` row by row.  ``rows``, when given,
    answers :meth:`compare_rows` and must agree with ``batch`` on the
    gathered rows.
    """

    dim: int
    domain: BoxDomain
    comparator: Comparator
    eps_eq: float
    name: str = "oracle"
    batch: BatchComparator | None = None
    rows: Callable[[Held, Index, np.ndarray | None], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.domain.dim != self.dim:
            raise ValueError(f"domain dimension {self.domain.dim} != oracle dimension {self.dim}")
        if not self.eps_eq > 0:
            raise ValueError("eps_eq must be positive")
        self._calls = 0

    def compare(self, x, y, z, w) -> IntensityOrder:
        """[x,y] versus [z,w]."""
        self._calls += 1
        return self.comparator(x, y, z, w)

    def compare_batch(self, X, Y, Z, W) -> np.ndarray:
        """[X_i,Y_i] versus [Z_i,W_i] for every row i, as int8 signs
        (+1 GREATER, 0 EQUAL, -1 LESS); counts one call per row.  Without
        a batch comparator this is a loop over :meth:`compare`."""
        if self.batch is None:
            return np.array([self.compare(*row).sign for row in zip(X, Y, Z, W)],
                            dtype=np.int8)
        self._calls += len(X)
        return self.batch(X, Y, Z, W)

    def hold(self, *arrays: np.ndarray) -> Held:
        """The rows of ``arrays``, one after another, held for
        :meth:`compare_rows`: a solve's fixed points."""
        points = np.ascontiguousarray(np.concatenate(arrays), dtype=float)
        points.flags.writeable = False
        return Held(points, self)

    def compare_rows(self, held: Held, index: Index,
                     fresh: np.ndarray | None = None) -> np.ndarray:
        """:meth:`compare_batch` of the four arguments that ``index`` names
        (:func:`gather`): ``held`` holds a solve's fixed points
        (:meth:`hold`), and ``fresh`` one step's new points, which an index
        names after the held rows: fresh row r is row ``len(held.points) +
        r``.  Counts one call per row.  A difference oracle answers from
        the values of the held points, taken once per ``Held``, and of
        ``fresh``; any other oracle gathers the rows.  Points held by
        another oracle, or not held at all, raise ValueError."""
        if getattr(held, "oracle", None) is not self:
            raise ValueError("compare_rows needs points held by this oracle (AltOracle.hold)")
        if self.rows is None:
            return self.compare_batch(*gather(held.points, index, fresh))
        self._calls += len(next((i for i in index if i is not None), fresh))
        return self.rows(held, index, fresh)

    @property
    def calls(self) -> int:
        return self._calls

    # Derived two-point order -------------------------------------------------

    def preference(self, x, y) -> Preference:
        """Weak order via the null bracket: [x,y] versus [y,y]."""
        return _PREF_FROM_INTENSITY[self.compare(x, y, y, y)]

    def prefers(self, x, y) -> bool:
        return self.preference(x, y) is Preference.PREFER

    def weakly_prefers(self, x, y) -> bool:
        return self.preference(x, y) is not Preference.DISPREFER
