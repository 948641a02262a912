"""Intensity-comparison oracles and the preference order they induce.

An oracle answers four-point queries: is the improvement from y to x at
least as strong as the improvement from w to z?  Everything downstream
(axiom checks, reconstruction, concavity and smoothness diagnostics)
consumes only this trichotomy.  The two-point weak order is recovered by
comparing an improvement against the null bracket: x is weakly preferred
to y exactly when [x,y] >= [y,y].
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .domain import BoxDomain


class IntensityOrder(Enum):
    GREATER = "greater"
    EQUAL = "equal"
    LESS = "less"

    def flipped(self) -> "IntensityOrder":
        if self is IntensityOrder.GREATER:
            return IntensityOrder.LESS
        if self is IntensityOrder.LESS:
            return IntensityOrder.GREATER
        return IntensityOrder.EQUAL

    @property
    def sign(self) -> int:
        return _SIGNS[self]


_SIGNS = {IntensityOrder.GREATER: 1, IntensityOrder.EQUAL: 0, IntensityOrder.LESS: -1}


def classify(delta: float, eps: float) -> IntensityOrder:
    """Trichotomy of a signed magnitude with a symmetric dead band."""
    if delta > eps:
        return IntensityOrder.GREATER
    if delta < -eps:
        return IntensityOrder.LESS
    return IntensityOrder.EQUAL


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


@dataclass(eq=False)
class AltOracle:
    """Black-box four-point comparator over a box domain.

    ``comparator`` must be total and deterministic on domain^4.  The call
    counter counts every compare made through this object; results never
    depend on it.
    """

    dim: int
    domain: BoxDomain
    comparator: Comparator
    eps_eq: float
    name: str = "oracle"

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

    @property
    def calls(self) -> int:
        return self._calls

    def reset_calls(self) -> None:
        self._calls = 0

    # Derived two-point order -------------------------------------------------

    def preference(self, x, y) -> Preference:
        """Weak order via the null bracket: [x,y] versus [y,y]."""
        return _PREF_FROM_INTENSITY[self.compare(x, y, y, y)]

    def prefers(self, x, y) -> bool:
        return self.preference(x, y) is Preference.PREFER

    def indifferent(self, x, y) -> bool:
        return self.preference(x, y) is Preference.INDIFFERENT

    def weakly_prefers(self, x, y) -> bool:
        return self.preference(x, y) is not Preference.DISPREFER
