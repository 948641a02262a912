"""Finite-difference calculus on utilities and cross-partial classification.

Central differences give O(h^2) gradients and Hessians for any callable
utility.  The substitute/complement classifier reads the sign of the
(i,j) cross-partial: negative marks the goods substitutes, positive
complements, near-zero neutral; estimates are made at steps h and h/2
and a disagreement between the two flags the point indeterminate (the
signature of a kink or of interpolation noise).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import Record
from .domain import BoxDomain, as_point
from .errors import ConfigError, DomainError

SUBSTITUTE = "substitute"
COMPLEMENT = "complement"
NEUTRAL = "neutral"
INDETERMINATE = "indeterminate"

MIN_RECONSTRUCTION_DEPTH = 12


def _require_margin(box: BoxDomain | None, x: np.ndarray, h: float) -> None:
    if box is not None and not box.contains(x, margin=2.0 * h):
        raise DomainError(f"point {x.tolist()} lacks the 2h={2 * h} interior margin")


def numeric_gradient(u_fn, x, h: float = 1e-3, box: BoxDomain | None = None) -> np.ndarray:
    """Central-difference gradient, error O(h^2)."""
    x = as_point(x)
    if h <= 0:
        raise ValueError("h must be > 0")
    _require_margin(box, x, h)
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (u_fn(x + e) - u_fn(x - e)) / (2.0 * h)
    return g


def cross_second_difference(u_fn, x: np.ndarray, i: int, j: int, h: float) -> float:
    """Standard 4-point stencil for the (i,j) second partial."""
    ei = np.zeros(x.size)
    ej = np.zeros(x.size)
    ei[i] = h
    ej[j] = h
    if i == j:
        return (u_fn(x + ei) - 2.0 * u_fn(x) + u_fn(x - ei)) / h ** 2
    return (u_fn(x + ei + ej) - u_fn(x + ei - ej)
            - u_fn(x - ei + ej) + u_fn(x - ei - ej)) / (4.0 * h ** 2)


def numeric_hessian(u_fn, x, h: float = 1e-3, box: BoxDomain | None = None) -> np.ndarray:
    """Central-difference Hessian (symmetric by stencil construction)."""
    x = as_point(x)
    if h <= 0:
        raise ValueError("h must be > 0")
    _require_margin(box, x, h)
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            hess[i, j] = hess[j, i] = cross_second_difference(u_fn, x, i, j, h)
    return hess


@dataclass
class AlepClassification(Record):
    """Cross-partial sign read at one point for one goods pair."""

    point: list[float]
    pair: tuple[int, int]
    estimate: float
    estimate_h: float
    estimate_h2: float
    label: str
    h: float
    threshold: float


def alep_classify(u_fn, points, pair: tuple[int, int] = (0, 1), h: float = 1e-3,
                  threshold: float = 1e-3, box: BoxDomain | None = None,
                  agree_tol: float = 0.25,
                  allow_shallow: bool = False) -> list[AlepClassification]:
    """Label each point substitute/complement/neutral by the cross-partial sign.

    The estimate is the average of the h and h/2 stencils; when those two
    disagree by more than max(threshold, agree_tol*|estimate|) the point
    is labeled indeterminate instead.  Piecewise-linear reconstructions
    carry a ``depth`` attribute and are refused below depth 12 (their
    second differences are dominated by rung noise) unless
    ``allow_shallow`` is set.
    """
    if h <= 0 or threshold <= 0:
        raise ValueError("h and threshold must be > 0")
    depth = getattr(u_fn, "depth", None)
    if depth is not None and depth < MIN_RECONSTRUCTION_DEPTH and not allow_shallow:
        raise ConfigError(
            f"reconstruction depth {depth} < {MIN_RECONSTRUCTION_DEPTH}: second "
            "differences would read rung noise; rebuild deeper or pass allow_shallow")
    i, j = pair
    out: list[AlepClassification] = []
    for raw in points:
        x = as_point(raw)
        if not (0 <= i < x.size and 0 <= j < x.size):
            raise ConfigError(f"pair {pair} out of range for dimension {x.size}")
        _require_margin(box, x, h)
        est_h = cross_second_difference(u_fn, x, i, j, h)
        est_h2 = cross_second_difference(u_fn, x, i, j, 0.5 * h)
        estimate = 0.5 * (est_h + est_h2)
        if abs(est_h - est_h2) > max(threshold, agree_tol * abs(estimate)):
            label = INDETERMINATE
        elif estimate < -threshold:
            label = SUBSTITUTE
        elif estimate > threshold:
            label = COMPLEMENT
        else:
            label = NEUTRAL
        out.append(AlepClassification([float(v) for v in x], (i, j), float(estimate),
                                      float(est_h), float(est_h2), label, h, threshold))
    return out
