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
from .fixtures import _finite, evaluate_points

SUBSTITUTE = "substitute"
COMPLEMENT = "complement"
NEUTRAL = "neutral"
INDETERMINATE = "indeterminate"

MIN_RECONSTRUCTION_DEPTH = 12


def _require_margin(box: BoxDomain | None, X: np.ndarray, h: float) -> None:
    if box is not None and not (ok := box.inside(X, 2.0 * h)).all():
        raise DomainError(f"point {X[ok.argmin()].tolist()} lacks the 2h={2 * h} interior margin")


def numeric_gradient(u_fn, x, h: float = 1e-3, box: BoxDomain | None = None) -> np.ndarray:
    """Central-difference gradient, error O(h^2)."""
    x = as_point(x)
    if not h > 0:
        raise ValueError("h must be > 0")
    _require_margin(box, x[None], h)
    steps = h * np.eye(x.size)
    up, down = evaluate_points(u_fn, np.concatenate([x + steps, x - steps])).reshape(2, -1)
    return (up - down) / (2.0 * h)


def second_differences(u_fn, X, i: int, j: int, steps) -> tuple[np.ndarray, np.ndarray]:
    """Stencil estimates of the (i,j) second partial at each row of the
    (N, dim) array X, one row per step: 3 points on the diagonal (i == j),
    4 off it, and a bound on the rounding error of each estimate that its
    values' own rounding causes (eps times the sum of |weight * value| over
    the stencil, over the stencil's divisor).  All stencil points are valued
    in one call; a non-finite value raises ConfigError naming its point, as
    does a step below its float spacing."""
    C = X[:, [i, j]]
    if (flat := np.any([(C + h == C) | (C - h == C) for h in steps], axis=(0, 2))).any():
        raise ConfigError(f"steps {tuple(steps)} are below the float spacing of point "
                          f"{X[flat.argmax()].tolist()}: a stencil coordinate equals its centre")
    blocks = []
    for h in steps:
        ei, ej = h * np.eye(X.shape[1])[[i, j]]
        blocks += ([X + ei, X, X - ei] if i == j
                   else [X + ei + ej, X + ei - ej, X - ei + ej, X - ei - ej])
    v = _finite(lambda P: evaluate_points(u_fn, P), (np.concatenate(blocks),),
                "non-finite value").reshape(len(steps), -1, len(X))
    eps = np.finfo(float).eps
    if i == j:
        return (np.array([(a - 2.0 * b + c) / h ** 2 for (a, b, c), h in zip(v, steps)]),
                np.array([eps * (abs(a) + 2.0 * abs(b) + abs(c)) / h ** 2
                          for (a, b, c), h in zip(v, steps)]))
    return (np.array([(a - b - c + d) / (4.0 * h ** 2) for (a, b, c, d), h in zip(v, steps)]),
            np.array([eps * np.abs(w).sum(axis=0) / (4.0 * h ** 2) for w, h in zip(v, steps)]))


def numeric_hessian(u_fn, x, h: float = 1e-3, box: BoxDomain | None = None) -> np.ndarray:
    """Central-difference Hessian (symmetric by stencil construction)."""
    x = as_point(x)
    if not h > 0:
        raise ValueError("h must be > 0")
    _require_margin(box, x[None], h)
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            hess[i, j] = hess[j, i] = second_differences(u_fn, x[None], i, j, (h,))[0][0, 0]
    return hess


def _rows(points) -> np.ndarray:
    """``points`` as an (N, dim) float array.  A 2-D array of numbers is
    checked whole, for finiteness; anything else, or an array with a
    non-finite value, goes through ``as_point`` row by row, so the first
    bad row raises its error."""
    if (isinstance(points, np.ndarray) and points.dtype.kind in "fiu" and points.ndim == 2
            and points.shape[1] and np.isfinite(points).all()):
        return points.astype(float, copy=False)
    return np.array([as_point(raw) for raw in points])


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
                  threshold: float = 1e-3, box: BoxDomain | None = None
                  ) -> list[AlepClassification]:
    """Label each point substitute/complement/neutral by the cross-partial sign.

    The estimate is the average of the h and h/2 stencils; when those two
    disagree by more than max(threshold, 0.25*|estimate|) the point
    is labeled indeterminate instead.  A label must also clear r, a bound
    on the rounding error of the estimate from its stencil values (off the
    diagonal eps * sum|v| / (4 h^2) per stencil, averaged over the two):
    substitute or complement needs |estimate| > threshold + r, neutral
    |estimate| <= threshold - r, and anything between is indeterminate.
    Piecewise-linear reconstructions carry a ``depth`` attribute and are
    refused below depth 12: their second differences read rung noise.
    """
    if not (h > 0 and threshold > 0):
        raise ValueError("h and threshold must be > 0")
    depth = getattr(u_fn, "depth", None)
    if depth is not None and depth < MIN_RECONSTRUCTION_DEPTH:
        raise ConfigError(
            f"reconstruction depth {depth} < {MIN_RECONSTRUCTION_DEPTH}: second "
            "differences would read rung noise; rebuild deeper")
    i, j = pair
    if i == j:              # a curvature, not the cross-partial of two goods
        raise ConfigError(f"pair {pair} names one good twice")
    if not len(points):
        return []
    X = _rows(points)
    if not (0 <= i < X.shape[1] and 0 <= j < X.shape[1]):
        raise ConfigError(f"pair {pair} out of range for dimension {X.shape[1]}")
    _require_margin(box, X, h)
    (est_h, est_h2), rounding = second_differences(u_fn, X, i, j, (h, 0.5 * h))
    # Silent on overflow and NaN, as float arithmetic is; fmax skips a NaN
    # estimate, as max(threshold, nan) does.
    with np.errstate(all="ignore"):
        r = 0.5 * rounding.sum(axis=0)
        estimate = 0.5 * (est_h + est_h2)
        labels = np.select([np.abs(est_h - est_h2) > np.fmax(threshold, 0.25 * np.abs(estimate)),
                            estimate < -(threshold + r), estimate > threshold + r,
                            np.abs(estimate) <= threshold - r],
                           [INDETERMINATE, SUBSTITUTE, COMPLEMENT, NEUTRAL], INDETERMINATE)
    return [AlepClassification(x, (i, j), e, e_h, e_h2, label, h, threshold)
            for x, e, e_h, e_h2, label in zip(X.tolist(), estimate.tolist(), est_h.tolist(),
                                              est_h2.tolist(), labels.tolist())]
