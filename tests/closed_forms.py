"""Closed-form gradients and Hessians of the smooth catalog utilities, by
fixture name: the references the finite-difference tests measure
against.  Each takes one point as a 1-D array."""
import math

import numpy as np


def _grad_cobb(x):
    s = math.sqrt(x[0] * x[1])
    return np.array([0.5 * s / x[0], 0.5 * s / x[1]])


def _hess_cobb(x):
    s = math.sqrt(x[0] * x[1])
    return np.array([
        [-0.25 * s / x[0] ** 2, 0.25 / s],
        [0.25 / s, -0.25 * s / x[1] ** 2],
    ])


def _grad_ces(x):
    return np.array([1.0 + math.sqrt(x[1] / x[0]), 1.0 + math.sqrt(x[0] / x[1])])


def _hess_ces(x):
    s = math.sqrt(x[0] * x[1])
    return np.array([
        [-0.5 * math.sqrt(x[1]) / x[0] ** 1.5, 0.5 / s],
        [0.5 / s, -0.5 * math.sqrt(x[0]) / x[1] ** 1.5],
    ])


GRADIENT = {
    "linear": np.ones_like,
    "cobb_douglas": _grad_cobb,
    "ces": _grad_ces,
    "log_sum": lambda x: 1.0 / x,
    "exp1d": lambda x: np.array([math.exp(x[0])]),
}

HESSIAN = {
    "linear": lambda x: np.zeros((x.size, x.size)),
    "cobb_douglas": _hess_cobb,
    "ces": _hess_ces,
    "log_sum": lambda x: np.diag(-1.0 / x ** 2),
    "exp1d": lambda x: np.array([[math.exp(x[0])]]),
}
