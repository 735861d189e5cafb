"""Quadrature and finite differences on uniform lattices.

``trapz_2d`` is the trapezoid rule of the weak-form pairings. The
cumulative integrals of the solvers are kernels (``_kernels.cumtrapz``,
and ``_kernels.ito_cumsum`` for the left-endpoint Ito sums of
stochastic integrands).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

__all__ = [
    "SmoothFunction",
    "trapz_2d",
    "central_diff",
    "default_fd_step",
]


@dataclass(frozen=True)
class SmoothFunction:
    """A scalar function of (t, x) carrying analytic first partials.

    All three callables must broadcast over numpy arrays.
    """

    value: Callable
    d_dt: Callable
    d_dx: Callable


def trapz_2d(values: np.ndarray, h: float) -> float:
    """Trapezoid quadrature of lattice samples over their rectangle."""
    w_t = np.ones(values.shape[0])
    w_t[0] = w_t[-1] = 0.5
    w_x = np.ones(values.shape[1])
    w_x[0] = w_x[-1] = 0.5
    return float(h * h * (w_t @ values @ w_x))


def default_fd_step(h: float) -> float:
    # balances truncation against rounding for second-order differences
    return max(1e-5, h * h)


def central_diff(f: Callable, t: float, x: float, axis: Literal["t", "x"],
                 h_fd: float, bounds: tuple[float, float] | None = None) -> float:
    """Second-order difference of f along one axis at a point.

    Central in the interior; one-sided (still second order) within h_fd
    of the domain edge when ``bounds = (lo, hi)`` for the chosen axis is
    supplied.
    """
    coord = t if axis == "t" else x

    def at(c: float) -> float:
        return float(f(c, x) if axis == "t" else f(t, c))

    if bounds is not None:
        lo, hi = bounds
        if coord - h_fd < lo:
            return (-3 * at(coord) + 4 * at(coord + h_fd) - at(coord + 2 * h_fd)) / (2 * h_fd)
        if coord + h_fd > hi:
            return (3 * at(coord) - 4 * at(coord - h_fd) + at(coord - 2 * h_fd)) / (2 * h_fd)
    return (at(coord + h_fd) - at(coord - h_fd)) / (2 * h_fd)
