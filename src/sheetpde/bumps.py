"""Smooth compactly supported test functions (tensor-product bumps).

The 1-D profile is psi(u) = exp(-1/(1-u^2)) for |u| < 1 and 0 outside.
Tensor products psi((t-t0)/rho_t) * psi((x-x0)/rho_x) have analytic
first and mixed partial derivatives, so weak-form pairings carry no
finite-difference error from the test function side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .grids import GridError, GridSpec

__all__ = [
    "psi",
    "psi_prime",
    "psi_double_prime",
    "TestFunction",
    "interior_bump",
    "bump_eval",
    "standard_bump_battery",
]

_EDGE = 1e-12  # mask u^2 this close to 1; exp has long since underflowed to 0

DerivOrder = Literal["value", "dt", "dx", "dtdx"]


def _masked(u: np.ndarray):
    u = np.asarray(u, dtype=np.float64)
    w = 1.0 - u * u
    inside = w > _EDGE
    return u, w, inside


def psi(u) -> np.ndarray:
    u, w, inside = _masked(u)
    out = np.zeros_like(u)
    out[inside] = np.exp(-1.0 / w[inside])
    return out


def psi_prime(u) -> np.ndarray:
    u, w, inside = _masked(u)
    out = np.zeros_like(u)
    ui, wi = u[inside], w[inside]
    out[inside] = np.exp(-1.0 / wi) * (-2.0 * ui / (wi * wi))
    return out


def psi_double_prime(u) -> np.ndarray:
    u, w, inside = _masked(u)
    out = np.zeros_like(u)
    ui, wi = u[inside], w[inside]
    u2 = ui * ui
    out[inside] = np.exp(-1.0 / wi) * (
        4.0 * u2 / wi**4 - 2.0 / wi**2 - 8.0 * u2 / wi**3
    )
    return out


@dataclass(frozen=True)
class TestFunction:
    """Tensor bump centred at (t0, x0) with radii (rho_t, rho_x).

    Support is the closed rectangle [t0-rho_t, t0+rho_t] x [x0-rho_x, x0+rho_x];
    the value and all first/mixed partials vanish identically outside it.
    """

    t0: float
    x0: float
    rho_t: float
    rho_x: float

    def __post_init__(self) -> None:
        if self.rho_t <= 0 or self.rho_x <= 0:
            raise ValueError("bump radii must be positive")
        if self.t0 - self.rho_t <= 0 or self.x0 - self.rho_x <= 0:
            raise ValueError("bump support must stay inside the open quadrant")

    def label(self) -> str:
        return f"bump(t0={self.t0:g},x0={self.x0:g},rt={self.rho_t:g},rx={self.rho_x:g})"


def interior_bump(grid: GridSpec, t0: float, x0: float,
                  rho_t: float, rho_x: float) -> TestFunction:
    """TestFunction validated to sit strictly inside (0, t_max) x (0, x_max)."""
    tf = TestFunction(t0, x0, rho_t, rho_x)
    if t0 + rho_t >= grid.t_max or x0 + rho_x >= grid.x_max:
        raise GridError(f"{tf.label()} is not supported strictly inside the grid domain")
    return tf


def bump_eval(tf: TestFunction, t, x, order: DerivOrder = "value") -> np.ndarray:
    """phi, d phi/dt, d phi/dx or the mixed partial, exactly 0 outside support."""
    u = (np.asarray(t, dtype=np.float64) - tf.t0) / tf.rho_t
    v = (np.asarray(x, dtype=np.float64) - tf.x0) / tf.rho_x
    if order == "value":
        return psi(u) * psi(v)
    if order == "dt":
        return psi_prime(u) * psi(v) / tf.rho_t
    if order == "dx":
        return psi(u) * psi_prime(v) / tf.rho_x
    if order == "dtdx":
        return psi_prime(u) * psi_prime(v) / (tf.rho_t * tf.rho_x)
    raise ValueError(f"unknown derivative selector {order!r}")


def standard_bump_battery(grid: GridSpec) -> list[TestFunction]:
    """The fixed 12-bump battery: 3 centres x 2 radii x 2 anisotropies.

    Deterministic, scaled to the grid domain, every support strictly interior.
    """
    T, X = grid.t_max, grid.x_max
    scale = min(T, X)
    battery = []
    for ft, fx in ((0.35, 0.35), (0.5, 0.5), (0.62, 0.55)):
        for rho in (0.18 * scale, 0.26 * scale):
            for at, ax in ((1.0, 1.0), (1.25, 0.75)):
                battery.append(interior_bump(grid, ft * T, fx * X, at * rho, ax * rho))
    return battery
