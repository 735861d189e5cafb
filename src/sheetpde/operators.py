"""The first-order operator D, its adjoint, and weak-form residuals.

D f = a df/dt + b df/dx + c f, with adjoint
D* phi = -d(a phi)/dt - d(b phi)/dx + c phi,
so that <D f, phi> = <f, D* phi> for smooth f and interior test
functions. The residual operations below realize the pairings with
trapezoid quadrature on the lattice; for true (weak) solutions they
vanish under grid refinement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .bumps import TestFunction, bump_eval
from .calculus import SmoothFunction, trapz_2d
from .coefficients import CoefficientSet
from .grids import GridError, GridSpec, ScalarField
from .sheet import DiagonalPath

__all__ = [
    "OperatorD",
    "apply_D",
    "apply_adjoint",
    "adjoint_identity_residual",
    "WeakFormPlan",
    "weak_residual_transport",
    "weak_residual_time_equation",
    "write_residual_records",
]

FieldLike = Union[ScalarField, DiagonalPath]


@dataclass(frozen=True)
class OperatorD:
    coeffs: CoefficientSet


def _grid_and_values(field: FieldLike) -> tuple[GridSpec, np.ndarray]:
    return field.grid, field.values


def apply_D(op: OperatorD, f: SmoothFunction, t: float, x: float) -> float:
    """a f_t + b f_x + c f at a point."""
    cs = op.coeffs
    return float(cs.eval("a", t, x) * f.d_dt(t, x)
                 + cs.eval("b", t, x) * f.d_dx(t, x)
                 + cs.eval("c", t, x) * f.value(t, x))


def apply_adjoint(op: OperatorD, tf: TestFunction, t, x) -> np.ndarray:
    """D* phi = -(da/dt) phi - a phi_t - (db/dx) phi - b phi_x + c phi.

    Uses the bump's analytic derivatives; coefficient partials are
    analytic when available, central differences otherwise.
    """
    cs = op.coeffs
    phi = bump_eval(tf, t, x, "value")
    phi_t = bump_eval(tf, t, x, "dt")
    phi_x = bump_eval(tf, t, x, "dx")
    return (-cs.partial("a", "t", t, x) * phi - cs.eval("a", t, x) * phi_t
            - cs.partial("b", "x", t, x) * phi - cs.eval("b", t, x) * phi_x
            + cs.eval("c", t, x) * phi)


def adjoint_identity_residual(op: OperatorD, f: SmoothFunction, tf: TestFunction,
                              grid: GridSpec) -> float:
    """| <D f, phi> - <f, D* phi> |, both pairings by trapezoid quadrature.

    Pure quadrature error for smooth f; decays at second order in h.
    """
    cs = op.coeffs
    tt = grid.t_values[:, None]
    xx = grid.x_values[None, :]
    phi = bump_eval(tf, tt, xx, "value")
    Df = (cs.eval("a", tt, xx) * np.broadcast_to(f.d_dt(tt, xx), phi.shape)
          + cs.eval("b", tt, xx) * np.broadcast_to(f.d_dx(tt, xx), phi.shape)
          + cs.eval("c", tt, xx) * np.broadcast_to(f.value(tt, xx), phi.shape))
    lhs = trapz_2d(Df * phi, grid.h)
    fv = np.broadcast_to(f.value(tt, xx), phi.shape)
    rhs = trapz_2d(fv * apply_adjoint(op, tf, tt, xx), grid.h)
    return abs(lhs - rhs)


def _check_same_grid(ga: GridSpec, gb: GridSpec) -> None:
    if ga != gb:
        raise GridError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class WeakFormPlan:
    """The weak residual of dr/dt - dr/dx = D W against a battery of test
    functions, as fixed kernels paired with the fields:

        | II r k_r - II W k_w |,  k_r = phi_t - phi_x,
                                 k_w = a phi_t + b phi_x + (a_t + b_x - c) phi.

    The kernels depend only on the grid, the coefficients and the test
    function, so they are computed once, when the plan is built; the
    arrays are read-only, with one kernel per test function along the
    first axis.
    """

    grid: GridSpec
    k_r: np.ndarray    # (n_test_functions, n_t+1, n_x+1)
    k_w: np.ndarray    # (n_test_functions, n_t+1, n_x+1)

    @classmethod
    def build(cls, grid: GridSpec, op: OperatorD,
              battery: Sequence[TestFunction]) -> "WeakFormPlan":
        cs = op.coeffs
        tt = grid.t_values[:, None]
        xx = grid.x_values[None, :]
        a = cs.eval("a", tt, xx)
        b = cs.eval("b", tt, xx)
        lower = (cs.partial("a", "t", tt, xx) + cs.partial("b", "x", tt, xx)
                 - cs.eval("c", tt, xx))
        shape = (len(battery), grid.n_t + 1, grid.n_x + 1)
        k_r, k_w = np.empty(shape), np.empty(shape)
        for k, tf in enumerate(battery):
            phi_t = bump_eval(tf, tt, xx, "dt")
            phi_x = bump_eval(tf, tt, xx, "dx")
            np.subtract(phi_t, phi_x, out=k_r[k])
            k_w[k] = a * phi_t + b * phi_x + lower * bump_eval(tf, tt, xx, "value")
        k_r.flags.writeable = False
        k_w.flags.writeable = False
        return cls(grid, k_r, k_w)

    def residuals(self, r: FieldLike, W: FieldLike) -> list[float]:
        """The residual of (r, W) against each test function, in battery order."""
        _check_same_grid(r.grid, self.grid)
        _check_same_grid(W.grid, self.grid)
        h = self.grid.h
        return [abs(trapz_2d(r.values * k_r, h) - trapz_2d(W.values * k_w, h))
                for k_r, k_w in zip(self.k_r, self.k_w)]


def weak_residual_transport(r: FieldLike, W: FieldLike, op: OperatorD,
                            tf: TestFunction) -> float:
    """Residual of the weak transport equation dr/dt - dr/dx = D W.

    | II r (phi_t - phi_x) - II W (d(a phi)/dt + d(b phi)/dx - c phi) |.
    Builds a ``WeakFormPlan`` for the one test function; build the plan
    directly to pair many fields with the same test functions.
    """
    return WeakFormPlan.build(r.grid, op, [tf]).residuals(r, W)[0]


def weak_residual_time_equation(U: FieldLike, W: FieldLike, op: OperatorD,
                           tf: TestFunction) -> float:
    """Residual of the weak equation dU/dt = D W:  | -<U, phi_t> - <W, D* phi> |."""
    g_u, uv = _grid_and_values(U)
    g_w, wv = _grid_and_values(W)
    _check_same_grid(g_u, g_w)
    g = g_u
    tt = g.t_values[:, None]
    xx = g.x_values[None, :]
    lhs = -trapz_2d(uv * bump_eval(tf, tt, xx, "dt"), g.h)
    rhs = trapz_2d(wv * apply_adjoint(op, tf, tt, xx), g.h)
    return abs(lhs - rhs)


def write_residual_records(path, records: list[dict]) -> None:
    """Serialize residual records ({h, seed, test_function_id, residual}) as JSON."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(records, f, indent=2, sort_keys=True)
        f.write("\n")
