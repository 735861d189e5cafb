"""Weak-form residuals of the first-order stochastic PDEs.

D f = a df/dt + b df/dx + c f has the adjoint
D* phi = -d(a phi)/dt - d(b phi)/dx + c phi, so <D f, phi> = <f, D* phi>
for smooth f and interior test functions. The weak form of
dU/dt - s dU/dx = D W, for the characteristic slope s of ``solver``
(0 for dU/dt = D W, 1 for the transport equation), pairs U with
k_r = phi_t - s phi_x and W with k_w = -D* phi. ``WeakFormPlan`` realizes
the pairings with trapezoid quadrature on the lattice; for true (weak)
solutions the residuals vanish under grid refinement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .bumps import TestFunction, bump_eval
from .calculus import trapz_2d
from .coefficients import CoefficientSet
from .grids import GridError, GridSpec, ScalarField
from .sheet import DiagonalPath
from .solver import _check_slope

__all__ = [
    "WeakFormPlan",
    "write_residual_records",
]

FieldLike = Union[ScalarField, DiagonalPath]


def _check_same_grid(ga: GridSpec, gb: GridSpec) -> None:
    if ga != gb:
        raise GridError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class WeakFormPlan:
    """The weak residual of dU/dt - s dU/dx = D W against a battery of test
    functions, as fixed kernels paired with the fields:

        | II U k_r - II W k_w |,  k_r = phi_t - s phi_x,
                                 k_w = a phi_t + b phi_x + (a_t + b_x - c) phi.

    The kernels depend only on the grid, the coefficients, the slope s
    (1 by default) and the test function, so they are computed once, when
    the plan is built; the arrays are read-only, with one kernel per test
    function along the first axis.
    """

    grid: GridSpec
    k_r: np.ndarray    # (n_test_functions, n_t+1, n_x+1)
    k_w: np.ndarray    # (n_test_functions, n_t+1, n_x+1)

    @classmethod
    def build(cls, grid: GridSpec, coeffs: CoefficientSet,
              battery: Sequence[TestFunction], slope: int = 1) -> "WeakFormPlan":
        _check_slope(slope)
        tt = grid.t_values[:, None]
        xx = grid.x_values[None, :]
        a = coeffs.eval("a", tt, xx)
        b = coeffs.eval("b", tt, xx)
        lower = (coeffs.partial("a", "t", tt, xx) + coeffs.partial("b", "x", tt, xx)
                 - coeffs.eval("c", tt, xx))
        shape = (len(battery), grid.n_t + 1, grid.n_x + 1)
        k_r, k_w = np.empty(shape), np.empty(shape)
        for k, tf in enumerate(battery):
            phi_t = bump_eval(tf, tt, xx, "dt")
            phi_x = bump_eval(tf, tt, xx, "dx")
            np.subtract(phi_t, slope * phi_x, out=k_r[k])
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


def write_residual_records(path, records: list[dict]) -> None:
    """Serialize residual records ({h, seed, test_function_id, residual}) as JSON."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(records, f, indent=2, sort_keys=True)
        f.write("\n")
