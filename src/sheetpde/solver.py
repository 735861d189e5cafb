"""Constructive solutions of the first-order stochastic PDEs

    dU/dt - s dU/dx = D W,   D W = a dW/dt + b dW/dx + c W,

for the characteristic slope s = 0 (dU/dt = D W, solved along the lines
x = const) and s = 1 (the transport equation dr/dt - dr/dx = D W, solved
along the lines t + x = const). A function solution exists if and only
if s a + b = 0: b = 0 for s = 0, and b = -a for s = 1.

* ``TransportPlan`` compiles (grid, coefficients, r0, s) once: the
  criterion check, a on the grid, the characteristic bracket and
  r0(s t + x). The solution is then a fixed linear map of the noise V on
  the characteristic lattice, W(t,x) = V(t, s t + x):
      U(t,x) = a(t,x) W(t,x)
               + int_0^t V(u, s t + x) [s da/dx - da/dt + c](u, s t + x - s u) du
               + r0(s t + x).
  For s = 1, V is the sheet: the change of variables tau = t,
  xi = t + x reduces the equation to d rho/d tau = alpha dV/d tau +
  gamma V at fixed xi, and V(u, xi) = B(u, xi) for sheet noise. For
  s = 0, V is the noise W on the grid itself. ``solve_transport`` is an
  s = 1 plan built for one sheet.

* ``solve_ito_form``, the s = 1 solution written with a Wiener-Ito
  (left-endpoint) integral against the martingale u -> B(u, t+x):
      r(t,x) = int_0^t a(u, t+x-u) dB(u, t+x)
               + int_0^t B(u, t+x) c(u, t+x-u) du + r0(t+x).

Substituting either solution into its equation reproduces it exactly for
any smooth noise with W(0, .) = 0; the two discretizations of s = 1
converge to each other pathwise at rate O(h) (discrete integration by
parts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .coefficients import CoefficientSet
from .grids import GridError, GridSpec, ScalarField, lattice_to_csv
from .sheet import DiagonalPath

__all__ = [
    "ExistenceCriterionError",
    "NumericalCriterionError",
    "require_criterion",
    "require_finite",
    "InitialCurve",
    "flat_curve",
    "nelson_siegel_curve",
    "polynomial_curve",
    "Provenance",
    "SolutionField",
    "TransportPlan",
    "transport_solution",
    "integral_identity_sides",
    "solve_transport",
    "ito_integral",
    "solve_ito_form",
]

_B_TOL = 1e-12
# the criterion s a + b = 0 of each characteristic slope s, and the
# deviation it bounds
_CRITERIA = {0: ("b(t,x) = 0", "|b|"), 1: ("a(t,x) = -b(t,x)", "|a + b|")}


class NumericalCriterionError(ValueError):
    """A numerical criterion failed (exit code 3): a config breaks the
    existence criterion, or a computed result is not finite."""


class ExistenceCriterionError(NumericalCriterionError):
    """Raised when coefficients violate the function-solution criterion
    s a + b = 0 of their characteristic slope s."""


def require_finite(label: str, values) -> None:
    """NumericalCriterionError unless every value is finite: a computed
    result that overflowed is a numerical outcome, not a config error."""
    if not np.all(np.isfinite(values)):
        raise NumericalCriterionError(
            f"{label} contains non-finite values (the arithmetic overflowed)")


@dataclass(frozen=True)
class InitialCurve:
    """Initial curve r0 on [0, t_max + x_max], with optional derivative."""

    r0: Callable
    dr0: Optional[Callable] = None

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.broadcast_to(np.asarray(self.r0(x), dtype=np.float64), x.shape).copy()

    def eval_derivative(self, x, h_fd: float = 1e-6) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.dr0 is not None:
            return np.broadcast_to(np.asarray(self.dr0(x), dtype=np.float64), x.shape).copy()
        return (self.eval(x + h_fd) - self.eval(np.maximum(x - h_fd, 0.0))) / (
            h_fd + np.minimum(x, h_fd))

    def validate(self, x_max: float, tol: float = 1e-5) -> None:
        xs = np.linspace(0.0, x_max, 33)
        vals = self.eval(xs)
        if not np.all(np.isfinite(vals)):
            raise ValueError("initial curve is not finite on [0, t_max + x_max]")
        if self.dr0 is not None:
            e = 1e-6
            interior = xs[(xs > e) & (xs < x_max - e)]
            fd = (self.eval(interior + e) - self.eval(interior - e)) / (2 * e)
            if np.max(np.abs(fd - self.eval_derivative(interior))) > tol:
                raise ValueError("analytic dr0 disagrees with central differences")


def flat_curve(level: float) -> InitialCurve:
    level = float(level)
    return InitialCurve(lambda x: np.full(np.shape(x), level),
                        dr0=lambda x: np.zeros(np.shape(x)))


def polynomial_curve(coeffs) -> InitialCurve:
    """r0(x) = sum_k coeffs[k] x^k with its exact derivative."""
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("polynomial curve needs a 1-D coefficient list")
    dc = c[1:] * np.arange(1, c.size) if c.size > 1 else np.zeros(1)
    return InitialCurve(lambda x: np.polynomial.polynomial.polyval(x, c),
                        dr0=lambda x: np.polynomial.polynomial.polyval(x, dc))


def nelson_siegel_curve(beta0: float, beta1: float, beta2: float,
                        tau: float) -> InitialCurve:
    """Smooth Nelson-Siegel-shaped curve with analytic derivative."""
    if tau <= 0:
        raise ValueError("tau must be positive")

    def _g(u):
        # (1 - exp(-u)) / u, series near 0
        u = np.asarray(u, dtype=np.float64)
        small = np.abs(u) < 1e-8
        safe = np.where(small, 1.0, u)
        out = np.where(small, 1.0 - u / 2.0 + u * u / 6.0, -np.expm1(-safe) / safe)
        return out

    def _gprime(u):
        u = np.asarray(u, dtype=np.float64)
        small = np.abs(u) < 1e-6
        safe = np.where(small, 1.0, u)
        exact = (np.exp(-safe) * (safe + 1.0) - 1.0) / (safe * safe)
        return np.where(small, -0.5 + u / 3.0, exact)

    def r0(x):
        u = np.asarray(x, dtype=np.float64) / tau
        return beta0 + beta1 * _g(u) + beta2 * (_g(u) - np.exp(-u))

    def dr0(x):
        u = np.asarray(x, dtype=np.float64) / tau
        return (beta1 * _gprime(u) + beta2 * (_gprime(u) + np.exp(-u))) / tau

    return InitialCurve(r0, dr0)


@dataclass(frozen=True)
class Provenance:
    formula: str
    seed: Optional[int] = None
    details: str = ""


@dataclass(frozen=True)
class SolutionField:
    grid: GridSpec
    values: np.ndarray
    provenance: Provenance

    def __post_init__(self) -> None:
        expected = (self.grid.n_t + 1, self.grid.n_x + 1)
        if self.values.shape != expected:
            raise GridError(f"solution shape {self.values.shape} does not match grid")

    def value_at(self, t: float, x: float) -> float:
        return float(self.values[self.grid.index_of(t, "t"), self.grid.index_of(x, "x")])

    def to_csv(self, path) -> None:
        lattice_to_csv(path, self.grid.t_values, self.grid.x_values, self.values)


def _check_slope(slope: int) -> None:
    if type(slope) is not int or slope not in _CRITERIA:
        raise ValueError(f"characteristic slope must be 0 or 1, got {slope!r}")


def _columns(grid: GridSpec, slope: int) -> np.ndarray:
    """x-coordinates of the characteristic lattice of a slope: the grid's
    own for 0, the sheet's (up to t_max + x_max) for 1."""
    _check_slope(slope)
    return np.arange(grid.n_x + slope * grid.n_t + 1) * grid.h


def _initial_values_on_characteristics(r0: InitialCurve, grid: GridSpec,
                                       slope: int = 1) -> np.ndarray:
    """Matrix r0(slope*t_i + x_j); validates that r0 is defined up to
    slope*t_max + x_max."""
    x_hi = grid.x_max + slope * grid.t_max
    try:
        line = r0.eval(_columns(grid, slope))
    except Exception as exc:
        raise ValueError(f"initial curve must be evaluable on [0, {x_hi!r}]") from exc
    if not np.all(np.isfinite(line)):
        raise ValueError(f"initial curve is not finite on [0, {x_hi!r}]")
    i = np.arange(grid.n_t + 1)[:, None]
    j = np.arange(grid.n_x + 1)[None, :]
    return line[slope * i + j]


def transport_solution(grid: GridSpec, r0: InitialCurve) -> SolutionField:
    """The noiseless solution r(t, x) = r0(t + x) of dr/dt - dr/dx = 0."""
    return SolutionField(grid, _initial_values_on_characteristics(r0, grid),
                         Provenance("transport"))


# ---------------------------------------------------------------------------
# the integral identity of dU/dt = D W (generic noise, no change of variables)
# ---------------------------------------------------------------------------


def integral_identity_sides(coeffs: CoefficientSet, U: ScalarField, W: ScalarField,
                            t: float, x: float) -> tuple[float, float]:
    """Both sides of the integral identity implied by dU/dt = D W.

    LHS = int_0^x [U(t,y) - U(0,y)] dy
    RHS = int_0^t [bW](s,x) - [bW](s,0) ds
          + int_0^x [aW](t,y) - [aW](0,y) dy
          + int_0^x int_0^t (c - da/dt - db/dx)(s,y) W(s,y) ds dy
    all by trapezoid on the lattice.
    """
    if U.grid != W.grid:
        raise GridError("U and W live on different grids")
    g = U.grid
    h = g.h
    i1 = g.index_of(t, "t")
    j1 = g.index_of(x, "x")
    tt = g.t_values[: i1 + 1][:, None]
    yy = g.x_values[: j1 + 1][None, :]
    Uv = U.values
    Wv = W.values

    lhs = float(np.trapezoid(Uv[i1, : j1 + 1] - Uv[0, : j1 + 1], dx=h))

    b_x_col = coeffs.eval("b", tt, x).ravel()
    b_0_col = coeffs.eval("b", tt, 0.0).ravel()
    term_t = float(np.trapezoid(b_x_col * Wv[: i1 + 1, j1] - b_0_col * Wv[: i1 + 1, 0], dx=h))

    a_top = coeffs.eval("a", float(t), yy).ravel()
    a_bot = coeffs.eval("a", 0.0, yy).ravel()
    term_x = float(np.trapezoid(a_top * Wv[i1, : j1 + 1] - a_bot * Wv[0, : j1 + 1], dx=h))

    weight = (coeffs.eval("c", tt, yy) - coeffs.partial("a", "t", tt, yy)
              - coeffs.partial("b", "x", tt, yy))
    inner = np.trapezoid(weight * Wv[: i1 + 1, : j1 + 1], dx=h, axis=0)
    term_double = float(np.trapezoid(inner, dx=h))

    return lhs, term_t + term_x + term_double


# ---------------------------------------------------------------------------
# the solution plan of both slopes, and the Wiener-Ito transport solver
# ---------------------------------------------------------------------------


def require_criterion(coeffs: CoefficientSet, grid: GridSpec, slope: int = 1) -> None:
    """ExistenceCriterionError unless sup |slope*a + b| <= 1e-12 on the
    characteristic lattice (``grid.t_values`` by the slope's columns, the
    sheet's for slope 1): the one check of the criterion, b = 0 for slope 0
    and a = -b for slope 1, made by the solvers and by config validation.
    """
    t, x = grid.t_values, _columns(grid, slope)
    dev = np.abs(slope * coeffs.eval("a", t[:, None], x[None, :])
                 + coeffs.eval("b", t[:, None], x[None, :]))
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    if not dev[i, j] <= _B_TOL:   # a NaN deviation fails too
        rule, deviation = _CRITERIA[slope]
        raise ExistenceCriterionError(
            f"a function solution exists if and only if {rule}; "
            f"sup {deviation} = {dev[i, j]:.3e} at (t, x) = ({t[i]:g}, {x[j]:g})")


def _characteristic_args(grid: GridSpec, slope: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(t, x) argument arrays over (time index, characteristic column index).

    Entry (i, m) is the characteristic point (t_i, m*h - slope*t_i).
    Entries with m < slope*i are never read by the solvers (reads happen
    at m = slope*i + j); their x-argument is clamped to 0 to keep
    arbitrary coefficient callables safe.
    """
    tt = grid.t_values[:, None]
    xarg = np.maximum(_columns(grid, slope)[None, :] - slope * tt, 0.0)
    return np.broadcast_to(tt, xarg.shape), xarg


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """The closed-form solution of dU/dt - s dU/dx = D W (s a + b = 0) as a
    linear map of the noise S on the characteristic lattice of slope s:

        U = a W + gather(cumtrapz(bracket * S)) + r0(s t + x),

    where W(t_i, x_j) = S(t_i, s t_i + x_j), the bracket
    s da/dx - da/dt + c is sampled along the characteristics through each
    column of S, and the gather reads the integral on the characteristic
    through (t_i, x_j). For s = 1 (the default) S is the sheet, with
    n_x + n_t + 1 columns; for s = 0 it is the noise W on the grid, and it
    must vanish at t = 0, as a sheet's does. Everything but S is fixed by
    (grid, coefficients, r0, s), so it is computed once, when the plan is
    built; the arrays are read-only.
    """

    grid: GridSpec
    a: np.ndarray          # a(t_i, x_j), (n_t+1, n_x+1)
    bracket: np.ndarray    # (s da/dx - da/dt + c)(t_i, m h - s t_i), (n_t+1, n_x+s n_t+1)
    r0_diag: np.ndarray    # r0(s t_i + x_j), (n_t+1, n_x+1)
    slope: int = 1

    @classmethod
    def build(cls, grid: GridSpec, coeffs: CoefficientSet, r0: InitialCurve,
              slope: int = 1) -> "TransportPlan":
        """Check the criterion slope*a + b = 0 and that r0 is finite, then
        sample the coefficients and r0 on the lattice."""
        require_criterion(coeffs, grid, slope)
        r0_diag = _initial_values_on_characteristics(r0, grid, slope)
        # a copy: the coefficient may return an array its caller still owns
        a = np.array(coeffs.eval("a", grid.t_values[:, None], grid.x_values[None, :]))
        T_arg, X_arg = _characteristic_args(grid, slope)
        bracket = (slope * coeffs.partial("a", "x", T_arg, X_arg)
                   - coeffs.partial("a", "t", T_arg, X_arg)
                   + coeffs.eval("c", T_arg, X_arg))
        for arr in (a, bracket, r0_diag):
            arr.flags.writeable = False
        return cls(grid, a, bracket, r0_diag, slope)

    def solve(self, S: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Solution values for one noise array (n_t+1, n_x+s n_t+1) or a
        stack (batch, n_t+1, n_x+s n_t+1); ``out`` may be preallocated.

        Each array of a stack gives values bit-identical to solving it alone.
        """
        if S.ndim not in (2, 3) or S.shape[-2:] != self.bracket.shape:
            raise GridError(f"sheet shape {S.shape} does not match the plan's lattice")
        n_cols = self.grid.n_x + 1
        folded = np.multiply(self.bracket, S)
        _kernels.cumtrapz(folded, self.grid.h, out=folded)
        out = np.multiply(self.a, _kernels.diag_gather(S, n_cols, self.slope), out=out)
        out += _kernels.diag_gather(folded, n_cols, self.slope)
        out += self.r0_diag
        return out

    def _check_path(self, W: DiagonalPath) -> None:
        if W.grid != self.grid:
            raise GridError("diagonal path and plan live on different grids")

    def solution(self, W: DiagonalPath) -> SolutionField:
        """The closed-form solution driven by the sheet behind W (slope 1)."""
        self._check_path(W)
        return SolutionField(self.grid, self.solve(W.sheet_values),
                             Provenance("closed_form", seed=W.seed))

    def corrupted_solution(self, W: DiagonalPath) -> SolutionField:
        """Refutation variant a W + r0(t+x): the closed form with its
        characteristic integral deleted. It fails the weak form, which shows
        that the weak residuals detect a wrong solution."""
        self._check_path(W)
        return SolutionField(self.grid, self.a * W.values + self.r0_diag,
                             Provenance("closed_form_corrupted", seed=W.seed))


def solve_transport(coeffs: CoefficientSet, r0: InitialCurve,
                    W: DiagonalPath) -> SolutionField:
    """Closed-form solution of dr/dt - dr/dx = D W with b = -a.

    The bracket da/dx - da/dt + c and the sheet are integrated along the
    characteristic through (t, x); the time integral is trapezoid.
    r(0, .) = r0 exactly since the noise starts at W(0, .) = 0 (a
    DiagonalPath construction invariant). Builds a ``TransportPlan`` for
    the one sheet; build the plan directly to solve many.
    """
    return TransportPlan.build(W.grid, coeffs, r0).solution(W)


def ito_integral(integrand: Callable, path: DiagonalPath, x: float, t: float) -> float:
    """Left-point Wiener-Ito sum of integrand(s, x) against B^x(s) = B(s, s+x)."""
    g = path.grid
    j = g.index_of(x, "x")
    i1 = g.index_of(t, "t")
    col = path.values[: i1 + 1, j]
    s = g.t_values[:i1]
    vals = np.broadcast_to(np.asarray(integrand(s, x), dtype=np.float64), s.shape)
    return float(np.sum(vals * (col[1:] - col[:-1])))


def solve_ito_form(coeffs: CoefficientSet, r0: InitialCurve,
                   path: DiagonalPath) -> SolutionField:
    """Wiener-Ito representation of the closed-form transport solution.

    The stochastic term is a left-endpoint sum against the martingale
    s -> B(s, t+x) along the characteristic; the drift term is trapezoid.
    Coincides with solve_transport exactly for constant a and pathwise at
    rate O(h) in general.
    """
    g = path.grid
    require_criterion(coeffs, g)
    r0_diag = _initial_values_on_characteristics(r0, g)

    T_arg, X_arg = _characteristic_args(g)
    a_char = coeffs.eval("a", T_arg, X_arg)
    c_char = coeffs.eval("c", T_arg, X_arg)
    S = np.ascontiguousarray(path.sheet_values)
    stoch = _kernels.ito_cumsum(np.ascontiguousarray(a_char), S)
    drift = _kernels.cumtrapz(np.ascontiguousarray(c_char * S), g.h)
    values = _kernels.diag_gather(stoch + drift, g.n_x + 1) + r0_diag
    return SolutionField(g, values, Provenance("ito", seed=path.seed))
