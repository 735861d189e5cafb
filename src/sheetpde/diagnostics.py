"""Runnable diagnostics: existence criterion, quadratic variation, Holder
exponents, separability, and Monte Carlo checks of the Gaussian-measure
partition lemmas.

Quadratic-variation statistics come in three flavours, all exposed
because they measure genuinely different things:

* ``build_Z`` + ``qv_estimate``: squared x-increments of the
  time-integrated diagonal field Z(t,x) = int_0^t A(s,x) B(s,s+x) ds.
  Integrating along the sliding strips smooths the field: Z is
  mean-square differentiable in x, so n squared increments over
  [x_lo, x_hi] sum to about ((x_hi-x_lo)/n) * int (dZ/dx)^2 dx and the
  statistic vanishes linearly in the partition width. Its mean is
  ((x_hi-x_lo)/n) * ``qv_diagonal_theoretical``, which adds the dA/dx
  terms to ``qv_theoretical`` and equals it when A does not depend on x.
  The rescaled statistic does not concentrate: int (dZ/dx)^2 dx is a
  random variable (for A = 1 on [0, 1] at t = 1 its mean is 1/2 and its
  variance 1/6), so its law is judged by the seed mean, not the median.

* ``build_Z_characteristic`` + ``qv_estimate``: the same construction
  parametrized by the maturity point xi = t + x, where the noise at
  fixed xi is the martingale s -> B(s, xi). Increments across xi are
  independent, quadratic variation does not vanish, and the limit is
  ``qv_characteristic_theoretical``. This is the object whose
  non-vanishing quadratic variation certifies that no function solution
  exists when a + b is not identically zero.

* ``qv_slicewise``: the time integral of per-time-slice quadratic
  variations of Y(s, .) = A(s, .) B(s, s+.), whose limit is exactly
  ``qv_theoretical`` = int_0^t int A(s,z)^2 s dz ds.

``qv_samples`` is the one pass over sheets that computes all three. It
evaluates A = a + b once on the diagonal lattice and once along the
characteristics, gathers each sheet onto the diagonal once, and derives
the diagonal field, the characteristic field, every slicewise sum and
the Holder inputs from those arrays. ``qv_report`` and the ``qv``
command reduce its per-seed values with ``qv_summary``. ``build_Z``,
``build_Z_characteristic`` and ``qv_slicewise`` are the same formulas
applied to one sheet.

The partition lemmas have one pass too: ``rect_measure_samples`` draws
each path once and builds its sheet only on the rows that rectangle
corners read, and ``run_partition_plans`` reduces any number of
product and sup checks (``PartitionPlan``) from that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from . import _kernels
from .coefficients import CoefficientSet
from .grids import GridError, GridSpec, ScalarField
from .sheet import RectRegion, SheetSample, SheetSource

__all__ = [
    "ExistenceReport",
    "existence_check",
    "LineField",
    "build_Z",
    "build_Z_characteristic",
    "qv_estimate",
    "qv_theoretical",
    "qv_diagonal_theoretical",
    "qv_characteristic_theoretical",
    "qv_slicewise",
    "QV_ESTIMATORS",
    "QVSamples",
    "qv_samples",
    "QVReport",
    "qv_summary",
    "qv_report",
    "HolderReport",
    "holder_estimate",
    "separability_residual",
    "weak_bracket_field",
    "PartitionScheme",
    "equal_slab_partition",
    "rect_measure_samples",
    "PartitionPlan",
    "run_partition_plans",
    "partition_product_plan",
    "PartitionProductRow",
    "partition_sup_plan",
    "PartitionSupRow",
]


# ---------------------------------------------------------------------------
# existence criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceReport:
    exists: bool
    max_deviation: float
    location: tuple[float, float]
    tol: float


def existence_check(coeffs: CoefficientSet, grid: GridSpec, tol: float = 1e-9,
                    x_values: np.ndarray | None = None) -> ExistenceReport:
    """A function solution exists iff a = -b; reports sup |a+b| on the lattice.

    The lattice is ``grid.t_values`` by ``x_values``, by default the
    solution grid's x values; the solvers pass the sheet's, since they
    read the coefficients along characteristics up to t_max + x_max.
    """
    if x_values is None:
        x_values = grid.x_values
    tt = grid.t_values[:, None]
    xx = x_values[None, :]
    dev = np.abs(coeffs.eval("a", tt, xx) + coeffs.eval("b", tt, xx))
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    sup = float(dev[i, j])
    return ExistenceReport(sup <= tol, sup,
                           (float(grid.t_values[i]), float(x_values[j])), tol)


# ---------------------------------------------------------------------------
# the field Z and its quadratic variation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineField:
    """A real field sampled on a uniform 1-D lattice."""

    coords: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.coords.shape != self.values.shape or self.coords.ndim != 1:
            raise ValueError("coords and values must be matching 1-D arrays")
        if self.coords.size < 2:
            raise ValueError("line field needs at least 2 points")

    @property
    def step(self) -> float:
        return float(self.coords[1] - self.coords[0])

    def index_of(self, coord: float) -> int:
        h = self.step
        idx = int(round((coord - self.coords[0]) / h))
        if idx < 0 or idx >= self.coords.size or \
                abs(self.coords[0] + idx * h - coord) > 1e-9 * max(1.0, h):
            raise GridError(f"coordinate {coord!r} is not on the line lattice")
        return idx


def _diagonal_A(coeffs: CoefficientSet, g: GridSpec, i1: int) -> np.ndarray:
    """A = a + b on the diagonal lattice: s = t_0..t_i1 by x in [0, x_max]."""
    tt = g.t_values[: i1 + 1][:, None]
    xx = g.x_values[None, :]
    return coeffs.eval("a", tt, xx) + coeffs.eval("b", tt, xx)


def _characteristic_A(coeffs: CoefficientSet, g: GridSpec, i1: int) -> np.ndarray:
    """A = a + b along the characteristics: A(s, xi - s) for s = t_0..t_i1
    and xi = t_i1 .. t_max + x_max (x-argument clamped at 0)."""
    xi = g.sheet_x_values[i1:]
    tt = g.t_values[: i1 + 1][:, None]
    xarg = np.maximum(xi[None, :] - tt, 0.0)
    tt = np.broadcast_to(tt, xarg.shape)
    return coeffs.eval("a", tt, xarg) + coeffs.eval("b", tt, xarg)


def _diagonal_product(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Y(s, x) = A(s, x) B(s, s + x) on the rows of A, from sheet values S."""
    m, n = A.shape
    return A * _kernels.diag_gather(S[:m], n)


def _characteristic_product(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """A(s, xi - s) B(s, xi) on the rows and columns of A."""
    i1 = A.shape[0] - 1
    return A * S[: i1 + 1, i1:]


def _time_integral(F: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid over the rows s = t_0..t_i1 (zero when i1 = 0)."""
    return np.trapezoid(F, dx=h, axis=0)


def _stride(span: int, n: int) -> int:
    if n < 1 or span % n:
        raise ValueError(f"n={n} does not divide the lattice span {span}")
    return span // n


def _slicewise_qv(Y: np.ndarray, j0: int, j1: int, n: int, h: float) -> float:
    """Time integral of the n-partition quadratic variations of the rows of Y
    over the columns [j0, j1]."""
    per_slice = _kernels.strided_sq_increment_sum(Y, j0, j1, _stride(j1 - j0, n))
    return float(_time_integral(per_slice, h))


def build_Z(coeffs: CoefficientSet, sheet: SheetSample, t: float) -> LineField:
    """Z(t, x_j) = trapezoid int_0^t (a+b)(s, x_j) B(s, s+x_j) ds over x in [0, x_max]."""
    g = sheet.grid
    Y = _diagonal_product(_diagonal_A(coeffs, g, g.index_of(t, "t")), sheet.values)
    return LineField(g.x_values.copy(), _time_integral(Y, g.h))


def build_Z_characteristic(coeffs: CoefficientSet, sheet: SheetSample,
                           t: float) -> LineField:
    """Z(t, xi_m) = trapezoid int_0^t (a+b)(s, xi_m - s) B(s, xi_m) ds.

    Parametrized by the maturity point xi = t + x >= t; at fixed xi the
    noise B(., xi) is a Brownian martingale, so increments across xi are
    independent and the quadratic variation survives refinement.
    """
    g = sheet.grid
    i1 = g.index_of(t, "t")
    F = _characteristic_product(_characteristic_A(coeffs, g, i1), sheet.values)
    return LineField(g.sheet_x_values[i1:].copy(), _time_integral(F, g.h))


def qv_estimate(Z: LineField, x_lo: float, x_hi: float, n: int) -> float:
    """Sum of n squared increments of Z over [x_lo, x_hi] at equal spacing."""
    i0 = Z.index_of(x_lo)
    i1 = Z.index_of(x_hi)
    return float(_kernels.strided_sq_increment_sum(Z.values, i0, i1, _stride(i1 - i0, n)))


def _simpson_weights(n_points: int) -> np.ndarray:
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of points")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def qv_theoretical(coeffs: CoefficientSet, t: float, x_lo: float, x_hi: float,
                   n_quad: int = 1024) -> float:
    """High-resolution quadrature of int_0^t int_{x_lo}^{x_hi} (a+b)^2 s dz ds."""
    ss = np.linspace(0.0, t, n_quad + 1)[:, None]
    zz = np.linspace(x_lo, x_hi, n_quad + 1)[None, :]
    A = coeffs.eval("a", ss, zz) + coeffs.eval("b", ss, zz)
    integrand = A * A * ss
    w = _simpson_weights(n_quad + 1)
    return float((t / n_quad) * ((x_hi - x_lo) / n_quad) * (w @ integrand @ w))


def qv_diagonal_theoretical(coeffs: CoefficientSet, t: float, x_lo: float,
                            x_hi: float, n_quad: int = 256) -> float:
    """int_{x_lo}^{x_hi} E (dZ/dx)^2 dx for the diagonal field Z of ``build_Z``.

    With A = a + b, A_x its x-partial and m = min(s, s'),

        E (dZ/dx)^2(x) = int int A_x(s,x) A_x(s',x) m (m + x) ds ds'
                         + 2 int int_{s'<s} A_x(s,x) A(s',x) s' ds' ds
                         + int A(s,x)^2 s ds,

    from Cov(B(s,u), B(s',u')) = min(s,s') min(u,u') along u = s + x.
    The last term integrates to ``qv_theoretical``; the first two vanish
    when A does not depend on x and are computed, by symmetry of the
    first, as 2 int A_x(s) [int_0^s (A_x s'(s'+x) + A s')(s') ds'] ds:
    cumulative trapezoid in s and Simpson in x with ``n_quad`` steps.
    """
    ss = np.linspace(0.0, t, n_quad + 1)[:, None]
    zz = np.linspace(x_lo, x_hi, n_quad + 1)[None, :]
    S, X = np.broadcast_arrays(ss, zz)
    A = coeffs.eval("a", S, X) + coeffs.eval("b", S, X)
    A_x = coeffs.partial("a", "x", S, X) + coeffs.partial("b", "x", S, X)
    ds = t / n_quad
    inner = _kernels.cumtrapz(A_x * ss * (ss + zz) + A * ss, ds)
    density = 2.0 * np.trapezoid(A_x * inner, dx=ds, axis=0)
    w = _simpson_weights(n_quad + 1)
    correction = float((x_hi - x_lo) / n_quad * (w @ density))
    return qv_theoretical(coeffs, t, x_lo, x_hi) + correction


def qv_characteristic_theoretical(coeffs: CoefficientSet, t: float, xi_lo: float,
                                  xi_hi: float, n_quad: int = 256) -> float:
    """Limit of the characteristic quadratic variation over xi in [xi_lo, xi_hi].

    QV -> int_{xi_lo}^{xi_hi} int_0^t int_0^t A(u, xi-u) A(v, xi-v)
          min(u, v) du dv dxi,
    computed as 2 int g(v) [int_0^v u g(u) du] dv with g = A along the
    characteristic. Requires xi_lo >= t so the x-argument stays >= 0.
    """
    if xi_lo < t - 1e-12:
        raise ValueError("characteristic range must start at xi >= t")
    uu = np.linspace(0.0, t, n_quad + 1)[:, None]
    xis = np.linspace(xi_lo, xi_hi, n_quad + 1)[None, :]
    xarg = np.maximum(xis - uu, 0.0)
    G = (coeffs.eval("a", np.broadcast_to(uu, xarg.shape), xarg)
         + coeffs.eval("b", np.broadcast_to(uu, xarg.shape), xarg))
    du = t / n_quad
    inner = _kernels.cumtrapz(uu * G, du)      # int_0^v u g(u) du
    K = 2.0 * np.trapezoid(G * inner, dx=du, axis=0)
    return float(np.trapezoid(K, dx=(xi_hi - xi_lo) / n_quad))


def qv_slicewise(coeffs: CoefficientSet, sheet: SheetSample, t: float,
                 x_lo: float, x_hi: float, n: int) -> float:
    """Time integral of per-slice quadratic variations of Y(s,.) = A(s,.)W(s,.).

    Converges to qv_theoretical: each slice sum tends to
    s * int A(s,z)^2 dz and the trapezoid in s supplies the outer
    integral.
    """
    g = sheet.grid
    Y = _diagonal_product(_diagonal_A(coeffs, g, g.index_of(t, "t")), sheet.values)
    return _slicewise_qv(Y, g.index_of(x_lo, "x"), g.index_of(x_hi, "x"), n, g.h)


QV_ESTIMATORS = ("diagonal", "characteristic", "slicewise")


@dataclass(frozen=True)
class QVReport:
    t: float
    x_lo: float
    x_hi: float
    n_partitions: int
    empirical_qv: float
    theoretical_qv: float
    relative_error: float
    seed_root: int
    n_seeds: int
    estimator: str = "diagonal"
    std_error: float | None = None   # of the seed mean; set for "diagonal"

    def __post_init__(self) -> None:
        if self.n_partitions < 2:
            raise ValueError("need at least 2 partitions")
        if self.empirical_qv < 0 or self.theoretical_qv < 0:
            raise ValueError("quadratic variations are non-negative")

    def to_json_dict(self) -> dict:
        d = {"t": self.t, "x_lo": self.x_lo, "x_hi": self.x_hi,
             "n_partitions": self.n_partitions, "empirical_qv": self.empirical_qv,
             "theoretical_qv": self.theoretical_qv,
             "relative_error": self.relative_error,
             "seed_root": self.seed_root, "n_seeds": self.n_seeds,
             "estimator": self.estimator}
        if self.std_error is not None:
            d["std_error"] = self.std_error
        return d


def qv_summary(coeffs: CoefficientSet, t: float, x_lo: float, x_hi: float, n: int,
               values: Sequence[float], seed: int, estimator: str) -> QVReport:
    """Reduce per-seed values of one estimator to a report against its own law.

    * ``"diagonal"``: the seed mean against
      ((x_hi-x_lo)/n) * ``qv_diagonal_theoretical``, with the sample
      standard error of the mean (the statistic does not concentrate, see
      the module docstring). The target is the limit mean for any smooth
      A = a + b, including the dA/dx terms when A depends on x.
    * ``"slicewise"``: the seed median against ``qv_theoretical``.
    * ``"characteristic"``: the seed median against
      ``qv_characteristic_theoretical`` over [t + x_lo, t + x_hi].
    """
    vals = np.asarray(values, dtype=np.float64)
    se = None
    if estimator == "diagonal":
        if vals.size < 2:
            raise ValueError("the diagonal standard error needs at least 2 seeds")
        target = (x_hi - x_lo) / n * qv_diagonal_theoretical(coeffs, t, x_lo, x_hi)
        emp = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
    elif estimator == "slicewise":
        target = qv_theoretical(coeffs, t, x_lo, x_hi)
        emp = float(np.median(vals))
    elif estimator == "characteristic":
        target = qv_characteristic_theoretical(coeffs, t, t + x_lo, t + x_hi)
        emp = float(np.median(vals))
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    rel = abs(emp - target) / target if target else abs(emp)
    return QVReport(t, x_lo, x_hi, n, emp, target, rel, seed, vals.size, estimator, se)


@dataclass(frozen=True)
class QVSamples:
    """Per-seed statistics of one ``qv_samples`` pass.

    ``values[(estimator, n)]`` holds one value per seed for each estimator
    of ``QV_ESTIMATORS`` and each partition count n. ``holder[estimator]``
    holds per-seed Holder exponents of the diagonal and characteristic
    fields over the sorted partition counts; it is empty when fewer than
    3 counts were given.
    """

    values: dict[tuple[str, int], np.ndarray]
    holder: dict[str, np.ndarray]


def qv_samples(coeffs: CoefficientSet, grid: GridSpec, t: float, x_lo: float,
               x_hi: float, n_values: Sequence[int], seed: int,
               n_seeds: int) -> QVSamples:
    """The per-sheet QV pass: every estimator at every n from one sheet loop.

    A = a + b is evaluated once, on the diagonal lattice and along the
    characteristics. Each sheet k (path k of ``seed``) is gathered onto
    the diagonal once; the product Y = A W gives the diagonal field and
    every slicewise sum, and A times the sheet columns gives the
    characteristic field. Partition counts are checked before any sheet
    is drawn.
    """
    i1 = grid.index_of(t, "t")
    j0, j1 = grid.index_of(x_lo, "x"), grid.index_of(x_hi, "x")
    for n in n_values:
        _stride(j1 - j0, n)
    A_diag = _diagonal_A(coeffs, grid, i1)
    A_char = _characteristic_A(coeffs, grid, i1)
    x, xi = grid.x_values, grid.sheet_x_values[i1:]
    levels = sorted(n_values) if len(n_values) >= 3 else None
    values = {(est, n): np.empty(n_seeds) for est in QV_ESTIMATORS for n in n_values}
    holder = ({est: np.empty(n_seeds) for est in ("diagonal", "characteristic")}
              if levels else {})
    source = SheetSource(grid, seed, n_seeds)
    cells = np.empty((1, grid.n_t, grid.n_sheet_x))
    sheet = np.empty((1, grid.n_t + 1, grid.n_sheet_x + 1))
    for k in range(n_seeds):
        S = source.sample_batch(k, cells, sheet)[0]
        Y = _diagonal_product(A_diag, S)
        fields = {
            "diagonal": (LineField(x, _time_integral(Y, grid.h)), x_lo, x_hi),
            "characteristic": (LineField(xi, _time_integral(
                _characteristic_product(A_char, S), grid.h)), t + x_lo, t + x_hi),
        }
        for n in n_values:
            for est, (Z, lo, hi) in fields.items():
                values[est, n][k] = qv_estimate(Z, lo, hi, n)
            values["slicewise", n][k] = _slicewise_qv(Y, j0, j1, n, grid.h)
        for est in holder:
            Z, lo, hi = fields[est]
            holder[est][k] = holder_estimate(Z, lo, hi, levels).estimated_exponent
    return QVSamples(values, holder)


def qv_report(coeffs: CoefficientSet, grid: GridSpec, t: float, x_lo: float,
              x_hi: float, n: int, seed: int, n_seeds: int,
              estimator: Literal["diagonal", "characteristic", "slicewise"] = "diagonal",
              ) -> QVReport:
    """Quadratic variation over an ensemble of seeds, against its own law.

    The per-seed statistics come from ``qv_samples`` and are reduced by
    ``qv_summary``: the diagonal estimator reports its seed mean and
    standard error against ((x_hi-x_lo)/n) * ``qv_diagonal_theoretical``;
    the slicewise and characteristic estimators report their seed medians
    against ``qv_theoretical`` and ``qv_characteristic_theoretical``.
    """
    if estimator not in QV_ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    samples = qv_samples(coeffs, grid, t, x_lo, x_hi, [n], seed, n_seeds)
    return qv_summary(coeffs, t, x_lo, x_hi, n, samples.values[estimator, n], seed,
                      estimator)


# ---------------------------------------------------------------------------
# Holder exponent estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderReport:
    estimated_exponent: float
    levels: tuple[int, ...]
    regression_residual: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if len(self.levels) < 3:
            raise ValueError("Holder estimation needs at least 3 levels")


def holder_estimate(Z: LineField, x_lo: float, x_hi: float,
                    levels: Sequence[int]) -> HolderReport:
    """Regress log max-increment against log spacing; the slope estimates
    the Holder exponent. All-zero increments at any level flag the field
    as degenerate (exponent +inf)."""
    levels = tuple(int(n) for n in levels)
    i0 = Z.index_of(x_lo)
    i1 = Z.index_of(x_hi)
    span = i1 - i0
    deltas, maxima = [], []
    for n in levels:
        if n < 1 or span % n:
            raise ValueError(f"level n={n} does not divide the lattice span {span}")
        m = _kernels.strided_max_abs_increment(Z.values, i0, i1, span // n)
        if m == 0.0:
            return HolderReport(math.inf, levels, math.nan, degenerate=True)
        deltas.append((x_hi - x_lo) / n)
        maxima.append(m)
    logd = np.log(deltas)
    logm = np.log(maxima)
    slope, intercept = np.polyfit(logd, logm, 1)
    resid = float(np.sqrt(np.mean((logm - (slope * logd + intercept)) ** 2)))
    return HolderReport(float(slope), levels, resid)


# ---------------------------------------------------------------------------
# separability (Lemma-1 conclusion)
# ---------------------------------------------------------------------------


def separability_residual(g) -> float:
    """sup |g(t,x) - g(t,0) - g(0,x) + g(0,0)| over the lattice.

    Zero exactly for additively separable fields g(t,x) = f(t) + k(x);
    the constant is pinned by evaluation at the origin.
    """
    v = g.values if isinstance(g, ScalarField) else np.asarray(g, dtype=np.float64)
    return float(np.max(np.abs(v - v[:, :1] - v[:1, :] + v[0, 0])))


def weak_bracket_field(coeffs: CoefficientSet, U: ScalarField,
                           W: ScalarField) -> ScalarField:
    """The accumulation field that weak solutions of dU/dt = D W make separable:

    g(t,x) = int_0^x U(t,y) dy - int_0^x (aW)(t,y) dy - int_0^t (bW)(s,x) ds
             + int_0^x int_0^t (da/dt + db/dx - c)(s,y) W(s,y) ds dy.
    """
    if U.grid != W.grid:
        raise GridError("U and W live on different grids")
    g = U.grid
    h = g.h
    tt = g.t_values[:, None]
    xx = g.x_values[None, :]

    def cum_x(M: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(
            _kernels.cumtrapz(np.ascontiguousarray(M.T), h).T)

    aW = coeffs.eval("a", tt, xx) * W.values
    bW = coeffs.eval("b", tt, xx) * W.values
    weight = (coeffs.partial("a", "t", tt, xx) + coeffs.partial("b", "x", tt, xx)
              - coeffs.eval("c", tt, xx))
    vals = (cum_x(U.values) - cum_x(aW)
            - _kernels.cumtrapz(np.ascontiguousarray(bW), h)
            + cum_x(_kernels.cumtrapz(np.ascontiguousarray(weight * W.values), h)))
    return ScalarField(g, vals)


# ---------------------------------------------------------------------------
# partition lemmas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionScheme:
    """n grid-aligned sub-rectangles partitioning a base rectangle."""

    base: RectRegion
    n: int
    cells: tuple[RectRegion, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.cells) != self.n or self.n < 1:
            raise ValueError("cell count must equal n >= 1")
        total = sum(c.area for c in self.cells)
        if abs(total - self.base.area) > 1e-9 * max(1.0, self.base.area):
            raise ValueError("cells do not cover the base rectangle")

    @property
    def sup_cell_area(self) -> float:
        return max(c.area for c in self.cells)


def equal_slab_partition(base: RectRegion, n: int, grid: GridSpec) -> PartitionScheme:
    """Partition into n equal grid-aligned x-slabs; sup cell area = area/n."""
    j0 = grid.index_of(base.x_lo, "sheet_x")
    j1 = grid.index_of(base.x_hi, "sheet_x")
    span = j1 - j0
    if n < 1 or span % n:
        raise GridError(f"n={n} does not divide the slab span {span}")
    if span == 0:
        cells = (RectRegion(base.t_lo, base.t_hi, base.x_lo, base.x_hi),) * n
        return PartitionScheme(base, n, cells)
    st = span // n
    edges = grid.sheet_x_values[j0: j1 + 1: st]
    cells = tuple(RectRegion(base.t_lo, base.t_hi, float(lo), float(hi))
                  for lo, hi in zip(edges[:-1], edges[1:]))
    return PartitionScheme(base, n, cells)


def _slab_corners(grid: GridSpec, base: RectRegion, n: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lattice corner indices (i_lo, i_hi, j_lo, j_hi) of the n cells of
    ``equal_slab_partition(base, n, grid)``, as arrays, from the corners
    of the base: slab k spans columns j0 + k*stride to j0 + (k+1)*stride."""
    i0, i1, j0, j1 = base.corner_indices(grid)
    stride = (j1 - j0) // n
    j_lo = j0 + stride * np.arange(n, dtype=np.intp)
    return (np.full(n, i0, dtype=np.intp), np.full(n, i1, dtype=np.intp),
            j_lo, j_lo + stride)


def _rect_measures(B: np.ndarray, corners) -> np.ndarray:
    i0, i1, j0, j1 = corners
    return B[i1, j1] - B[i0, j1] - B[i1, j0] + B[i0, j0]


def rect_measure_samples(grid: GridSpec, seed: int, corner_sets: Sequence,
                         n_seeds: int) -> list[np.ndarray]:
    """Per-seed Gaussian measures of several sets of rectangles, from one sheet loop.

    Each entry of ``corner_sets`` holds the lattice corner indices
    (i_lo, i_hi, j_lo, j_hi) of one set of rectangles, as arrays. Path k
    of ``seed`` is drawn once, into one reused cell buffer that stops at
    the highest corner row, and its sheet is built only on the distinct
    corner rows (``prefix_sum_rows``, bit-identical to those rows of the
    full sheet). Returns one (n_seeds, n_rectangles) array per set; row k
    holds the measures on sheet k.
    """
    if not corner_sets:
        return []
    i0, i1, j0, j1 = (np.concatenate(parts) for parts in zip(*corner_sets))
    rows, local = np.unique(np.concatenate([i0, i1]), return_inverse=True)
    corners = (local[:i0.size], local[i0.size:], j0, j1)
    cells = np.empty((1, rows[-1], grid.n_sheet_x))
    B = np.empty((1, rows.size, grid.n_sheet_x + 1))
    measures = np.empty((n_seeds, i0.size))
    source = SheetSource(grid, seed, n_seeds)
    for k in range(n_seeds):
        source.draw_cells(k, cells)
        _kernels.prefix_sum_rows(cells, rows, out=B)
        measures[k] = _rect_measures(B[0], corners)
    ends = np.cumsum([c[0].size for c in corner_sets])
    return np.split(measures, ends[:-1], axis=1)


@dataclass(frozen=True)
class PartitionPlan:
    """The path-invariant part of one partition-lemma check.

    ``corner_sets`` are the rectangle sets the check reads, ``n_seeds`` its
    replica count, and ``reduce`` maps the per-seed measures of those sets
    (as returned by ``rect_measure_samples``) to the check's report rows.
    ``run_partition_plans`` runs any number of plans through one sheet loop.
    """

    corner_sets: tuple
    n_seeds: int
    reduce: Callable[[Sequence[np.ndarray]], list] = field(repr=False)


def run_partition_plans(grid: GridSpec, seed: int,
                        plans: Sequence[PartitionPlan]) -> list[list]:
    """The rows of every plan, from one pass over paths 0..max(n_seeds)-1.

    Each plan reduces the first ``plan.n_seeds`` paths, so path k feeds
    every plan whose seed count exceeds k: the checks share their sheets.
    """
    measures = rect_measure_samples(grid, seed,
                                    [c for p in plans for c in p.corner_sets],
                                    max(p.n_seeds for p in plans))
    out, pos = [], 0
    for p in plans:
        sets = measures[pos: pos + len(p.corner_sets)]
        out.append(p.reduce([m[:p.n_seeds] for m in sets]))
        pos += len(p.corner_sets)
    return out


def _intersection(F: RectRegion, G: RectRegion) -> RectRegion | None:
    t_lo, t_hi = max(F.t_lo, G.t_lo), min(F.t_hi, G.t_hi)
    x_lo, x_hi = max(F.x_lo, G.x_lo), min(F.x_hi, G.x_hi)
    if t_lo >= t_hi or x_lo >= x_hi:
        return None
    return RectRegion(t_lo, t_hi, x_lo, x_hi)


def _product_integral(R: Callable, S: Callable, rect: RectRegion,
                      n_quad: int = 512) -> float:
    tt = np.linspace(rect.t_lo, rect.t_hi, n_quad + 1)[:, None]
    xx = np.linspace(rect.x_lo, rect.x_hi, n_quad + 1)[None, :]
    vals = (np.broadcast_to(np.asarray(R(tt, xx), dtype=np.float64), (n_quad + 1,) * 2)
            * np.broadcast_to(np.asarray(S(tt, xx), dtype=np.float64), (n_quad + 1,) * 2))
    w = _simpson_weights(n_quad + 1)
    return float(((rect.t_hi - rect.t_lo) / n_quad)
                 * ((rect.x_hi - rect.x_lo) / n_quad) * (w @ vals @ w))


@dataclass(frozen=True)
class PartitionProductRow:
    n: int
    mean_sum: float
    limit: float
    l2_distance: float
    std_error: float
    samples: tuple = field(default=(), repr=False)   # per-seed sums

    def to_json_dict(self) -> dict:
        return {"n": self.n, "mean_sum": self.mean_sum, "limit": self.limit,
                "l2_distance": self.l2_distance, "std_error": self.std_error}


def partition_product_plan(grid: GridSpec, R: Callable, S: Callable, F: RectRegion,
                           G: RectRegion, n_values: Sequence[int],
                           mode: Literal["diagonal", "disjoint"],
                           n_seeds: int = 1000) -> PartitionPlan:
    """L2 convergence of sum_k R_k S_k X(F_k) X(G_k) over slab partitions.

    In diagonal mode (F and G sharing their x-extent) the limit is
    int_{F cap G} R S d(area); in disjoint mode (x-extents disjoint) it
    is 0. R_k, S_k are midpoint values on the matching cells. The plan
    holds the geometry checks, the limit, the slab corners and the
    weights R_k S_k. Run through ``run_partition_plans``, each of the
    ``n_seeds`` replicas is one path of the run's seed, reused across the
    partition sizes, so decay across n is measured on fixed seed batches.
    """
    inter = _intersection(F, G)
    if mode == "diagonal":
        if inter is None or abs(F.x_lo - G.x_lo) > 1e-12 or abs(F.x_hi - G.x_hi) > 1e-12:
            raise ValueError("diagonal mode needs F and G with identical x-extent "
                             "and overlapping t-extent")
        limit = _product_integral(R, S, inter)
    elif mode == "disjoint":
        if inter is not None:
            raise ValueError("disjoint mode needs F and G with disjoint extents")
        limit = 0.0
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def midpoints(cells) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([(c.t_lo + c.t_hi) / 2 for c in cells]),
                np.array([(c.x_lo + c.x_hi) / 2 for c in cells]))

    corner_sets, weights = [], []
    for n in n_values:
        pf = equal_slab_partition(F, n, grid)
        pg = equal_slab_partition(G, n, grid)
        if mode == "diagonal":
            # R_k and S_k both sit at the midpoint of F_k cap G_k
            mid_f = mid_g = midpoints([_intersection(fk, gk)
                                       for fk, gk in zip(pf.cells, pg.cells)])
        else:
            mid_f, mid_g = midpoints(pf.cells), midpoints(pg.cells)
        rk_sk = (np.asarray(R(*mid_f), dtype=np.float64)
                 * np.asarray(S(*mid_g), dtype=np.float64))
        corner_sets += [_slab_corners(grid, F, n), _slab_corners(grid, G, n)]
        weights.append(np.broadcast_to(rk_sk, (n,)))

    def reduce(measures: Sequence[np.ndarray]) -> list[PartitionProductRow]:
        rows = []
        for n, rk_sk, mf, mg in zip(n_values, weights, measures[::2], measures[1::2]):
            s = np.sum(rk_sk * mf * mg, axis=1)
            rows.append(PartitionProductRow(n, float(np.mean(s)), limit,
                                            float(np.sqrt(np.mean((s - limit) ** 2))),
                                            float(np.std(s, ddof=1) / np.sqrt(s.size)),
                                            samples=tuple(float(v) for v in s)))
        return rows

    return PartitionPlan(tuple(corner_sets), n_seeds, reduce)


@dataclass(frozen=True)
class PartitionSupRow:
    n: int
    median_sup: float
    hypothesis_value: float   # n^kappa * sup cell area
    samples: tuple = field(default=(), repr=False)   # per-seed sups

    def to_json_dict(self) -> dict:
        return {"n": self.n, "median_sup": self.median_sup,
                "hypothesis_value": self.hypothesis_value}


def partition_sup_plan(grid: GridSpec, base: RectRegion, n_values: Sequence[int],
                       kappa: float = 0.5, n_seeds: int = 20) -> PartitionPlan:
    """Median over seeds of sup_k |X(F_k^n)| for equal slab partitions.

    Equal slabs give sup cell area = area/n, so n^kappa * sup -> 0 for
    any kappa < 1 and the sup statistic must decay with n. The plan
    holds the slab corners of each partition.
    """
    schemes = [equal_slab_partition(base, n, grid) for n in n_values]

    def reduce(measures: Sequence[np.ndarray]) -> list[PartitionSupRow]:
        rows = []
        for n, scheme, m in zip(n_values, schemes, measures):
            sups = np.max(np.abs(m), axis=1)
            rows.append(PartitionSupRow(n, float(np.median(sups)),
                                        float(n ** kappa * scheme.sup_cell_area),
                                        samples=tuple(float(v) for v in sups)))
        return rows

    return PartitionPlan(tuple(_slab_corners(grid, base, n) for n in n_values),
                         n_seeds, reduce)
