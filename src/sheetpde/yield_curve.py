"""Stochastic evolution of a forward yield curve under diagonal sheet noise.

r(t, x) is the rate contracted at time t for maturity t + x. Without
noise the curve transports along characteristics, r(t,x) = r0(t+x);
with volatility a and carry c it follows the closed-form solution of
the transport SPDE (b is forced to -a: function solutions exist only
then). For comparison, a classical single-driver model evolves every
maturity with one shared scalar Brownian motion, which makes
cross-maturity increments perfectly correlated; the sheet-driven model
decorrelates maturities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoeffFn, CoefficientSet
from .grids import GridSpec, ScalarField
from .sheet import DiagonalPath, SheetSource
from .solver import (InitialCurve, Provenance, SolutionField, TransportPlan,
                     require_finite)

__all__ = [
    "YieldScenario",
    "EnsembleResult",
    "simulate_yield",
    "drift_decomposition_residual",
    "ms_simulate",
    "compare_models",
    "CompareReport",
    "sheet_increment_covariance",
    "write_slices_csv",
    "negate",
]


def negate(fn) -> CoeffFn:
    if isinstance(fn, CoeffFn):
        return CoeffFn(lambda t, x: -np.asarray(fn.fn(t, x), dtype=np.float64),
                       d_dt=None if fn.d_dt is None else
                       (lambda t, x: -np.asarray(fn.d_dt(t, x), dtype=np.float64)),
                       d_dx=None if fn.d_dx is None else
                       (lambda t, x: -np.asarray(fn.d_dx(t, x), dtype=np.float64)),
                       name=f"-({fn.name})")
    return CoeffFn(lambda t, x: -np.asarray(fn(t, x), dtype=np.float64))


@dataclass(frozen=True)
class YieldScenario:
    """A scenario: grid, initial curve, volatility a, carry c, path count, seed.

    The transport coefficient b is implicitly -a and is not settable:
    the existence criterion forces it.
    """

    grid: GridSpec
    r0: InitialCurve
    vol: Callable
    carry: Callable
    n_paths: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")

    def coefficient_set(self) -> CoefficientSet:
        return CoefficientSet(a=self.vol, b=negate(self.vol), c=self.carry)


@dataclass(frozen=True)
class EnsembleResult:
    """Pointwise ensemble statistics, plus quantile curves at slice times."""

    grid: GridSpec
    n_paths: int
    seed: int
    mean: ScalarField
    variance: ScalarField
    t_slices: tuple[float, ...]
    slice_q05: dict
    slice_q95: dict


# Bytes of one batch of sheets: paths are sampled and solved this many
# bytes of sheet values at a time (19 paths at h = 0.05 on [0,1]^2, one
# path for sheets of 128 KiB or more). The per-path normal draws dominate
# (about 21 us of the 25 us a path spends in the sheet source at h = 0.05;
# the key reset is the rest), so the batch size moves little: on the
# benchmark's yield-paths config (2000 paths, 2-core machine, median CPU
# time of 9 alternating runs) 64, 128 and 256 KiB took 0.127, 0.118 and
# 0.114 s, with quartile ranges that overlap between 128 and 256 KiB.
BATCH_BYTES = 128 * 1024


def _paths_per_batch(grid: GridSpec, n_paths: int) -> int:
    sheet_bytes = 8 * (grid.n_t + 1) * (grid.n_sheet_x + 1)
    return max(1, min(n_paths, BATCH_BYTES // sheet_bytes))


def _solved_batches(sc: YieldScenario, head_size: int = 0):
    """Yield (start, values, head) over the scenario's paths in path-index order.

    The plan is built, and the criterion checked, before any path is
    keyed. Every batch is sampled from one ``SheetSource`` and solved in
    the same buffers, allocated once, so a batch's arrays are valid until
    the next yield. ``head`` holds the first ``head_size`` raw standard
    normals of each path of the batch (``SheetSource.draw_cells``).
    """
    g = sc.grid
    plan = TransportPlan.build(g, sc.coefficient_set(), sc.r0)
    source = SheetSource(g, sc.seed, sc.n_paths)
    size = _paths_per_batch(g, sc.n_paths)
    cells = np.empty((size, g.n_t, g.n_sheet_x))
    sheets = np.empty((size, g.n_t + 1, g.n_sheet_x + 1))
    values = np.empty((size, g.n_t + 1, g.n_x + 1))
    head = np.empty((size, head_size))
    for start in range(0, sc.n_paths, size):
        n = min(size, sc.n_paths - start)
        source.sample_batch(start, cells[:n], sheets[:n], head[:n] if head_size else None)
        yield start, plan.solve(sheets[:n], out=values[:n]), head[:n]


def simulate_yield(sc: YieldScenario, t_slices: Sequence[float] = ()) -> EnsembleResult:
    """Run the scenario: per-path derived streams, fixed-order aggregation.

    Paths are sampled and solved in batches of ``BATCH_BYTES`` of sheets
    through one ``TransportPlan``. The ensemble mean/variance are
    accumulated one path at a time in path-index order, so the result is
    bit-identical for any batch size. Raises NumericalCriterionError when
    the mean or the variance is not finite.
    """
    g = sc.grid
    slice_idx = {float(t): g.index_of(t, "t") for t in t_slices}
    total = np.zeros((g.n_t + 1, g.n_x + 1))
    total_sq = np.zeros_like(total)
    square = np.empty_like(total)
    slice_rows = {t: np.empty((sc.n_paths, g.n_x + 1)) for t in slice_idx}

    for start, batch, _ in _solved_batches(sc):
        for t, i in slice_idx.items():
            slice_rows[t][start:start + len(batch)] = batch[:, i]
        for values in batch:
            np.add(total, values, out=total)
            np.add(total_sq, np.multiply(values, values, out=square), out=total_sq)

    n = sc.n_paths
    mean = total / n
    if n > 1:
        var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
    else:
        var = np.zeros_like(mean)
    require_finite("ensemble mean", mean)
    require_finite("ensemble variance", var)
    q05 = {t: np.quantile(rows, 0.05, axis=0) for t, rows in slice_rows.items()}
    q95 = {t: np.quantile(rows, 0.95, axis=0) for t, rows in slice_rows.items()}
    return EnsembleResult(g, n, sc.seed, ScalarField(g, mean), ScalarField(g, var),
                          tuple(slice_idx), q05, q95)


def drift_decomposition_residual(path: SolutionField, noise: DiagonalPath,
                                 sc: YieldScenario, x: float) -> float:
    """Max deviation of path increments from the drift/diffusion split

    dr(t,x) ~ a(t,x) dB^x(t) + [B^x(t) (da/dx + c)(t,x) + r0'(t+x)] dt,

    where the drift itself carries the (random) level of the noise.
    """
    g = path.grid
    j = g.index_of(x, "x")
    coeffs = sc.coefficient_set()
    tv = g.t_values
    r_col = path.values[:, j]
    w_col = noise.values[:, j]
    a_col = coeffs.eval("a", tv[:-1], x)
    hull = coeffs.partial("a", "x", tv[:-1], x) + coeffs.eval("c", tv[:-1], x)
    drift = w_col[:-1] * hull + sc.r0.eval_derivative(tv[:-1] + x)
    resid = (r_col[1:] - r_col[:-1]
             - a_col * (w_col[1:] - w_col[:-1]) - drift * g.h)
    return float(np.max(np.abs(resid)))


class _SingleDriverModel:
    """dr(t,x) = alpha dt + sigma dW(t) on a grid, with alpha and sigma
    evaluated once; ``values`` runs the Euler-Maruyama scheme on a stack
    of driver paths."""

    def __init__(self, alpha: Callable, sigma: Callable, r0: InitialCurve,
                 grid: GridSpec):
        tt = grid.t_values[:-1][:, None]
        xx = grid.x_values[None, :]
        shape = (grid.n_t, grid.n_x + 1)
        self.grid = grid
        self.drift = np.broadcast_to(np.asarray(alpha(tt, xx), dtype=np.float64),
                                     shape) * grid.h
        self.sigma = np.broadcast_to(np.asarray(sigma(tt, xx), dtype=np.float64), shape)
        self.r0 = r0.eval(grid.x_values)

    def values(self, normals: np.ndarray) -> np.ndarray:
        """Paths for standard normals of shape (batch, n_t): the driver
        increments are sqrt(h) times them. Returns (batch, n_t+1, n_x+1)."""
        g = self.grid
        dW = normals * np.sqrt(g.h)
        steps = self.drift + self.sigma * dW[:, :, None]
        values = np.empty((len(dW), g.n_t + 1, g.n_x + 1))
        values[:, 0] = self.r0
        np.cumsum(steps, axis=1, out=values[:, 1:])
        values[:, 1:] += values[:, :1]
        return values


def ms_simulate(alpha: Callable, sigma: Callable, r0: InitialCurve, grid: GridSpec,
                seed: int, path_index: int = 0) -> SolutionField:
    """Euler-Maruyama for dr(t,x) = alpha dt + sigma dW(t), one shared driver.

    A single standard Wiener path drives every maturity. Its increments
    are sqrt(h) times the first n_t normals of path ``path_index`` of
    ``seed``: the first n_t cells of that path's sheet, before scaling,
    so the sheet-driven model of the same path shares these numbers.
    """
    normals = SheetSource(grid, seed, path_index + 1).normals(
        path_index, np.empty((1, grid.n_t)))
    values = _SingleDriverModel(alpha, sigma, r0, grid).values(normals)[0]
    return SolutionField(grid, values, Provenance("ms", seed=seed,
                                                  details=f"path={path_index}"))


def sheet_increment_covariance(t: float, h: float, x1: float, x2: float) -> float:
    """Cov of the diagonal-noise increments B^x(t+h) - B^x(t) at two maturities.

    Exact, from Cov(B(s,u), B(t,v)) = min(s,t) min(u,v) by
    inclusion-exclusion over the four corner terms.
    """
    return ((t + h) * min(t + h + x1, t + h + x2)
            - t * min(t + h + x1, t + x2)
            - t * min(t + x1, t + h + x2)
            + t * min(t + x1, t + x2))


@dataclass(frozen=True)
class CompareReport:
    """Cross-maturity increment correlations of the two models.

    The models of path k share random numbers: the single-driver model's
    driver is the first n_t normals of the sheet model's cells. Each
    model's own correlations are unbiased, but a statistic that compares
    the two is not built from independent draws; giving the single-driver
    model its own stream would change the stream contract.
    """

    t_slices: tuple[float, ...]
    maturities: tuple[float, ...]
    corr_spde: dict
    corr_ms: dict
    corr_noise_theoretical: dict
    degenerate: bool

    def to_json_dict(self) -> dict:
        def mat(d):
            return {str(t): (None if m is None else np.asarray(m).tolist())
                    for t, m in d.items()}
        return {"t_slices": list(self.t_slices), "maturities": list(self.maturities),
                "corr_spde": mat(self.corr_spde), "corr_ms": mat(self.corr_ms),
                "corr_noise_theoretical": mat(self.corr_noise_theoretical),
                "degenerate": self.degenerate}


def compare_models(sc: YieldScenario, ms_alpha: Callable, ms_sigma: Callable,
                   t_slices: Sequence[float],
                   maturities: Sequence[float] | None = None) -> CompareReport:
    """Cross-maturity correlation of one-step increments under both models.

    The sheet-driven model is driven by distinct martingales per
    maturity, so correlations sit strictly below 1; the single-driver
    model yields correlation identically 1 (deterministic sigma). A
    theoretical correlation matrix for the raw noise increments is
    reported alongside (it is the model correlation for constant vol).
    Both models of path k read path k's one stream (``CompareReport``).
    """
    g = sc.grid
    if maturities is None:
        js = sorted({g.n_x // 4, g.n_x // 2, (3 * g.n_x) // 4, g.n_x} - {0})
        maturities = [float(g.x_values[j]) for j in js]
    maturities = [float(m) for m in maturities]
    j_idx = [g.index_of(m, "x") for m in maturities]
    slice_idx = {float(t): g.index_of(t, "t") for t in t_slices}
    if any(i >= g.n_t for i in slice_idx.values()):
        raise ValueError("slice times must leave room for one increment step")

    n, n_m = sc.n_paths, len(maturities)
    inc_spde = {t: np.empty((n, n_m)) for t in slice_idx}
    inc_ms = {t: np.empty((n, n_m)) for t in slice_idx}
    ms = _SingleDriverModel(ms_alpha, ms_sigma, sc.r0, g)
    for start, batch, normals in _solved_batches(sc, g.n_t):
        m = ms.values(normals)
        for t, i in slice_idx.items():
            inc_spde[t][start:start + len(batch)] = (batch[:, i + 1, j_idx]
                                                     - batch[:, i, j_idx])
            inc_ms[t][start:start + len(batch)] = m[:, i + 1, j_idx] - m[:, i, j_idx]

    def corr_or_none(rows: np.ndarray):
        if np.any(np.std(rows, axis=0) == 0.0):
            return None
        return np.corrcoef(rows, rowvar=False)

    corr_spde = {t: corr_or_none(inc_spde[t]) for t in slice_idx}
    corr_ms = {t: corr_or_none(inc_ms[t]) for t in slice_idx}
    theo = {}
    for t in slice_idx:
        M = np.empty((n_m, n_m))
        for p, x1 in enumerate(maturities):
            for q, x2 in enumerate(maturities):
                M[p, q] = sheet_increment_covariance(t, g.h, x1, x2)
        d = np.sqrt(np.diag(M))
        theo[t] = M / np.outer(d, d)
    degenerate = any(corr_spde[t] is None or corr_ms[t] is None for t in slice_idx)
    return CompareReport(tuple(slice_idx), tuple(maturities),
                         corr_spde, corr_ms, theo, degenerate)


def write_slices_csv(result: EnsembleResult, path) -> None:
    """Curve slices as CSV rows (t, x, mean, variance, q05, q95)."""
    g = result.grid
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("t,x,mean,variance,q05,q95\n")
        for t in result.t_slices:
            i = g.index_of(t, "t")
            for j, x in enumerate(g.x_values):
                f.write(f"{t:.17g},{x:.17g},{result.mean.values[i, j]:.17g},"
                        f"{result.variance.values[i, j]:.17g},"
                        f"{result.slice_q05[t][j]:.17g},{result.slice_q95[t][j]:.17g}\n")

