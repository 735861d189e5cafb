import numpy as np
import pytest

import sheetpde as sp
import sheetpde.sheet as sheet_mod
import sheetpde.yield_curve as yield_mod
from sheetpde.rng import stream_for_path
from sheetpde.solver import ExistenceCriterionError
from sheetpde.yield_curve import (compare_models, drift_decomposition_residual,
                                  ms_simulate, sheet_increment_covariance,
                                  simulate_yield, transport_baseline,
                                  write_slices_csv)


def scenario(grid, vol, carry, n_paths, seed, r0=None):
    return sp.YieldScenario(grid, r0 or sp.flat_curve(0.05), vol, carry, n_paths, seed)


class TestSimulateYield:
    def test_zero_vol_reproduces_transport_exactly(self, unit_grid_h01):
        sc = scenario(unit_grid_h01, sp.const(0.0), sp.const(0.0), 3, 11,
                      r0=sp.polynomial_curve([0.04, 0.01, -0.001]))
        res = simulate_yield(sc, t_slices=[0.5], keep_paths=True)
        base = transport_baseline(sc)
        for path in res.paths:
            assert np.array_equal(path.values, base.values)
        assert np.allclose(res.mean.values, base.values, rtol=1e-15)
        # streaming sum-of-squares accumulation leaves only rounding dust
        assert np.all(res.variance.values <= 1e-16)

    def test_variance_law(self):
        g = sp.make_grid(1.0, 1.0, 0.25)
        sigma = 0.2
        sc = scenario(g, sp.const(sigma), sp.const(0.0), 3000, 22)
        res = simulate_yield(sc)
        target = sigma * sigma * 1.0 * 2.0   # sigma^2 t (t+x) at (1, 1)
        se = target * np.sqrt(2.0 / 3000)
        assert abs(res.variance.value_at(1.0, 1.0) - target) <= 3 * se

    def test_mean_is_centred_on_transport(self):
        g = sp.make_grid(1.0, 1.0, 0.25)
        sigma = 0.2
        sc = scenario(g, sp.const(sigma), sp.const(0.0), 3000, 23)
        res = simulate_yield(sc)
        base = transport_baseline(sc)
        for (t, x) in [(0.5, 0.5), (1.0, 1.0)]:
            sd = sigma * np.sqrt(t * (t + x))
            gap = abs(res.mean.value_at(t, x) - base.value_at(t, x))
            assert gap <= 3 * sd / np.sqrt(3000)

    def test_determinism_and_worker_invariance(self, unit_grid_h01):
        sc = scenario(unit_grid_h01, sp.const(0.1), sp.const(0.0), 48, 77)
        a = simulate_yield(sc, t_slices=[1.0])
        b = simulate_yield(sc, t_slices=[1.0])
        assert np.array_equal(a.mean.values, b.mean.values)
        assert np.array_equal(a.variance.values, b.variance.values)
        assert np.array_equal(a.slice_q05[1.0], b.slice_q05[1.0])

    def test_path_count_guard(self, unit_grid_h01):
        with pytest.raises(ValueError):
            scenario(unit_grid_h01, sp.const(0.1), sp.const(0.0), 0, 1)

    def test_slices_csv(self, tmp_path, unit_grid_h01):
        sc = scenario(unit_grid_h01, sp.const(0.1), sp.const(0.0), 32, 5)
        res = simulate_yield(sc, t_slices=[0.5, 1.0])
        p = tmp_path / "slices.csv"
        write_slices_csv(res, p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "t,x,mean,variance,q05,q95"
        assert len(lines) == 1 + 2 * (unit_grid_h01.n_x + 1)


def reference_ensemble(sc, t_slices):
    """Per-path loop: sample_sheet + solve_transport + path-order sums."""
    g, n = sc.grid, sc.n_paths
    coeffs = sc.coefficient_set()
    total = np.zeros((g.n_t + 1, g.n_x + 1))
    total_sq = np.zeros_like(total)
    rows = {t: np.empty((n, g.n_x + 1)) for t in t_slices}
    paths = []
    for k in range(n):
        W = sp.diagonal_noise(sp.sample_sheet(g, sc.seed, path_index=k))
        v = sp.solve_transport(coeffs, sc.r0, W).values
        np.add(total, v, out=total)
        np.add(total_sq, v * v, out=total_sq)
        for t in t_slices:
            rows[t][k] = v[g.index_of(t, "t")]
        paths.append(v)
    mean = total / n
    var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
    return (mean, var, {t: np.quantile(r, 0.05, axis=0) for t, r in rows.items()},
            {t: np.quantile(r, 0.95, axis=0) for t, r in rows.items()}, paths)


VOLS = {"const": lambda: sp.const(0.1), "t": sp.coord_t,
        "x": lambda: sp.polynomial([[0.1, 0.05], [0.02, 0.0]])}


class TestBatchedEnsembleIsBitIdentical:
    """simulate_yield samples and solves in batches through one TransportPlan;
    every statistic equals the per-path reference bit for bit, for any batch
    size."""

    N_PATHS = 23   # not a multiple of 7: the last batch is short
    SLICES = (0.0, 0.5, 1.0)

    @pytest.fixture(scope="class")
    def references(self):
        g = sp.make_grid(1.0, 1.0, 0.125)
        r0 = sp.nelson_siegel_curve(0.05, -0.02, 0.01, 1.5)
        out = {}
        for name, vol in VOLS.items():
            sc = scenario(g, vol(), sp.const(0.3), self.N_PATHS, 41, r0=r0)
            out[name] = (sc, reference_ensemble(sc, self.SLICES))
        return out

    @pytest.mark.parametrize("vol", sorted(VOLS))
    @pytest.mark.parametrize("batch", [1, 7, N_PATHS])
    def test_matches_reference(self, references, monkeypatch, vol, batch):
        sc, (mean, var, q05, q95, paths) = references[vol]
        g = sc.grid
        monkeypatch.setattr(yield_mod, "BATCH_BYTES",
                            batch * 8 * (g.n_t + 1) * (g.n_sheet_x + 1))
        assert yield_mod._paths_per_batch(g, sc.n_paths) == batch
        res = simulate_yield(sc, t_slices=self.SLICES, keep_paths=True)
        assert np.array_equal(res.mean.values, mean)
        assert np.array_equal(res.variance.values, var)
        for t in self.SLICES:
            assert np.array_equal(res.slice_q05[t], q05[t])
            assert np.array_equal(res.slice_q95[t], q95[t])
        for k, path in enumerate(res.paths):
            assert np.array_equal(path.values, paths[k])
            assert path.provenance.details == f"path={k}"


class TestPathInvariantWorkRunsOnce:
    def test_coefficient_evaluations_independent_of_path_count(self):
        calls = []

        def counted(fn):
            def wrapped(t, x):
                calls.append(1)
                return fn(t, x)
            return wrapped

        def counting(c):
            return sp.CoeffFn(counted(c.fn), d_dt=counted(c.d_dt),
                              d_dx=counted(c.d_dx), name=c.name)

        g = sp.make_grid(1.0, 1.0, 0.25)
        per_call = []
        for n_paths in (10, 1000):
            calls.clear()
            simulate_yield(scenario(g, counting(sp.coord_t()), counting(sp.const(0.2)),
                                    n_paths, 3), t_slices=[0.5])
            per_call.append(len(calls))
        assert per_call[0] > 0
        assert per_call[0] == per_call[1]

    def test_criterion_fails_before_any_stream(self, unit_grid_h01, monkeypatch):
        class Broken(sp.YieldScenario):
            def coefficient_set(self):
                return sp.CoefficientSet(a=self.vol, b=sp.const(0.5), c=self.carry)

        def no_stream(*args, **kwargs):
            raise AssertionError("a path was keyed or drawn")

        monkeypatch.setattr(sheet_mod, "philox_keys", no_stream)
        monkeypatch.setattr(sheet_mod.SheetSource, "normals", no_stream)
        sc = Broken(unit_grid_h01, sp.flat_curve(0.05), sp.const(1.0), sp.const(0.0), 50, 1)
        with pytest.raises(ExistenceCriterionError, match="if and only if"):
            simulate_yield(sc)
        with pytest.raises(ExistenceCriterionError):
            compare_models(sc, sp.const(0.0), sp.const(1.0), [0.5])


class TestDriftDecomposition:
    def test_no_noise_is_pure_taylor(self, unit_grid_h01):
        g = unit_grid_h01
        r0 = sp.polynomial_curve([0.05, 0.02, -0.004])
        sc = scenario(g, sp.const(0.0), sp.const(0.0), 1, 31, r0=r0)
        W = sp.diagonal_noise(sp.sample_sheet(g, 31))
        path = sp.solve_transport(sc.coefficient_set(), r0, W)
        got = drift_decomposition_residual(path, W, sc, 0.5)
        tv = g.t_values
        expected = np.max(np.abs(r0.eval(tv[1:] + 0.5) - r0.eval(tv[:-1] + 0.5)
                                 - r0.eval_derivative(tv[:-1] + 0.5) * g.h))
        assert got == pytest.approx(expected, rel=1e-9)
        assert got <= 0.01 * g.h  # O(h^2) Taylor remainder for this curve

    def test_constant_vol_stochastic_parts_cancel(self, unit_grid_h01):
        g = unit_grid_h01
        r0 = sp.polynomial_curve([0.05, 0.01, 0.002])
        sc = scenario(g, sp.const(0.1), sp.const(0.0), 1, 99, r0=r0)
        W = sp.diagonal_noise(sp.sample_sheet(g, 99))
        path = sp.solve_transport(sc.coefficient_set(), r0, W)
        got = drift_decomposition_residual(path, W, sc, 0.5)
        tv = g.t_values
        expected = np.max(np.abs(r0.eval(tv[1:] + 0.5) - r0.eval(tv[:-1] + 0.5)
                                 - r0.eval_derivative(tv[:-1] + 0.5) * g.h))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_linear_vol_residual_decreases_under_refinement(self):
        fine = sp.make_grid(1.0, 1.0, 0.01)
        r0 = sp.polynomial_curve([0.05, 0.01])
        res_by_h = {0.04: [], 0.01: []}
        for k in range(20):
            sheet_f = sp.sample_sheet(fine, 717, path_index=k)
            for fac, h in ((4, 0.04), (1, 0.01)):
                sheet = sp.restrict_sheet(sheet_f, fac) if fac > 1 else sheet_f
                g = sheet.grid
                sc = scenario(g, sp.coord_t(), sp.const(0.0), 1, 717, r0=r0)
                W = sp.diagonal_noise(sheet)
                path = sp.solve_transport(sc.coefficient_set(), r0, W)
                res_by_h[h].append(drift_decomposition_residual(path, W, sc, 0.48))
        m_coarse = np.median(res_by_h[0.04])
        m_fine = np.median(res_by_h[0.01])
        assert m_coarse > m_fine
        assert m_coarse / m_fine >= 1.2


def reference_ms(alpha, sigma, r0, g, seed, k):
    """Euler-Maruyama on path k's own reference stream: r0 plus the running
    sum of alpha h + sigma dW, one path at a time."""
    dW = stream_for_path(seed, k).standard_normal(g.n_t) * np.sqrt(g.h)
    tt, xx = g.t_values[:-1][:, None], g.x_values[None, :]
    steps = alpha(tt, xx) * g.h + sigma(tt, xx) * dW[:, None]
    r0_row = r0.eval(g.x_values)
    return np.vstack([r0_row, np.cumsum(steps, axis=0) + r0_row])


class TestMsSimulate:
    def test_matches_the_reference_stream(self, unit_grid_h01):
        r0 = sp.nelson_siegel_curve(0.05, -0.02, 0.01, 1.5)
        for k in (0, 3):
            r = ms_simulate(sp.coord_t(), sp.coord_sum(), r0, unit_grid_h01, 2**33, k)
            ref = reference_ms(sp.coord_t(), sp.coord_sum(), r0, unit_grid_h01, 2**33, k)
            assert np.array_equal(r.values, ref)

    def test_static_curve(self, unit_grid_h01):
        r0 = sp.polynomial_curve([0.05, 0.01])
        r = ms_simulate(sp.const(0.0), sp.const(0.0), r0, unit_grid_h01, 3)
        for i in range(unit_grid_h01.n_t + 1):
            assert np.array_equal(r.values[i], r.values[0])
        assert np.allclose(r.values[0], r0.eval(unit_grid_h01.x_values))

    def test_pure_drift(self, unit_grid_h01):
        r0 = sp.flat_curve(0.05)
        r = ms_simulate(sp.const(1.0), sp.const(0.0), r0, unit_grid_h01, 3)
        expected = 0.05 + unit_grid_h01.t_values[:, None]
        assert np.allclose(r.values, expected, atol=1e-12)

    def test_wiener_variance(self):
        g = sp.make_grid(1.0, 1.0, 0.25)
        r0 = sp.flat_curve(0.0)
        vals = np.array([ms_simulate(sp.const(0.0), sp.const(1.0), r0, g, 50,
                                     path_index=k).value_at(1.0, 0.5)
                         for k in range(3000)])
        se = np.sqrt(2.0 / 3000)
        assert abs(np.var(vals, ddof=1) - 1.0) <= 3 * se

    def test_single_driver_shared_across_maturities(self, unit_grid_h01):
        r = ms_simulate(sp.const(0.0), sp.const(1.0), sp.flat_curve(0.0),
                        unit_grid_h01, 8)
        assert np.array_equal(r.values[:, 0], r.values[:, -1])


class TestCompareModels:
    def test_ms_correlation_is_one_spde_below_one(self):
        g = sp.make_grid(1.0, 1.0, 0.1)
        sc = scenario(g, sp.const(1.0), sp.const(0.0), 1500, 555)
        rep = compare_models(sc, sp.const(0.0), sp.const(1.0), [0.5])
        assert not rep.degenerate
        cm = np.asarray(rep.corr_ms[0.5])
        cs_ = np.asarray(rep.corr_spde[0.5])
        off = ~np.eye(len(rep.maturities), dtype=bool)
        assert np.min(cm) >= 1.0 - 1e-12
        assert np.max(cs_[off]) < 1.0

    def test_spde_correlation_matches_overlap_oracle(self):
        g = sp.make_grid(1.0, 1.0, 0.1)
        sc = scenario(g, sp.const(1.0), sp.const(0.0), 1500, 555)
        rep = compare_models(sc, sp.const(0.0), sp.const(1.0), [0.5])
        cs_ = np.asarray(rep.corr_spde[0.5])
        theo = np.asarray(rep.corr_noise_theoretical[0.5])
        assert np.max(np.abs(cs_ - theo)) <= 0.06

    def test_spde_side_matches_per_path_loop(self):
        g = sp.make_grid(1.0, 1.0, 0.1)
        sc = scenario(g, sp.coord_sum(), sp.const(0.2), 300, 17)
        rep = compare_models(sc, sp.const(0.0), sp.const(1.0), [0.3, 0.5])
        js = [g.index_of(m, "x") for m in rep.maturities]
        coeffs = sc.coefficient_set()
        inc = {0.3: [], 0.5: []}
        for k in range(sc.n_paths):
            W = sp.diagonal_noise(sp.sample_sheet(g, sc.seed, path_index=k))
            r = sp.solve_transport(coeffs, sc.r0, W).values
            for t in inc:
                i = g.index_of(t, "t")
                inc[t].append(r[i + 1, js] - r[i, js])
        for t, rows in inc.items():
            assert np.array_equal(rep.corr_spde[t], np.corrcoef(np.array(rows), rowvar=False))

    def test_ms_side_reads_the_sheet_streams(self):
        # the single-driver model of path k reads the first n_t normals of
        # path k's stream: one stream per path serves both models
        g = sp.make_grid(1.0, 1.0, 0.1)
        sc = scenario(g, sp.coord_t(), sp.const(0.2), 300, 17)
        alpha, sigma = sp.const(0.01), sp.coord_sum()
        rep = compare_models(sc, alpha, sigma, [0.3, 0.5])
        js = [g.index_of(m, "x") for m in rep.maturities]
        inc = {0.3: [], 0.5: []}
        for k in range(sc.n_paths):
            m = reference_ms(alpha, sigma, sc.r0, g, sc.seed, k)
            for t in inc:
                i = g.index_of(t, "t")
                inc[t].append(m[i + 1, js] - m[i, js])
        for t, rows in inc.items():
            assert np.array_equal(rep.corr_ms[t], np.corrcoef(np.array(rows), rowvar=False))

    def test_degenerate_flagged(self):
        g = sp.make_grid(1.0, 1.0, 0.25)
        sc = scenario(g, sp.const(0.0), sp.const(0.0), 50, 1)
        rep = compare_models(sc, sp.const(0.0), sp.const(0.0), [0.5])
        assert rep.degenerate
        assert rep.corr_spde[0.5] is None and rep.corr_ms[0.5] is None

    def test_report_serializes(self):
        g = sp.make_grid(1.0, 1.0, 0.25)
        sc = scenario(g, sp.const(1.0), sp.const(0.0), 60, 2)
        rep = compare_models(sc, sp.const(0.0), sp.const(1.0), [0.5])
        d = rep.to_json_dict()
        assert set(d) >= {"t_slices", "maturities", "corr_spde", "corr_ms"}


def test_sheet_increment_covariance_consistency():
    # the variance case equals Var(B^x(t+h)) - Var(B^x(t))
    t, h, x = 0.5, 0.1, 0.7
    var = sheet_increment_covariance(t, h, x, x)
    assert var == pytest.approx((t + h) * (t + h + x) - t * (t + x), rel=1e-12)
    # symmetric in the two maturities
    assert sheet_increment_covariance(t, h, 0.2, 0.9) == \
        sheet_increment_covariance(t, h, 0.9, 0.2)
