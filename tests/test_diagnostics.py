import math

import numpy as np
import pytest

import sheetpde as sp
from sheetpde import sheet as sheet_mod
from sheetpde.diagnostics import (LineField, PartitionScheme, _rect_measures,
                                  _slab_corners, equal_slab_partition,
                                  partition_product_plan, partition_sup_plan,
                                  rect_measure_samples)
from sheetpde.grids import GridSpec
from sheetpde.sheet import RectRegion
from sheetpde.yield_curve import negate


def cs(a, b, c=None):
    return sp.CoefficientSet(a=a, b=b, c=c if c is not None else sp.const(0.0))


def corner_indices(grid, cells):
    """Lattice corner indices (i_lo, i_hi, j_lo, j_hi) of each cell, as
    arrays: one lookup per corner."""
    corners = np.array([c.corner_indices(grid) for c in cells], dtype=np.intp)
    return tuple(corners.reshape(-1, 4).T)


class TestExistenceCheck:
    def test_criterion_holds(self, unit_grid_h01):
        rep = sp.existence_check(cs(sp.coord_t(), negate(sp.coord_t())), unit_grid_h01)
        assert rep.exists and rep.max_deviation == 0.0

    def test_criterion_fails(self, unit_grid_h01):
        rep = sp.existence_check(cs(sp.const(1.0), sp.const(1.0)), unit_grid_h01)
        assert not rep.exists
        assert rep.max_deviation == pytest.approx(2.0)
        assert rep.location in {(t, x) for t in unit_grid_h01.t_values
                                for x in unit_grid_h01.x_values}

    def test_tolerance_semantics(self, unit_grid_h01):
        rep = sp.existence_check(cs(sp.const(1.0), sp.const(-1.0 + 1e-9)),
                                 unit_grid_h01, tol=1e-6)
        assert rep.exists


    def test_solver_checks_the_sheet_lattice(self, unit_grid_h01):
        # a + b vanishes for x <= x_max = 1 only; the solvers read the
        # coefficients along characteristics up to t_max + x_max = 2
        b = sp.CoeffFn(lambda t, x: -np.minimum(x, 1.0) + 0.0 * t)
        coeffs = cs(sp.coord_x(), b)
        g = unit_grid_h01
        assert sp.existence_check(coeffs, g, tol=1e-12).exists
        rep = sp.existence_check(coeffs, g, tol=1e-12, x_values=g.sheet_x_values)
        assert not rep.exists
        assert rep.location == (0.0, 2.0) and rep.max_deviation == pytest.approx(1.0)
        with pytest.raises(sp.ExistenceCriterionError,
                           match=r"sup \|a \+ b\| = 1\.000e\+00 at \(t, x\) = \(0, 2\)"):
            sp.TransportPlan.build(g, coeffs, sp.flat_curve(0.0))


class TestBuildZ:
    def test_zero_when_criterion_holds(self, unit_grid_h01):
        sheet = sp.sample_sheet(unit_grid_h01, 2)
        Z = sp.build_Z(cs(sp.coord_t(), negate(sp.coord_t())), sheet, 1.0)
        assert np.all(Z.values == 0.0)

    def test_zero_at_time_zero(self, unit_grid_h01, coeffs_a1):
        sheet = sp.sample_sheet(unit_grid_h01, 2)
        assert np.all(sp.build_Z(coeffs_a1, sheet, 0.0).values == 0.0)
        assert np.all(sp.build_Z_characteristic(coeffs_a1, sheet, 0.0).values == 0.0)

    def test_variance_diagonal(self, coeffs_a1):
        # Var(Z(1, 0)) = II min(u,v) min(u,v) du dv = 1/6 for the diagonal field
        g = sp.make_grid(1.0, 1.0, 1.0 / 128)
        vals = np.array([sp.build_Z(coeffs_a1, sp.sample_sheet(g, 616, path_index=k),
                                    1.0).values[0] for k in range(600)])
        target = 1.0 / 6.0
        se = target * np.sqrt(2.0 / 600)
        assert abs(np.var(vals, ddof=1) - target) <= 3 * se

    def test_variance_characteristic(self, coeffs_a1):
        # Var(Z(1, xi=1)) = xi * II min(u,v) du dv = 1/3 at xi = 1
        g = sp.make_grid(1.0, 1.0, 1.0 / 128)
        vals = np.array([sp.build_Z_characteristic(
            coeffs_a1, sp.sample_sheet(g, 616, path_index=k), 1.0).values[0]
            for k in range(600)])
        target = 1.0 / 3.0
        se = target * np.sqrt(2.0 / 600)
        assert abs(np.var(vals, ddof=1) - target) <= 3 * se

    def test_mean_centred(self, coeffs_a1):
        g = sp.make_grid(1.0, 1.0, 1.0 / 128)
        vals = np.array([sp.build_Z(coeffs_a1, sp.sample_sheet(g, 616, path_index=k),
                                    1.0).values[64] for k in range(600)])
        assert abs(np.mean(vals)) <= 3 * np.std(vals, ddof=1) / np.sqrt(600)


class TestQvEstimate:
    def test_zero_field(self):
        Z = LineField(np.linspace(0, 1, 65), np.zeros(65))
        assert sp.qv_estimate(Z, 0.0, 1.0, 16) == 0.0

    def test_linear_field(self):
        x = np.linspace(0, 1, 129)
        Z = LineField(x, 3.0 * x)
        for n in (4, 16, 64):
            assert sp.qv_estimate(Z, 0.0, 1.0, n) == pytest.approx(9.0 / n, rel=1e-12)

    def test_non_divisible_raises(self):
        Z = LineField(np.linspace(0, 1, 65), np.zeros(65))
        with pytest.raises(ValueError, match="divide"):
            sp.qv_estimate(Z, 0.0, 1.0, 7)

    def test_smooth_field_qv_vanishes_with_known_constant(self):
        # |sin'| <= 2 pi: QV <= (2 pi)^2 / n on [0, 1]
        x = np.arange(129) / 128.0
        Z = LineField(x, np.sin(2 * np.pi * x))
        for n in (4, 16, 64):
            assert sp.qv_estimate(Z, 0.0, 1.0, n) <= (2 * np.pi) ** 2 / n


class TestQvTheoretical:
    def test_zero(self, unit_grid_h01):
        assert sp.qv_theoretical(cs(sp.coord_t(), negate(sp.coord_t())),
                                 1.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit(self, coeffs_a1):
        assert sp.qv_theoretical(coeffs_a1, 1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_linear_in_x(self):
        got = sp.qv_theoretical(cs(sp.coord_x(), sp.const(0.0)), 1.0, 0.0, 1.0)
        assert got == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_separable_product(self):
        # A = t * x: int_0^1 s^3 ds * int_0^1 z^2 dz = 1/4 * 1/3
        A = sp.polynomial([[0.0, 0.0], [0.0, 1.0]])
        got = sp.qv_theoretical(cs(A, sp.const(0.0)), 1.0, 0.0, 1.0)
        assert abs(got - 1.0 / 12.0) <= 1e-6


class TestQvDiagonalTheoretical:
    """int E (dZ/dx)^2 dx, closed forms on [0, 1] at t = 1."""

    def test_equals_qv_theoretical_when_A_ignores_x(self, coeffs_a1):
        for coeffs in (coeffs_a1, cs(sp.coord_t(), sp.const(0.0))):
            assert sp.qv_diagonal_theoretical(coeffs, 1.0, 0.0, 1.0) == \
                sp.qv_theoretical(coeffs, 1.0, 0.0, 1.0)

    def test_linear_in_x(self):
        # A = x: 1/3 (A_x A_x term) + 1/6 (cross term) + 1/6 (qv_theoretical)
        got = sp.qv_diagonal_theoretical(cs(sp.coord_x(), sp.const(0.0)), 1.0, 0.0, 1.0)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_separable_product(self):
        # A = t x: 1/12 + 1/15 (A_x A_x) + 1/15 (cross) + 1/12 (qv_theoretical)
        A = sp.polynomial([[0.0, 0.0], [0.0, 1.0]])
        got = sp.qv_diagonal_theoretical(cs(A, sp.const(0.0)), 1.0, 0.0, 1.0)
        assert got == pytest.approx(0.3, abs=1e-4)


class TestQvCharacteristicTheoretical:
    def test_unit(self, coeffs_a1):
        got = sp.qv_characteristic_theoretical(coeffs_a1, 1.0, 1.0, 2.0)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_scales_with_range(self, coeffs_a1):
        half = sp.qv_characteristic_theoretical(coeffs_a1, 1.0, 1.0, 1.5)
        assert half == pytest.approx(1.0 / 6.0, abs=1e-4)

    def test_range_guard(self, coeffs_a1):
        with pytest.raises(ValueError):
            sp.qv_characteristic_theoretical(coeffs_a1, 1.0, 0.5, 2.0)


class TestQvMonteCarlo:
    """The dichotomy, measured: the characteristic field keeps its quadratic
    variation under refinement, the time-integrated diagonal field loses it
    proportionally to the partition width."""

    def test_characteristic_qv_attains_limit(self, qv_ensemble):
        med = np.median([sp.qv_estimate(z, 1.0, 2.0, 256)
                         for z in qv_ensemble["z_char"]])
        assert abs(med - 1.0 / 3.0) / (1.0 / 3.0) <= 0.10

    def test_characteristic_qv_stable_in_n(self, qv_ensemble):
        med256 = np.median([sp.qv_estimate(z, 1.0, 2.0, 256)
                            for z in qv_ensemble["z_char"]])
        med512 = np.median([sp.qv_estimate(z, 1.0, 2.0, 512)
                            for z in qv_ensemble["z_char"]])
        assert abs(med256 - med512) / med256 <= 0.15

    def test_diagonal_qv_vanishes_linearly_in_width(self, qv_ensemble):
        med256 = np.median([sp.qv_estimate(z, 0.0, 1.0, 256)
                            for z in qv_ensemble["z_diag"]])
        med512 = np.median([sp.qv_estimate(z, 0.0, 1.0, 512)
                            for z in qv_ensemble["z_diag"]])
        assert med256 <= 0.01            # far below the 0.5 scale of the limit formula
        assert 0.3 <= med512 / med256 <= 0.75   # halves when the width halves

    def test_existence_case_is_exactly_zero(self):
        g = sp.make_grid(1.0, 1.0, 1.0 / 64)
        coeffs = cs(sp.coord_t(), negate(sp.coord_t()))
        sheet = sp.sample_sheet(g, 44)
        Z = sp.build_Z(coeffs, sheet, 1.0)
        assert sp.qv_estimate(Z, 0.0, 1.0, 16) == 0.0

    def test_slicewise_attains_paper_limit(self, qv_ensemble):
        vals = [sp.qv_slicewise(qv_ensemble["coeffs"], sp.sample_sheet(
            qv_ensemble["grid"], 515, path_index=k), 1.0, 0.0, 1.0, 256)
            for k in range(50)]
        med = np.median(vals)
        assert abs(med - 0.5) / 0.5 <= 0.10

    def test_qv_report_structure(self, coeffs_a1):
        g = sp.make_grid(1.0, 1.0, 1.0 / 64)
        rep = sp.qv_report(coeffs_a1, g, 1.0, 0.0, 1.0, 32, seed=9, n_seeds=5,
                           estimator="characteristic")
        assert rep.n_partitions == 32
        assert rep.estimator == "characteristic"
        assert rep.theoretical_qv == pytest.approx(1.0 / 3.0, abs=1e-3)
        d = rep.to_json_dict()
        assert set(d) >= {"empirical_qv", "theoretical_qv", "relative_error"}

    def test_qv_report_diagonal_target_is_its_own_law(self, coeffs_a1):
        # the diagonal sum has mean ((x_hi-x_lo)/n) * qv_theoretical and,
        # rescaled by n, variance 1/6 for A = 1: its seed mean is reported
        g = sp.make_grid(1.0, 1.0, 1.0 / 64)
        n, n_seeds = 32, 200
        rep = sp.qv_report(coeffs_a1, g, 1.0, 0.0, 1.0, n, seed=9, n_seeds=n_seeds)
        vals = [sp.qv_estimate(sp.build_Z(coeffs_a1, sp.sample_sheet(g, 9, path_index=k),
                                          1.0), 0.0, 1.0, n)
                for k in range(n_seeds)]
        assert rep.theoretical_qv == pytest.approx(0.5 / n, rel=1e-9)
        assert rep.empirical_qv == pytest.approx(np.mean(vals), rel=1e-12)
        assert rep.std_error == pytest.approx(np.std(vals, ddof=1) / np.sqrt(n_seeds))
        assert rep.to_json_dict()["std_error"] == rep.std_error
        assert abs(rep.empirical_qv - rep.theoretical_qv) <= \
            3 * np.sqrt(1.0 / (6 * n_seeds)) / n


    def test_qv_report_diagonal_target_with_x_dependent_A(self):
        # A = x: the dA/dx terms make n * mean = 2/3, four times qv_theoretical
        coeffs = cs(sp.coord_x(), sp.const(0.0))
        g = sp.make_grid(1.0, 1.0, 1.0 / 128)
        n = 64
        rep = sp.qv_report(coeffs, g, 1.0, 0.0, 1.0, n, seed=2003, n_seeds=400)
        assert rep.theoretical_qv * n == pytest.approx(2.0 / 3.0, abs=1e-4)
        assert abs(rep.empirical_qv - rep.theoretical_qv) <= 3 * rep.std_error
        # the x-blind target (1/6) / n is many standard errors away
        old_target = sp.qv_theoretical(coeffs, 1.0, 0.0, 1.0) / n
        assert abs(rep.empirical_qv - old_target) > 5 * rep.std_error


class TestHolder:
    def test_linear_exponent_one(self):
        x = np.arange(513) / 512.0
        rep = sp.holder_estimate(LineField(x, 2.5 * x), 0.0, 1.0, [64, 128, 256, 512])
        assert rep.estimated_exponent == pytest.approx(1.0, abs=1e-9)
        assert not rep.degenerate

    def test_constant_degenerate(self):
        x = np.arange(513) / 512.0
        rep = sp.holder_estimate(LineField(x, np.ones(513)), 0.0, 1.0, [64, 128, 256])
        assert rep.degenerate and math.isinf(rep.estimated_exponent)

    def test_needs_three_levels(self):
        x = np.arange(513) / 512.0
        with pytest.raises(ValueError):
            sp.holder_estimate(LineField(x, x), 0.0, 1.0, [64, 128])

    def test_level_must_divide(self):
        x = np.arange(513) / 512.0
        with pytest.raises(ValueError):
            sp.holder_estimate(LineField(x, x), 0.0, 1.0, [64, 128, 300])

    def test_characteristic_field_is_brownian_like(self, qv_ensemble):
        # independent increments of size sqrt(width): exponent near 1/2
        meds = np.median([sp.holder_estimate(z, 1.0, 2.0, [64, 128, 256, 512])
                          .estimated_exponent for z in qv_ensemble["z_char"]])
        assert 0.30 <= meds <= 0.60

    def test_diagonal_field_is_lipschitz_like(self, qv_ensemble):
        meds = np.median([sp.holder_estimate(z, 0.0, 1.0, [64, 128, 256, 512])
                          .estimated_exponent for z in qv_ensemble["z_diag"]])
        assert 0.85 <= meds <= 1.15


class TestSeparability:
    def test_additively_separable_is_exact_zero(self, unit_grid_h01):
        g = unit_grid_h01
        f = sp.ScalarField.from_function(g, lambda t, x: np.sin(3 * t) + x * x)
        assert sp.separability_residual(f) <= 1e-12

    def test_product_field(self, unit_grid_h025):
        f = sp.ScalarField.from_function(unit_grid_h025, lambda t, x: t * x)
        assert sp.separability_residual(f) == pytest.approx(1.0)

    def test_bracket_field_of_solution_is_separable(self, unit_grid_h01):
        coeffs = cs(sp.coord_t(), sp.const(0.0), sp.coord_x())
        W = sp.diagonal_noise(sp.sample_sheet(unit_grid_h01, 21)).as_scalar_field()
        U = sp.solve_b_zero(coeffs, lambda x: 0.0 * x, W)
        g_field = sp.weak_bracket_field(coeffs, sp.ScalarField(unit_grid_h01,
                                                                   U.values), W)
        assert sp.separability_residual(g_field) <= 1e-10

    def test_bracket_field_of_non_solution_is_not(self, unit_grid_h01):
        coeffs = cs(sp.coord_t(), sp.const(0.0), sp.coord_x())
        W = sp.diagonal_noise(sp.sample_sheet(unit_grid_h01, 21)).as_scalar_field()
        U = sp.ScalarField(unit_grid_h01, W.values ** 2)
        g_field = sp.weak_bracket_field(coeffs, U, W)
        assert sp.separability_residual(g_field) > 1e-4


class TestPartitions:
    def test_equal_slabs(self, unit_grid_h025):
        base = RectRegion(0.0, 1.0, 0.0, 1.0)
        scheme = equal_slab_partition(base, 4, unit_grid_h025)
        assert scheme.n == 4
        assert scheme.sup_cell_area == pytest.approx(0.25)
        assert scheme.cells[0].x_lo == 0.0 and scheme.cells[-1].x_hi == 1.0

    def test_non_divisible(self, unit_grid_h025):
        base = RectRegion(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(Exception):
            equal_slab_partition(base, 3, unit_grid_h025)

    def test_scheme_validates_cover(self):
        base = RectRegion(0.0, 1.0, 0.0, 1.0)
        cells = (RectRegion(0.0, 1.0, 0.0, 0.25),) * 2
        with pytest.raises(ValueError):
            PartitionScheme(base, 2, cells)

    @pytest.mark.parametrize("base, n", [
        (RectRegion(0.0, 1.0, 0.0, 1.0), 1), (RectRegion(0.0, 1.0, 0.0, 1.0), 16),
        (RectRegion(0.0, 1.0, 1.0, 2.0), 8), (RectRegion(0.25, 0.75, 0.5, 1.5), 4),
        (RectRegion(0.0, 1.0, 0.5, 0.5), 4)])
    def test_slab_corners_equal_per_cell_lookups(self, base, n):
        g = sp.make_grid(2.0, 1.0, 1 / 16)
        got = _slab_corners(g, base, n)
        want = corner_indices(g, equal_slab_partition(base, n, g).cells)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_plan_lookups_do_not_grow_with_partition_size(self, monkeypatch):
        g = sp.make_grid(1.0, 1.0, 1 / 256)
        lookups = []
        index_of = GridSpec.index_of

        def counting(self, coord, axis="t"):
            lookups.append(axis)
            return index_of(self, coord, axis)

        monkeypatch.setattr(GridSpec, "index_of", counting)
        unit, shifted = RectRegion(0.0, 1.0, 0.0, 1.0), RectRegion(0.0, 1.0, 1.0, 2.0)
        one = sp.const(1.0)
        per_n = []
        for n in (4, 256):
            lookups.clear()
            partition_product_plan(g, one, one, unit, unit, [n], "diagonal", 2)
            partition_product_plan(g, one, one, unit, shifted, [n], "disjoint", 2)
            partition_sup_plan(g, unit, [n])
            per_n.append(len(lookups))
        assert per_n[0] == per_n[1]


LEMMA_SEED = 1212


@pytest.fixture(scope="module")
def lemma_grid():
    return sp.make_grid(1.0, 1.0, 1.0 / 128)


def run_plan(grid, plan, seed=LEMMA_SEED):
    """The rows of one plan run alone."""
    return sp.run_partition_plans(grid, seed, [plan])[0]


class TestPartitionProduct:
    def test_diagonal_mode_converges_to_area(self, lemma_grid):
        g = lemma_grid
        unit = RectRegion(0.0, 1.0, 0.0, 1.0)
        one = sp.const(1.0)
        rows = run_plan(g, partition_product_plan(g, one, one, unit, unit, [8, 32, 128],
                                                  "diagonal", n_seeds=400))
        last = rows[-1]
        assert last.limit == pytest.approx(1.0, abs=1e-9)
        assert abs(last.mean_sum - 1.0) <= 3 * last.std_error
        assert rows[0].l2_distance > rows[1].l2_distance > rows[2].l2_distance

    def test_disjoint_mode_converges_to_zero(self, lemma_grid):
        g = lemma_grid
        F = RectRegion(0.0, 1.0, 0.0, 1.0)
        G = RectRegion(0.0, 1.0, 1.0, 2.0)
        rows = run_plan(g, partition_product_plan(g, sp.const(1.0), sp.const(1.0), F, G,
                                                  [8, 32, 128], "disjoint", n_seeds=400))
        assert all(r.limit == 0.0 for r in rows)
        assert rows[0].l2_distance > rows[1].l2_distance > rows[2].l2_distance

    def test_samples_are_the_per_sheet_sums(self):
        # the per-seed sum is the 1-D numpy sum over k of R_k S_k X(F_k) X(G_k)
        g = sp.make_grid(1.0, 1.0, 1 / 32)
        F, G = RectRegion(0.0, 1.0, 0.0, 1.0), RectRegion(0.0, 1.0, 1.0, 2.0)

        def R(t, x):
            return 1.0 + x

        def S(t, x):
            return 2.0 - t + 0.0 * x

        def mids(cells):
            return (np.array([(c.t_lo + c.t_hi) / 2 for c in cells]),
                    np.array([(c.x_lo + c.x_hi) / 2 for c in cells]))

        rows = run_plan(g, partition_product_plan(g, R, S, F, G, [4, 32], "disjoint",
                                                  n_seeds=4), seed=5)
        for row in rows:
            pf = equal_slab_partition(F, row.n, g).cells
            pg = equal_slab_partition(G, row.n, g).cells
            rk_sk = R(*mids(pf)) * S(*mids(pg))
            for k in range(4):
                sheet = sp.sample_sheet(g, 5, path_index=k)
                mf = np.array([sp.rect_measure(sheet, c) for c in pf])
                mg = np.array([sp.rect_measure(sheet, c) for c in pg])
                assert row.samples[k] == float(np.sum(rk_sk * mf * mg))

    def test_zero_weight_gives_zero_sum(self, lemma_grid):
        g = lemma_grid
        unit = RectRegion(0.0, 1.0, 0.0, 1.0)
        rows = run_plan(g, partition_product_plan(g, sp.const(0.0), sp.const(1.0), unit,
                                                  unit, [8], "diagonal", n_seeds=10))
        assert rows[0].mean_sum == 0.0 and rows[0].l2_distance == 0.0

    def test_geometry_validation(self, lemma_grid):
        g = lemma_grid
        F = RectRegion(0.0, 1.0, 0.0, 1.0)
        G_shift = RectRegion(0.0, 1.0, 0.5, 1.5)
        with pytest.raises(ValueError):
            partition_product_plan(g, sp.const(1.0), sp.const(1.0), F, G_shift,
                                   [8], "diagonal", n_seeds=5)
        with pytest.raises(ValueError):
            partition_product_plan(g, sp.const(1.0), sp.const(1.0), F, G_shift,
                                   [8], "disjoint", n_seeds=5)


class TestPartitionSup:
    def test_single_cell_is_rect_measure(self, lemma_grid):
        g = lemma_grid
        base = RectRegion(0.0, 1.0, 0.0, 1.0)
        rows = run_plan(g, partition_sup_plan(g, base, [1], n_seeds=3))
        # n = 1: per seed the sup is |measure of the whole base rectangle|
        sups = sorted(abs(sp.rect_measure(sp.sample_sheet(g, LEMMA_SEED, path_index=k),
                                          base)) for k in range(3))
        assert rows[0].median_sup == pytest.approx(sups[1], rel=1e-12)
        assert rows[0].hypothesis_value == pytest.approx(1.0)

    def test_medians_decrease(self, lemma_grid):
        g = lemma_grid
        base = RectRegion(0.0, 1.0, 0.0, 1.0)
        rows = run_plan(g, partition_sup_plan(g, base, [4, 16, 64], n_seeds=20))
        sups = [r.median_sup for r in rows]
        assert sups[0] > sups[1] > sups[2]
        hyp = [r.hypothesis_value for r in rows]
        assert hyp[0] > hyp[1] > hyp[2]

    def test_degenerate_zero_area(self, lemma_grid):
        g = lemma_grid
        base = RectRegion(0.0, 1.0, 0.5, 0.5)
        rows = run_plan(g, partition_sup_plan(g, base, [4], n_seeds=3))
        assert rows[0].median_sup == 0.0


class TestRectMeasureSamples:
    """The lemma loop: one draw per path, sheet rows only at the corners."""

    @staticmethod
    def corner_sets(g):
        unit = RectRegion(0.0, 1.0, 0.0, 1.0)
        inner = RectRegion(0.25, 0.75, 0.5, 1.5)
        return [corner_indices(g, equal_slab_partition(unit, 4, g).cells),
                corner_indices(g, equal_slab_partition(inner, 16, g).cells),
                corner_indices(g, [RectRegion(0.5, 0.5, 0.0, 3.0),
                                   RectRegion(0.0, 1.5, 0.0, 3.0)])]

    def test_matches_full_sheets_bit_for_bit(self):
        # t_max = 2: no corner lies on the last sheet row, so fewer rows are drawn
        g = sp.make_grid(2.0, 1.0, 1 / 16)
        sets = self.corner_sets(g)
        got = rect_measure_samples(g, 31, sets, 5)
        assert [m.shape for m in got] == [(5, 4), (5, 16), (5, 2)]
        for k in range(5):
            B = sp.sample_sheet(g, 31, path_index=k).values
            for m, corners in zip(got, sets):
                assert m[k].tobytes() == _rect_measures(B, corners).tobytes()

    def test_each_path_is_drawn_once(self, monkeypatch):
        g = sp.make_grid(2.0, 1.0, 1 / 16)
        paths = []
        draw = sheet_mod.SheetSource.normals

        def counting(source, k, out):
            paths.append(k)
            return draw(source, k, out)

        monkeypatch.setattr(sheet_mod.SheetSource, "normals", counting)
        rect_measure_samples(g, 31, self.corner_sets(g), 6)
        assert paths == list(range(6))
