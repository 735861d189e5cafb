import numpy as np
import pytest

import sheetpde as sp
from sheetpde.bumps import bump_eval
from sheetpde.calculus import trapz_2d
from sheetpde.coefficients import polynomial
from sheetpde.grids import GridError
from sheetpde.operators import WeakFormPlan
from sheetpde.yield_curve import negate

TF = sp.TestFunction(0.5, 0.5, 0.3, 0.3)
FINE = sp.make_grid(1.0, 1.0, 0.01)


def cs(a, b, c):
    return sp.CoefficientSet(a=a, b=b, c=c)


def adjoint(coeffs, grid=FINE):
    """D* phi of TF on the lattice: the weak-form plan's -k_w."""
    return -WeakFormPlan.build(grid, coeffs, [TF]).k_w[0]


def residual(r, W, coeffs, slope=1):
    """The weak residual of (r, W) against TF."""
    return WeakFormPlan.build(r.grid, coeffs, [TF], slope).residuals(r, W)[0]


def lattice_point(i, j):
    return FINE.t_values[i], FINE.x_values[j]


class TestApplyAdjoint:
    def test_constant_a_reduces_to_dt(self):
        got = adjoint(cs(sp.const(1.0), sp.const(0.0), sp.const(0.0)))[55, 45]
        t, x = lattice_point(55, 45)
        assert got == pytest.approx(-bump_eval(TF, t, x, "dt"), rel=1e-12)

    def test_constant_coefficients(self):
        got = adjoint(cs(sp.const(2.0), sp.const(-1.5), sp.const(0.7)))[60, 40]
        t, x = lattice_point(60, 40)
        expected = (-2.0 * bump_eval(TF, t, x, "dt") + 1.5 * bump_eval(TF, t, x, "dx")
                    + 0.7 * bump_eval(TF, t, x, "value"))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_product_rule_a_equals_t(self):
        # a = t: D* phi = -phi - t phi_t
        got = adjoint(cs(sp.coord_t(), sp.const(0.0), sp.const(0.0)))[45, 55]
        t, x = lattice_point(45, 55)
        expected = -bump_eval(TF, t, x, "value") - t * bump_eval(TF, t, x, "dt")
        assert got == pytest.approx(expected, rel=1e-12)
        # cross-check by finite differences of the product t*phi
        e = 1e-6
        fd = ((t + e) * bump_eval(TF, t + e, x, "value")
              - (t - e) * bump_eval(TF, t - e, x, "value")) / (2 * e)
        assert got == pytest.approx(-fd, abs=1e-6)

    def test_brute_force_fd_expansion_random_polynomials(self):
        rng = np.random.default_rng(17)
        a = polynomial(rng.uniform(-1, 1, (2, 2)))
        b = polynomial(rng.uniform(-1, 1, (2, 2)))
        c = polynomial(rng.uniform(-1, 1, (2, 2)))
        got = adjoint(cs(a, b, c))
        e = 1e-6
        for i, j in rng.integers(25, 76, (100, 2)):
            t, x = lattice_point(i, j)
            fd_t = (a(t + e, x) * bump_eval(TF, t + e, x)
                    - a(t - e, x) * bump_eval(TF, t - e, x)) / (2 * e)
            fd_x = (b(t, x + e) * bump_eval(TF, t, x + e)
                    - b(t, x - e) * bump_eval(TF, t, x - e)) / (2 * e)
            brute = -fd_t - fd_x + c(t, x) * bump_eval(TF, t, x)
            assert got[i, j] == pytest.approx(float(brute), abs=1e-6)


def adjoint_identity_gap(coeffs, f, f_t, f_x, grid):
    """|<D f, phi> - <f, D* phi>| with D f = a f_t + b f_x + c f written out
    and D* phi = -k_w, both pairings by the trapezoid rule."""
    tt, xx = grid.t_values[:, None], grid.x_values[None, :]
    shape = (grid.n_t + 1, grid.n_x + 1)
    fv, ft, fx = (np.broadcast_to(fn(tt, xx), shape) for fn in (f, f_t, f_x))
    Df = (coeffs.eval("a", tt, xx) * ft + coeffs.eval("b", tt, xx) * fx
          + coeffs.eval("c", tt, xx) * fv)
    phi = bump_eval(TF, tt, xx, "value")
    return abs(trapz_2d(Df * phi, grid.h) - trapz_2d(fv * adjoint(coeffs, grid), grid.h))


class TestAdjointIdentity:
    def test_zero_function(self, unit_grid_h01):
        coeffs = cs(sp.const(1.0), sp.const(1.0), sp.const(1.0))
        zero = lambda t, x: 0.0 * t * x
        assert adjoint_identity_gap(coeffs, zero, zero, zero, unit_grid_h01) == 0.0

    def test_linear_f_small_residual(self):
        coeffs = cs(sp.const(1.0), sp.const(0.0), sp.const(0.0))
        gap = adjoint_identity_gap(coeffs, lambda t, x: t + 0 * x,
                                   lambda t, x: 1.0 + 0 * t * x,
                                   lambda t, x: 0.0 * t * x, FINE)
        assert gap < 1e-4

    def test_at_least_second_order_convergence(self):
        # pre-asymptotically the residual decays like h^2 (ratio ~4 per
        # halving); once the bump is resolved, compactly supported smooth
        # integrands make the trapezoid rule converge even faster, so the
        # log-log slope is bounded below by 2-ish but not above
        coeffs = cs(sp.coord_sum(), sp.const(1.0), sp.coord_x())

        def gap(h):
            return adjoint_identity_gap(coeffs, lambda t, x: np.sin(t) * np.cos(x),
                                        lambda t, x: np.cos(t) * np.cos(x),
                                        lambda t, x: -np.sin(t) * np.sin(x),
                                        sp.make_grid(1.0, 1.0, h))

        assert 3.0 <= gap(0.1) / gap(0.05) <= 5.0
        hs = [0.04, 0.02, 0.01]
        res = [gap(h) for h in hs]
        assert res[0] > res[1] > res[2]
        slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert slope >= 1.7


class TestWeakResidualTransport:
    def test_deterministic_transport_solution(self, coeffs_transport_t):
        g = FINE
        r = sp.ScalarField.from_function(g, lambda t, x: np.sin(t + x))
        W0 = sp.ScalarField(g, np.zeros((g.n_t + 1, g.n_x + 1)))
        assert residual(r, W0, coeffs_transport_t) < 1e-3

    def test_solution_residual_decreases_under_refinement(self, coeffs_transport_t):
        fine = sp.make_grid(1.0, 1.0, 0.01)
        r0 = sp.flat_curve(0.0)
        res = []
        for seed in range(6):
            sheet_f = sp.sample_sheet(fine, 404, path_index=seed)
            per_h = []
            for fac in (4, 2, 1):
                sheet = sp.restrict_sheet(sheet_f, fac) if fac > 1 else sheet_f
                W = sp.diagonal_noise(sheet)
                r = sp.solve_transport(coeffs_transport_t, r0, W)
                per_h.append(residual(r, W, coeffs_transport_t))
            res.append(per_h)
        med = np.median(res, axis=0)
        assert med[0] > med[1] > med[2]

    def test_corrupted_solution_fails(self, coeffs_transport_t):
        g = sp.make_grid(1.0, 1.0, 0.01)
        r0 = sp.flat_curve(0.0)
        plan = sp.TransportPlan.build(g, coeffs_transport_t, r0)
        ratio = []
        for seed in range(6):
            W = sp.diagonal_noise(sp.sample_sheet(g, 404, path_index=seed))
            good = residual(sp.solve_transport(coeffs_transport_t, r0, W), W,
                            coeffs_transport_t)
            bad = residual(plan.corrupted_solution(W), W, coeffs_transport_t)
            ratio.append(bad / good)
        assert np.median(ratio) >= 10.0

    def test_grid_mismatch(self, coeffs_transport_t, unit_grid_h025, unit_grid_h01):
        r = sp.ScalarField(unit_grid_h025, np.zeros((5, 5)))
        W = sp.ScalarField(unit_grid_h01, np.zeros((11, 11)))
        with pytest.raises(GridError):
            residual(r, W, coeffs_transport_t)

    def test_invariant_to_values_outside_support(self, coeffs_transport_t):
        g = sp.make_grid(1.0, 1.0, 0.05)
        W = sp.diagonal_noise(sp.sample_sheet(g, 9))
        r = sp.solve_transport(coeffs_transport_t, sp.flat_curve(0.0), W)
        base = residual(r, W, coeffs_transport_t)
        tt = g.t_values[:, None]
        xx = g.x_values[None, :]
        outside = (np.abs(tt - TF.t0) >= TF.rho_t) | (np.abs(xx - TF.x0) >= TF.rho_x)
        bumped = sp.ScalarField(g, r.values + 123.0 * outside)
        assert residual(bumped, W, coeffs_transport_t) == base


def weak_residual_formula(r, W, coeffs, tf, g, slope=1):
    """|II r (phi_t - slope phi_x) - II W (a phi_t + b phi_x + (a_t + b_x - c) phi)|,
    each term sampled on the mesh and summed by the trapezoid rule."""
    tt = g.t_values[:, None]
    xx = g.x_values[None, :]
    phi, phi_t, phi_x = (bump_eval(tf, tt, xx, order) for order in ("value", "dt", "dx"))
    w_t = np.ones(g.n_t + 1)
    w_t[0] = w_t[-1] = 0.5
    w_x = np.ones(g.n_x + 1)
    w_x[0] = w_x[-1] = 0.5
    lhs = float(g.h * g.h * (w_t @ (r.values * (phi_t - slope * phi_x)) @ w_x))
    weight = (coeffs.eval("a", tt, xx) * phi_t + coeffs.eval("b", tt, xx) * phi_x
              + (coeffs.partial("a", "t", tt, xx) + coeffs.partial("b", "x", tt, xx)
                 - coeffs.eval("c", tt, xx)) * phi)
    rhs = float(g.h * g.h * (w_t @ (W.values * weight) @ w_x))
    return abs(lhs - rhs)


class TestWeakFormPlan:
    @pytest.mark.parametrize("a", [sp.const(0.7), sp.coord_t(), sp.coord_x()],
                             ids=["const", "t", "x"])
    def test_residuals_equal_the_formula(self, a):
        g = sp.make_grid(1.0, 1.0, 0.05)
        coeffs = cs(a, negate(a), sp.const(0.3))
        battery = sp.standard_bump_battery(g)
        plan = WeakFormPlan.build(g, coeffs, battery)
        r0 = sp.nelson_siegel_curve(0.05, -0.02, 0.01, 1.5)
        for seed in range(3):
            W = sp.diagonal_noise(sp.sample_sheet(g, 31, path_index=seed))
            r = sp.solve_transport(coeffs, r0, W)
            expected = [weak_residual_formula(r, W, coeffs, tf, g) for tf in battery]
            assert plan.residuals(r, W) == expected

    def test_time_equation_residuals_match_the_formula(self):
        # slope 0: k_r = phi_t, and k_w is the transport equation's
        g = sp.make_grid(1.0, 1.0, 0.05)
        coeffs = cs(sp.coord_sum(), sp.const(0.0), sp.coord_x())
        battery = sp.standard_bump_battery(g)
        plan = WeakFormPlan.build(g, coeffs, battery, slope=0)
        transport = WeakFormPlan.build(g, coeffs, battery)
        assert np.array_equal(plan.k_w, transport.k_w)
        solver = sp.TransportPlan.build(g, coeffs, sp.flat_curve(0.0), slope=0)
        for seed in range(3):
            W = sp.diagonal_noise(sp.sample_sheet(g, 31, path_index=seed)).as_scalar_field()
            U = sp.ScalarField(g, solver.solve(W.values))
            expected = [weak_residual_formula(U, W, coeffs, tf, g, slope=0)
                        for tf in battery]
            assert np.allclose(plan.residuals(U, W), expected, rtol=0.0, atol=1e-15)

    def test_kernels_read_only_and_grid_checked(self, coeffs_transport_t, unit_grid_h01,
                                                unit_grid_h025):
        plan = WeakFormPlan.build(unit_grid_h01, coeffs_transport_t, [TF])
        assert plan.k_r.shape == plan.k_w.shape == (1, 11, 11)
        with pytest.raises(ValueError):
            plan.k_w[0, 5, 5] = 1.0
        r = sp.ScalarField(unit_grid_h025, np.zeros((5, 5)))
        with pytest.raises(GridError):
            plan.residuals(r, r)

    @pytest.mark.parametrize("slope", [-1, 2, 1.0, True])
    def test_only_slopes_0_and_1(self, coeffs_transport_t, unit_grid_h01, slope):
        with pytest.raises(ValueError, match="slope must be 0 or 1"):
            WeakFormPlan.build(unit_grid_h01, coeffs_transport_t, [TF], slope)


class TestWeakResidualTimeEquation:
    def test_both_zero(self, unit_grid_h025, coeffs_a1):
        z = sp.ScalarField(unit_grid_h025, np.zeros((5, 5)))
        assert residual(z, z, coeffs_a1, slope=0) == 0.0

    def test_time_constant_U_with_zero_noise(self):
        g = FINE
        coeffs = cs(sp.const(1.0), sp.const(0.0), sp.const(0.0))
        U = sp.ScalarField.from_function(g, lambda t, x: np.cos(3 * x) + 0 * t)
        W0 = sp.ScalarField(g, np.zeros((g.n_t + 1, g.n_x + 1)))
        # phi_t integrates to zero against t-constants: pure quadrature error
        assert residual(U, W0, coeffs, slope=0) < 1e-6

    def test_b_zero_solution_residual_decreases(self):
        coeffs = cs(sp.coord_t(), sp.const(0.0), sp.coord_x())
        plans = {fac: sp.TransportPlan.build(FINE.coarsen(fac), coeffs, sp.flat_curve(0.0),
                                             slope=0)
                 for fac in (4, 2, 1)}
        res = []
        for seed in range(6):
            sheet_f = sp.sample_sheet(FINE, 818, path_index=seed)
            per_h = []
            for fac in (4, 2, 1):
                sheet = sp.restrict_sheet(sheet_f, fac) if fac > 1 else sheet_f
                W = sp.diagonal_noise(sheet).as_scalar_field()
                U = sp.ScalarField(sheet.grid, plans[fac].solve(W.values))
                per_h.append(residual(U, W, coeffs, slope=0))
            res.append(per_h)
        med = np.median(res, axis=0)
        assert med[0] > med[1] > med[2]
