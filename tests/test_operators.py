import numpy as np
import pytest

import sheetpde as sp
from sheetpde.bumps import bump_eval
from sheetpde.calculus import SmoothFunction
from sheetpde.coefficients import polynomial
from sheetpde.grids import GridError
from sheetpde.operators import (OperatorD, WeakFormPlan, adjoint_identity_residual,
                                apply_D, apply_adjoint, weak_residual_time_equation,
                                weak_residual_transport)
from sheetpde.yield_curve import negate

F_LINEAR_T = SmoothFunction(lambda t, x: t + 0 * x,
                            lambda t, x: 1.0 + 0 * t * x,
                            lambda t, x: 0.0 * t * x)

TF = sp.TestFunction(0.5, 0.5, 0.3, 0.3)


def cs(a, b, c):
    return sp.CoefficientSet(a=a, b=b, c=c)


class TestApplyD:
    def test_time_derivative(self):
        op = OperatorD(cs(sp.const(1.0), sp.const(0.0), sp.const(0.0)))
        assert apply_D(op, F_LINEAR_T, 0.3, 0.4) == pytest.approx(1.0)

    def test_multiplication_operator(self):
        op = OperatorD(cs(sp.const(0.0), sp.const(0.0), sp.const(1.0)))
        f = SmoothFunction(lambda t, x: np.sin(t) + x,
                           lambda t, x: np.cos(t) + 0 * x,
                           lambda t, x: 1.0 + 0 * t)
        assert apply_D(op, f, 0.3, 0.4) == pytest.approx(np.sin(0.3) + 0.4)

    def test_transport_null_direction(self):
        op = OperatorD(cs(sp.const(1.0), sp.const(1.0), sp.const(0.0)))
        f = SmoothFunction(lambda t, x: t - x,
                           lambda t, x: 1.0 + 0 * t * x,
                           lambda t, x: -1.0 + 0 * t * x)
        assert apply_D(op, f, 0.7, 0.2) == pytest.approx(0.0, abs=1e-14)


class TestApplyAdjoint:
    def test_constant_a_reduces_to_dt(self):
        op = OperatorD(cs(sp.const(1.0), sp.const(0.0), sp.const(0.0)))
        got = apply_adjoint(op, TF, 0.55, 0.45)
        assert got == pytest.approx(-bump_eval(TF, 0.55, 0.45, "dt"), rel=1e-12)

    def test_constant_coefficients(self):
        op = OperatorD(cs(sp.const(2.0), sp.const(-1.5), sp.const(0.7)))
        t, x = 0.6, 0.4
        expected = (-2.0 * bump_eval(TF, t, x, "dt") + 1.5 * bump_eval(TF, t, x, "dx")
                    + 0.7 * bump_eval(TF, t, x, "value"))
        assert apply_adjoint(op, TF, t, x) == pytest.approx(expected, rel=1e-12)

    def test_product_rule_a_equals_t(self):
        # a = t: D* phi = -phi - t phi_t
        op = OperatorD(cs(sp.coord_t(), sp.const(0.0), sp.const(0.0)))
        t, x = 0.45, 0.55
        expected = -bump_eval(TF, t, x, "value") - t * bump_eval(TF, t, x, "dt")
        assert apply_adjoint(op, TF, t, x) == pytest.approx(expected, rel=1e-12)
        # cross-check by finite differences of the product t*phi
        e = 1e-6
        fd = ((t + e) * bump_eval(TF, t + e, x, "value")
              - (t - e) * bump_eval(TF, t - e, x, "value")) / (2 * e)
        assert apply_adjoint(op, TF, t, x) == pytest.approx(-fd, abs=1e-6)

    def test_brute_force_fd_expansion_random_polynomials(self):
        rng = np.random.default_rng(17)
        a = polynomial(rng.uniform(-1, 1, (2, 2)))
        b = polynomial(rng.uniform(-1, 1, (2, 2)))
        c = polynomial(rng.uniform(-1, 1, (2, 2)))
        op = OperatorD(cs(a, b, c))
        e = 1e-6
        pts_t = rng.uniform(0.25, 0.75, 100)
        pts_x = rng.uniform(0.25, 0.75, 100)
        for t, x in zip(pts_t, pts_x):
            fd_t = (a(t + e, x) * bump_eval(TF, t + e, x)
                    - a(t - e, x) * bump_eval(TF, t - e, x)) / (2 * e)
            fd_x = (b(t, x + e) * bump_eval(TF, t, x + e)
                    - b(t, x - e) * bump_eval(TF, t, x - e)) / (2 * e)
            brute = -fd_t - fd_x + c(t, x) * bump_eval(TF, t, x)
            assert apply_adjoint(op, TF, t, x) == pytest.approx(float(brute), abs=1e-6)


class TestAdjointIdentity:
    def test_zero_function(self, unit_grid_h01):
        op = OperatorD(cs(sp.const(1.0), sp.const(1.0), sp.const(1.0)))
        f0 = SmoothFunction(lambda t, x: 0.0 * t, lambda t, x: 0.0 * t,
                            lambda t, x: 0.0 * t)
        assert adjoint_identity_residual(op, f0, TF, unit_grid_h01) == 0.0

    def test_linear_f_small_residual(self):
        g = sp.make_grid(1.0, 1.0, 0.01)
        op = OperatorD(cs(sp.const(1.0), sp.const(0.0), sp.const(0.0)))
        assert adjoint_identity_residual(op, F_LINEAR_T, TF, g) < 1e-4

    def test_at_least_second_order_convergence(self):
        # pre-asymptotically the residual decays like h^2 (ratio ~4 per
        # halving); once the bump is resolved, compactly supported smooth
        # integrands make the trapezoid rule converge even faster, so the
        # log-log slope is bounded below by 2-ish but not above
        op = OperatorD(cs(sp.coord_sum(), sp.const(1.0), sp.coord_x()))
        f = SmoothFunction(lambda t, x: np.sin(t) * np.cos(x),
                           lambda t, x: np.cos(t) * np.cos(x),
                           lambda t, x: -np.sin(t) * np.sin(x))
        coarse = adjoint_identity_residual(op, f, TF, sp.make_grid(1.0, 1.0, 0.1))
        half = adjoint_identity_residual(op, f, TF, sp.make_grid(1.0, 1.0, 0.05))
        assert 3.0 <= coarse / half <= 5.0
        hs = [0.04, 0.02, 0.01]
        res = [adjoint_identity_residual(op, f, TF, sp.make_grid(1.0, 1.0, h))
               for h in hs]
        assert res[0] > res[1] > res[2]
        slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert slope >= 1.7


class TestWeakResidualTransport:
    def test_deterministic_transport_solution(self, coeffs_transport_t):
        g = sp.make_grid(1.0, 1.0, 0.01)
        op = OperatorD(coeffs_transport_t)
        r = sp.ScalarField.from_function(g, lambda t, x: np.sin(t + x))
        W0 = sp.ScalarField(g, np.zeros((g.n_t + 1, g.n_x + 1)))
        assert weak_residual_transport(r, W0, op, TF) < 1e-3

    def test_solution_residual_decreases_under_refinement(self, coeffs_transport_t):
        fine = sp.make_grid(1.0, 1.0, 0.01)
        op = OperatorD(coeffs_transport_t)
        r0 = sp.flat_curve(0.0)
        res = []
        for seed in range(6):
            sheet_f = sp.sample_sheet(fine, 404, path_index=seed)
            per_h = []
            for fac in (4, 2, 1):
                sheet = sp.restrict_sheet(sheet_f, fac) if fac > 1 else sheet_f
                W = sp.diagonal_noise(sheet)
                r = sp.solve_transport(coeffs_transport_t, r0, W)
                per_h.append(weak_residual_transport(r, W, op, TF))
            res.append(per_h)
        med = np.median(res, axis=0)
        assert med[0] > med[1] > med[2]

    def test_corrupted_solution_fails(self, coeffs_transport_t):
        g = sp.make_grid(1.0, 1.0, 0.01)
        op = OperatorD(coeffs_transport_t)
        r0 = sp.flat_curve(0.0)
        plan = sp.TransportPlan.build(g, coeffs_transport_t, r0)
        ratio = []
        for seed in range(6):
            W = sp.diagonal_noise(sp.sample_sheet(g, 404, path_index=seed))
            good = weak_residual_transport(sp.solve_transport(coeffs_transport_t, r0, W),
                                           W, op, TF)
            bad = weak_residual_transport(plan.corrupted_solution(W), W, op, TF)
            ratio.append(bad / good)
        assert np.median(ratio) >= 10.0

    def test_grid_mismatch(self, coeffs_transport_t, unit_grid_h025, unit_grid_h01):
        op = OperatorD(coeffs_transport_t)
        r = sp.ScalarField(unit_grid_h025, np.zeros((5, 5)))
        W = sp.ScalarField(unit_grid_h01, np.zeros((11, 11)))
        with pytest.raises(GridError):
            weak_residual_transport(r, W, op, TF)

    def test_invariant_to_values_outside_support(self, coeffs_transport_t):
        g = sp.make_grid(1.0, 1.0, 0.05)
        op = OperatorD(coeffs_transport_t)
        W = sp.diagonal_noise(sp.sample_sheet(g, 9))
        r = sp.solve_transport(coeffs_transport_t, sp.flat_curve(0.0), W)
        base = weak_residual_transport(r, W, op, TF)
        tt = g.t_values[:, None]
        xx = g.x_values[None, :]
        outside = (np.abs(tt - TF.t0) >= TF.rho_t) | (np.abs(xx - TF.x0) >= TF.rho_x)
        bumped = sp.ScalarField(g, r.values + 123.0 * outside)
        assert weak_residual_transport(bumped, W, op, TF) == base


def weak_residual_formula(r, W, coeffs, tf, g):
    """|II r (phi_t - phi_x) - II W (a phi_t + b phi_x + (a_t + b_x - c) phi)|,
    each term sampled on the mesh and summed by the trapezoid rule."""
    tt = g.t_values[:, None]
    xx = g.x_values[None, :]
    phi, phi_t, phi_x = (bump_eval(tf, tt, xx, order) for order in ("value", "dt", "dx"))
    w_t = np.ones(g.n_t + 1)
    w_t[0] = w_t[-1] = 0.5
    w_x = np.ones(g.n_x + 1)
    w_x[0] = w_x[-1] = 0.5
    lhs = float(g.h * g.h * (w_t @ (r.values * (phi_t - phi_x)) @ w_x))
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
        plan = WeakFormPlan.build(g, OperatorD(coeffs), battery)
        r0 = sp.nelson_siegel_curve(0.05, -0.02, 0.01, 1.5)
        for seed in range(3):
            W = sp.diagonal_noise(sp.sample_sheet(g, 31, path_index=seed))
            r = sp.solve_transport(coeffs, r0, W)
            expected = [weak_residual_formula(r, W, coeffs, tf, g) for tf in battery]
            assert plan.residuals(r, W) == expected
            assert [weak_residual_transport(r, W, OperatorD(coeffs), tf)
                    for tf in battery] == expected

    def test_kernels_read_only_and_grid_checked(self, coeffs_transport_t, unit_grid_h01,
                                                unit_grid_h025):
        plan = WeakFormPlan.build(unit_grid_h01, OperatorD(coeffs_transport_t), [TF])
        assert plan.k_r.shape == plan.k_w.shape == (1, 11, 11)
        with pytest.raises(ValueError):
            plan.k_w[0, 5, 5] = 1.0
        r = sp.ScalarField(unit_grid_h025, np.zeros((5, 5)))
        with pytest.raises(GridError):
            plan.residuals(r, r)


class TestWeakResidualTimeEquation:
    def test_both_zero(self, unit_grid_h025, coeffs_a1):
        op = OperatorD(coeffs_a1)
        z = sp.ScalarField(unit_grid_h025, np.zeros((5, 5)))
        assert weak_residual_time_equation(z, z, op, TF) == 0.0

    def test_time_constant_U_with_zero_noise(self):
        g = sp.make_grid(1.0, 1.0, 0.01)
        op = OperatorD(cs(sp.const(1.0), sp.const(0.0), sp.const(0.0)))
        U = sp.ScalarField.from_function(g, lambda t, x: np.cos(3 * x) + 0 * t)
        W0 = sp.ScalarField(g, np.zeros((g.n_t + 1, g.n_x + 1)))
        # phi_t integrates to zero against t-constants: pure quadrature error
        assert weak_residual_time_equation(U, W0, op, TF) < 1e-6

    def test_b_zero_solution_residual_decreases(self):
        coeffs = cs(sp.coord_t(), sp.const(0.0), sp.coord_x())
        fine = sp.make_grid(1.0, 1.0, 0.01)
        op = OperatorD(coeffs)
        res = []
        for seed in range(6):
            sheet_f = sp.sample_sheet(fine, 818, path_index=seed)
            per_h = []
            for fac in (4, 2, 1):
                sheet = sp.restrict_sheet(sheet_f, fac) if fac > 1 else sheet_f
                W = sp.diagonal_noise(sheet).as_scalar_field()
                U = sp.solve_b_zero(coeffs, lambda x: 0.0 * x, W)
                per_h.append(weak_residual_time_equation(
                    sp.ScalarField(sheet.grid, U.values), W, op, TF))
            res.append(per_h)
        med = np.median(res, axis=0)
        assert med[0] > med[1] > med[2]
