import numpy as np
import pytest

import sheetpde as sp
from sheetpde.grids import GridError
from sheetpde.sheet import DiagonalPath
from sheetpde.solver import ExistenceCriterionError
from sheetpde.yield_curve import negate


def cs(a, b, c):
    return sp.CoefficientSet(a=a, b=b, c=c)


def noise(grid, seed=5, path=0):
    return sp.diagonal_noise(sp.sample_sheet(grid, seed, path_index=path))


def solve_time_equation(coeffs, U0, W):
    """The slope-0 plan's solution of dU/dt = D W for noise W on the grid."""
    return sp.TransportPlan.build(W.grid, coeffs, U0, slope=0).solve(W.values)


class TestInitialCurves:
    def test_flat(self):
        r0 = sp.flat_curve(0.04)
        assert np.all(r0.eval(np.linspace(0, 2, 9)) == 0.04)
        assert np.all(r0.eval_derivative(np.linspace(0, 2, 9)) == 0.0)

    def test_polynomial(self):
        r0 = sp.polynomial_curve([1.0, -2.0, 0.5])
        x = np.array([0.0, 1.0, 2.0])
        assert np.allclose(r0.eval(x), 1 - 2 * x + 0.5 * x * x)
        assert np.allclose(r0.eval_derivative(x), -2 + x)

    def test_nelson_siegel_smooth_at_origin(self):
        r0 = sp.nelson_siegel_curve(0.05, -0.02, 0.01, 1.5)
        x = np.array([0.0, 1e-10, 0.5, 2.0])
        vals = r0.eval(x)
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(0.05 - 0.02, rel=1e-9)  # g(0)=1, g-e^-u -> 0
        r0.validate(2.0)

    def test_nelson_siegel_derivative_matches_fd(self):
        r0 = sp.nelson_siegel_curve(0.04, -0.015, 0.02, 0.8)
        x = np.linspace(0.05, 1.95, 21)
        e = 1e-6
        fd = (r0.eval(x + e) - r0.eval(x - e)) / (2 * e)
        assert np.max(np.abs(fd - r0.eval_derivative(x))) < 1e-8

    def test_validate_rejects_wrong_derivative(self):
        bad = sp.InitialCurve(lambda x: np.sin(x), dr0=lambda x: np.sin(x))
        with pytest.raises(ValueError):
            bad.validate(2.0)


class TestIntegralIdentitySides:
    def test_trivial_zero(self, unit_grid_h025, coeffs_a1):
        g = unit_grid_h025
        U = sp.ScalarField.from_function(g, lambda t, x: np.exp(x) + 0 * t)
        W0 = sp.ScalarField(g, np.zeros((g.n_t + 1, g.n_x + 1)))
        lhs, rhs = sp.integral_identity_sides(coeffs_a1, U, W0, 1.0, 1.0)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_deterministic_oracle_closed_form(self):
        # a=1, b=0, c=0, W = t*x: RHS = int_0^x t*y dy = t x^2 / 2
        coeffs = cs(sp.const(1.0), sp.const(0.0), sp.const(0.0))
        for h in (0.1, 0.05, 0.025):
            g = sp.make_grid(1.0, 1.0, h)
            W = sp.ScalarField.from_function(g, lambda t, x: t * x)
            U = solve_time_equation(coeffs, sp.flat_curve(0.0), W)
            lhs, rhs = sp.integral_identity_sides(coeffs, sp.ScalarField(g, U), W, 1.0, 1.0)
            assert abs(rhs - 0.5) <= h * h          # trapezoid exact on bilinear
            assert abs(lhs - rhs) <= 1e-12

    def test_self_consistency_brownian(self, unit_grid_h01):
        # the constructed b=0 solution satisfies the lattice identity to rounding
        coeffs = cs(sp.coord_t(), sp.const(0.0), sp.coord_x())
        W = noise(unit_grid_h01).as_scalar_field()
        U = solve_time_equation(coeffs, sp.flat_curve(0.0), W)
        lhs, rhs = sp.integral_identity_sides(
            coeffs, sp.ScalarField(unit_grid_h01, U), W, 1.0, 1.0)
        assert abs(lhs - rhs) <= 1e-12

    def test_gap_decreases_for_restricted_fine_solution(self):
        # solve once at h=0.005, evaluate the identity on coarser lattices
        coeffs = cs(sp.coord_t(), sp.const(0.0), sp.coord_x())
        xfine = sp.make_grid(1.0, 1.0, 0.005)
        plan = sp.TransportPlan.build(xfine, coeffs, sp.flat_curve(0.0), slope=0)
        gaps_all = []
        for k in range(6):
            Wf = noise(xfine, 818, k).as_scalar_field()
            Uf = plan.solve(Wf.values)
            gaps = []
            for fac in (8, 4, 2):
                cg = xfine.coarsen(fac)
                Uc = sp.ScalarField(cg, Uf[::fac, ::fac].copy())
                Wc = sp.ScalarField(cg, Wf.values[::fac, ::fac].copy())
                lhs, rhs = sp.integral_identity_sides(coeffs, Uc, Wc, 1.0, 1.0)
                gaps.append(abs(lhs - rhs))
            gaps_all.append(gaps)
        med = np.median(gaps_all, axis=0)
        assert med[0] > med[1] > med[2]

    def test_grid_mismatch(self, unit_grid_h025, unit_grid_h01, coeffs_a1):
        U = sp.ScalarField(unit_grid_h025, np.zeros((5, 5)))
        W = sp.ScalarField(unit_grid_h01, np.zeros((11, 11)))
        with pytest.raises(Exception):
            sp.integral_identity_sides(coeffs_a1, U, W, 1.0, 1.0)


class TestSolveBZero:
    """dU/dt = D W with b = 0: the plan of characteristic slope 0."""

    def test_unit_a(self, unit_grid_h01):
        coeffs = cs(sp.const(1.0), sp.const(0.0), sp.const(0.0))
        W = noise(unit_grid_h01).as_scalar_field()
        U = solve_time_equation(coeffs, sp.flat_curve(2.0), W)
        expected = 2.0 + W.values - W.values[0][None, :]
        assert np.allclose(U, expected, atol=1e-14)

    def test_zero_noise(self, unit_grid_h01):
        coeffs = cs(sp.coord_sum(), sp.const(0.0), sp.coord_x())
        W0 = sp.ScalarField(unit_grid_h01, np.zeros((11, 11)))
        U = solve_time_equation(coeffs, sp.InitialCurve(np.sin), W0)
        assert np.allclose(U, np.sin(unit_grid_h01.x_values)[None, :].repeat(11, 0),
                           atol=1e-14)

    def test_pure_multiplication(self, unit_grid_h01):
        # a = 0, c = 1: dU/dt = W, so U = U0 + int_0^t W ds
        g = unit_grid_h01
        coeffs = cs(sp.const(0.0), sp.const(0.0), sp.const(1.0))
        W = noise(g).as_scalar_field()
        U = solve_time_equation(coeffs, sp.flat_curve(0.0), W)
        expected = np.zeros_like(W.values)
        for i in range(1, g.n_t + 1):
            expected[i] = expected[i - 1] + g.h * (W.values[i] + W.values[i - 1]) / 2
        assert np.allclose(U, expected, atol=1e-13)

    def test_matches_the_closed_form(self, unit_grid_h01):
        # U = U0 + a W + int_0^t (c - da/dt) W ds with a = t x + t^2, c = x
        g = unit_grid_h01
        a = sp.polynomial([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        coeffs = cs(a, sp.const(0.0), sp.coord_x())
        W = noise(g, seed=9).as_scalar_field()
        U = solve_time_equation(coeffs, sp.polynomial_curve([0.1, 0.2]), W)
        tt, xx = g.t_values[:, None], g.x_values[None, :]
        weight = (xx - (xx + 2 * tt)) * W.values
        integral = np.zeros_like(weight)
        for i in range(1, g.n_t + 1):
            integral[i] = integral[i - 1] + g.h * (weight[i] + weight[i - 1]) / 2
        expected = 0.1 + 0.2 * xx + (tt * xx + tt * tt) * W.values + integral
        assert np.allclose(U, expected, rtol=0.0, atol=1e-14)

    def test_refuses_nonzero_b(self, unit_grid_h01):
        coeffs = cs(sp.const(1.0), sp.const(0.5), sp.const(0.0))
        W = noise(unit_grid_h01).as_scalar_field()
        with pytest.raises(ExistenceCriterionError,
                           match=r"if and only if b\(t,x\) = 0; sup \|b\| = 5\.000e-01"):
            solve_time_equation(coeffs, sp.flat_curve(0.0), W)


class TestSolveTransport:
    def test_pure_transport(self, unit_grid_h01):
        coeffs = cs(sp.const(0.0), sp.const(0.0), sp.const(0.0))
        W = noise(unit_grid_h01)
        r0 = sp.polynomial_curve([0.03, 0.01, -0.002])
        r = sp.solve_transport(coeffs, r0, W)
        base = sp.transport_solution(unit_grid_h01, r0)
        assert np.array_equal(r.values, base.values)

    def test_constant_vol(self, unit_grid_h01):
        sigma = 0.3
        coeffs = cs(sp.const(sigma), sp.const(-sigma), sp.const(0.0))
        W = noise(unit_grid_h01)
        r0 = sp.flat_curve(0.05)
        r = sp.solve_transport(coeffs, r0, W)
        assert np.allclose(r.values, sigma * W.values + 0.05, atol=1e-13)

    def test_a_equals_t_against_direct_construction(self, unit_grid_h01):
        # independent numpy construction of
        # r = t W(t,x) - int_0^t B(s, t+x) ds + r0(t+x)
        g = unit_grid_h01
        coeffs = cs(sp.coord_t(), negate(sp.coord_t()), sp.const(0.0))
        W = noise(g)
        r0 = sp.flat_curve(0.02)
        r = sp.solve_transport(coeffs, r0, W)
        S = W.sheet_values
        expected = np.empty_like(r.values)
        for i in range(g.n_t + 1):
            for j in range(g.n_x + 1):
                m = i + j
                col = S[: i + 1, m]
                integral = np.trapezoid(col, dx=g.h) if i > 0 else 0.0
                expected[i, j] = g.t_values[i] * W.values[i, j] - integral + 0.02
        assert np.allclose(r.values, expected, atol=1e-12)

    def test_initial_condition_exact(self, unit_grid_h01):
        coeffs = cs(sp.coord_t(), negate(sp.coord_t()), sp.const(0.5))
        r0 = sp.polynomial_curve([0.05, 0.01])
        r = sp.solve_transport(coeffs, r0, noise(unit_grid_h01))
        assert np.array_equal(r.values[0], r0.eval(unit_grid_h01.x_values))

    def test_refuses_criterion_violation(self, unit_grid_h01):
        coeffs = cs(sp.const(1.0), sp.const(-0.5), sp.const(0.0))
        with pytest.raises(ExistenceCriterionError, match="if and only if"):
            sp.solve_transport(coeffs, sp.flat_curve(0.0), noise(unit_grid_h01))

    def test_tolerates_tiny_criterion_slack(self, unit_grid_h01):
        coeffs = cs(sp.const(1.0), sp.const(-1.0 + 1e-13), sp.const(0.0))
        sp.solve_transport(coeffs, sp.flat_curve(0.0), noise(unit_grid_h01))

    def test_rejects_undefined_initial_curve(self, unit_grid_h01):
        def partial_curve(x):
            return np.where(np.asarray(x) > 1.0, np.nan, 0.05)
        coeffs = cs(sp.const(0.1), sp.const(-0.1), sp.const(0.0))
        with pytest.raises(ValueError, match="initial curve"):
            sp.solve_transport(coeffs, sp.InitialCurve(partial_curve),
                              noise(unit_grid_h01))

    def test_nonzero_start_noise_unrepresentable(self, unit_grid_h01):
        # the W(0, .) = 0 hypothesis is a construction invariant of the type
        g = unit_grid_h01
        W = noise(g)
        with pytest.raises(ValueError, match="W\\(0"):
            DiagonalPath(g, W.values + 1.0, W.seed, W.sheet_values)

    def test_solves_pde_for_smooth_noise(self):
        """Independent oracle: integrate the equation's right-hand side along
        characteristics for a smooth deterministic noise field.

        dr/dt - dr/dx = a (W_t - W_x) + c W  with r(0,.) = r0 has
        r(t,x) = r0(t+x) + int_0^t [a (W_t - W_x) + c W](s, t+x-s) ds,
        which never touches the closed form's integration by parts.
        """
        def w(t, x):
            return np.sin(1.3 * t) * np.cos(0.7 * x) + t * x

        def w_t(t, x):
            return 1.3 * np.cos(1.3 * t) * np.cos(0.7 * x) + x

        def w_x(t, x):
            return -0.7 * np.sin(1.3 * t) * np.sin(0.7 * x) + t

        a_fn = sp.coord_t()
        c_fn = sp.const(0.4)
        coeffs = cs(a_fn, negate(a_fn), c_fn)
        r0 = sp.polynomial_curve([0.1, 0.05])

        from sheetpde._kernels import diag_gather

        errors = []
        for h in (0.05, 0.025):
            g = sp.make_grid(1.0, 1.0, h)
            tt = g.t_values[:, None]
            # synthetic path: sheet column m holds the noise on characteristic m,
            # i.e. W(s, m*h - s); w(0, .) = 0 already, as the solver requires
            xarg = np.maximum(g.sheet_x_values[None, :] - tt, 0.0)
            S = w(np.broadcast_to(tt, xarg.shape), xarg)
            Wd = DiagonalPath(g, diag_gather(S, g.n_x + 1), 0, S)
            r = sp.solve_transport(coeffs, r0, Wd)

            # reference by fine quadrature of the RHS along each characteristic
            n_q = 801
            err = 0.0
            for (ti, xj) in [(0.5, 0.5), (1.0, 0.25), (0.75, 1.0), (1.0, 1.0)]:
                s_q = np.linspace(0.0, ti, n_q)
                x_q = ti + xj - s_q
                rhs = (a_fn(s_q, x_q) * (w_t(s_q, x_q) - w_x(s_q, x_q))
                       + 0.4 * w(s_q, x_q))
                ref = (float(r0.eval(np.array(ti + xj)))
                       + np.trapezoid(rhs, dx=ti / (n_q - 1)))
                err = max(err, abs(r.value_at(ti, xj) - ref))
            errors.append(err)
        assert errors[0] < 2e-3
        assert errors[1] < errors[0] / 2.5   # at least first-order shrink


class TestTransportPlan:
    @pytest.fixture
    def setup(self, unit_grid_h01):
        a = sp.polynomial([[0.1, 0.05], [0.2, 0.0]])   # depends on t and x
        coeffs = cs(a, negate(a), sp.const(0.3))
        r0 = sp.nelson_siegel_curve(0.05, -0.02, 0.01, 1.5)
        return unit_grid_h01, coeffs, r0, sp.TransportPlan.build(unit_grid_h01, coeffs, r0)

    def test_stack_matches_each_sheet_and_solve_transport(self, setup):
        g, coeffs, r0, plan = setup
        paths = [noise(g, seed=8, path=k) for k in range(4)]
        stack = plan.solve(np.stack([W.sheet_values for W in paths]))
        for W, values in zip(paths, stack):
            assert np.array_equal(values, plan.solve(W.sheet_values))
            assert np.array_equal(values, sp.solve_transport(coeffs, r0, W).values)

    def test_keeps_the_closed_form_operation_order(self, setup):
        # r = a W + gather(cumtrapz(bracket * S)) + r0(t+x), left to right,
        # written out with plain numpy: the values of every earlier release
        g, coeffs, r0, plan = setup
        W = noise(g, seed=12)
        tt = g.t_values[:, None]
        xarg = np.maximum(g.sheet_x_values[None, :] - tt, 0.0)
        targ = np.broadcast_to(tt, xarg.shape)
        bracket = (coeffs.partial("a", "x", targ, xarg) - coeffs.partial("a", "t", targ, xarg)
                   + coeffs.eval("c", targ, xarg))
        P = bracket * W.sheet_values
        folded = np.zeros_like(P)
        np.cumsum(0.5 * g.h * (P[1:] + P[:-1]), axis=0, out=folded[1:])
        diag = np.arange(g.n_t + 1)[:, None] + np.arange(g.n_x + 1)[None, :]
        rows = np.arange(g.n_t + 1)[:, None]
        expected = (coeffs.eval("a", tt, g.x_values[None, :]) * W.values
                    + folded[rows, diag] + r0.eval(g.sheet_x_values)[diag])
        assert np.array_equal(plan.solve(W.sheet_values), expected)

    def test_fields_are_read_only(self, setup):
        plan = setup[3]
        for arr in (plan.a, plan.bracket, plan.r0_diag):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_checks_run_at_build(self, unit_grid_h01):
        with pytest.raises(ExistenceCriterionError, match="if and only if"):
            sp.TransportPlan.build(unit_grid_h01, cs(sp.const(1.0), sp.const(0.0),
                                                     sp.const(0.0)), sp.flat_curve(0.0))
        bad_r0 = sp.InitialCurve(lambda x: np.where(x > 1.5, np.inf, 0.0))
        with pytest.raises(ValueError, match="not finite"):
            sp.TransportPlan.build(unit_grid_h01, cs(sp.const(1.0), sp.const(-1.0),
                                                     sp.const(0.0)), bad_r0)

    @pytest.mark.parametrize("slope", [-1, 2, 1.0, True])
    def test_only_slopes_0_and_1(self, setup, slope):
        g, coeffs, r0, _ = setup
        with pytest.raises(ValueError, match="slope must be 0 or 1"):
            sp.TransportPlan.build(g, coeffs, r0, slope)

    def test_slope_0_reads_the_noise_on_the_grid(self, setup):
        g, _, r0, _ = setup
        coeffs = cs(sp.coord_t(), sp.const(0.0), sp.const(0.3))
        plan = sp.TransportPlan.build(g, coeffs, r0, slope=0)
        assert plan.bracket.shape == (g.n_t + 1, g.n_x + 1)
        assert np.array_equal(plan.r0_diag, np.broadcast_to(r0.eval(g.x_values), (11, 11)))
        W = noise(g)
        assert np.array_equal(plan.solve(W.values)[0], r0.eval(g.x_values))
        with pytest.raises(GridError):
            plan.solve(W.sheet_values)

    def test_rejects_foreign_sheets(self, setup, unit_grid_h025):
        plan = setup[3]
        with pytest.raises(GridError):
            plan.solve(noise(unit_grid_h025).sheet_values)
        with pytest.raises(GridError):
            plan.solution(noise(unit_grid_h025))

    def test_corrupted_solution_drops_the_integral(self, setup):
        g, coeffs, r0, plan = setup
        W = noise(g)
        bad = plan.corrupted_solution(W)
        assert bad.provenance.formula == "closed_form_corrupted"
        assert np.array_equal(bad.values, plan.a * W.values + plan.r0_diag)
        assert not np.allclose(bad.values, plan.solution(W).values)


class TestItoIntegral:
    def test_unit_integrand_telescopes(self, unit_grid_h01):
        W = noise(unit_grid_h01)
        got = sp.ito_integral(lambda s, x: 1.0 + 0 * s, W, 0.5, 1.0)
        assert got == pytest.approx(W.value_at(1.0, 0.5), rel=1e-12)

    def test_zero_integrand(self, unit_grid_h01):
        W = noise(unit_grid_h01)
        assert sp.ito_integral(lambda s, x: 0.0 * s, W, 0.5, 1.0) == 0.0

    def test_variance_matches_martingale_law(self):
        # integrand 1 at x=0: the sum telescopes to B^0(1) with variance 1
        g = sp.make_grid(1.0, 1.0, 0.5)
        vals = np.array([sp.ito_integral(lambda s, x: 1.0 + 0 * s,
                                         noise(g, 606, k), 0.0, 1.0)
                         for k in range(3000)])
        se = np.sqrt(2.0 / 3000)
        assert abs(np.var(vals, ddof=1) - 1.0) <= 3 * se


class TestSolveItoForm:
    def test_pure_transport(self, unit_grid_h01):
        coeffs = cs(sp.const(0.0), sp.const(0.0), sp.const(0.0))
        r0 = sp.polynomial_curve([0.03, 0.01])
        r = sp.solve_ito_form(coeffs, r0, noise(unit_grid_h01))
        assert np.array_equal(r.values, sp.transport_solution(unit_grid_h01, r0).values)

    def test_constant_a_coincides_with_closed_form(self, unit_grid_h01):
        coeffs = cs(sp.const(1.0), sp.const(-1.0), sp.const(0.0))
        W = noise(unit_grid_h01)
        r0 = sp.flat_curve(0.05)
        a = sp.solve_transport(coeffs, r0, W)
        b = sp.solve_ito_form(coeffs, r0, W)
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_initial_condition_exact(self, unit_grid_h01):
        coeffs = cs(sp.coord_t(), negate(sp.coord_t()), sp.const(0.2))
        r0 = sp.polynomial_curve([0.05, 0.01])
        r = sp.solve_ito_form(coeffs, r0, noise(unit_grid_h01))
        assert np.array_equal(r.values[0], r0.eval(unit_grid_h01.x_values))

    def test_representation_gap_shrinks_at_first_order(self, coeffs_transport_t):
        fine = sp.make_grid(1.0, 1.0, 0.01)
        r0 = sp.flat_curve(0.0)
        ratios, monotone = [], 0
        for k in range(6):
            sheet_f = sp.sample_sheet(fine, 303, path_index=k)
            gaps = []
            for fac in (4, 2, 1):
                sheet = sp.restrict_sheet(sheet_f, fac) if fac > 1 else sheet_f
                W = sp.diagonal_noise(sheet)
                g1 = sp.solve_transport(coeffs_transport_t, r0, W)
                g2 = sp.solve_ito_form(coeffs_transport_t, r0, W)
                gaps.append(float(np.max(np.abs(g1.values - g2.values))))
            monotone += gaps[0] > gaps[1] > gaps[2]
            ratios.append(gaps[0] / gaps[1])
        assert monotone >= 5
        assert 1.4 <= np.median(ratios) <= 2.8   # O(h): ratio ~ 2 per halving

    def test_provenance(self, unit_grid_h01, coeffs_transport_t):
        r = sp.solve_ito_form(coeffs_transport_t, sp.flat_curve(0.0),
                              noise(unit_grid_h01))
        assert r.provenance.formula == "ito"
        assert r.provenance.seed == 5


def test_transport_solution_values(unit_grid_h025):
    r0 = sp.polynomial_curve([1.0, 1.0])
    r = sp.transport_solution(unit_grid_h025, r0)
    g = unit_grid_h025
    for i in range(g.n_t + 1):
        for j in range(g.n_x + 1):
            assert r.values[i, j] == pytest.approx(1.0 + g.h * (i + j), rel=1e-12)
