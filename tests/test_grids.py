import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sheetpde as sp
from sheetpde.calculus import central_diff, trapz_2d
from sheetpde import grids
from sheetpde.grids import GridError, lattice_to_csv


class TestMakeGrid:
    def test_basic(self):
        g = sp.make_grid(1.0, 1.0, 0.25)
        assert (g.n_t, g.n_x) == (4, 4)
        assert g.sheet_x_max == 2.0
        assert g.n_sheet_x == 8

    def test_non_divisible_step_names_axis(self):
        with pytest.raises(GridError, match="t-axis"):
            sp.make_grid(1.0, 1.0, 0.3)
        with pytest.raises(GridError, match="x-axis"):
            sp.make_grid(1.2, 1.0, 0.3)

    def test_rectangular(self):
        g = sp.make_grid(2.0, 0.5, 0.125)
        assert (g.n_t, g.n_x) == (16, 4)
        assert g.sheet_x_max == 2.5

    def test_positivity(self):
        for bad in [(0.0, 1.0, 0.1), (1.0, -1.0, 0.1), (1.0, 1.0, 0.0)]:
            with pytest.raises(GridError):
                sp.make_grid(*bad)

    @settings(deadline=None, max_examples=60)
    @given(n_t=st.integers(1, 40), n_x=st.integers(1, 40),
           h=st.sampled_from([0.5, 0.25, 0.2, 0.125, 0.1, 0.05, 0.02, 0.01]))
    def test_divisibility_invariant_valid(self, n_t, n_x, h):
        g = sp.make_grid(n_t * h, n_x * h, h)
        assert (g.n_t, g.n_x) == (n_t, n_x)
        assert abs(g.n_t * g.h - g.t_max) <= 1e-9
        assert abs(g.n_x * g.h - g.x_max) <= 1e-9

    @settings(deadline=None, max_examples=60)
    @given(n_t=st.integers(1, 40),
           h=st.sampled_from([0.5, 0.25, 0.2, 0.1, 0.05]),
           frac=st.sampled_from([0.17, 0.31, 0.5, 0.73]))
    def test_divisibility_invariant_invalid(self, n_t, h, frac):
        with pytest.raises(GridError):
            sp.make_grid((n_t + frac) * h, 1.0 if h in (0.5, 0.25, 0.2, 0.1, 0.05) else h, h)

    def test_index_of(self):
        g = sp.make_grid(1.0, 1.0, 0.05)
        assert g.index_of(0.25, "t") == 5
        assert g.index_of(2.0, "sheet_x") == 40
        with pytest.raises(GridError):
            g.index_of(0.26, "t")
        with pytest.raises(GridError):
            g.index_of(1.25, "x")

    def test_coarsen(self):
        g = sp.make_grid(1.0, 1.0, 0.01)
        c = g.coarsen(4)
        assert c.h == pytest.approx(0.04) and c.n_t == 25
        with pytest.raises(GridError):
            g.coarsen(3)


class TestScalarField:
    def test_shape_guard(self, unit_grid_h025):
        with pytest.raises(GridError):
            sp.ScalarField(unit_grid_h025, np.zeros((3, 5)))

    def test_non_finite_guard(self, unit_grid_h025):
        vals = np.zeros((5, 5))
        vals[2, 2] = np.nan
        with pytest.raises(GridError):
            sp.ScalarField(unit_grid_h025, vals)

    def test_from_function_and_value_at(self, unit_grid_h025):
        f = sp.ScalarField.from_function(unit_grid_h025, lambda t, x: t + 2 * x)
        assert f.value_at(0.5, 0.25) == pytest.approx(1.0)

    def test_csv_round_trips_floats(self, tmp_path, unit_grid_h025):
        f = sp.ScalarField.from_function(unit_grid_h025, lambda t, x: np.pi * t + x / 3)
        path = tmp_path / "field.csv"
        f.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == unit_grid_h025.n_t + 2
        parsed = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        assert np.array_equal(parsed, f.values)


def per_cell_lattice_csv(path, t_values, x_values, values):
    """The reference writer: every cell through its own f-string."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("t\\x," + ",".join(f"{x:.17g}" for x in x_values) + "\n")
        for t, row in zip(t_values, values):
            f.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308)
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))


@st.composite
def lattices(draw):
    """A field of t + x (value i + j reads line[i + j]), with any number of
    its cells then overwritten: from wholly shifted rows to arbitrary ones."""
    n_t = draw(st.integers(1, 6))
    n_x = draw(st.integers(1, 6))
    line = draw(st.lists(FLOATS, min_size=n_t + n_x - 1, max_size=n_t + n_x - 1))
    values = np.array([[line[i + j] for j in range(n_x)] for i in range(n_t)])
    for _ in range(draw(st.integers(0, n_t * n_x))):
        values[draw(st.integers(0, n_t - 1)), draw(st.integers(0, n_x - 1))] = draw(FLOATS)
    t = np.array(draw(st.lists(FLOATS, min_size=n_t, max_size=n_t)))
    x = np.array(draw(st.lists(FLOATS, min_size=n_x, max_size=n_x)))
    return t, x, values


class TestLatticeCsv:
    @settings(max_examples=300, deadline=None)
    @given(lattice=lattices())
    def test_bytes_match_per_cell_writer(self, tmp_path_factory, lattice):
        d = tmp_path_factory.mktemp("csv")
        lattice_to_csv(d / "rows.csv", *lattice)
        per_cell_lattice_csv(d / "cells.csv", *lattice)
        assert (d / "rows.csv").read_bytes() == (d / "cells.csv").read_bytes()

    @pytest.mark.parametrize("values", [
        [[1.0, 0.0], [-0.0, 2.0]],        # shifted but for the sign of a zero
        [[-0.0, -0.0], [-0.0, 0.0]],
        [[2.0], [2.0], [-0.0]],            # one column
        [[1.0, 2.0, 3.0, 5e-324]],         # one row
    ])
    def test_signed_zeros_and_edge_shapes(self, tmp_path, values):
        values = np.array(values)
        t = np.arange(values.shape[0]) * 0.5
        x = np.arange(values.shape[1]) * 0.5
        lattice_to_csv(tmp_path / "rows.csv", t, x, values)
        per_cell_lattice_csv(tmp_path / "cells.csv", t, x, values)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    @pytest.mark.parametrize("chunk_cells", [grids._CSV_CHUNK_CELLS, 1, 1500])
    def test_shift_and_fresh_rows_across_chunks(self, tmp_path, monkeypatch, chunk_cells):
        # 150 x 700 cells span several chunks; runs of shifted rows and of
        # fresh rows, with zeros and out-of-range cells, cross their edges
        monkeypatch.setattr(grids, "_CSV_CHUNK_CELLS", chunk_cells)
        gen = np.random.default_rng(11)
        n_t, n_x = 150, 700
        line = gen.standard_normal(n_t + n_x) * 10.0 ** gen.integers(-6, 17, n_t + n_x)
        line[gen.integers(0, n_t + n_x, 40)] = gen.choice([0.0, -0.0, 5e-324, 1e300], 40)
        values = np.empty((n_t, n_x))
        values[0] = line[:n_x]
        for i in range(1, n_t):
            values[i] = (np.append(values[i - 1, 1:], line[n_x + i])
                         if gen.random() < 0.5 else gen.standard_normal(n_x) * 0.05)
        t = np.arange(n_t) / 128
        x = np.arange(n_x) / 128
        lattice_to_csv(tmp_path / "rows.csv", t, x, values)
        per_cell_lattice_csv(tmp_path / "cells.csv", t, x, values)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_baseline_field_of_t_plus_x(self, tmp_path):
        g = sp.make_grid(1.0, 0.5, 1 / 64)
        r0 = sp.nelson_siegel_curve(0.05, -0.02, 0.01, 1.5)
        base = sp.transport_solution(g, r0)
        base.to_csv(tmp_path / "rows.csv")
        per_cell_lattice_csv(tmp_path / "cells.csv", g.t_values, g.x_values, base.values)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


class TestIntegrate2d:
    def test_constant(self, unit_grid_h025):
        f = sp.ScalarField.from_function(unit_grid_h025, lambda t, x: 1.0 + 0 * t * x)
        assert trapz_2d(f.values, unit_grid_h025.h) == pytest.approx(1.0, abs=1e-14)

    def test_linear_exact(self, unit_grid_h025):
        f = sp.ScalarField.from_function(unit_grid_h025, lambda t, x: t + 0 * x)
        assert trapz_2d(f.values, unit_grid_h025.h) == pytest.approx(0.5, abs=1e-14)

    def test_bilinear_exact_vs_direct_summation(self, unit_grid_h025):
        # independent oracle: cell-by-cell corner average
        g = unit_grid_h025
        f = sp.ScalarField.from_function(g, lambda t, x: t * x)
        total = 0.0
        v = f.values
        for i in range(g.n_t):
            for j in range(g.n_x):
                total += g.h * g.h * (v[i, j] + v[i + 1, j] + v[i, j + 1] + v[i + 1, j + 1]) / 4
        assert trapz_2d(v, g.h) == pytest.approx(total, abs=1e-14)
        assert trapz_2d(v, g.h) == pytest.approx(0.25, abs=1e-14)

    def test_tensor_product_identity(self):
        g = sp.make_grid(1.0, 2.0, 0.125)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(g.n_t + 1)
        v = rng.standard_normal(g.n_x + 1)
        one_d = lambda w: g.h * (w[0] / 2 + w[1:-1].sum() + w[-1] / 2)
        assert trapz_2d(np.outer(u, v), g.h) == pytest.approx(one_d(u) * one_d(v), rel=1e-12)


class TestCentralDiff:
    def test_quadratic_exact(self):
        assert central_diff(lambda t, x: t * t, 1.0, 0.0, "t", 1e-4) == pytest.approx(
            2.0, abs=1e-8)

    def test_constant(self):
        assert central_diff(lambda t, x: 3.0, 0.5, 0.5, "x", 1e-4) == 0.0

    def test_sin(self):
        got = central_diff(lambda t, x: np.sin(t), 0.5, 0.0, "t", 1e-4)
        assert abs(got - np.cos(0.5)) <= 1e-8

    def test_one_sided_at_edges(self):
        # second-order one-sided is exact on quadratics
        f = lambda t, x: t * t
        lo = central_diff(f, 0.0, 0.0, "t", 1e-3, bounds=(0.0, 1.0))
        hi = central_diff(f, 1.0, 0.0, "t", 1e-3, bounds=(0.0, 1.0))
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(2.0, abs=1e-9)

