import numpy as np
import pytest

import sheetpde as sp
from sheetpde.grids import GridError
from sheetpde.sheet import RectRegion

N_MC = 4000


def sample_sheets(grid, seed, n):
    """Yield n independent sheets on per-path derived streams."""
    for k in range(n):
        yield sp.sample_sheet(grid, seed, path_index=k)


def empirical_covariance(samples, p1, p2):
    """Unbiased sample covariance of field values at two points across samples.

    Samples may be any mix of objects exposing ``value_at(t, x)``
    (ScalarField, SheetSample, DiagonalPath).
    """
    if len(samples) < 2:
        raise ValueError("empirical covariance needs at least 2 samples")
    v1 = np.array([s.value_at(*p1) for s in samples])
    v2 = np.array([s.value_at(*p2) for s in samples])
    return float(np.cov(v1, v2, ddof=1)[0, 1])


@pytest.fixture(scope="module")
def mc_sheets():
    g = sp.make_grid(1.0, 1.0, 0.25)
    return g, [sp.sample_sheet(g, 321, path_index=k) for k in range(N_MC)]


class TestSampling:
    def test_determinism_bit_identical(self, unit_grid_h025):
        a = sp.sample_sheet(unit_grid_h025, 7)
        b = sp.sample_sheet(unit_grid_h025, 7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.cell_increments, b.cell_increments)
        c = sp.sample_sheet(unit_grid_h025, 8)
        assert not np.array_equal(a.values, c.values)

    def test_distinct_paths_distinct_streams(self, unit_grid_h025):
        a = sp.sample_sheet(unit_grid_h025, 7, path_index=0)
        b = sp.sample_sheet(unit_grid_h025, 7, path_index=1)
        assert not np.array_equal(a.values, b.values)

    def test_sample_sheets_matches_per_path_calls(self, unit_grid_h025):
        batch = list(sample_sheets(unit_grid_h025, 7, 3))
        for k, s in enumerate(batch):
            assert np.array_equal(
                s.values, sp.sample_sheet(unit_grid_h025, 7, path_index=k).values)

    def test_batch_sampler_matches_per_path_calls(self, unit_grid_h025):
        g = unit_grid_h025
        cells = np.full((5, g.n_t, g.n_sheet_x), np.nan)
        values = np.full((5, g.n_t + 1, g.n_sheet_x + 1), np.nan)
        assert sp.SheetSource(g, 7, 8).sample_batch(3, cells, values) is values
        for b in range(5):
            one = sp.sample_sheet(g, 7, path_index=3 + b)
            assert np.array_equal(values[b], one.values)
            assert np.array_equal(cells[b], one.cell_increments)

    def test_batch_sampler_rejects_mismatched_buffers(self, unit_grid_h025):
        g = unit_grid_h025
        source = sp.SheetSource(g, 7, 3)
        cells = np.empty((2, g.n_t, g.n_sheet_x))
        with pytest.raises(GridError):
            source.sample_batch(0, cells, np.empty((3, g.n_t + 1, g.n_sheet_x + 1)))
        with pytest.raises(GridError):
            source.sample_batch(0, cells, np.empty((2, g.n_t + 1, g.n_sheet_x)))

    def test_draw_cells_first_rows_match_the_full_draw(self):
        g = sp.make_grid(2.0, 1.0, 1 / 16)
        cells = np.full((2, 13, g.n_sheet_x), np.nan)
        assert sp.SheetSource(g, 7, 6).draw_cells(4, cells) is cells
        for b in range(2):
            full = sp.sample_sheet(g, 7, path_index=4 + b).cell_increments
            assert np.array_equal(cells[b], full[:13])

    def test_draw_cells_rejects_mismatched_buffers(self, unit_grid_h025):
        g = unit_grid_h025
        source = sp.SheetSource(g, 7, 1)
        for shape in ((1, g.n_t + 1, g.n_sheet_x), (1, g.n_t, g.n_sheet_x - 1),
                      (g.n_t, g.n_sheet_x)):
            with pytest.raises(GridError):
                source.draw_cells(0, np.empty(shape))

    def test_zero_boundaries(self, unit_grid_h025):
        for seed in (0, 1, 12345):
            s = sp.sample_sheet(unit_grid_h025, seed)
            assert np.all(s.values[0] == 0.0)
            assert np.all(s.values[:, 0] == 0.0)

    def test_axis_invariant_enforced_at_construction(self, unit_grid_h025):
        s = sp.sample_sheet(unit_grid_h025, 2)
        with pytest.raises(ValueError, match="vanishes on the axes"):
            sp.SheetSample(s.grid, s.values + 1.0, s.cell_increments, s.seed)

    def test_prefix_sum_consistency(self, unit_grid_h025):
        s = sp.sample_sheet(unit_grid_h025, 3)
        g = unit_grid_h025
        rng = np.random.default_rng(0)
        for _ in range(20):
            i0, i1 = sorted(rng.integers(0, g.n_t + 1, 2))
            j0, j1 = sorted(rng.integers(0, g.n_sheet_x + 1, 2))
            r = RectRegion(i0 * g.h, i1 * g.h, j0 * g.h, j1 * g.h)
            block = s.cell_increments[i0:i1, j0:j1].sum()
            assert sp.rect_measure(s, r) == pytest.approx(block, abs=1e-12)


class TestRectMeasure:
    def test_degenerate_zero(self, unit_grid_h025):
        s = sp.sample_sheet(unit_grid_h025, 4)
        assert sp.rect_measure(s, RectRegion(0.5, 0.5, 0.0, 1.5)) == 0.0

    def test_full_domain(self, unit_grid_h025):
        s = sp.sample_sheet(unit_grid_h025, 4)
        full = RectRegion(0.0, 1.0, 0.0, 2.0)
        assert sp.rect_measure(s, full) == s.values[-1, -1]

    def test_additivity(self, unit_grid_h025):
        s = sp.sample_sheet(unit_grid_h025, 5)
        left = RectRegion(0.25, 0.75, 0.0, 1.0)
        right = RectRegion(0.25, 0.75, 1.0, 1.75)
        union = RectRegion(0.25, 0.75, 0.0, 1.75)
        assert sp.rect_measure(s, left) + sp.rect_measure(s, right) == pytest.approx(
            sp.rect_measure(s, union), abs=1e-12)

    def test_misaligned_raises(self, unit_grid_h025):
        s = sp.sample_sheet(unit_grid_h025, 4)
        with pytest.raises(GridError):
            sp.rect_measure(s, RectRegion(0.1, 0.5, 0.0, 1.0))

    def test_bad_ordering(self):
        with pytest.raises(ValueError):
            RectRegion(0.5, 0.25, 0.0, 1.0)


class TestDistributionalLaws:
    def test_variance_is_area(self, mc_sheets):
        g, sheets = mc_sheets
        vals = np.array([s.value_at(1.0, 2.0) for s in sheets])
        var = np.var(vals, ddof=1)
        se = 2.0 * np.sqrt(2.0 / N_MC)
        assert abs(var - 2.0) <= 3 * se

    def test_covariance_min_min(self, mc_sheets):
        g, sheets = mc_sheets
        # Cov(B(0.5, 1.0), B(1.0, 0.5)) = min(0.5,1)*min(1,0.5) = 0.25
        c = empirical_covariance(sheets, (0.5, 1.0), (1.0, 0.5))
        se = np.sqrt((0.25 ** 2 + 0.5 * 0.5) / (N_MC - 1))
        assert abs(c - 0.25) <= 3 * se

    def test_disjoint_rectangles_uncorrelated(self, mc_sheets):
        g, sheets = mc_sheets
        a = RectRegion(0.0, 0.5, 0.0, 1.0)
        b = RectRegion(0.5, 1.0, 1.0, 2.0)
        ma = np.array([sp.rect_measure(s, a) for s in sheets])
        mb = np.array([sp.rect_measure(s, b) for s in sheets])
        corr = np.corrcoef(ma, mb)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(N_MC)


class TestDiagonalPath:
    def test_starts_at_zero(self, unit_grid_h025):
        W = sp.diagonal_noise(sp.sample_sheet(unit_grid_h025, 6))
        assert np.all(W.values[0] == 0.0)

    def test_exact_lattice_lookup(self, unit_grid_h025):
        s = sp.sample_sheet(unit_grid_h025, 6)
        W = sp.diagonal_noise(s)
        g = unit_grid_h025
        for i in range(g.n_t + 1):
            for j in range(g.n_x + 1):
                assert W.values[i, j] == s.values[i, i + j]

    def test_variance_t_times_t_plus_x(self, mc_sheets):
        g, sheets = mc_sheets
        vals = np.array([sp.diagonal_noise(s).value_at(1.0, 1.0) for s in sheets])
        var = np.var(vals, ddof=1)
        se = 2.0 * np.sqrt(2.0 / N_MC)  # Var(W(1,1)) = 1*(1+1) = 2
        assert abs(var - 2.0) <= 3 * se

    def test_covariance_of_martingale(self, mc_sheets):
        g, sheets = mc_sheets
        paths = [sp.diagonal_noise(s) for s in sheets]
        v1 = np.array([p.value_at(0.5, 1.0) for p in paths])
        v2 = np.array([p.value_at(1.0, 1.0) for p in paths])
        c = np.cov(v1, v2, ddof=1)[0, 1]   # s(s+x) = 0.5 * 1.5 = 0.75
        se = np.sqrt((0.75 ** 2 + 0.75 * 2.0) / (N_MC - 1))
        assert abs(c - 0.75) <= 3 * se

    def test_independent_time_increments(self, mc_sheets):
        g, sheets = mc_sheets
        j = g.index_of(0.5, "x")
        inc = np.array([[p.values[1, j] - p.values[0, j],
                         p.values[4, j] - p.values[3, j]]
                        for p in (sp.diagonal_noise(s) for s in sheets)])
        corr = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(N_MC)

    def test_as_scalar_field(self, unit_grid_h025):
        W = sp.diagonal_noise(sp.sample_sheet(unit_grid_h025, 6))
        f = W.as_scalar_field()
        assert isinstance(f, sp.ScalarField)
        assert np.array_equal(f.values, W.values)


class TestEmpiricalCovariance:
    def test_identical_constant_fields(self, unit_grid_h025):
        fields = [sp.ScalarField.from_function(unit_grid_h025, lambda t, x: 1.0 + 0 * t)
                  for _ in range(5)]
        assert empirical_covariance(fields, (0.5, 0.5), (0.25, 0.75)) == 0.0

    def test_same_point_gives_variance(self, unit_grid_h025):
        sheets = [sp.sample_sheet(unit_grid_h025, 20, path_index=k) for k in range(50)]
        v = empirical_covariance(sheets, (1.0, 1.0), (1.0, 1.0))
        assert v >= 0.0

    def test_same_point_variance_is_area(self, mc_sheets):
        g, sheets = mc_sheets
        v = empirical_covariance(sheets, (1.0, 1.0), (1.0, 1.0))
        se = 1.0 * np.sqrt(2.0 / N_MC)   # Var(B(1,1)) = area of [0,1]^2 = 1
        assert abs(v - 1.0) <= 3 * se

    def test_needs_two_samples(self, unit_grid_h025):
        s = sp.sample_sheet(unit_grid_h025, 1)
        with pytest.raises(ValueError):
            empirical_covariance([s], (0.5, 0.5), (0.5, 0.5))


class TestRestriction:
    def test_values_are_subsamples(self):
        g = sp.make_grid(1.0, 1.0, 0.05)
        s = sp.sample_sheet(g, 31)
        c = sp.restrict_sheet(s, 4)
        assert c.grid.h == pytest.approx(0.2)
        assert np.array_equal(c.values, s.values[::4, ::4])

    def test_cell_increments_consistent(self):
        g = sp.make_grid(1.0, 1.0, 0.05)
        s = sp.sample_sheet(g, 31)
        c = sp.restrict_sheet(s, 5)
        rebuilt = np.zeros_like(c.values)
        rebuilt[1:, 1:] = np.cumsum(np.cumsum(c.cell_increments, axis=0), axis=1)
        assert np.allclose(rebuilt, c.values, atol=1e-12)

    def test_diagonal_restriction_matches(self):
        g = sp.make_grid(1.0, 1.0, 0.05)
        s = sp.sample_sheet(g, 31)
        W_f = sp.diagonal_noise(s)
        W_c = sp.diagonal_noise(sp.restrict_sheet(s, 4))
        assert np.array_equal(W_c.values, W_f.values[::4, ::4])
        # coarse diagonal equals fine sheet read at coarse diagonal points
        for i in range(W_c.grid.n_t + 1):
            for j in range(W_c.grid.n_x + 1):
                assert W_c.values[i, j] == s.values[4 * i, 4 * (i + j)]

    def test_bad_factor(self, unit_grid_h025):
        s = sp.sample_sheet(unit_grid_h025, 1)
        with pytest.raises(GridError):
            sp.restrict_sheet(s, 3)


def test_sheet_csv(tmp_path, unit_grid_h025):
    s = sp.sample_sheet(unit_grid_h025, 17)
    p = tmp_path / "sheet.csv"
    s.to_csv(p)
    lines = p.read_text().strip().split("\n")
    assert len(lines) == unit_grid_h025.n_t + 2
    header = lines[0].split(",")
    assert len(header) == unit_grid_h025.n_sheet_x + 2
    parsed = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.array_equal(parsed, s.values)
