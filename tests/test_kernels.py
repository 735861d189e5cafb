import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetpde import _kernels as K

rng = np.random.default_rng(99)
CELLS = rng.standard_normal((40, 70))
VALS = rng.standard_normal((41, 71))
PATH = np.cumsum(rng.standard_normal((41, 71)), axis=0)
Z = rng.standard_normal(513)


def test_prefix_sum_basic():
    out = K.prefix_sum_2d(CELLS)
    assert out.shape == (41, 71)
    assert np.all(out[0] == 0) and np.all(out[:, 0] == 0)
    assert out[3, 5] == pytest.approx(CELLS[:3, :5].sum(), rel=1e-12)


def test_cumtrapz_against_manual():
    out = K.cumtrapz(VALS, 0.1)
    manual = 0.1 * (VALS[0] + VALS[3] + 2 * (VALS[1] + VALS[2])) / 2
    assert np.allclose(out[3], manual, rtol=1e-12)
    assert np.all(out[0] == 0)


def test_ito_cumsum_telescopes_for_unit_integrand():
    ones = np.ones_like(PATH)
    out = K.ito_cumsum(ones, PATH)
    assert np.allclose(out, PATH - PATH[0], rtol=1e-12)


def test_diag_gather():
    out = K.diag_gather(VALS, 31)
    assert out.shape == (41, 31)
    assert out[5, 7] == VALS[5, 12]


def test_strided_reductions():
    assert K.strided_sq_increment_sum(Z, 0, 512, 512) == pytest.approx(
        (Z[512] - Z[0]) ** 2, rel=1e-12)
    d = Z[64::64][:8] - Z[:-64:64][:8]
    assert K.strided_sq_increment_sum(Z, 0, 512, 64) == pytest.approx(
        float(np.sum(d * d)), rel=1e-12)
    assert K.strided_max_abs_increment(Z, 0, 512, 64) == pytest.approx(
        float(np.max(np.abs(d))), rel=1e-12)


class TestBatchAxis:
    """The batched kernels act on the two trailing axes: a stack gives, per
    sheet, exactly what the sheet gives alone."""

    STACK = rng.standard_normal((3, 41, 71))

    def test_prefix_sum_stack_matches_per_sheet(self):
        cells = self.STACK[:, 1:, 1:]
        out = K.prefix_sum_2d(cells)
        for b in range(3):
            assert np.array_equal(out[b], K.prefix_sum_2d(cells[b]))

    def test_prefix_sum_into_dirty_buffer(self):
        out = np.full((41, 71), np.nan)
        assert K.prefix_sum_2d(CELLS, out=out) is out
        assert np.array_equal(out, K.prefix_sum_2d(CELLS))

    def test_cumtrapz_stack_and_in_place(self):
        ref = [K.cumtrapz(v, 0.07) for v in self.STACK]
        work = self.STACK.copy()
        assert K.cumtrapz(work, 0.07, out=work) is work
        for b in range(3):
            assert np.array_equal(work[b], ref[b])
            assert np.array_equal(K.cumtrapz(self.STACK, 0.07)[b], ref[b])

    def test_strided_sq_sum_per_row(self):
        rows = K.strided_sq_increment_sum(VALS, 6, 70, 8)
        assert rows.shape == (41,)
        for i in (0, 17, 40):
            assert rows[i] == K.strided_sq_increment_sum(VALS[i], 6, 70, 8)

    def test_diag_gather_stack(self):
        out = K.diag_gather(self.STACK, 31)
        assert out.shape == (3, 41, 31)
        for b in range(3):
            assert np.array_equal(out[b], K.diag_gather(self.STACK[b], 31))


class TestPrefixSumRows:
    """Rows built from column sums are the prefix sum's rows, bit for bit."""

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), batch=st.sampled_from([(), (1,), (3,)]),
           m=st.integers(1, 40), n=st.integers(1, 40),
           h=st.sampled_from([1 / 3, 0.1, 1 / 48, 0.125]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_prefix_sum_bit_for_bit(self, data, batch, m, n, h, seed):
        cells = np.random.default_rng(seed).standard_normal(batch + (m, n)) * h
        picked = data.draw(st.lists(st.integers(0, m), min_size=0, max_size=5))
        rows = sorted(set(picked) | {0, m})
        ref = K.prefix_sum_2d(cells)[..., rows, :]
        # the rows need only the cells below the highest one
        out = K.prefix_sum_rows(cells[..., :max(rows), :], rows)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    def test_into_dirty_buffer_in_any_row_order(self):
        rows = [40, 0, 17]
        out = np.full((3, 71), np.nan)
        assert K.prefix_sum_rows(CELLS, rows, out=out) is out
        assert out.tobytes() == K.prefix_sum_2d(CELLS)[rows].tobytes()
