import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetpde import _kernels as K
from test_grids import EDGE_FLOATS

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
    assert np.array_equal(K.diag_gather(VALS, 31, slope=0), VALS[:, :31])


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


def assert_matches_percent_g17(values):
    """format_g17 gives, cell for cell, the bytes of "%.17g" and the separator."""
    values = np.asarray(values, dtype=np.float64).ravel()
    seps = np.resize(np.frombuffer(b",\n", dtype=np.uint8), values.size)
    text, lengths = K.format_g17(values, seps)
    expected = [b"%.17g" % v + bytes([s]) for v, s in zip(values.tolist(), seps.tolist())]
    assert lengths.tolist() == [len(e) for e in expected]
    assert text.tobytes() == b"".join(expected)


class TestFormatG17:
    """The bulk printer is byte-exact against Python's "%.17g"."""

    @settings(deadline=None, max_examples=500)
    @given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from(EDGE_FLOATS)), min_size=0, max_size=40))
    def test_any_finite_float(self, values):
        assert_matches_percent_g17(values)

    def test_every_binade_of_the_fixed_range_and_beyond(self):
        # 2000 random mantissas in each binade 2**-16 .. 2**52, both signs
        gen = np.random.default_rng(2024)
        mantissas = gen.integers(2 ** 52, 2 ** 53, size=(69, 2000)).astype(np.float64)
        binades = np.ldexp(mantissas, np.arange(-16, 53)[:, None] - 52)
        assert_matches_percent_g17(np.concatenate([binades, -binades]))

    def test_neighbours_of_powers_of_ten(self):
        values = []
        for p in 10.0 ** np.arange(-5, 17):
            for direction in (0.0, np.inf):
                x = p
                for _ in range(3):
                    x = np.nextafter(x, direction)
                    values.append(x)
            values.append(p)
        assert_matches_percent_g17(values)

    def test_dyadic_fractions(self):
        gen = np.random.default_rng(7)
        numerators = gen.integers(1, 2 ** 53, size=(500, 1)).astype(np.float64)
        assert_matches_percent_g17(numerators / 2.0 ** np.arange(1, 70))

    @pytest.mark.parametrize("value, text", [
        (1234567890123456.25, "1234567890123456.2"),    # exact ties round half to even
        (1234567890123456.75, "1234567890123456.8"),
        (0.30000000000000004, "0.30000000000000004"),
        (1e-4, "0.0001"),                                # the smallest fixed-range cell
        (float(np.nextafter(1e-4, 0.0)), "9.9999999999999991e-05"),
        (999999999999999.9, "999999999999999.88"),
        (1e15, "1000000000000000"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (float("inf"), "inf"),
        (float("nan"), "nan"),
    ])
    def test_named_cases(self, value, text):
        assert "%.17g" % value == text
        out, lengths = K.format_g17(np.array([value]), np.array([ord("\n")], dtype=np.uint8))
        assert out.tobytes() == text.encode() + b"\n"
        assert lengths.tolist() == [len(text) + 1]
