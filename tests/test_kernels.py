import os
import subprocess
import sys

import numpy as np
import pytest

from sheetpde import _kernels as K

rng = np.random.default_rng(99)
CELLS = rng.standard_normal((40, 70))
VALS = rng.standard_normal((41, 71))
PATH = np.cumsum(rng.standard_normal((41, 71)), axis=0)
Z = rng.standard_normal(513)


def test_prefix_sum_basic():
    out = K.prefix_sum_2d_np(CELLS)
    assert out.shape == (41, 71)
    assert np.all(out[0] == 0) and np.all(out[:, 0] == 0)
    assert out[3, 5] == pytest.approx(CELLS[:3, :5].sum(), rel=1e-12)


def test_cumtrapz_against_manual():
    out = K.cumtrapz_np(VALS, 0.1)
    manual = 0.1 * (VALS[0] + VALS[3] + 2 * (VALS[1] + VALS[2])) / 2
    assert np.allclose(out[3], manual, rtol=1e-12)
    assert np.all(out[0] == 0)


def test_cumleft_against_manual():
    out = K.cumleft_np(VALS, 0.1)
    assert np.allclose(out[3], 0.1 * VALS[:3].sum(axis=0), rtol=1e-12)


def test_ito_cumsum_telescopes_for_unit_integrand():
    ones = np.ones_like(PATH)
    out = K.ito_cumsum_np(ones, PATH)
    assert np.allclose(out, PATH - PATH[0], rtol=1e-12)


def test_diag_gather():
    out = K.diag_gather_np(VALS, 31)
    assert out.shape == (41, 31)
    assert out[5, 7] == VALS[5, 12]


def test_strided_reductions():
    assert K.strided_sq_increment_sum_np(Z, 0, 512, 512) == pytest.approx(
        (Z[512] - Z[0]) ** 2, rel=1e-12)
    d = Z[64::64][:8] - Z[:-64:64][:8]
    assert K.strided_sq_increment_sum_np(Z, 0, 512, 64) == pytest.approx(
        float(np.sum(d * d)), rel=1e-12)
    assert K.strided_max_abs_increment_np(Z, 0, 512, 64) == pytest.approx(
        float(np.max(np.abs(d))), rel=1e-12)


@pytest.mark.skipif(not K.NUMBA_ENABLED, reason="numba disabled in this environment")
class TestNumbaParity:
    def test_cumulative_kernels_bit_identical(self):
        assert np.array_equal(K.cumleft_nb(VALS, 0.07), K.cumleft_np(VALS, 0.07))
        assert np.array_equal(K.ito_cumsum_nb(VALS, PATH), K.ito_cumsum_np(VALS, PATH))

    def test_reductions_match_to_roundoff(self):
        a = K.strided_sq_increment_sum_nb(Z, 0, 512, 8)
        b = K.strided_sq_increment_sum_np(Z, 0, 512, 8)
        assert a == pytest.approx(b, rel=1e-12)
        assert K.strided_max_abs_increment_nb(Z, 0, 512, 8) == \
            K.strided_max_abs_increment_np(Z, 0, 512, 8)


def test_env_flag_selects_numpy_path():
    code = ("from sheetpde import _kernels as K; "
            "assert not K.NUMBA_ENABLED; "
            "assert K.prefix_sum_2d is K.prefix_sum_2d_np")
    env = dict(os.environ, SHEETPDE_DISABLE_NUMBA="1")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_results_independent_of_kernel_path():
    """A full solver pipeline run under both kernel paths agrees closely."""
    code = (
        "import numpy as np, sheetpde as sp\n"
        "from sheetpde.yield_curve import negate\n"
        "g = sp.make_grid(1.0, 1.0, 0.05)\n"
        "W = sp.diagonal_noise(sp.sample_sheet(g, 42))\n"
        "cs = sp.CoefficientSet(a=sp.coord_t(), b=negate(sp.coord_t()), c=sp.const(0.0))\n"
        "r = sp.solve_transport(cs, sp.flat_curve(0.02), W)\n"
        "np.save(OUT, r.values)\n"
    )
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        outs = []
        for flag in ("0", "1"):
            out = os.path.join(d, f"r{flag}.npy")
            env = dict(os.environ, SHEETPDE_DISABLE_NUMBA=flag)
            subprocess.run([sys.executable, "-c", f"OUT = {out!r}\n" + code],
                           check=True, env=env)
            outs.append(np.load(out))
        assert np.array_equal(outs[0], outs[1])


class TestBatchAxis:
    """The batched kernels act on the two trailing axes: a stack gives, per
    sheet, exactly what the sheet gives alone."""

    STACK = rng.standard_normal((3, 41, 71))

    def test_prefix_sum_stack_matches_per_sheet(self):
        cells = self.STACK[:, 1:, 1:]
        out = K.prefix_sum_2d_np(cells)
        for b in range(3):
            assert np.array_equal(out[b], K.prefix_sum_2d_np(cells[b]))

    def test_prefix_sum_into_dirty_buffer(self):
        out = np.full((41, 71), np.nan)
        assert K.prefix_sum_2d_np(CELLS, out=out) is out
        assert np.array_equal(out, K.prefix_sum_2d_np(CELLS))

    def test_cumtrapz_stack_and_in_place(self):
        ref = [K.cumtrapz_np(v, 0.07) for v in self.STACK]
        work = self.STACK.copy()
        assert K.cumtrapz_np(work, 0.07, out=work) is work
        for b in range(3):
            assert np.array_equal(work[b], ref[b])
            assert np.array_equal(K.cumtrapz_np(self.STACK, 0.07)[b], ref[b])

    def test_diag_gather_stack(self):
        out = K.diag_gather_np(self.STACK, 31)
        assert out.shape == (3, 41, 31)
        for b in range(3):
            assert np.array_equal(out[b], K.diag_gather_np(self.STACK[b], 31))
