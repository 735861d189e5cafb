"""Hot numeric kernels: numpy, with numba twins for the 2-D-only ones.

``prefix_sum_2d``, ``cumtrapz`` and ``diag_gather`` act on the two
trailing axes, so a leading batch axis of sheets goes through one call;
they are numpy-only. The remaining kernels have numba twins, taken when
numba imports cleanly and the environment variable
``SHEETPDE_DISABLE_NUMBA`` is unset (or set to a falsy value). Cumulative
kernels (cumulative left rule, Ito sums) replicate numpy's sequential
accumulation order, so the two paths agree bit for bit; plain reductions
(squared-increment sums, maxima) agree to floating-point roundoff.

``benchmarks/bench_kernels.py`` times the two paths side by side.
"""

from __future__ import annotations

import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("SHEETPDE_DISABLE_NUMBA", "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


NUMBA_ENABLED = False
if not _numba_disabled():
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def prefix_sum_2d_np(cells: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-padded 2-D prefix sum over the two trailing axes:
    out[..., i, j] = sum(cells[..., :i, :j]). ``out`` may be preallocated."""
    m, n = cells.shape[-2:]
    if out is None:
        out = np.empty(cells.shape[:-2] + (m + 1, n + 1), dtype=np.float64)
    out[..., 0, :] = 0.0
    out[..., :, 0] = 0.0
    body = out[..., 1:, 1:]
    np.cumsum(cells, axis=-2, out=body)
    np.cumsum(body, axis=-1, out=body)
    return out


def cumtrapz_np(values: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid along axis -2, anchored at 0 in the first row.

    ``out`` may be preallocated and may be ``values`` itself.
    """
    steps = values[..., 1:, :] + values[..., :-1, :]
    steps *= 0.5 * h
    if out is None:
        out = np.empty_like(values, dtype=np.float64)
    out[..., 0, :] = 0.0
    np.cumsum(steps, axis=-2, out=out[..., 1:, :])
    return out


def cumleft_np(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative left-endpoint rule along axis 0 (Ito convention)."""
    out = np.zeros_like(values, dtype=np.float64)
    np.cumsum(h * values[:-1], axis=0, out=out[1:])
    return out


def ito_cumsum_np(integrand: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Cumulative left-point sums sum_{i<k} integrand[i] * (path[i+1]-path[i])."""
    out = np.zeros_like(path, dtype=np.float64)
    np.cumsum(integrand[:-1] * (path[1:] - path[:-1]), axis=0, out=out[1:])
    return out


def diag_gather_np(sheet: np.ndarray, n_cols: int) -> np.ndarray:
    """Gather out[..., i, j] = sheet[..., i, i + j] for j = 0..n_cols-1."""
    m = sheet.shape[-2]
    i = np.arange(m)[:, None]
    j = np.arange(n_cols)[None, :]
    return sheet[..., i, i + j]


def strided_sq_increment_sum_np(z: np.ndarray, i0: int, i1: int, stride: int) -> float:
    """Sum of squared increments of z over [i0, i1] at the given index stride."""
    d = z[i0 + stride : i1 + 1 : stride] - z[i0 : i1 - stride + 1 : stride]
    return float(np.sum(d * d))


def strided_max_abs_increment_np(z: np.ndarray, i0: int, i1: int, stride: int) -> float:
    d = z[i0 + stride : i1 + 1 : stride] - z[i0 : i1 - stride + 1 : stride]
    return float(np.max(np.abs(d)))


# the batched kernels have no numba twin
prefix_sum_2d = prefix_sum_2d_np
cumtrapz = cumtrapz_np
diag_gather = diag_gather_np


# ---------------------------------------------------------------------------
# numba twins (same accumulation order as the numpy path)
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:

    @njit(cache=True)
    def cumleft_nb(values, h):  # pragma: no cover
        m, n = values.shape
        out = np.zeros((m, n), dtype=np.float64)
        for j in range(n):
            acc = 0.0
            for i in range(1, m):
                acc += h * values[i - 1, j]
                out[i, j] = acc
        return out

    @njit(cache=True)
    def ito_cumsum_nb(integrand, path):  # pragma: no cover
        m, n = path.shape
        out = np.zeros((m, n), dtype=np.float64)
        for j in range(n):
            acc = 0.0
            for i in range(1, m):
                acc += integrand[i - 1, j] * (path[i, j] - path[i - 1, j])
                out[i, j] = acc
        return out

    @njit(cache=True)
    def strided_sq_increment_sum_nb(z, i0, i1, stride):  # pragma: no cover
        acc = 0.0
        k = i0 + stride
        while k <= i1:
            d = z[k] - z[k - stride]
            acc += d * d
            k += stride
        return acc

    @njit(cache=True)
    def strided_max_abs_increment_nb(z, i0, i1, stride):  # pragma: no cover
        best = 0.0
        k = i0 + stride
        while k <= i1:
            d = abs(z[k] - z[k - stride])
            if d > best:
                best = d
            k += stride
        return best

    cumleft = cumleft_nb
    ito_cumsum = ito_cumsum_nb
    strided_sq_increment_sum = strided_sq_increment_sum_nb
    strided_max_abs_increment = strided_max_abs_increment_nb
else:
    cumleft = cumleft_np
    ito_cumsum = ito_cumsum_np
    strided_sq_increment_sum = strided_sq_increment_sum_np
    strided_max_abs_increment = strided_max_abs_increment_np
