"""Hot numeric kernels, in numpy.

``prefix_sum_2d``, ``prefix_sum_rows``, ``cumtrapz`` and ``diag_gather``
act on the two trailing axes, so a leading batch axis of sheets goes
through one call.
The strided increment reductions act on the last axis, so one call
reduces every time slice of a field.

``benchmarks/bench_kernels.py`` times them on hot-path sizes.
"""

from __future__ import annotations

import numpy as np


def prefix_sum_2d(cells: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
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


def prefix_sum_rows(cells: np.ndarray, rows, out: np.ndarray | None = None) -> np.ndarray:
    """Selected rows of ``prefix_sum_2d(cells)``, bit for bit, without the rest:
    out[..., r, :] = prefix_sum_2d(cells)[..., rows[r], :].

    Row i is the column sum of ``cells[..., :i, :]`` followed by one cumsum
    along x. Summing rows of a C-contiguous array adds them in order, as the
    prefix sum's cumsum does; a single column would be summed pairwise, so
    it takes the cumsum. ``cells`` needs only the first ``max(rows)`` rows.
    """
    n = cells.shape[-1]
    if out is None:
        out = np.empty(cells.shape[:-2] + (len(rows), n + 1), dtype=np.float64)
    out[..., 0] = 0.0
    for r, i in enumerate(rows):
        body = out[..., r, 1:]
        if i == 0:
            body[...] = 0.0
        elif n == 1:
            body[...] = np.cumsum(cells[..., :i, :], axis=-2)[..., -1, :]
        else:
            np.sum(cells[..., :i, :], axis=-2, out=body)
        np.cumsum(body, axis=-1, out=body)
    return out


def cumtrapz(values: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
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


def ito_cumsum(integrand: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Cumulative left-point sums sum_{i<k} integrand[i] * (path[i+1]-path[i])."""
    out = np.zeros_like(path, dtype=np.float64)
    np.cumsum(integrand[:-1] * (path[1:] - path[:-1]), axis=0, out=out[1:])
    return out


def diag_gather(sheet: np.ndarray, n_cols: int, slope: int = 1) -> np.ndarray:
    """Gather out[..., i, j] = sheet[..., i, slope*i + j] for j = 0..n_cols-1:
    the characteristic of the given slope through each (i, j)."""
    m = sheet.shape[-2]
    i = np.arange(m)[:, None]
    j = np.arange(n_cols)[None, :]
    return sheet[..., i, slope * i + j]


def _strided_increments(z: np.ndarray, i0: int, i1: int, stride: int) -> np.ndarray:
    return z[..., i0 + stride : i1 + 1 : stride] - z[..., i0 : i1 - stride + 1 : stride]


def strided_sq_increment_sum(z: np.ndarray, i0: int, i1: int, stride: int):
    """Sum of squared increments of z over [i0, i1] at the given index stride,
    along the last axis (a float for 1-D ``z``)."""
    d = _strided_increments(z, i0, i1, stride)
    return np.sum(d * d, axis=-1)


def strided_max_abs_increment(z: np.ndarray, i0: int, i1: int, stride: int) -> float:
    return float(np.max(np.abs(_strided_increments(z, i0, i1, stride))))
