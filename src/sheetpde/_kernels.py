"""Hot numeric kernels, in numpy.

``prefix_sum_2d``, ``prefix_sum_rows``, ``cumtrapz`` and ``diag_gather``
act on the two trailing axes, so a leading batch axis of sheets goes
through one call.
The strided increment reductions act on the last axis, so one call
reduces every time slice of a field.
``format_g17`` prints a chunk of cells as the exact bytes of ``"%.17g"``,
each followed by its separator.

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


# "%.17g" in bulk. A cell with 1e-4 <= |x| < 1e15 prints in fixed notation
# from D = round_half_even(|x| * 10**p), its 17 significant digits, where
# p = 16 - floor(log10 |x|) <= 21. D is exact: |x| = m * 2**e with m < 2**53,
# 5**p is exact in float64, m * 5**p is exact as a double-double (Dekker's
# product; numpy never fuses a multiply and an add) and scaling both parts by
# 2**(e + p) is exact. The high part is then an even integer >= 2**53, so
# rounding the low part half to even rounds D half to even. Each cell gets a
# 40-byte slot, five uint64 words:
#     "-" "0" "." "0" "0" "0" d1 "." | d2 "." d3 "." d4 "." d5 "." | ... | d17 sep
# and a byte mask keyed by (sign, decimal exponent, last nonzero digit) keeps
# the bytes it prints. +-0 use the same slot; any other cell (tiny or huge,
# subnormal, inf, nan) is printed by "%.17g" itself into its slot.
_SLOT = 40
_FIXED_RANGE = (1e-4, 1e15)
_POW5 = (5 ** np.arange(22, dtype=np.int64)).astype(np.float64)


def _digit_words(lead: bytes) -> np.ndarray:
    """uint64 words lead + d1 "." d2 "." ... for every number written with
    (8 - len(lead)) // 2 digits."""
    n_dig = (8 - len(lead)) // 2
    n = np.arange(10 ** n_dig, dtype=np.int16)
    powers = 10 ** np.arange(n_dig - 1, -1, -1, dtype=np.int16)
    words = np.empty((n.size, 8), dtype=np.uint8)
    words[:, :len(lead)] = np.frombuffer(lead, dtype=np.uint8)
    words[:, len(lead)::2] = n[:, None] // powers % 10 + ord("0")
    words[:, len(lead) + 1::2] = ord(".")
    return words.view(np.uint64).ravel()


_HEAD_WORDS = _digit_words(b"-0.000")
_QUAD_WORDS = _digit_words(b"")
# trailing zero digits of a 4-digit group (4 for 0000)
_TRAILING_ZEROS = np.zeros(10 ** 4, dtype=np.int64)
_TRAILING_ZEROS[0] = 4
for _z in (1, 2, 3):
    _TRAILING_ZEROS[np.arange(10 ** _z, 10 ** 4, 10 ** _z)] = _z


def _slot_masks() -> np.ndarray:
    """Byte masks [(neg * 21 + X + 4) * 18 + L] of a cell with decimal
    exponent X (-4..15, 16 for a zero) whose last nonzero digit is d_L."""
    neg = np.arange(2)[:, None, None, None]
    x = np.arange(21)[None, :, None, None] - 4
    last = np.arange(18)[None, None, :, None]
    c = np.arange(_SLOT)
    j = (c - 4) // 2      # d_j sits at byte 2j + 4, the dot after it at 2j + 5
    zero, frac = x == 16, x < 0
    digit = (c >= 6) & (c % 2 == 0) & ~zero & ((j <= last) | (j <= x + 1))
    dot = (c >= 7) & (c <= 37) & (c % 2 == 1) & (j == x + 1) & (last > x + 1)
    lead = ((c == 1) & (frac | zero)) | ((c == 2) & frac) | (
        (c >= 3) & (c <= 5) & frac & (c - 3 < -x - 1))
    masks = digit | dot | lead | ((c == 0) & (neg == 1)) | (c == _SLOT - 1)
    return masks.reshape(-1, _SLOT)


_MASKS = _slot_masks()
_MASK_LENGTHS = _MASKS.sum(axis=1)


def _split(a: np.ndarray):
    """Veltkamp split of a float64 into two halves of at most 26 bits."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


_POW5_SPLIT = _split(_POW5)


def _scaled_digits(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round_half_even(m * 2**e * 10**(16 - k)) as int64, exact wherever the
    result is at least 2**53."""
    p = 16 - k
    hi = m * _POW5.take(p)
    mh, ml = _split(m)
    qh, ql = (half.take(p) for half in _POW5_SPLIT)
    lo = ((mh * qh - hi) + mh * ql + ml * qh) + ml * ql
    s = e + p
    return np.ldexp(hi, s).astype(np.int64) + np.rint(np.ldexp(lo, s)).astype(np.int64)


def format_g17(values: np.ndarray, seps: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``"%.17g" % v`` followed by the byte ``sep``, for each
    pair of the 1-D ``values`` and ``seps`` (uint8 codes, or one for all),
    concatenated in order; and the byte length of each cell's text with its
    separator."""
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    fixed = (a >= _FIXED_RANGE[0]) & (a < _FIXED_RANGE[1])
    a = np.where(fixed, a, 1.0)           # keeps log10 off zeros, inf and nan
    k = np.floor(np.log10(a)).astype(np.int32)
    f, e = np.frexp(a)
    m, e = np.ldexp(f, 53), e - 53        # int32 exponents keep ldexp fast
    d = _scaled_digits(m, e, k)
    # log10 can miss floor(log10 |x|) by one next to a power of ten
    under, over = d < 10 ** 16, d > 10 ** 17
    redo = under | over
    if redo.any():
        k += over
        k -= under
        d[redo] = _scaled_digits(m[redo], e[redo], k[redo])
    carry = d == 10 ** 17                 # rounded up to the next power of ten
    d[carry] = 10 ** 16
    k += carry

    top = d // 10 ** 8                    # d1..d9 and d10..d17
    low = d - top * 10 ** 8
    g0 = top // 10 ** 8
    top -= g0 * 10 ** 8
    g1, g3 = top // 10 ** 4, low // 10 ** 4
    groups = [g0, g1, top - g1 * 10 ** 4, g3, low - g3 * 10 ** 4]
    slots = np.empty((x.size, _SLOT // 8), dtype=np.uint64)
    slots[:, 0] = _HEAD_WORDS.take(groups[0])
    for w in range(1, 5):
        slots[:, w] = _QUAD_WORDS.take(groups[w])
    text = slots.view(np.uint8)
    text[:, -1] = seps

    tz = _TRAILING_ZEROS.take(groups[4])
    deep = np.flatnonzero(tz == 4)        # cells whose lower groups are all zeros
    for g in groups[3:0:-1]:
        if not deep.size:
            break
        more = _TRAILING_ZEROS.take(g[deep])
        tz[deep] += more
        deep = deep[more == 4]
    zero = x == 0
    key = (np.signbit(x) * 21 + np.where(zero, 20, k + 4)) * 18 + (17 - tz)
    masks = _MASKS.take(key, axis=0)
    lengths = _MASK_LENGTHS.take(key)
    for i in np.flatnonzero(~(fixed | zero)):
        s = b"%.17g" % x[i]
        text[i, :len(s)] = np.frombuffer(s, dtype=np.uint8)
        masks[i, :-1] = False
        masks[i, :len(s)] = True
        lengths[i] = len(s) + 1
    return np.compress(masks.ravel(), text.ravel()), lengths
