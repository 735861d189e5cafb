"""Uniform space-time lattices and sampled scalar fields.

One common step ``h`` serves both axes so that every diagonal point
``(t_i, t_i + x_j)`` is itself a lattice point of the extended sheet
domain ``[0, t_max] x [0, t_max + x_max]``; diagonal noise can then be
read off the lattice exactly, with no interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import _SLOT, format_g17

__all__ = [
    "GridError",
    "GridSpec",
    "ScalarField",
    "make_grid",
    "lattice_to_csv",
]

# absolute slack, in units of h, when checking that a coordinate is on the lattice
_ALIGN_RTOL = 1e-9


class GridError(ValueError):
    """Raised for non-divisible steps, misaligned coordinates or shape mismatches."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice on [0, t_max] x [0, x_max] with common step h.

    Attributes:
        t_max: time horizon (> 0).
        x_max: spatial horizon of solution fields (> 0).
        h: common step for both axes; must divide t_max and x_max.
        n_t: number of time steps, t_max / h.
        n_x: number of space steps, x_max / h.
    """

    t_max: float
    x_max: float
    h: float
    n_t: int
    n_x: int

    def __post_init__(self) -> None:
        if not (self.h > 0 and self.t_max > 0 and self.x_max > 0):
            raise GridError("t_max, x_max and h must all be positive")
        for name, extent, n in (("t", self.t_max, self.n_t), ("x", self.x_max, self.n_x)):
            if n < 1 or abs(n * self.h - extent) > _ALIGN_RTOL * max(1.0, extent):
                raise GridError(
                    f"step h={self.h!r} does not divide the {name}-axis extent {extent!r}"
                )

    @property
    def sheet_x_max(self) -> float:
        """Spatial extent of the underlying sheet; the diagonal needs t_max + x_max."""
        return self.t_max + self.x_max

    @property
    def n_sheet_x(self) -> int:
        return self.n_t + self.n_x

    @property
    def t_values(self) -> np.ndarray:
        return np.arange(self.n_t + 1) * self.h

    @property
    def x_values(self) -> np.ndarray:
        return np.arange(self.n_x + 1) * self.h

    @property
    def sheet_x_values(self) -> np.ndarray:
        return np.arange(self.n_sheet_x + 1) * self.h

    def index_of(self, coord: float, axis: str = "t") -> int:
        """Lattice index of a grid-aligned coordinate; GridError if off-lattice."""
        n_max = {"t": self.n_t, "x": self.n_x, "sheet_x": self.n_sheet_x}[axis]
        idx = int(round(coord / self.h))
        if idx < 0 or idx > n_max or abs(idx * self.h - coord) > _ALIGN_RTOL * max(1.0, self.h):
            raise GridError(f"coordinate {coord!r} is not on the {axis}-lattice of {self}")
        return idx

    def coarsen(self, factor: int) -> "GridSpec":
        """Grid with step factor*h; the factor must divide both axis counts."""
        if factor < 1 or self.n_t % factor or self.n_x % factor:
            raise GridError(f"coarsening factor {factor} does not divide ({self.n_t}, {self.n_x})")
        return GridSpec(self.t_max, self.x_max, self.h * factor,
                        self.n_t // factor, self.n_x // factor)


def make_grid(t_max: float, x_max: float, h: float) -> GridSpec:
    """Validated GridSpec; errors name the axis whose extent h fails to divide."""
    if h <= 0 or t_max <= 0 or x_max <= 0:
        raise GridError("t_max, x_max and h must all be positive")
    n_t = int(round(t_max / h))
    n_x = int(round(x_max / h))
    return GridSpec(t_max, x_max, h, n_t, n_x)


@dataclass(frozen=True)
class ScalarField:
    """A real field sampled on the (n_t+1) x (n_x+1) lattice of a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.n_t + 1, self.grid.n_x + 1)
        if self.values.shape != expected:
            raise GridError(f"field shape {self.values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise GridError("field contains non-finite values")

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable) -> "ScalarField":
        tt = grid.t_values[:, None]
        xx = grid.x_values[None, :]
        vals = np.broadcast_to(np.asarray(fn(tt, xx), dtype=np.float64),
                               (grid.n_t + 1, grid.n_x + 1)).copy()
        return cls(grid, vals)

    def value_at(self, t: float, x: float) -> float:
        return float(self.values[self.grid.index_of(t, "t"), self.grid.index_of(x, "x")])

    def to_csv(self, path) -> None:
        lattice_to_csv(path, self.grid.t_values, self.grid.x_values, self.values)


# Cells per call of the CSV kernel; a constant, not a setting. On a 2-core
# Xeon host a 513 x 1026 lattice took 92-99 ms of CPU at 16k cells per call
# and 223-232 ms at 32k. Over six weakform + simulate runs in one process,
# 8k and 16k cells raised the peak RSS by about 1 MB over the per-row
# writer, 32k by 3 MB and 64k by 23 MB: larger chunks' temporaries (the
# compress indices alone are 160 bytes per cell) likely cross glibc's heap
# and mmap thresholds.
_CSV_CHUNK_CELLS = 1 << 14
_COMMA, _NEWLINE = ord(","), ord("\n")


def lattice_to_csv(path, t_values: np.ndarray, x_values: np.ndarray,
                   values: np.ndarray) -> None:
    """Write a lattice field as CSV: header row of x coordinates, first column t.

    Numbers carry 17 significant digits so the file round-trips float64 exactly;
    ``_kernels.format_g17`` prints the lines in chunks of about
    ``_CSV_CHUNK_CELLS`` cells, each cell followed by a comma that becomes a
    newline at the end of its line. A row that repeats the previous one
    shifted left by one cell, as every field of t + x does, reuses its text
    and formats only its t and its new last cell.
    """
    values = np.asarray(values, dtype=np.float64)
    x_values = np.asarray(x_values, dtype=np.float64)
    bits = values.view(np.int64)   # bitwise equality keeps -0.0 apart from 0.0
    n_rows, n_cols = values.shape
    shift = np.zeros(n_rows + 1, dtype=bool)   # line 0 is the header, line i + 1 row i
    if n_cols > 1:
        shift[2:] = np.all(bits[1:, :-1] == bits[:-1, 1:], axis=1)
    counts = np.where(shift, 2, n_cols + 1)   # cells each line formats
    counts[0] = x_values.size
    cum = np.cumsum(counts)
    bounds = [0, *(np.flatnonzero(np.diff(cum // _CSV_CHUNK_CELLS)) + 1).tolist(), n_rows + 1]
    edges = np.zeros(n_cols + 1, dtype=bool)
    edges[[0, -1]] = True
    cells = None                   # the previous row's text after its t cell
    with open(path, "wb") as f:
        f.write(b"t\\x,")
        for l0, l1 in zip(bounds[:-1], bounds[1:]):
            r0 = max(l0, 1)
            table = np.column_stack((t_values[r0 - 1:l1 - 1], values[r0 - 1:l1 - 1]))
            picked = table[~shift[r0:l1, None] | edges]
            text, lengths = format_g17(
                np.concatenate((x_values, picked)) if l0 == 0 else picked, _COMMA)
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            first = cum[l0:l1] - counts[l0:l1] - (cum[l0 - 1] if l0 else 0)
            last = first + counts[l0:l1]
            text[offsets[last] - 1] = _NEWLINE
            view = memoryview(text)
            run = 0                # text[run:] up to the next shifted row is still to write
            for is_shift, start, t_end, end in zip(
                    shift[l0:l1].tolist(), offsets[first].tolist(),
                    offsets[first + 1].tolist(), offsets[last].tolist()):
                if is_shift:
                    f.write(view[run:start])
                    # a cell's text and its comma fit in one kernel slot
                    cut = bytes(cells[:_SLOT]).index(b",") + 1
                    row = b"".join((view[start:t_end], cells[cut:-1], b",", view[t_end:end]))
                    f.write(row)
                    cells = memoryview(row)[t_end - start:]
                    run = end
                else:
                    cells = view[t_end:end]
            f.write(view[run:])
