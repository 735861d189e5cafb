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


def lattice_to_csv(path, t_values: np.ndarray, x_values: np.ndarray,
                   values: np.ndarray) -> None:
    """Write a lattice field as CSV: header row of x coordinates, first column t.

    Numbers carry 17 significant digits so the file round-trips float64 exactly.
    Rows are formatted whole; a row that repeats the previous one shifted
    left by one cell, as every field of t + x does, reuses its text and
    formats only the new last cell.
    """
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.int64)   # bitwise equality keeps -0.0 apart from 0.0
    n_cols = values.shape[1]
    cells_fmt = ",".join(["%.17g"] * n_cols)
    cells = None
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("t\\x," + ",".join(f"{x:.17g}" for x in x_values) + "\n")
        for i, (t, row) in enumerate(zip(t_values, values)):
            if (cells is not None and n_cols > 1
                    and np.array_equal(bits[i, :-1], bits[i - 1, 1:])):
                cells = cells[cells.index(",") + 1:] + ",%.17g" % row[-1]
            else:
                cells = cells_fmt % tuple(row.tolist())
            f.write("%.17g," % t + cells + "\n")
