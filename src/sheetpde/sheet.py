"""Brownian sheets as discrete Gaussian random measures, and diagonal noise.

A sheet sample assigns every lattice cell an independent N(0, h^2) mass
(the cell area is h^2); the sheet value B(t_i, x_j) is the 2-D prefix
sum of the covered cells. Rectangle measures are then exact
inclusion-exclusion reads, additive over disjoint rectangles, and every
finite-dimensional law on the lattice matches the continuum field:
Cov(B(s,x), B(t,y)) = min(s,t) * min(x,y).

The sheet lives on [0, t_max] x [0, t_max + x_max] so that the diagonal
noise W(t, x) = B(t, t + x) is an exact lattice lookup for every grid
point of the solution domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grids import GridError, GridSpec, ScalarField, lattice_to_csv
from .rng import stream_for_path

__all__ = [
    "SheetSample",
    "RectRegion",
    "DiagonalPath",
    "draw_cells",
    "sample_sheet",
    "sample_sheet_batch",
    "rect_measure",
    "diagonal_noise",
    "restrict_sheet",
]


@dataclass(frozen=True)
class SheetSample:
    """One realized Brownian sheet on the extended lattice.

    Attributes:
        grid: the solution grid; the sheet extends to x = t_max + x_max.
        values: B(t_i, x_j), shape (n_t+1, n_sheet_x+1); first row/column zero.
        cell_increments: i.i.d. N(0, h^2) cell masses, shape (n_t, n_sheet_x).
        seed: root seed of the stream that produced the increments.
    """

    grid: GridSpec
    values: np.ndarray
    cell_increments: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        g = self.grid
        if self.values.shape != (g.n_t + 1, g.n_sheet_x + 1):
            raise GridError("sheet values do not match the extended lattice")
        if self.cell_increments.shape != (g.n_t, g.n_sheet_x):
            raise GridError("cell increments do not match the extended lattice")
        if np.any(self.values[0] != 0.0) or np.any(self.values[:, 0] != 0.0):
            raise ValueError("a sheet sample vanishes on the axes: B(0, x) = B(t, 0) = 0")

    def value_at(self, t: float, x: float) -> float:
        return float(self.values[self.grid.index_of(t, "t"),
                                 self.grid.index_of(x, "sheet_x")])

    def to_csv(self, path) -> None:
        lattice_to_csv(path, self.grid.t_values, self.grid.sheet_x_values, self.values)


@dataclass(frozen=True)
class RectRegion:
    """A grid-aligned planar rectangle [t_lo, t_hi] x [x_lo, x_hi]."""

    t_lo: float
    t_hi: float
    x_lo: float
    x_hi: float

    def __post_init__(self) -> None:
        if self.t_lo > self.t_hi or self.x_lo > self.x_hi:
            raise ValueError("rectangle bounds must be ordered")

    @property
    def area(self) -> float:
        return (self.t_hi - self.t_lo) * (self.x_hi - self.x_lo)

    def corner_indices(self, grid: GridSpec) -> tuple[int, int, int, int]:
        """Lattice indices (i_lo, i_hi, j_lo, j_hi); GridError if misaligned."""
        return (grid.index_of(self.t_lo, "t"), grid.index_of(self.t_hi, "t"),
                grid.index_of(self.x_lo, "sheet_x"), grid.index_of(self.x_hi, "sheet_x"))


@dataclass(frozen=True)
class DiagonalPath:
    """The diagonal noise W(t_i, x_j) = B(t_i, t_i + x_j) on the solution grid.

    For fixed x this is a continuous martingale in t with independent,
    non-stationary increments and variance t * (t + x). The full sheet
    matrix rides along because the closed-form solvers integrate the
    noise along transport characteristics t + x = const, which read
    sheet columns beyond the diagonal restriction.
    """

    grid: GridSpec
    values: np.ndarray
    seed: int
    sheet_values: np.ndarray

    def __post_init__(self) -> None:
        g = self.grid
        if self.values.shape != (g.n_t + 1, g.n_x + 1):
            raise GridError("diagonal path does not match the solution lattice")
        if np.any(self.values[0] != 0.0):
            raise ValueError("diagonal noise must satisfy W(0, x) = 0 for all x")

    def value_at(self, t: float, x: float) -> float:
        return float(self.values[self.grid.index_of(t, "t"), self.grid.index_of(x, "x")])

    def as_scalar_field(self) -> ScalarField:
        return ScalarField(self.grid, self.values)

    def to_csv(self, path) -> None:
        lattice_to_csv(path, self.grid.t_values, self.grid.x_values, self.values)


def draw_cells(grid: GridSpec, seed: int, start: int, cells: np.ndarray) -> np.ndarray:
    """Draw the N(0, h^2) cell masses of paths start, start+1, ... into ``cells``.

    ``cells`` has shape (batch, rows, n_sheet_x) with rows <= n_t, and
    ``cells[b]`` receives the first ``rows`` time rows of path ``start + b``,
    drawn from that path's own stream. A stream fills the rows in order,
    so the first rows of a path do not depend on how many are drawn.
    Returns ``cells``.
    """
    if cells.ndim != 3 or cells.shape[1] > grid.n_t or cells.shape[2] != grid.n_sheet_x:
        raise GridError("cell buffer does not match the extended lattice")
    for b in range(cells.shape[0]):
        stream_for_path(seed, start + b).standard_normal(out=cells[b])
    cells *= grid.h
    return cells


def sample_sheet_batch(grid: GridSpec, seed: int, start: int, cells: np.ndarray,
                       values: np.ndarray) -> np.ndarray:
    """Sample paths start, start+1, ... into preallocated buffers.

    ``cells`` has shape (batch, n_t, n_sheet_x) and receives the cell
    masses of path ``start + b`` in ``cells[b]`` (``draw_cells``);
    ``values`` has shape (batch, n_t+1, n_sheet_x+1) and receives the
    sheets. Every path is bit-identical to ``sample_sheet(grid, seed,
    start + b)``. Returns ``values``.
    """
    if (cells.shape[1:] != (grid.n_t, grid.n_sheet_x)
            or values.shape != (cells.shape[0], grid.n_t + 1, grid.n_sheet_x + 1)):
        raise GridError("sheet buffers do not match the extended lattice")
    draw_cells(grid, seed, start, cells)
    return _kernels.prefix_sum_2d(cells, out=values)


def sample_sheet(grid: GridSpec, seed: int, path_index: int = 0) -> SheetSample:
    """Sample one sheet; identical (grid, seed, path_index) is bit-identical."""
    cells = np.empty((1, grid.n_t, grid.n_sheet_x))
    values = np.empty((1, grid.n_t + 1, grid.n_sheet_x + 1))
    sample_sheet_batch(grid, seed, path_index, cells, values)
    return SheetSample(grid, values[0], cells[0], seed)


def rect_measure(sheet: SheetSample, r: RectRegion) -> float:
    """Gaussian measure of a grid-aligned rectangle, by inclusion-exclusion."""
    i0, i1, j0, j1 = r.corner_indices(sheet.grid)
    B = sheet.values
    return float(B[i1, j1] - B[i0, j1] - B[i1, j0] + B[i0, j0])


def diagonal_noise(sheet: SheetSample) -> DiagonalPath:
    """Extract W(t_i, x_j) = B(t_i, t_i + x_j) by exact lattice lookup."""
    g = sheet.grid
    W = _kernels.diag_gather(sheet.values, g.n_x + 1)
    return DiagonalPath(g, W, sheet.seed, sheet.values)


def restrict_sheet(sheet: SheetSample, factor: int) -> SheetSample:
    """Lattice restriction to every factor-th node.

    The restricted sheet is a valid sample on the coarse grid (coarse
    cells are sums of fine cells, i.i.d. N(0, (factor*h)^2)), so
    refinement studies can evaluate one underlying realization at
    several resolutions.
    """
    coarse = sheet.grid.coarsen(factor)
    values = sheet.values[::factor, ::factor].copy()
    m, n = coarse.n_t, coarse.n_sheet_x
    cells = sheet.cell_increments.reshape(m, factor, n, factor).sum(axis=(1, 3))
    return SheetSample(coarse, values, cells, sheet.seed)
