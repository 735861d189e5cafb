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
from .rng import philox_keys

__all__ = [
    "SheetSample",
    "RectRegion",
    "DiagonalPath",
    "SheetSource",
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


class SheetSource:
    """The cells and sheets of paths 0..n_paths-1 of one seed, on one grid.

    Path k draws from its own stream, ``rng.stream_for_path(seed, k)``, bit
    for bit, through one reused Philox generator: a Philox stream is fixed
    by its key, so each path resets the generator to counter 0 under its
    key. The keys are derived in bulk (``rng.philox_keys``), ``KEY_CHUNK``
    paths at a time from the first path not yet keyed, so the paths can be
    drawn in any order and a source of few paths derives few keys.
    """

    KEY_CHUNK = 4096

    def __init__(self, grid: GridSpec, seed: int, n_paths: int):
        self.grid, self.seed, self.n_paths = grid, int(seed), int(n_paths)
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": np.zeros(4, np.uint64), "key": None},
                       "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
        self._first = 0
        self._keys = np.empty((0, 2), np.uint64)

    def normals(self, k: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (C order) with the first ``out.size`` standard
        normals of path k's stream. Returns ``out``."""
        i = k - self._first
        if not 0 <= i < len(self._keys):
            if not 0 <= k < self.n_paths:
                raise IndexError(f"path {k} outside 0..{self.n_paths - 1}")
            self._first, i = k, 0
            self._keys = philox_keys(self.seed, np.arange(
                k, min(k + self.KEY_CHUNK, self.n_paths), dtype=np.uint64))
        self._state["state"]["key"] = self._keys[i]
        self._bitgen.state = self._state
        return self._gen.standard_normal(out=out)

    def draw_cells(self, start: int, cells: np.ndarray,
                   head: np.ndarray | None = None) -> np.ndarray:
        """Draw the N(0, h^2) cell masses of paths start, start+1, ... into ``cells``.

        ``cells`` has shape (batch, rows, n_sheet_x) with rows <= n_t, and
        ``cells[b]`` receives the first ``rows`` time rows of path
        ``start + b``. A stream fills the rows in order, so the first rows
        of a path do not depend on how many are drawn. ``head``, of shape
        (batch, m) with m <= n_sheet_x, receives the first m standard
        normals of each path, before they are scaled by h. Returns ``cells``.
        """
        g = self.grid
        if cells.ndim != 3 or cells.shape[1] > g.n_t or cells.shape[2] != g.n_sheet_x:
            raise GridError("cell buffer does not match the extended lattice")
        for b in range(cells.shape[0]):
            self.normals(start + b, cells[b])
        if head is not None:
            head[...] = cells[:, 0, :head.shape[1]]
        cells *= g.h
        return cells

    def sample_batch(self, start: int, cells: np.ndarray, values: np.ndarray,
                     head: np.ndarray | None = None) -> np.ndarray:
        """Sample paths start, start+1, ... into preallocated buffers.

        ``cells`` has shape (batch, n_t, n_sheet_x) and receives the cell
        masses of path ``start + b`` in ``cells[b]`` (``draw_cells``, which
        also fills ``head``); ``values`` has shape (batch, n_t+1,
        n_sheet_x+1) and receives the sheets. Returns ``values``.
        """
        g = self.grid
        if (cells.shape[1:] != (g.n_t, g.n_sheet_x)
                or values.shape != (cells.shape[0], g.n_t + 1, g.n_sheet_x + 1)):
            raise GridError("sheet buffers do not match the extended lattice")
        self.draw_cells(start, cells, head)
        return _kernels.prefix_sum_2d(cells, out=values)

    def sample(self, k: int) -> SheetSample:
        """The sheet of path k, with its own buffers."""
        g = self.grid
        cells = np.empty((1, g.n_t, g.n_sheet_x))
        values = np.empty((1, g.n_t + 1, g.n_sheet_x + 1))
        self.sample_batch(k, cells, values)
        return SheetSample(g, values[0], cells[0], self.seed)


def draw_cells(grid: GridSpec, seed: int, start: int, cells: np.ndarray) -> np.ndarray:
    """``SheetSource.draw_cells`` for paths start..start+batch-1 of ``seed``."""
    return SheetSource(grid, seed, start + len(cells)).draw_cells(start, cells)


def sample_sheet_batch(grid: GridSpec, seed: int, start: int, cells: np.ndarray,
                       values: np.ndarray) -> np.ndarray:
    """``SheetSource.sample_batch`` for paths start..start+batch-1 of ``seed``;
    path ``start + b`` is bit-identical to ``sample_sheet(grid, seed, start + b)``."""
    return SheetSource(grid, seed, start + len(cells)).sample_batch(start, cells, values)


def sample_sheet(grid: GridSpec, seed: int, path_index: int = 0) -> SheetSample:
    """Sample one sheet; identical (grid, seed, path_index) is bit-identical."""
    return SheetSource(grid, seed, path_index + 1).sample(path_index)


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
