#!/usr/bin/env python3
"""Time the numpy kernels of ``sheetpde._kernels`` on hot-path sizes.

Runs each kernel on sizes representative of the hot paths (Monte Carlo
sheet generation at h = 1/512, the corner rows of the lemma checks, the
closed-form solvers, the QV reductions and the lattice CSV writer) and
prints the best time of ``--repeats`` runs. The CSV kernel is shown next
to the per-row ``"%.17g"`` formatting it replaced. This is a
micro-benchmark; end-to-end timings come from ``e2ebench/run.py``.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from sheetpde import _kernels as K
from sheetpde.grids import _CSV_CHUNK_CELLS


def timeit(fn, *args, repeats=20):
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def format_g17_chunks(cells, seps):
    """Print a lattice the way ``grids.lattice_to_csv`` does, chunk by chunk."""
    for a in range(0, cells.size, _CSV_CHUNK_CELLS):
        K.format_g17(cells[a:a + _CSV_CHUNK_CELLS], seps[a:a + _CSV_CHUNK_CELLS])


def percent_g17_rows(rows):
    """The per-row formatting the kernel replaced: one "%" call per row."""
    fmt = ",".join(["%.17g"] * rows.shape[1])
    for row in rows:
        fmt % tuple(row.tolist())


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    cells = rng.standard_normal((512, 1024))
    vals = rng.standard_normal((513, 1025))
    path = np.cumsum(rng.standard_normal((513, 1025)), axis=0)
    z = np.cumsum(rng.standard_normal(513))
    # a simulate solution.csv: t and 1025 cells per row
    lattice = 0.05 + np.cumsum(rng.standard_normal((513, 1026)) * 0.01, axis=0)
    seps = np.full(lattice.shape, ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")

    cases = [
        ("prefix_sum_2d (512x1024)", K.prefix_sum_2d, (cells,)),
        ("prefix_sum_rows (2 of 513)", K.prefix_sum_rows, (cells, [0, 512])),
        ("cumtrapz (513x1025)", K.cumtrapz, (vals, 1 / 512)),
        ("ito_cumsum (513x1025)", K.ito_cumsum, (vals, path)),
        ("diag_gather (513->513)", K.diag_gather, (vals, 513)),
        ("qv sum (n=256)", K.strided_sq_increment_sum, (z, 0, 512, 2)),
        ("qv sum per row (513x1025)", K.strided_sq_increment_sum, (vals, 0, 512, 2)),
        ("max increment (n=256)", K.strided_max_abs_increment, (z, 0, 512, 2)),
        ("format_g17 (513x1026)", format_g17_chunks, (lattice.ravel(), seps.ravel())),
        ('"%.17g" per row (513x1026)', percent_g17_rows, (lattice,)),
    ]

    header = f"{'kernel':<28}{'best':>12}"
    print(header)
    print("-" * len(header))
    for name, fn, fn_args in cases:
        t = timeit(fn, *fn_args, repeats=args.repeats)
        print(f"{name:<28}{t * 1e3:>10.3f}ms")


if __name__ == "__main__":
    main()
