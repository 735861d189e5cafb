#!/usr/bin/env python3
"""Time the numpy kernels of ``sheetpde._kernels`` on hot-path sizes.

Runs each kernel on sizes representative of the hot paths (Monte Carlo
sheet generation at h = 1/512, the closed-form solvers and the QV
reductions) and prints the best time of ``--repeats`` runs. This is a
micro-benchmark; end-to-end timings come from ``e2ebench/run.py``.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from sheetpde import _kernels as K


def timeit(fn, *args, repeats=20):
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    cells = rng.standard_normal((512, 1024))
    vals = rng.standard_normal((513, 1025))
    path = np.cumsum(rng.standard_normal((513, 1025)), axis=0)
    z = np.cumsum(rng.standard_normal(513))

    cases = [
        ("prefix_sum_2d (512x1024)", K.prefix_sum_2d, (cells,)),
        ("cumtrapz (513x1025)", K.cumtrapz, (vals, 1 / 512)),
        ("ito_cumsum (513x1025)", K.ito_cumsum, (vals, path)),
        ("diag_gather (513->513)", K.diag_gather, (vals, 513)),
        ("qv sum (n=256)", K.strided_sq_increment_sum, (z, 0, 512, 2)),
        ("qv sum per row (513x1025)", K.strided_sq_increment_sum, (vals, 0, 512, 2)),
        ("max increment (n=256)", K.strided_max_abs_increment, (z, 0, 512, 2)),
    ]

    header = f"{'kernel':<28}{'numpy':>12}"
    print(header)
    print("-" * len(header))
    for name, fn, fn_args in cases:
        t = timeit(fn, *fn_args, repeats=args.repeats)
        print(f"{name:<28}{t * 1e3:>10.3f}ms")


if __name__ == "__main__":
    main()
