#!/usr/bin/env python3
"""Time the numba kernels against their pure-numpy twins.

The batched kernels (prefix_sum_2d, cumtrapz, diag_gather) are numpy-only
and show no numba column. Runs each kernel on sizes representative of the hot paths (Monte Carlo
sheet generation at h = 1/512 and the closed-form solvers) and prints a
speedup table. The numba implementations are imported directly, so this
script works regardless of the SHEETPDE_DISABLE_NUMBA selection; run it
with the flag set to confirm the numpy fallback is the one the package
would bind.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from sheetpde import _kernels as K


def timeit(fn, *args, repeats=20):
    fn(*args)  # warm-up (and jit compile on the numba path)
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
        ("prefix_sum_2d (512x1024)", K.prefix_sum_2d_np, (cells,)),
        ("cumtrapz (513x1025)", K.cumtrapz_np, (vals, 1 / 512)),
        ("cumleft (513x1025)", K.cumleft_np, (vals, 1 / 512)),
        ("ito_cumsum (513x1025)", K.ito_cumsum_np, (vals, path)),
        ("diag_gather (513->513)", K.diag_gather_np, (vals, 513)),
        ("qv sum (n=256)", K.strided_sq_increment_sum_np, (z, 0, 512, 2)),
        ("max increment (n=256)", K.strided_max_abs_increment_np, (z, 0, 512, 2)),
    ]

    if not K.NUMBA_ENABLED:
        print("numba is disabled or unavailable; timing the numpy path only\n")

    header = f"{'kernel':<28}{'numpy':>12}"
    if K.NUMBA_ENABLED:
        header += f"{'numba':>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, np_fn, fn_args in cases:
        t_np = timeit(np_fn, *fn_args, repeats=args.repeats)
        line = f"{name:<28}{t_np * 1e3:>10.3f}ms"
        nb_fn = getattr(K, np_fn.__name__.replace("_np", "_nb"), None)
        if nb_fn is not None:
            t_nb = timeit(nb_fn, *fn_args, repeats=args.repeats)
            line += f"{t_nb * 1e3:>10.3f}ms{t_np / t_nb:>9.2f}x"
        elif K.NUMBA_ENABLED:
            line += f"{'-':>12}{'-':>10}"   # batched kernel, numpy only
        print(line)

    print(f"\nselected path for the package: "
          f"{'numba' if K.NUMBA_ENABLED else 'numpy'} "
          f"(set SHEETPDE_DISABLE_NUMBA=1 to force numpy)")


if __name__ == "__main__":
    main()
