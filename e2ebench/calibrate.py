"""Host-speed reference for the end-to-end benchmark.

The VM that runs the benchmark shares its host, whose speed changes by
1.5-2x in regimes lasting from seconds to minutes; process CPU time moves
with wall time, so it does not help. The client therefore times a fixed
reference load between invocations and reports each invocation's wall
time rescaled to a nominal host speed:

    run_ref_s = run_s * REF_NOMINAL_S / ref_s

where ``ref_s`` is the mean time of the reference loads run just before
and just after the invocation. A change to the program moves ``run_s``
and leaves ``ref_s`` alone, so it moves ``run_ref_s`` by the same factor;
a change in host speed moves both and largely cancels.

The load mixes what the workloads spend their time on: interpreted Python
with dict lookups and float arithmetic, many small numpy calls, and most
of all sheet sampling in miniature (Philox normals, prefix sums, corner
gathers) with some float-to-text formatting. Timed next to interleaved
invocations of the three gated workloads, the sheet part followed their
wall time best (log-log slope near 1, against about 0.5 for interpreted
Python alone), so it takes about half of the load. The load works in two
65 KiB buffers allocated once, so it leaves the client's peak resident
memory as it is, and it never imports sheetpde, so no change to the
program changes the reference.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds the reference load takes on the host where the benchmark was
# defined (Intel Xeon, 2 vCPUs, in its faster regime); only scales the
# reported figure.
REF_NOMINAL_S = 0.05


# Buffers of the sheet part, allocated once: the load allocates no array
# larger than 1 KiB, so it cannot change how the client's heap grows.
_CELLS = np.empty((65, 129))
_SUMS = np.empty((65, 129))


def reference() -> float:
    """Run the fixed reference load once; return its wall time in seconds."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(50_000):
        k = i % 97
        table[k] = table.get(k, 0.0) + math.sqrt(i + 1.0) * 0.5
        acc += table[k]
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(700):
        acc += float(np.cumsum(rng.standard_normal(64))[-1])
    # sheet sampling in miniature: Gaussian cells, prefix sums, corner gathers
    for rep in range(96):
        rng.standard_normal(out=_CELLS)
        np.cumsum(_CELLS, axis=0, out=_SUMS)
        np.cumsum(_SUMS, axis=1, out=_CELLS)
        rows, cols = rng.integers(0, 65, 125), rng.integers(0, 129, 125)
        acc += float(_CELLS[rows, cols].sum())
        if rep % 3 == 0:
            acc += len(",".join(f"{v:.10g}" for v in _CELLS[rep % 65]))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference load produced a non-finite value")
    return elapsed
