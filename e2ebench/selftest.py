"""Tiny-size smoke test of the benchmark itself (``run.py --self-test``).

Asserts three things:
  1. every workload, traced and untraced, prints exactly the metrics
     BENCHMARK.json declares, each with its declared unit;
  2. an output corrupted by a 5 SE shift of the yield mean (applied
     consistently to every file that carries the mean, so only the
     exact-law check can catch it) is counted as a failed invocation;
  3. the workload seed changes the generated configs, and the same seed
     gives the same configs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import workloads as wl

CORRUPTION_SE = 5.0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def shift_yield_mean(cfg: dict, out: Path) -> None:
    """Add CORRUPTION_SE standard errors to the ensemble mean at every t > 0."""
    if cfg["command"] != "yield":
        return
    t, x, mean = wl.read_lattice_csv(out / "yield_mean.csv")
    _, _, se, _ = wl.yield_exact_law(cfg, t, x)
    shifted = mean + CORRUPTION_SE * se
    with open(out / "yield_mean.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("t\\x," + ",".join(f"{v:.17g}" for v in x) + "\n")
        for ti, row in zip(t, shifted):
            f.write(f"{ti:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    path = out / "yield_slices.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    h = cfg["grid"]["h"]
    for k, line in enumerate(lines[1:], start=1):
        cols = line.split(",")
        i, j = round(float(cols[0]) / h), round(float(cols[1]) / h)
        cols[2] = f"{shifted[i, j]:.17g}"
        lines[k] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _printed_result(print_result, result, record) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        print_result(result, record)
    lines = buf.getvalue().splitlines()
    for name, m in result["metrics"].items():
        _require(any(line.split()[:1] == [name] and line.split()[-1] == m["unit"]
                     for line in lines[:-1]), f"{name} not printed with its unit")
    return json.loads(lines[-1])


def run_all(run_benchmark, print_result, root: Path) -> None:
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    _require({w["name"] for w in bench["workloads"]} <= set(wl.WORKLOADS),
             "BENCHMARK.json names a workload workloads.py does not define")

    # 1. every declared metric, by name and unit, on every workload
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            result, record = run_benchmark(workload, 1, 0.01, trace, sizes=wl.SMOKE, probes=1)
            printed = _printed_result(print_result, result, record)
            _require(set(printed) == {"correct", "attempted", "failed", "metrics"},
                     "result line has the wrong keys")
            _require(printed["correct"] and printed["failed"] == 0,
                     f"{workload}: smoke run failed: {record['failures']}")
            got = {k: v["unit"] for k, v in printed["metrics"].items()}
            _require(got == declared[trace],
                     f"{workload} trace={trace}: metrics {sorted(got)} differ from "
                     f"BENCHMARK.json")
            _require(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in printed["metrics"].values()),
                     f"{workload}: a metric is not a finite number")
            print(f"self-test: {workload} trace={trace} ok "
                  f"({printed['attempted']} invocations)")

    # 2. a 5 SE shift of the mean is caught by the exact-law check
    result, record = run_benchmark("yield-paths", 1, 0.01, 0, sizes=wl.SMOKE, probes=1,
                                   corrupt=shift_yield_mean)
    _require(result["attempted"] >= 1 and result["failed"] == result["attempted"]
             and not result["correct"] and record["fail_ratio"] == 1.0,
             "corrupted yield mean was not counted as a failure")
    _require(all("mean" in r for r in record["failures"]),
             f"corruption caught for the wrong reason: {record['failures']}")
    print(f"self-test: corrupted mean counted in fail_ratio ({record['failures'][0]})")

    # 3. the seed, and only the seed, picks the inputs
    for workload in wl.WORKLOADS:
        one = wl.invocation_commands(workload, 1, 0, wl.SMOKE)
        _require(one == wl.invocation_commands(workload, 1, 0, wl.SMOKE),
                 f"{workload}: same seed gave different configs")
        _require(one != wl.invocation_commands(workload, 2, 0, wl.SMOKE),
                 f"{workload}: seed does not change the configs")
    print("self-test: seeds change the generated configs")
