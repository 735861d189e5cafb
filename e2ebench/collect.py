#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

Runs ``run.py`` as a separate process per seed, exactly as a driver
would, and reports per workload and metric the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, i.e.
the interquartile distance as a share of the median, next to the
metric's bound in BENCHMARK.json.

Usage (from the repository root):

    python3 e2ebench/collect.py --workloads qv-fine --seeds 1 2 3 4 5
    python3 e2ebench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --out e2ebench/trajectory/BENCH_0.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("record: "):]) for line in lines
                  if line.startswith("record: "))
    return json.loads(lines[-1]), record


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    args = ap.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    for w in args.workloads:
        results, records = [], []
        for seed in args.seeds:
            res, rec = run_once(w, seed, args.seconds, args.trace)
            results.append(res)
            records.append(rec)
            print(f"{w} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        rows = {}
        for m in metrics:
            s = summarize([r["metrics"][m["name"]]["value"] for r in results])
            s["unit"] = m["unit"]
            if "bound" in m:
                s["bound"] = m["bound"]
                print(f"  {m['name']:14s} median {s['median']:.5g} q1 {s['q1']:.5g} "
                      f"q3 {s['q3']:.5g} spread {s['spread']:.4f} bound {m['bound']}",
                      flush=True)
            rows[m["name"]] = s
        summary["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": rows,
            "records": records,
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
