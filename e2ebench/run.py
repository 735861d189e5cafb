#!/usr/bin/env python3
"""End-to-end benchmark of the sheetpde CLI.

Usage (from the repository root):

    python3 e2ebench/run.py --workload yield-paths --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test

One run generates the workload's configs from the seed, measures set-up
time in fresh processes, then starts one closed-loop client process
(``client.py``) that runs CLI invocations back to back for ``--seconds``.
Every invocation's outputs are then checked against the exact law
(``workloads.py``); a non-zero exit or a failed check counts as failed.
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from a traced half of the run.
The run record (versions, CPU count, load average, seeds, samples) is
printed above it and kept under ``.e2ebench_out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from calibrate import REF_NOMINAL_S  # noqa: E402

OUT_DIR = ROOT / ".e2ebench_out"
SETUP_PROBES = 9
PLAN_LENGTH = 96          # invocations generated per run; the budget ends it sooner
CLIENT_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "run_ref_s": "s", "paths_per_ref_s": "1/s",
              "peak_rss_mb": "MB", "pass_ratio": "ratio"}

PER_LAYER = {
    "cli.parse_config.s": "s", "cli.self_s": "s",
    "rng.stream_for_path.calls": "count", "rng.self_s": "s",
    "coefficients.eval.calls": "count", "coefficients.self_s": "s",
    "solver.solve_transport.calls": "count", "solver.self_s": "s",
    "sheet.sample_sheet.calls": "count", "sheet.self_s": "s", "sheet.cells_drawn": "count",
    "yield_curve.self_s": "s", "process.cpu_util": "ratio",
    "diagnostics.self_s": "s", "diagnostics.partition_product_check.s": "s",
    "kernels.diag_gather.calls": "count", "grids.index_of.calls": "count",
    "grids.self_s": "s", "operators.self_s": "s",
    "operators.weak_residual_transport.calls": "count", "bumps.self_s": "s",
    "calculus.self_s": "s", "grids.write.s": "s", "grids.write.bytes": "bytes",
    "kernels.self_s": "s", "kernels.calls": "count", "kernels.bytes_computed": "bytes",
    "trace.overhead_s": "s", "trace.attributed_share": "ratio",
}

# per-layer metric -> span name whose calls or inclusive time it reports
_SPAN_CALLS = {"rng.stream_for_path.calls": "rng.stream_for_path",
               "solver.solve_transport.calls": "solver.solve_transport",
               "sheet.sample_sheet.calls": "sheet.sample_sheet",
               "kernels.diag_gather.calls": "_kernels.diag_gather",
               "operators.weak_residual_transport.calls": "operators.weak_residual_transport"}
_SPAN_INCL = {"cli.parse_config.s": ("cli.parse_config",),
              "diagnostics.partition_product_check.s": ("diagnostics.partition_product_check",),
              "grids.write.s": ("grids.lattice_to_csv", "yield_curve.write_slices_csv",
                                "operators.write_residual_records")}
_COUNTERS = ("coefficients.eval.calls", "grids.index_of.calls", "sheet.cells_drawn",
             "grids.write.bytes", "kernels.bytes_computed")


class BenchmarkError(Exception):
    """The benchmark could not run (missing sources, a crashed client)."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_sha(root: Path):
    """HEAD of a git checkout at ``root``, read from the files; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_plan(work: Path, workload: str, seed: int, sizes: wl.Sizes) -> Path:
    """Write the configs of PLAN_LENGTH invocations and the plan that lists them."""
    plan = []
    for i in range(PLAN_LENGTH):
        inv = work / f"inv{i:03d}"
        inv.mkdir(parents=True)
        commands = []
        for cfg, workers in wl.invocation_commands(workload, seed, i, sizes):
            cfg = dict(cfg, out_dir=str(inv / cfg["command"]))
            path = inv / f"{cfg['command']}.json"
            path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
            commands.append({"config": str(path), "workers": workers})
        plan.append(commands)
    path = work / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def _client(args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "client.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"client did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"client exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure_setup(plan: Path, probes: int) -> list[float]:
    """Process start to validated config, in fresh processes."""
    samples = []
    for _ in range(probes):
        t0 = _clock()
        out = _client(["--plan", str(plan), "--setup-probe"], timeout=60.0)
        samples.append(out["validated_at"] - t0)
    return samples


def verify_invocations(plan: Path, invocations: list[dict], corrupt=None) -> list[str | None]:
    """Failure reason per invocation, None where every output checks out."""
    commands = json.loads(plan.read_text(encoding="utf-8"))
    reasons = []
    for rec in invocations:
        if rec["exit_code"] != 0:
            reasons.append(f"exit code {rec['exit_code']}: {rec.get('error', '')}")
            continue
        reason = None
        for cmd in commands[rec["index"]]:
            cfg = json.loads(Path(cmd["config"]).read_text(encoding="utf-8"))
            out = Path(cfg["out_dir"])
            try:
                if corrupt is not None:
                    corrupt(cfg, out)
                wl.verify_command(cfg, out)
            except wl.VerificationError as exc:
                reason = f"{cfg['command']}: {exc}"
                break
            except (LookupError, TypeError, ValueError) as exc:
                # a report missing a key or holding the wrong type
                reason = f"{cfg['command']}: malformed output: {exc!r}"
                break
        reasons.append(reason)
    return reasons


def run_ref_s(rec: dict) -> float:
    """An invocation's wall time rescaled to the nominal host speed (calibrate.py)."""
    return rec["run_s"] * REF_NOMINAL_S / rec["ref_s"]


def timed_invocations(invocations: list[dict], ok: list[bool]) -> list[dict]:
    """The verified invocations, less the first, cold one when others remain."""
    good = [r for r, k in zip(invocations, ok) if k] or invocations
    return [r for r in good if r["index"] > 0] or good


def end_to_end_metrics(workload: str, sizes: wl.Sizes, setup: list[float],
                       invocations: list[dict], ok: list[bool], peak_rss_kb: int) -> dict:
    timed = timed_invocations(invocations, ok)
    paths = wl.sheets_per_invocation(workload, sizes)
    run_ref = [run_ref_s(r) for r in timed]
    return {"setup_s": statistics.median(setup),
            "run_ref_s": statistics.median(run_ref),
            "paths_per_ref_s": statistics.median([paths / t for t in run_ref]),
            "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
            "pass_ratio": sum(ok) / len(ok)}


def per_layer_metrics(invocations: list[dict]) -> dict:
    untraced = [r for r in invocations if not r["traced"]]
    traced = [r for r in invocations if r["traced"]]
    per_inv = []
    for r in traced:
        lay = r["layers"]
        m = {}
        for name in PER_LAYER:
            layer, _, rest = name.partition(".")
            if rest == "self_s":
                m[name] = lay["self_s"].get(layer, 0.0)
        for name, span in _SPAN_CALLS.items():
            m[name] = lay["calls"].get(span, 0)
        for name, spans in _SPAN_INCL.items():
            m[name] = sum(lay["incl_s"].get(s, 0.0) for s in spans)
        for name in _COUNTERS:
            m[name] = r["counts"].get(name, 0)
        m["kernels.calls"] = sum(v for k, v in lay["calls"].items() if k.startswith("_kernels."))
        run_s = lay["run_s"]
        m["trace.attributed_share"] = (run_s - lay["cli_self_in_run_s"]) / run_s if run_s else 0.0
        per_inv.append(m)
    metrics = {name: statistics.median([m[name] for m in per_inv]) for name in per_inv[0]}
    metrics["process.cpu_util"] = statistics.median([r["cpu_s"] / r["run_s"] for r in untraced])
    # the first invocation of a process pays one-off costs; leave it out of
    # the untraced side when there is another untraced sample
    warm = untraced[1:] or untraced
    # both sides rescaled to the nominal host speed, so a change of host
    # speed between the two halves of the run does not show as overhead
    metrics["trace.overhead_s"] = (
        statistics.median([r["layers"]["run_s"] * REF_NOMINAL_S / r["ref_s"] for r in traced])
        - statistics.median([run_ref_s(r) for r in warm]))
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  sizes: wl.Sizes = wl.FULL, probes: int = SETUP_PROBES,
                  corrupt=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    if not (ROOT / "src" / "sheetpde" / "cli.py").is_file():
        raise BenchmarkError(f"no sheetpde sources under {ROOT / 'src'}")
    load_start = os.getloadavg()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    try:
        plan = write_plan(work, workload, seed, sizes)
        setup = measure_setup(plan, probes)
        args = ["--plan", str(plan), "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            args += ["--spans", str(OUT_DIR / f"spans-{workload}.jsonl.gz")]
        client = _client(args, timeout=CLIENT_TIMEOUT_S)
        invocations = client["invocations"]
        reasons = verify_invocations(plan, invocations, corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = [r is None for r in reasons]
    if trace:
        values = per_layer_metrics(invocations)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(workload, sizes, setup, invocations, ok,
                                    client["peak_rss_kb"])
        units = END_TO_END
    failed = ok.count(False)
    result = {"correct": failed == 0, "attempted": len(ok), "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(ROOT), "python": platform.python_version(),
        "numpy": _version("numpy"), "numba": _version("numba"),
        "cpu_count": os.cpu_count(), "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "config_seeds": [wl.invocation_seed(workload, seed, r["index"]) for r in invocations],
        "setup_s_samples": setup,
        "run_s_samples": [r["run_s"] for r in invocations],
        "cpu_s_samples": [r["cpu_s"] for r in invocations],
        "ref_s_samples": [r["ref_s"] for r in invocations],
        "traced": [r["traced"] for r in invocations],
        "fail_ratio": failed / len(ok),
        "failures": [r for r in reasons if r is not None],
    }
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                 encoding="utf-8")
    return result, record


def print_result(result: dict, record: dict) -> None:
    n = len(record["run_s_samples"])
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':40s} {record['fail_ratio']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} invocations)")
    print(f"samples: {len(record['setup_s_samples'])} set-ups, {n} invocations")
    print(f"wall run_s (not rescaled): median {statistics.median(record['run_s_samples']):.6g} s; "
          f"reference load: median {statistics.median(record['ref_s_samples']):.6g} s "
          f"(nominal {REF_NOMINAL_S} s)")
    for reason in record["failures"]:
        print(f"failed: {reason}")
    print("record: " + json.dumps(record))
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny-size smoke test of the benchmark itself")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            import selftest
            selftest.run_all(run_benchmark, print_result, ROOT)
            print("self-test passed")
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result, record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_result(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
