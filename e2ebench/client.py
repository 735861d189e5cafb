"""Closed-loop benchmark client: one process, one CLI invocation after another.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``. It imports the
package, validates the first invocation's configs (that instant ends the
set-up time), then runs invocations through ``sheetpde.cli.parse_config``
and ``sheetpde.cli.run`` until the time budget is spent, starting a new
invocation only while time remains. Outputs are left on disk for
``run.py`` to verify.

Before every invocation, and once after the last, the client times the
fixed reference load of ``calibrate.py``; each invocation's ``ref_s`` is
the mean of the two loads around it.

Modes:
  --setup-probe  validate the configs, print the CLOCK_MONOTONIC reading
                 and exit; run.py times process start to that instant.
  --trace 0      time every invocation untraced.
  --trace 1      spend the first half of the budget untraced, then install
                 the tracer and spend the second half traced.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _now() -> float:
    # system-wide clock, comparable with run.py's reading taken before the spawn
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _exit_code(exc: BaseException, cli, solver) -> int:
    """The exit code ``sheetpde.cli.main`` maps an exception to."""
    if isinstance(exc, cli.ConfigError):
        return 2
    if isinstance(exc, (cli.NumericalCriterionError, solver.ExistenceCriterionError)):
        return 3
    if isinstance(exc, OSError):
        return 4
    if isinstance(exc, ValueError):
        return 2
    return 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True, help="JSON list of invocations")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where to write the spans")
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args()

    from sheetpde import cli, solver

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    for cmd in plan[0]:
        cli.parse_config(Path(cmd["config"]).read_text(encoding="utf-8"))
    validated_at = _now()
    if args.setup_probe:
        print(json.dumps({"validated_at": validated_at}))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from calibrate import reference

    tracer = None
    invocations = []
    refs = []  # refs[i] is the reference time just before invocation i
    start = time.perf_counter()
    budget = args.seconds
    for index, commands in enumerate(plan):
        elapsed = time.perf_counter() - start
        # a traced run always gets one untraced and one traced invocation
        if elapsed >= budget and not (args.trace and tracer is None):
            break
        traced = bool(args.trace) and index > 0 and elapsed >= budget / 2
        if traced and tracer is None:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            tracer.take_counts()
        refs.append(reference())
        if tracer is not None:
            tracer.begin_invocation(index)
        rec = {"index": index, "traced": traced, "run_s": 0.0, "cpu_s": 0.0,
               "exit_code": 0, "counts": {}}
        for cmd in commands:
            try:
                cfg = cli.parse_config(Path(cmd["config"]).read_text(encoding="utf-8"))
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    cli.run(cfg, workers=cmd["workers"])
                finally:
                    rec["run_s"] += time.perf_counter() - w0
                    rec["cpu_s"] += time.process_time() - c0
            except Exception as exc:  # a failed invocation is a result, not a crash
                rec["exit_code"] = _exit_code(exc, cli, solver)
                rec["error"] = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
                break
        if tracer is not None:
            rec["counts"] = tracer.take_counts()
        invocations.append(rec)
    refs.append(reference())
    for rec, before, after in zip(invocations, refs, refs[1:]):
        rec["ref_s"] = (before + after) / 2

    result = {"validated_at": validated_at, "invocations": invocations,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        from tracer import layer_times
        spans = tracer.spans()
        for rec in invocations:
            if rec["traced"]:
                rec["layers"] = layer_times(spans, rec["index"], rec["counts"])
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
