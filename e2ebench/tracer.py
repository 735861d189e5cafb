"""Span and counter tracing of the sheetpde modules, from outside the package.

``Tracer.install`` wraps every public function of every ``sheetpde``
module and rebinds it in every ``sheetpde`` namespace that imported it,
so a call made through ``from .sheet import sample_sheet`` is traced as
well as one made through ``sheet.sample_sheet``, and spans nest
(cli.run > simulate_yield > sample_sheet > stream_for_path). Three hot,
tiny methods get counters instead of spans, so a run does not allocate a
million span records: ``GridSpec.index_of`` (count only) and
``CoefficientSet.eval`` / ``partial`` (count and time).

Spans (id, parent, name, start, end, thread, run id) stay in memory and
are written once, by ``write_spans``. A layer is a module; its self time
is the time its spans cover minus the time covered by child spans on the
same thread. A span opened on a pool thread takes the invocation's root
span as parent but is not subtracted from it, since the two overlap.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import os
import threading
import time
from types import FunctionType

import numpy as np

MODULES = ("grids", "calculus", "coefficients", "bumps", "rng", "sheet", "operators",
           "solver", "diagnostics", "yield_curve", "cli", "_kernels")

# writer function -> index of its path argument
WRITERS = {"grids.lattice_to_csv": 0, "yield_curve.write_slices_csv": 1,
           "operators.write_residual_records": 0}

_clock = time.perf_counter


def layer_of(name: str) -> str:
    """Layer label of a span name; ``_kernels`` is reported as ``kernels``."""
    return name.split(".", 1)[0].lstrip("_")


class _ThreadState:
    def __init__(self, thread_id: int):
        self.thread = thread_id
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.light_depth = 0


class Tracer:
    """Collects spans and counters; one instance per traced process."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.run_id = 0
        self.root = None          # id of the current cli.run span

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        tracer = self
        writer_arg = WRITERS.get(name)
        is_kernel = name.startswith("_kernels.")
        counts_cells = name == "sheet.sample_sheet"
        is_root = name == "cli.run"

        def traced(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1][0] if st.stack else tracer.root
            rec = [next(tracer._ids), parent, name, _clock(), 0.0, st.thread,
                   tracer.run_id, 0.0, bool(st.stack)]
            if is_root:
                tracer.root = rec[0]
            st.stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = _clock()
                st.stack.pop()
                # a tuple of numbers and a str stops being tracked by the
                # cyclic GC, so a long trace does not slow collections
                st.spans.append(tuple(rec))
            c = st.counts
            if is_kernel:
                nbytes = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
                if isinstance(result, np.ndarray):
                    nbytes += result.nbytes
                c["kernels.bytes_computed"] = c.get("kernels.bytes_computed", 0) + nbytes
            elif counts_cells:
                c["sheet.cells_drawn"] = c.get("sheet.cells_drawn", 0) \
                    + result.cell_increments.size
            elif writer_arg is not None:
                c["grids.write.bytes"] = c.get("grids.write.bytes", 0) \
                    + os.path.getsize(args[writer_arg])
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _counter_method(self, fn, key: str, timed_layer: str | None):
        tracer = self

        if timed_layer is None:
            def counted(*args, **kwargs):
                c = tracer._state().counts
                c[key] = c.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counted

        light_key = f"{timed_layer}.light_s"

        def timed(*args, **kwargs):
            st = tracer._state()
            st.counts[key] = st.counts.get(key, 0) + 1
            if st.light_depth:
                return fn(*args, **kwargs)
            st.light_depth += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                st.light_depth -= 1
                st.counts[light_key] = st.counts.get(light_key, 0.0) + dt
                if st.stack:
                    st.stack[-1][7] += dt
        return timed

    def install(self) -> None:
        """Wrap the public functions and the three counted methods."""
        mods = {m: importlib.import_module(f"sheetpde.{m}") for m in MODULES}
        names: dict[int, tuple[object, str]] = {}
        for label, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    known = names.get(id(obj))
                    # aliases such as _kernels.diag_gather / diag_gather_np
                    # share one span name, the shortest
                    if known is None or len(attr) < len(known[1].split(".", 1)[1]):
                        names[id(obj)] = (obj, f"{label}.{attr}")
        wrappers = {key: self._span_wrapper(obj, name) for key, (obj, name) in names.items()}
        for mod in [importlib.import_module("sheetpde"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        grids, coeffs = mods["grids"], mods["coefficients"]
        grids.GridSpec.index_of = self._counter_method(
            grids.GridSpec.index_of, "grids.index_of.calls", None)
        for meth in ("eval", "partial"):
            setattr(coeffs.CoefficientSet, meth,
                    self._counter_method(getattr(coeffs.CoefficientSet, meth),
                                         "coefficients.eval.calls", "coefficients"))

    # -- invocation grouping ---------------------------------------------

    def begin_invocation(self, run_id: int) -> None:
        self.run_id = run_id
        self.root = None

    # -- results ----------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for st in self._states for s in st.spans]

    def take_counts(self) -> dict[str, float]:
        """Counters since the last call, summed over threads, then reset."""
        total: dict[str, float] = {}
        with self._lock:
            for st in self._states:
                for k, v in st.counts.items():
                    total[k] = total.get(k, 0) + v
                st.counts = {}
        return total

    def write_spans(self, path) -> None:
        """Write every span as one gzipped JSON line: id, parent, name, start,
        end, thread, run id (times in seconds of the process's perf clock)."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for s in sorted(self.spans(), key=lambda s: s[0]):
                f.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2],
                                    "start": s[3], "end": s[4], "thread": s[5],
                                    "run": s[6]}) + "\n")


def layer_times(spans: list[tuple], run_id: int, light: dict[str, float]) -> dict:
    """Per-invocation layer summary from the spans of run ``run_id``.

    Returns self time per layer, inclusive time and call count per span
    name, and the wall time of ``cli.run`` with the cli self time spent
    inside it.
    """
    mine = [s for s in spans if s[6] == run_id]
    by_id = {s[0]: s for s in mine}
    child = {s[0]: 0.0 for s in mine}
    for s in mine:
        # s[8]: the span had a parent on its own thread, so it overlaps it
        if s[8] and s[1] in child:
            child[s[1]] += s[4] - s[3]
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in mine:
        dur = s[4] - s[3]
        layer = layer_of(s[2])
        self_s[layer] = self_s.get(layer, 0.0) + dur - child[s[0]] - s[7]
        incl[s[2]] = incl.get(s[2], 0.0) + dur
        calls[s[2]] = calls.get(s[2], 0) + 1
    for key, v in light.items():
        if key.endswith(".light_s"):
            layer = key.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + v

    def in_run(s) -> bool:
        while s is not None:
            if s[2] == "cli.run":
                return True
            s = by_id.get(s[1])
        return False

    cli_self_in_run = sum(s[4] - s[3] - child[s[0]] - s[7]
                          for s in mine if layer_of(s[2]) == "cli" and in_run(s))
    return {"self_s": self_s, "incl_s": incl, "calls": calls,
            "run_s": incl.get("cli.run", 0.0), "cli_self_in_run_s": cli_self_in_run}
