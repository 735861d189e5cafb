"""Command-line front end: validated batch runs emitting plot-ready files.

Subcommands: simulate, qv, weakform, lemmas, yield, compare. Every run
reads a JSON config (key-value with nested sections), validates it
fully before any computation, echoes the effective config (defaults
materialized) into the output directory, and writes CSV data files, a
JSON report and a manifest. Reruns with identical config and seed
reproduce every numeric output byte for byte; manifests differ only in
timestamp and wall time.

Exit codes: 0 success, 2 config error, 3 numerical-criterion violation,
4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import difflib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import CoefficientSet, const, coord_sum, coord_t, coord_x, polynomial
from .bumps import standard_bump_battery
from .diagnostics import (QV_ESTIMATORS, partition_product_plan, partition_sup_plan,
                          qv_samples, qv_summary, run_partition_plans)
from .grids import GridError, GridSpec, make_grid
from .operators import WeakFormPlan, write_residual_records
from .sheet import RectRegion, SheetSource, diagonal_noise, restrict_sheet, sample_sheet
from .solver import (NumericalCriterionError, TransportPlan, flat_curve,
                     nelson_siegel_curve, polynomial_curve, require_criterion,
                     require_finite, solve_transport, transport_solution)
from .yield_curve import (YieldScenario, compare_models, negate, simulate_yield,
                          write_slices_csv)

__all__ = ["ConfigError", "NumericalCriterionError", "RunConfig", "parse_config", "run", "main"]

COMMANDS = ("simulate", "qv", "weakform", "lemmas", "yield", "compare")


class ConfigError(ValueError):
    """Malformed, unknown or invalid configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# schema: one table of fields, read by one section checker
# ---------------------------------------------------------------------------

_ALIASES = {"stepsize": "h", "step": "h", "dt": "h", "dx": "h",
            "paths": "n_paths", "npaths": "n_paths", "outdir": "out_dir"}

_REQUIRED = object()   # default of a key that must be given
_OPTIONAL = object()   # default of a key left out of the effective config when absent


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _rule(ok, what: str, convert=None):
    """A field rule ``(path, value) -> value``: ConfigError("<path> must be
    <what>") unless ``ok(value)``; returns the value to echo, converted."""
    def check(path: str, value):
        if not ok(value):
            raise ConfigError(f"{path} must be {what}")
        return convert(value) if convert else value
    return check


def _is_num(v) -> bool:
    # JSON true and false are bools, which Python counts as ints
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v, lo: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_nums(v) -> bool:
    return isinstance(v, list) and bool(v) and all(_is_num(x) for x in v)


def _as_given(path: str, value):
    return value


def _table(path: str, given) -> dict:
    return _section(path, given, _FIELDS[path])


_NUM = _rule(_is_num, "a number")
_FLOAT = _rule(_is_num, "a number", float)
_POS = _rule(lambda v: _is_num(v) and v > 0, "a positive number")
_POS_FLOAT = _rule(lambda v: _is_num(v) and v > 0, "a positive number", float)
_NUMS = _rule(_is_nums, "a non-empty list of numbers")
_COUNTS = _rule(lambda v: isinstance(v, list) and bool(v) and all(_is_int(x, 1) for x in v),
                "a non-empty list of positive integers")
_POS_INT = _rule(lambda v: _is_int(v, 1), "a positive integer")
_SEEDS = _rule(lambda v: _is_int(v, 2), "an integer >= 2")
_STEPS = _rule(lambda v: isinstance(v, list) and len(v) >= 2
               and all(_is_num(x) and x > 0 for x in v), "a list of at least 2 positive steps")


def _tagged(kinds: dict):
    """The rule of a spec ``{"kind": k, ...}`` that carries kind k's fields
    and no others; ``kinds`` maps each kind to (builder, fields)."""
    names = tuple(kinds)

    def check(path: str, spec) -> dict:
        if isinstance(spec, dict) and spec.get("kind") not in names:
            raise ConfigError(f"{path}.kind must be one of {names}")
        fields = kinds[spec["kind"]][1] if isinstance(spec, dict) else {}
        return _section(path, spec, {"kind": (_REQUIRED, _as_given), **fields})
    return check


def _build(kinds: dict, spec: dict):
    """The object a checked spec describes: its kind's builder, called with
    the spec's fields in table order."""
    builder, fields = kinds[spec["kind"]]
    return builder(*(spec[name] for name in fields))


_COEFF_KINDS = {
    "const": (const, {"value": (_REQUIRED, _FLOAT)}),
    "t": (coord_t, {}),
    "x": (coord_x, {}),
    "t+x": (coord_sum, {}),
    "poly": (polynomial, {"coeffs": (_REQUIRED, _rule(
        lambda v: isinstance(v, list) and bool(v) and all(_is_nums(r) for r in v),
        "a non-empty matrix of numbers", lambda v: [[float(x) for x in r] for r in v]))}),
}
_CURVE_KINDS = {
    "flat": (flat_curve, {"level": (0.0, _FLOAT)}),
    "nelson_siegel": (nelson_siegel_curve, {"beta0": (_REQUIRED, _FLOAT),
                                            "beta1": (_REQUIRED, _FLOAT),
                                            "beta2": (_REQUIRED, _FLOAT),
                                            "tau": (_REQUIRED, _POS_FLOAT)}),
    "poly": (polynomial_curve, {"coeffs": (_REQUIRED, _rule(
        _is_nums, "a non-empty list of numbers", lambda v: [float(x) for x in v]))}),
}
_COEFF = _tagged(_COEFF_KINDS)

# every key of every section: {name: (default, rule)}
_FIELDS = {
    "": {
        "command": (_REQUIRED, _rule(lambda v: v in COMMANDS, f"one of {COMMANDS}")),
        "grid": (_REQUIRED, _table),
        "seed": (0, _rule(lambda v: _is_int(v, 0), "a non-negative integer")),
        "n_paths": (1000, _POS_INT),
        "out_dir": ("out", _rule(lambda v: isinstance(v, str) and v != "",
                                 "a non-empty string")),
        "tolerances": ({}, _table),
        "coefficients": ({}, _table),
        "initial_curve": ({"kind": "flat"}, _tagged(_CURVE_KINDS)),
        # only the command's own section is checked and echoed (parse_config)
        **{name: (_OPTIONAL, _as_given) for name in COMMANDS},
    },
    # a --h override is not JSON, so it can still be nan or inf
    "grid": dict.fromkeys(("t_max", "x_max", "h"), (_REQUIRED, _rule(
        lambda v: _is_num(v) and math.isfinite(v), "a finite number", float))),
    "tolerances": {"qv_relative": (0.1, _POS_FLOAT), "mc_sigmas": (3.0, _POS_FLOAT)},
    # b defaults to -a in the solve commands and to 0 in qv (parse_config)
    "coefficients": {"a": ({"kind": "const", "value": 1.0}, _COEFF),
                     "b": (_OPTIONAL, _COEFF),
                     "c": ({"kind": "const", "value": 0.0}, _COEFF)},
    "simulate": {},
    "qv": {"t": (1.0, _POS), "x_lo": (0.0, _NUM), "x_hi": (1.0, _NUM),
           "n_values": ([64, 128, 256], _COUNTS), "n_seeds": (50, _SEEDS)},
    "weakform": {"h_values": ([0.04, 0.02, 0.01], _STEPS), "n_seeds": (20, _POS_INT)},
    "lemmas": {"product_n_values": ([8, 32, 128], _COUNTS), "product_n_seeds": (1000, _SEEDS),
               "sup_n_values": ([4, 16, 64, 256], _COUNTS), "sup_n_seeds": (20, _SEEDS)},
    "yield": {"t_slices": ([0.5, 1.0], _NUMS),
              "keep_paths": (False, _rule(lambda v: isinstance(v, bool), "a boolean"))},
    "compare": {"t_slices": ([0.5], _NUMS),
                "maturities": (None, _rule(lambda v: v is None or _is_nums(v),
                                           "null or a list of numbers")),
                "ms_alpha": ({"kind": "const", "value": 0.0}, _COEFF),
                "ms_sigma": ({"kind": "const", "value": 1.0}, _COEFF)},
}


def _section(path: str, given, fields: dict) -> dict:
    """``given`` checked against ``fields``: an object with no unknown key,
    every default filled in and every value replaced by what its rule returns."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path} must be an object")
    for key in given:
        if key not in fields:
            hint = _ALIASES.get(key) or next(
                iter(difflib.get_close_matches(key, sorted(fields), n=1)), None)
            msg = f"unknown key '{key}' at " + (f"section '{path}'" if path else "top level")
            raise ConfigError(msg + (f"; did you mean '{hint}'?" if hint else ""))
    out = {}
    for name, (default, rule) in fields.items():
        value = given.get(name, default)
        if value is _OPTIONAL:
            continue
        where = f"{path}.{name}" if path else name
        if value is _REQUIRED:
            raise ConfigError(f"{where} is required")
        out[name] = rule(where, value)
    return out


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run configuration with every default materialized."""

    command: str
    data: dict

    def serialize(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"


def _reject_non_finite(literal: str):
    raise ConfigError(f"non-finite number {literal} in config; every number must be finite")


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig.

    Overrides (from command-line flags) are applied before validation.
    Raises ConfigError for syntax errors, unknown keys or invalid values,
    and ExistenceCriterionError (a NumericalCriterionError) when an
    explicit b of a solve command violates the existence criterion a = -b,
    checked by the solvers' own ``require_criterion``.
    """
    try:
        raw = json.loads(text, parse_constant=_reject_non_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from None
    _need(isinstance(raw, dict), "config root must be an object")
    raw = dict(raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key == "h":
            grid = raw.get("grid", {})
            raw["grid"] = dict(grid, h=val) if isinstance(grid, dict) else grid
        else:
            raw[key] = val

    data = _section("", raw, _FIELDS[""])
    command = data["command"]
    try:
        grid = make_grid(**data["grid"])
    except GridError as exc:
        raise ConfigError(f"grid: {exc}") from None
    if command == "qv":
        data["coefficients"].setdefault("b", {"kind": "const", "value": 0.0})
    data = {k: v for k, v in data.items() if k not in COMMANDS}
    data[command] = _section(command, raw.get(command, {}), _FIELDS[command])
    _check_lattice(command, data[command], grid)

    # solve commands force b = -a; an explicit b must satisfy the criterion
    if command in ("simulate", "yield", "weakform", "compare") and "b" in data["coefficients"]:
        require_criterion(_coefficient_set(data["coefficients"]), grid)

    return RunConfig(command, data)


def _check_lattice(command: str, sec: dict, g: GridSpec) -> None:
    """The checks of a command's section against the grid, by the grid's
    own rules, so what passes here is what the run reads."""
    def lattice_indices(key, values, axis):
        try:
            return [g.index_of(float(v), axis) for v in values]
        except GridError as exc:
            raise ConfigError(f"{command}.{key} must be on the lattice: {exc}") from None

    if command == "qv":
        _need(sec["x_lo"] < sec["x_hi"], "qv.x_lo must be below qv.x_hi")
        lattice_indices("t", [sec["t"]], "t")
        j0, j1 = (lattice_indices(key, [sec[key]], "x")[0] for key in ("x_lo", "x_hi"))
        for n in sec["n_values"]:
            _need((j1 - j0) % n == 0,
                  f"qv partition count {n} does not divide the lattice span {j1 - j0}")
    elif command == "weakform":
        hs = [float(v) for v in sec["h_values"]]
        _need(all(hs[i] > hs[i + 1] for i in range(len(hs) - 1)),
              "weakform.h_values must be strictly decreasing")
        for h in hs[:-1]:
            ratio = h / hs[-1]
            _need(abs(ratio - round(ratio)) < 1e-9,
                  "every weakform.h must be an integer multiple of the finest")
        try:
            fine = make_grid(g.t_max, g.x_max, hs[-1])
            for h in hs[:-1]:
                fine.coarsen(round(h / hs[-1]))
        except GridError as exc:
            raise ConfigError(f"weakform.h_values: {exc}") from None
    elif command == "lemmas":
        unit, shifted = _lemma_rectangles(g)
        try:
            g.index_of(unit.t_hi, "t")
            spans = {name: g.index_of(r.x_hi, "sheet_x") - g.index_of(r.x_lo, "sheet_x")
                     for name, r in (("unit", unit), ("shifted", shifted))}
        except GridError as exc:
            raise ConfigError(f"lemmas: the unit rectangle is off the lattice: {exc}") from None
        # the product checks partition both rectangles, the sup check the unit one
        for key, names in (("product_n_values", ("unit", "shifted")),
                           ("sup_n_values", ("unit",))):
            for n in sec[key]:
                for name in names:
                    _need(spans[name] % n == 0,
                          f"lemmas.{key}: {n} does not divide the slab span "
                          f"{spans[name]} of the {name} rectangle")
    elif command in ("yield", "compare"):
        slices = lattice_indices("t_slices", sec["t_slices"], "t")
        if command == "compare":
            # each slice needs one increment step after it
            _need(max(slices) < g.n_t,
                  f"compare.t_slices must lie within [0, {g.t_max - g.h:g}]")
            lattice_indices("maturities", sec["maturities"] or (), "x")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _coefficient_set(spec: dict) -> CoefficientSet:
    a = _build(_COEFF_KINDS, spec["a"])
    b = _build(_COEFF_KINDS, spec["b"]) if "b" in spec else negate(a)
    c = _build(_COEFF_KINDS, spec["c"])
    return CoefficientSet(a=a, b=b, c=c)


class _Outputs:
    """Creates the output directory and tracks the files a run writes, so a
    failed run can remove them and a directory it created."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.made_dir = not out_dir.exists()
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
        self.created: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.created.append(p)
        return p

    def discard_all(self) -> None:
        for p in self.created:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        if self.made_dir:
            try:
                self.out_dir.rmdir()   # only if nothing else was put there
            except OSError:
                pass


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def run(cfg: RunConfig, workers: int = 1) -> list[str]:
    """Execute a validated config; returns the list of files written.

    Every command runs on one thread. ``workers`` has no effect: it is
    accepted because existing callers still pass it.
    """
    outputs = _Outputs(Path(cfg.data["out_dir"]))
    started = time.time()
    try:
        with open(outputs.path("config_effective.json"), "w", encoding="utf-8") as f:
            f.write(cfg.serialize())
        runner = {"simulate": _run_simulate, "qv": _run_qv, "weakform": _run_weakform,
                  "lemmas": _run_lemmas, "yield": _run_yield,
                  "compare": _run_compare}[cfg.command]
        # an overflow is reported once, as exit 3 from require_finite,
        # not also as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            runner(cfg, outputs)
        manifest = {
            "command": cfg.command,
            "seed": cfg.data["seed"],
            "package_version": __version__,
            "numpy_version": np.__version__,
            "outputs": sorted(p.name for p in outputs.created),
            "wall_time_s": time.time() - started,
            "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        _write_json(outputs.path("manifest.json"), manifest)
        return sorted(p.name for p in outputs.created)
    except Exception:
        outputs.discard_all()
        raise


def _grid_curve(cfg: RunConfig):
    g = make_grid(**cfg.data["grid"])
    r0 = _build(_CURVE_KINDS, cfg.data["initial_curve"])
    r0.validate(g.sheet_x_max)
    return g, r0


def _run_simulate(cfg: RunConfig, outputs: _Outputs) -> None:
    g, r0 = _grid_curve(cfg)
    coeffs = _coefficient_set(cfg.data["coefficients"])
    # the sheet's cell masses are not needed by the solve; not keeping the
    # sheet frees them before the solve's temporaries are allocated
    W = diagonal_noise(sample_sheet(g, cfg.data["seed"], path_index=0))
    solution = solve_transport(coeffs, r0, W)
    require_finite("solution", solution.values)
    solution.to_csv(outputs.path("solution.csv"))
    transport_solution(g, r0).to_csv(outputs.path("baseline.csv"))


def _run_qv(cfg: RunConfig, outputs: _Outputs) -> None:
    g, _ = _grid_curve(cfg)
    coeffs = _coefficient_set(cfg.data["coefficients"])
    sec = cfg.data["qv"]
    t, x_lo, x_hi = float(sec["t"]), float(sec["x_lo"]), float(sec["x_hi"])
    n_values = sec["n_values"]
    seed = cfg.data["seed"]
    samples = qv_samples(coeffs, g, t, x_lo, x_hi, n_values, seed, sec["n_seeds"])
    for (est, n), values in samples.values.items():
        require_finite(f"{est} QV at n = {n}", values)

    n_max = max(n_values)
    tol = cfg.data["tolerances"]["qv_relative"]
    sigmas = cfg.data["tolerances"]["mc_sigmas"]
    reports = {est: qv_summary(coeffs, t, x_lo, x_hi, n_max, samples.values[est, n_max],
                               seed, est)
               for est in QV_ESTIMATORS}
    for est in QV_ESTIMATORS:
        require_finite(f"{est} QV target", reports[est].theoretical_qv)

    def within(rep) -> bool:
        # the diagonal statistic does not concentrate, so its seed mean is
        # judged in standard errors; the other two against qv_relative
        if rep.std_error is not None:
            return abs(rep.empirical_qv - rep.theoretical_qv) <= sigmas * rep.std_error
        return rep.relative_error <= tol

    def finite_or_none(v: float):
        return float(v) if np.isfinite(v) else None

    report = {
        "per_estimator": {est: reports[est].to_json_dict() for est in QV_ESTIMATORS},
        "qv_relative_tolerance": tol,
        "within_tolerance": {est: bool(within(reports[est])) for est in QV_ESTIMATORS},
        "holder_median_exponent": {
            est: finite_or_none(np.median(samples.holder[est]))
            if samples.holder else None
            for est in ("diagonal", "characteristic")},
    }
    _write_json(outputs.path("qv_report.json"), report)
    with open(outputs.path("qv_convergence.csv"), "w", encoding="utf-8",
              newline="\n") as f:
        f.write("estimator,n,seed,qv\n")
        for est in QV_ESTIMATORS:
            for n in n_values:
                for k, v in enumerate(samples.values[est, n]):
                    f.write(f"{est},{n},{k},{v:.17g}\n")


def _run_weakform(cfg: RunConfig, outputs: _Outputs) -> None:
    g_cfg = cfg.data["grid"]
    sec = cfg.data["weakform"]
    hs = [float(v) for v in sec["h_values"]]
    h_fine = hs[-1]
    coeffs = _coefficient_set(cfg.data["coefficients"])
    _, r0 = _grid_curve(cfg)
    fine_grid = make_grid(g_cfg["t_max"], g_cfg["x_max"], h_fine)
    factors = {h: round(h / h_fine) for h in hs}
    # built before the plans, so its small long-lived buffers do not sit
    # above their large ones on the heap: built after them, peak RSS on
    # the benchmark's weakform-write runs went from 69.7 to 72.3 MB
    source = SheetSource(fine_grid, cfg.data["seed"], sec["n_seeds"])
    # the solution map and the weak-form kernels depend on the step size
    # alone; every seed and both variants reuse them
    plans = {}
    for h in hs:
        g = fine_grid.coarsen(factors[h])
        plans[h] = (TransportPlan.build(g, coeffs, r0),
                    WeakFormPlan.build(g, coeffs, standard_bump_battery(g)))
    records = []
    medians = {h: [] for h in hs}
    corrupt_fine = []
    for seed_idx in range(sec["n_seeds"]):
        sheet_fine = source.sample(seed_idx)
        for h in hs:
            sheet = restrict_sheet(sheet_fine, factors[h]) if factors[h] > 1 else sheet_fine
            transport, weak = plans[h]
            W = diagonal_noise(sheet)
            res = weak.residuals(transport.solution(W), W)
            for tf_id, value in enumerate(res):
                records.append({"h": h, "seed": seed_idx, "test_function_id": tf_id,
                                "residual": value, "variant": "intact"})
            medians[h].append(float(np.median(res)))
            if h == h_fine:
                res_c = weak.residuals(transport.corrupted_solution(W), W)
                for tf_id, value in enumerate(res_c):
                    records.append({"h": h, "seed": seed_idx, "test_function_id": tf_id,
                                    "residual": value, "variant": "corrupted"})
                corrupt_fine.append(float(np.median(res_c)))
    require_finite("weak-form residuals", [r["residual"] for r in records])
    med_by_h = {h: float(np.median(medians[h])) for h in hs}
    med_corrupt = float(np.median(corrupt_fine))
    report = {
        "h_values": hs,
        "median_residuals": {str(h): med_by_h[h] for h in hs},
        "median_corrupted_at_finest": med_corrupt,
        "corrupted_over_intact_ratio": med_corrupt / med_by_h[h_fine],
        "monotone_decreasing": all(med_by_h[a] > med_by_h[b]
                                   for a, b in zip(hs, hs[1:])),
    }
    _write_json(outputs.path("weakform_report.json"), report)
    write_residual_records(outputs.path("residuals.json"), records)


def _lemma_rectangles(g) -> tuple[RectRegion, RectRegion]:
    """The unit rectangle of the lemma checks and its shifted disjoint twin."""
    unit = RectRegion(0.0, min(1.0, g.t_max), 0.0, min(1.0, g.sheet_x_max))
    width = unit.x_hi - unit.x_lo
    shifted = RectRegion(unit.t_lo, unit.t_hi, unit.x_hi,
                         min(unit.x_hi + width, g.sheet_x_max))
    return unit, shifted


def _run_lemmas(cfg: RunConfig, outputs: _Outputs) -> None:
    g, _ = _grid_curve(cfg)
    sec = cfg.data["lemmas"]
    unit, shifted = _lemma_rectangles(g)
    ones = const(1.0)
    n_values, n_seeds = sec["product_n_values"], sec["product_n_seeds"]
    plans = [partition_product_plan(g, ones, ones, unit, unit, n_values, "diagonal", n_seeds),
             partition_product_plan(g, ones, ones, unit, shifted, n_values, "disjoint", n_seeds),
             partition_sup_plan(g, unit, sec["sup_n_values"], n_seeds=sec["sup_n_seeds"])]
    diag_rows, disj_rows, sup_rows = run_partition_plans(g, cfg.data["seed"], plans)
    report = {
        "partition_product_diagonal": [r.to_json_dict() for r in diag_rows],
        "partition_product_disjoint": [r.to_json_dict() for r in disj_rows],
        "partition_sup": [r.to_json_dict() for r in sup_rows],
    }
    _write_json(outputs.path("lemmas_report.json"), report)
    with open(outputs.path("lemmas_convergence.csv"), "w", encoding="utf-8",
              newline="\n") as f:
        f.write("check,n,seed,statistic\n")
        for label, rows in (("partition_product_diagonal", diag_rows),
                            ("partition_product_disjoint", disj_rows),
                            ("partition_sup", sup_rows)):
            for r in rows:
                for k, v in enumerate(r.samples):
                    f.write(f"{label},{r.n},{k},{v:.17g}\n")


def _scenario(cfg: RunConfig) -> YieldScenario:
    g, r0 = _grid_curve(cfg)
    a, c = (_build(_COEFF_KINDS, cfg.data["coefficients"][k]) for k in ("a", "c"))
    return YieldScenario(g, r0, a, c, cfg.data["n_paths"], cfg.data["seed"])


def _run_yield(cfg: RunConfig, outputs: _Outputs) -> None:
    sc = _scenario(cfg)
    # yield.keep_paths is accepted but unused: no output reads the paths
    result = simulate_yield(sc, t_slices=cfg.data["yield"]["t_slices"])
    write_slices_csv(result, outputs.path("yield_slices.csv"))
    result.mean.to_csv(outputs.path("yield_mean.csv"))
    result.variance.to_csv(outputs.path("yield_variance.csv"))
    transport_solution(sc.grid, sc.r0).to_csv(outputs.path("baseline.csv"))


def _run_compare(cfg: RunConfig, outputs: _Outputs) -> None:
    sec = cfg.data["compare"]
    report = compare_models(_scenario(cfg), _build(_COEFF_KINDS, sec["ms_alpha"]),
                            _build(_COEFF_KINDS, sec["ms_sigma"]),
                            sec["t_slices"], maturities=sec["maturities"])
    for label, corr in (("sheet-model", report.corr_spde), ("single-driver", report.corr_ms)):
        for t, m in corr.items():
            if m is not None:
                require_finite(f"{label} correlation at t = {t:g}", m)
    _write_json(outputs.path("compare_report.json"), report.to_json_dict())


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sheetpde",
                                     description="Brownian-sheet SPDE laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--paths", type=int, default=None, help="override n_paths")
        p.add_argument("--h", type=float, default=None, help="override grid step")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and range-checked, but has no effect: "
                            "every command runs on one thread")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    n_cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= n_cpus:
        print(f"config error: --workers must lie in [1, {n_cpus}], got {args.workers}",
              file=sys.stderr)
        return 2
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    overrides = {"seed": args.seed, "out_dir": args.out, "n_paths": args.paths,
                 "h": args.h}
    try:
        cfg = parse_config(text, overrides=overrides)
        if cfg.command != args.command:
            raise ConfigError(f"config command {cfg.command!r} does not match "
                              f"subcommand {args.command!r}")
        run(cfg, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalCriterionError as exc:
        print(f"criterion violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # config-induced numeric misuse surfaced past validation
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
