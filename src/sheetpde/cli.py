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
from .grids import GridError, make_grid
from .operators import OperatorD, WeakFormPlan, write_residual_records
from .sheet import RectRegion, SheetSource, diagonal_noise, restrict_sheet, sample_sheet
from .solver import (InitialCurve, NumericalCriterionError, TransportPlan, flat_curve,
                     nelson_siegel_curve, polynomial_curve, require_criterion,
                     require_finite, solve_transport, transport_solution)
from .yield_curve import (YieldScenario, compare_models, negate, simulate_yield,
                          write_slices_csv)

__all__ = ["ConfigError", "NumericalCriterionError", "RunConfig", "parse_config", "run", "main"]

COMMANDS = ("simulate", "qv", "weakform", "lemmas", "yield", "compare")


class ConfigError(ValueError):
    """Malformed, unknown or invalid configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

_ALIASES = {"stepsize": "h", "step": "h", "dt": "h", "dx": "h",
            "paths": "n_paths", "npaths": "n_paths", "outdir": "out_dir"}

_COEFF_KINDS = ("const", "t", "x", "t+x", "poly")
_CURVE_KINDS = ("flat", "nelson_siegel", "poly")

_SCHEMA = {
    "": {"command", "grid", "coefficients", "initial_curve", "seed", "n_paths",
         "out_dir", "tolerances", "simulate", "qv", "weakform", "lemmas",
         "yield", "compare"},
    "grid": {"t_max", "x_max", "h"},
    "coefficients": {"a", "b", "c"},
    "initial_curve": {"kind", "level", "beta0", "beta1", "beta2", "tau", "coeffs"},
    "tolerances": {"qv_relative", "mc_sigmas"},
    "simulate": set(),
    "qv": {"t", "x_lo", "x_hi", "n_values", "n_seeds"},
    "weakform": {"h_values", "n_seeds"},
    "lemmas": {"product_n_values", "product_n_seeds", "sup_n_values", "sup_n_seeds"},
    "yield": {"t_slices", "keep_paths"},
    "compare": {"t_slices", "maturities", "ms_alpha", "ms_sigma"},
}

_DEFAULTS = {
    "seed": 0,
    "n_paths": 1000,
    "out_dir": "out",
    "coefficients": {"a": {"kind": "const", "value": 1.0},
                     "c": {"kind": "const", "value": 0.0}},
    "initial_curve": {"kind": "flat", "level": 0.0},
    "tolerances": {"qv_relative": 0.1, "mc_sigmas": 3.0},
    "qv": {"t": 1.0, "x_lo": 0.0, "x_hi": 1.0, "n_values": [64, 128, 256], "n_seeds": 50},
    "weakform": {"h_values": [0.04, 0.02, 0.01], "n_seeds": 20},
    "lemmas": {"product_n_values": [8, 32, 128], "product_n_seeds": 1000,
               "sup_n_values": [4, 16, 64, 256], "sup_n_seeds": 20},
    "yield": {"t_slices": [0.5, 1.0], "keep_paths": False},
    "compare": {"t_slices": [0.5], "maturities": None,
                "ms_alpha": {"kind": "const", "value": 0.0},
                "ms_sigma": {"kind": "const", "value": 1.0}},
    "simulate": {},
}


def _reject_unknown(section: str, given: dict) -> None:
    allowed = _SCHEMA[section]
    for key in given:
        if key not in allowed:
            hint = _ALIASES.get(key) or next(
                iter(difflib.get_close_matches(key, sorted(allowed), n=1)), None)
            where = f"section '{section}'" if section else "top level"
            msg = f"unknown key '{key}' at {where}"
            if hint:
                msg += f"; did you mean '{hint}'?"
            raise ConfigError(msg)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _check_coeff_spec(path: str, spec) -> dict:
    _need(isinstance(spec, dict), f"{path} must be an object")
    _need("kind" in spec, f"{path} needs a 'kind' ({', '.join(_COEFF_KINDS)})")
    kind = spec["kind"]
    _need(kind in _COEFF_KINDS, f"{path}.kind: unknown kind {kind!r}")
    allowed = {"kind"} | ({"value"} if kind == "const" else set()) \
        | ({"coeffs"} if kind == "poly" else set())
    for key in spec:
        _need(key in allowed, f"unknown key '{key}' in {path}")
    if kind == "const":
        _need(isinstance(spec.get("value"), (int, float)), f"{path}.value must be a number")
        return {"kind": "const", "value": float(spec["value"])}
    if kind == "poly":
        rows = spec.get("coeffs")
        _need(isinstance(rows, list) and rows and all(
            isinstance(r, list) and r and all(isinstance(v, (int, float)) for v in r)
            for r in rows), f"{path}.coeffs must be a non-empty matrix of numbers")
        return {"kind": "poly", "coeffs": [[float(v) for v in r] for r in rows]}
    return {"kind": kind}


def coeff_from_spec(spec: dict) -> CoeffFn:
    kind = spec["kind"]
    if kind == "const":
        return const(spec["value"])
    if kind == "t":
        return coord_t()
    if kind == "x":
        return coord_x()
    if kind == "t+x":
        return coord_sum()
    return polynomial(spec["coeffs"])


def curve_from_spec(spec: dict) -> InitialCurve:
    kind = spec["kind"]
    if kind == "flat":
        return flat_curve(spec["level"])
    if kind == "nelson_siegel":
        return nelson_siegel_curve(spec["beta0"], spec["beta1"], spec["beta2"], spec["tau"])
    return polynomial_curve(spec["coeffs"])


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
            raw.setdefault("grid", {})
            raw["grid"] = dict(raw["grid"], h=val)
        else:
            raw[key] = val

    _reject_unknown("", raw)
    _need("command" in raw, "config needs a 'command'")
    command = raw["command"]
    _need(command in COMMANDS, f"command must be one of {COMMANDS}, got {command!r}")

    _need("grid" in raw and isinstance(raw["grid"], dict), "config needs a 'grid' section")
    _reject_unknown("grid", raw["grid"])
    for key in ("t_max", "x_max", "h"):
        val = raw["grid"].get(key)
        # a --h override is not JSON, so it can still be nan or inf
        _need(isinstance(val, (int, float)) and math.isfinite(val),
              f"grid.{key} must be a finite number")
    grid_cfg = {k: float(raw["grid"][k]) for k in ("t_max", "x_max", "h")}
    try:
        make_grid(**grid_cfg)
    except GridError as exc:
        raise ConfigError(f"grid: {exc}") from None

    data = {
        "command": command,
        "grid": grid_cfg,
        "seed": raw.get("seed", _DEFAULTS["seed"]),
        "n_paths": raw.get("n_paths", _DEFAULTS["n_paths"]),
        "out_dir": raw.get("out_dir", _DEFAULTS["out_dir"]),
    }
    _need(isinstance(data["seed"], int) and data["seed"] >= 0,
          "seed must be a non-negative integer")
    _need(isinstance(data["n_paths"], int) and data["n_paths"] >= 1,
          "n_paths must be a positive integer")
    _need(isinstance(data["out_dir"], str) and data["out_dir"],
          "out_dir must be a non-empty string")

    tol = dict(_DEFAULTS["tolerances"])
    if "tolerances" in raw:
        _reject_unknown("tolerances", raw["tolerances"])
        for key, val in raw["tolerances"].items():
            _need(isinstance(val, (int, float)) and val > 0,
                  f"tolerances.{key} must be a positive number")
            tol[key] = float(val)
    data["tolerances"] = tol

    coeffs_raw = raw.get("coefficients", {})
    _need(isinstance(coeffs_raw, dict), "'coefficients' must be an object")
    _reject_unknown("coefficients", coeffs_raw)
    coeffs_cfg = {
        "a": _check_coeff_spec("coefficients.a",
                               coeffs_raw.get("a", _DEFAULTS["coefficients"]["a"])),
        "c": _check_coeff_spec("coefficients.c",
                               coeffs_raw.get("c", _DEFAULTS["coefficients"]["c"])),
    }
    if "b" in coeffs_raw:
        coeffs_cfg["b"] = _check_coeff_spec("coefficients.b", coeffs_raw["b"])
    elif command == "qv":
        coeffs_cfg["b"] = {"kind": "const", "value": 0.0}
    data["coefficients"] = coeffs_cfg

    curve_raw = raw.get("initial_curve", _DEFAULTS["initial_curve"])
    _need(isinstance(curve_raw, dict), "'initial_curve' must be an object")
    _reject_unknown("initial_curve", curve_raw)
    kind = curve_raw.get("kind")
    _need(kind in _CURVE_KINDS, f"initial_curve.kind must be one of {_CURVE_KINDS}")
    if kind == "flat":
        _need(isinstance(curve_raw.get("level", 0.0), (int, float)),
              "initial_curve.level must be a number")
        data["initial_curve"] = {"kind": "flat", "level": float(curve_raw.get("level", 0.0))}
    elif kind == "nelson_siegel":
        keys = ("beta0", "beta1", "beta2", "tau")
        for key in keys:
            _need(isinstance(curve_raw.get(key), (int, float)),
                  f"initial_curve.{key} must be a number")
        _need(curve_raw["tau"] > 0, "initial_curve.tau must be positive")
        data["initial_curve"] = {"kind": kind, **{k: float(curve_raw[k]) for k in keys}}
    else:
        cs = curve_raw.get("coeffs")
        _need(isinstance(cs, list) and cs and all(isinstance(v, (int, float)) for v in cs),
              "initial_curve.coeffs must be a non-empty list of numbers")
        data["initial_curve"] = {"kind": "poly", "coeffs": [float(v) for v in cs]}

    section = dict(_DEFAULTS[command])
    if command in raw:
        _need(isinstance(raw[command], dict), f"'{command}' must be an object")
        _reject_unknown(command, raw[command])
        section.update(raw[command])
    if command == "compare":
        section["ms_alpha"] = _check_coeff_spec("compare.ms_alpha", section["ms_alpha"])
        section["ms_sigma"] = _check_coeff_spec("compare.ms_sigma", section["ms_sigma"])
    _validate_section(command, section, grid_cfg)
    data[command] = section

    # solve commands force b = -a; an explicit b must satisfy the criterion
    if command in ("simulate", "yield", "weakform", "compare") and "b" in coeffs_cfg:
        require_criterion(_coefficient_set(coeffs_cfg), make_grid(**grid_cfg))

    return RunConfig(command, data)


def _validate_section(command: str, sec: dict, grid_cfg: dict) -> None:
    def pos_num(key):
        _need(isinstance(sec.get(key), (int, float)) and sec[key] > 0,
              f"{command}.{key} must be a positive number")

    def int_list(key):
        _need(isinstance(sec.get(key), list) and sec[key]
              and all(isinstance(v, int) and v >= 1 for v in sec[key]),
              f"{command}.{key} must be a non-empty list of positive integers")

    def on_t_lattice(key, t_hi):
        h = grid_cfg["h"]
        _need(all(0 <= v <= t_hi + 1e-9 for v in sec[key]),
              f"{command}.{key} must lie within [0, {t_hi:g}]")
        _need(all(abs(round(v / h) * h - v) < 1e-9 for v in sec[key]),
              f"{command}.{key} must be on the lattice (multiples of h = {h:g})")

    if command == "qv":
        pos_num("t")
        _need(isinstance(sec.get("x_lo"), (int, float)), "qv.x_lo must be a number")
        _need(isinstance(sec.get("x_hi"), (int, float)), "qv.x_hi must be a number")
        _need(sec["x_lo"] < sec["x_hi"], "qv.x_lo must be below qv.x_hi")
        int_list("n_values")
        _need(isinstance(sec.get("n_seeds"), int) and sec["n_seeds"] >= 2,
              "qv.n_seeds must be an integer >= 2")
        h = grid_cfg["h"]
        for key in ("t", "x_lo", "x_hi"):
            val = float(sec[key])
            _need(abs(round(val / h) * h - val) < 1e-9, f"qv.{key} must be on the lattice")
        span = round((float(sec["x_hi"]) - float(sec["x_lo"])) / h)
        for n in sec["n_values"]:
            _need(span % n == 0,
                  f"qv partition count {n} does not divide the lattice span {span}")
    elif command == "weakform":
        _need(isinstance(sec.get("h_values"), list) and len(sec["h_values"]) >= 2
              and all(isinstance(v, (int, float)) and v > 0 for v in sec["h_values"]),
              "weakform.h_values must list at least 2 positive steps")
        hs = [float(v) for v in sec["h_values"]]
        _need(all(hs[i] > hs[i + 1] for i in range(len(hs) - 1)),
              "weakform.h_values must be strictly decreasing")
        for h in hs[:-1]:
            ratio = h / hs[-1]
            _need(abs(ratio - round(ratio)) < 1e-9,
                  "every weakform.h must be an integer multiple of the finest")
        _need(isinstance(sec.get("n_seeds"), int) and sec["n_seeds"] >= 1,
              "weakform.n_seeds must be a positive integer")
    elif command == "lemmas":
        int_list("product_n_values")
        int_list("sup_n_values")
        for key in ("product_n_seeds", "sup_n_seeds"):
            _need(isinstance(sec.get(key), int) and sec[key] >= 2,
                  f"lemmas.{key} must be an integer >= 2")
        g = make_grid(**grid_cfg)
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
    elif command == "yield":
        _need(isinstance(sec.get("t_slices"), list) and sec["t_slices"]
              and all(isinstance(v, (int, float)) for v in sec["t_slices"]),
              "yield.t_slices must be a non-empty list of numbers")
        on_t_lattice("t_slices", grid_cfg["t_max"])
        _need(isinstance(sec.get("keep_paths"), bool), "yield.keep_paths must be a boolean")
    elif command == "compare":
        _need(isinstance(sec.get("t_slices"), list) and sec["t_slices"]
              and all(isinstance(v, (int, float)) for v in sec["t_slices"]),
              "compare.t_slices must be a non-empty list of numbers")
        # each slice needs one increment step after it
        on_t_lattice("t_slices", grid_cfg["t_max"] - grid_cfg["h"])
        mats = sec.get("maturities")
        _need(mats is None or (isinstance(mats, list) and mats
                               and all(isinstance(v, (int, float)) for v in mats)),
              "compare.maturities must be null or a list of numbers")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _coefficient_set(spec: dict) -> CoefficientSet:
    a = coeff_from_spec(spec["a"])
    b = coeff_from_spec(spec["b"]) if "b" in spec else negate(a)
    c = coeff_from_spec(spec["c"])
    return CoefficientSet(a=a, b=b, c=c)


class _Outputs:
    """Tracks files created by a run so failures can clean up after themselves."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
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


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def run(cfg: RunConfig, workers: int = 1) -> list[str]:
    """Execute a validated config; returns the list of files written.

    Every command runs on one thread. ``workers`` has no effect: it is
    accepted because existing callers still pass it.
    """
    out_dir = Path(cfg.data["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    outputs = _Outputs(out_dir)
    started = time.time()
    try:
        with open(outputs.path("config_effective.json"), "w", encoding="utf-8") as f:
            f.write(cfg.serialize())
        runner = {"simulate": _run_simulate, "qv": _run_qv, "weakform": _run_weakform,
                  "lemmas": _run_lemmas, "yield": _run_yield,
                  "compare": _run_compare}[cfg.command]
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
    r0 = curve_from_spec(cfg.data["initial_curve"])
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

    n_max = max(n_values)
    tol = cfg.data["tolerances"]["qv_relative"]
    sigmas = cfg.data["tolerances"]["mc_sigmas"]
    reports = {est: qv_summary(coeffs, t, x_lo, x_hi, n_max, samples.values[est, n_max],
                               seed, est)
               for est in QV_ESTIMATORS}

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
    op = OperatorD(coeffs)
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
                    WeakFormPlan.build(g, op, standard_bump_battery(g)))
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


def _run_yield(cfg: RunConfig, outputs: _Outputs) -> None:
    g, r0 = _grid_curve(cfg)
    spec = cfg.data["coefficients"]
    sc = YieldScenario(g, r0, coeff_from_spec(spec["a"]), coeff_from_spec(spec["c"]),
                       cfg.data["n_paths"], cfg.data["seed"])
    # yield.keep_paths is accepted but unused: no output reads the paths
    result = simulate_yield(sc, t_slices=cfg.data["yield"]["t_slices"])
    write_slices_csv(result, outputs.path("yield_slices.csv"))
    result.mean.to_csv(outputs.path("yield_mean.csv"))
    result.variance.to_csv(outputs.path("yield_variance.csv"))
    transport_solution(g, r0).to_csv(outputs.path("baseline.csv"))


def _run_compare(cfg: RunConfig, outputs: _Outputs) -> None:
    g, r0 = _grid_curve(cfg)
    spec = cfg.data["coefficients"]
    sec = cfg.data["compare"]
    sc = YieldScenario(g, r0, coeff_from_spec(spec["a"]), coeff_from_spec(spec["c"]),
                       cfg.data["n_paths"], cfg.data["seed"])
    report = compare_models(sc, coeff_from_spec(sec["ms_alpha"]),
                            coeff_from_spec(sec["ms_sigma"]),
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
