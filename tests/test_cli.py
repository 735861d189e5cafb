import json
import os
import threading
import time

import pytest

import sheetpde as sp
from sheetpde import _kernels
from sheetpde import sheet as sheet_mod
from sheetpde.cli import (ConfigError, NumericalCriterionError, main,
                          parse_config, run)
from sheetpde.solver import ExistenceCriterionError, TransportPlan
from sheetpde.yield_curve import negate

QV_CFG = {
    "command": "qv",
    "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.015625},
    "seed": 5,
    "qv": {"t": 1.0, "x_lo": 0.0, "x_hi": 1.0, "n_values": [16, 32], "n_seeds": 6},
}

SIM_CFG = {
    "command": "simulate",
    "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.1},
    "coefficients": {"a": {"kind": "const", "value": 0.0}},
    "initial_curve": {"kind": "poly", "coeffs": [0.04, 0.01]},
    "seed": 3,
}


def cfg_text(d):
    return json.dumps(d)


class TestParseConfig:
    def test_minimal_qv_defaults_filled(self):
        cfg = parse_config(cfg_text(QV_CFG))
        assert cfg.command == "qv"
        assert cfg.data["n_paths"] == 1000
        assert cfg.data["tolerances"]["qv_relative"] == 0.1
        assert cfg.data["coefficients"]["b"] == {"kind": "const", "value": 0.0}
        assert cfg.data["initial_curve"] == {"kind": "flat", "level": 0.0}

    def test_round_trip_identity(self):
        cfg = parse_config(cfg_text(QV_CFG))
        again = parse_config(cfg.serialize())
        assert again == cfg
        assert again.serialize() == cfg.serialize()

    def test_unknown_key_suggests_h(self):
        bad = json.loads(cfg_text(QV_CFG))
        bad["grid"] = {"t_max": 1.0, "x_max": 1.0, "stepsize": 0.015625}
        with pytest.raises(ConfigError, match="did you mean 'h'"):
            parse_config(cfg_text(bad))

    def test_unknown_top_level_key(self):
        bad = dict(QV_CFG, sead=1)
        with pytest.raises(ConfigError, match="sead"):
            parse_config(cfg_text(bad))

    def test_malformed_json_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{\n  \"command\": qv\n}")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_number_rejected(self, literal):
        text = cfg_text(dict(SIM_CFG, coefficients={"a": {"kind": "const", "value": 0.0}}))
        text = text.replace('"value": 0.0', f'"value": {literal}')
        with pytest.raises(ConfigError, match="non-finite"):
            parse_config(text)

    @pytest.mark.parametrize("h", [float("nan"), float("inf")])
    def test_non_finite_step_override_rejected(self, h):
        with pytest.raises(ConfigError, match="grid.h must be a finite number"):
            parse_config(cfg_text(QV_CFG), overrides={"h": h})

    def test_grid_divisibility_checked(self):
        bad = dict(QV_CFG, grid={"t_max": 1.0, "x_max": 1.0, "h": 0.3})
        with pytest.raises(ConfigError, match="t-axis"):
            parse_config(cfg_text(bad))

    def test_qv_partition_divisibility_checked(self):
        bad = json.loads(cfg_text(QV_CFG))
        bad["qv"]["n_values"] = [48]
        with pytest.raises(ConfigError, match="does not divide"):
            parse_config(cfg_text(bad))

    def test_yield_with_inconsistent_b_cites_criterion(self):
        bad = {
            "command": "yield",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.25},
            "coefficients": {"a": {"kind": "const", "value": 1.0},
                             "b": {"kind": "const", "value": 1.0}},
        }
        with pytest.raises(NumericalCriterionError, match="if and only if"):
            parse_config(cfg_text(bad))

    def test_explicit_b_is_checked_by_the_solvers_check(self):
        # sup |a + b| = 1e-10: inside a 1e-9 tolerance, outside the solvers' 1e-12
        near = {
            "command": "yield",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.25},
            "coefficients": {"a": {"kind": "const", "value": 1.0},
                             "b": {"kind": "const", "value": -1.0 + 1e-10}},
        }
        with pytest.raises(ExistenceCriterionError) as from_config:
            parse_config(cfg_text(near))
        coeffs = sp.CoefficientSet(a=sp.const(1.0), b=sp.const(-1.0 + 1e-10),
                                   c=sp.const(0.0))
        with pytest.raises(ExistenceCriterionError) as from_plan:
            TransportPlan.build(sp.make_grid(1.0, 1.0, 0.25), coeffs, sp.flat_curve(0.0))
        assert str(from_config.value) == str(from_plan.value)

    def test_yield_with_consistent_b_accepted(self):
        good = {
            "command": "yield",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.25},
            "coefficients": {"a": {"kind": "t"}, "b": {"kind": "poly",
                                                       "coeffs": [[0.0], [-1.0]]}},
        }
        cfg = parse_config(cfg_text(good))
        assert cfg.command == "yield"

    def test_command_required_and_known(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config(cfg_text({"grid": {"t_max": 1, "x_max": 1, "h": 0.5}}))
        with pytest.raises(ConfigError, match="command"):
            parse_config(cfg_text(dict(QV_CFG, command="qvv")))

    def test_overrides_applied_before_validation(self):
        cfg = parse_config(cfg_text(QV_CFG), overrides={"seed": 9, "out_dir": "x",
                                                        "n_paths": 5, "h": None})
        assert cfg.data["seed"] == 9
        assert cfg.data["out_dir"] == "x"
        assert cfg.data["n_paths"] == 5

    def test_off_lattice_slices_rejected(self):
        base = {"grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.25}}
        with pytest.raises(ConfigError, match="yield.t_slices must be on the lattice"):
            parse_config(cfg_text(dict(base, command="yield",
                                       **{"yield": {"t_slices": [0.5, 0.3]}})))
        with pytest.raises(ConfigError, match="compare.t_slices must be on the lattice"):
            parse_config(cfg_text(dict(base, command="compare",
                                       compare={"t_slices": [0.3]})))
        # a compare slice needs one increment step after it
        with pytest.raises(ConfigError, match="compare.t_slices must lie within"):
            parse_config(cfg_text(dict(base, command="compare",
                                       compare={"t_slices": [1.0]})))
        cfg = parse_config(cfg_text(dict(base, command="compare",
                                         compare={"t_slices": [0.0, 0.75]})))
        assert cfg.data["compare"]["t_slices"] == [0.0, 0.75]

    def test_lemma_partition_counts_must_divide_the_slab_spans(self):
        base = {"command": "lemmas", "grid": {"t_max": 1.0, "x_max": 1.0, "h": 1 / 64}}
        with pytest.raises(ConfigError, match="product_n_values: 3 does not divide"):
            parse_config(cfg_text(dict(base, lemmas={"product_n_values": [4, 3]})))
        with pytest.raises(ConfigError, match="sup_n_values: 128 does not divide"):
            parse_config(cfg_text(dict(base, lemmas={"product_n_values": [8],
                                                     "sup_n_values": [4, 128]})))
        # on [0,1] x [0,1.5] the shifted rectangle is [1, 1.5]: span 32, not 64
        short = dict(base, grid={"t_max": 1.0, "x_max": 0.5, "h": 1 / 64})
        with pytest.raises(ConfigError, match="span 32 of the shifted rectangle"):
            parse_config(cfg_text(dict(short, lemmas={"product_n_values": [64]})))
        assert parse_config(cfg_text(dict(short, lemmas={"product_n_values": [32],
                                                         "sup_n_values": [64]})))

    def test_default_lemma_sizes_fail_fast_at_h_1_128(self):
        # sup_n_values defaults to [4, 16, 64, 256]; the unit span is 128
        cfg = {"command": "lemmas", "grid": {"t_max": 1.0, "x_max": 1.0, "h": 1 / 128}}
        started = time.perf_counter()
        with pytest.raises(ConfigError, match="256 does not divide"):
            parse_config(cfg_text(cfg))
        assert time.perf_counter() - started < 1.0

    def test_nelson_siegel_tau_guard(self):
        bad = dict(SIM_CFG, initial_curve={"kind": "nelson_siegel", "beta0": 0.05,
                                           "beta1": 0.0, "beta2": 0.0, "tau": -1.0})
        with pytest.raises(ConfigError, match="tau"):
            parse_config(cfg_text(bad))


class TestQvPassRunsOnce:
    """The qv command evaluates A = a + b once per run and gathers each
    sheet onto the diagonal once, whatever the seed count."""

    def test_work_per_run_and_per_sheet(self, tmp_path, monkeypatch):
        counts = {"coefficients": 0, "diag_gather": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        for meth in ("eval", "partial"):
            monkeypatch.setattr(sp.CoefficientSet, meth,
                                counting("coefficients", getattr(sp.CoefficientSet, meth)))
        monkeypatch.setattr(_kernels, "diag_gather",
                            counting("diag_gather", _kernels.diag_gather))
        per_run = []
        for n_seeds in (2, 7):
            cfg = {"command": "qv", "grid": {"t_max": 1.0, "x_max": 1.0, "h": 1 / 32},
                   "coefficients": {"a": {"kind": "x"}}, "seed": 4,
                   "out_dir": str(tmp_path / f"s{n_seeds}"),
                   "qv": {"t": 1.0, "x_lo": 0.0, "x_hi": 1.0, "n_values": [8, 16, 32],
                          "n_seeds": n_seeds}}
            counts.update(coefficients=0, diag_gather=0)
            run(parse_config(cfg_text(cfg)))
            per_run.append(counts["coefficients"])
            assert counts["diag_gather"] == n_seeds
        assert per_run[0] > 0
        assert per_run[0] == per_run[1]


LEMMA_CFGS = {
    # the default partition counts at h = 1/256, with the benchmark's seed counts
    "default-counts": ({"t_max": 1.0, "x_max": 1.0, "h": 1 / 256},
                       {"product_n_values": [8, 32, 128], "product_n_seeds": 60,
                        "sup_n_values": [4, 16, 64, 256], "sup_n_seeds": 20}),
    "sup-seeds-exceed-product": ({"t_max": 1.0, "x_max": 1.0, "h": 1 / 64},
                                 {"product_n_values": [4, 16], "product_n_seeds": 7,
                                  "sup_n_values": [2, 8, 64], "sup_n_seeds": 30}),
    # the unit rectangle's top row is the middle row of the sheet
    "t-max-2": ({"t_max": 2.0, "x_max": 1.0, "h": 1 / 64},
                {"product_n_values": [4, 16, 64], "product_n_seeds": 40,
                 "sup_n_values": [4, 16], "sup_n_seeds": 12}),
}


def lemma_cfg(name, out_dir, seed=17):
    grid, sec = LEMMA_CFGS[name]
    return parse_config(cfg_text({"command": "lemmas", "grid": grid, "seed": seed,
                                  "out_dir": str(out_dir), "lemmas": sec}))


class TestLemmasShareOnePass:
    """The lemmas command draws each path once for all three checks, and
    writes what each of the three plans gives when run alone."""

    @pytest.mark.parametrize("name", ["sup-seeds-exceed-product", "t-max-2"])
    def test_one_stream_per_path(self, name, tmp_path, monkeypatch):
        paths = []
        draw = sheet_mod.SheetSource.normals

        def counting(source, k, out):
            paths.append(k)
            return draw(source, k, out)

        monkeypatch.setattr(sheet_mod.SheetSource, "normals", counting)
        cfg = lemma_cfg(name, tmp_path / "o")
        run(cfg)
        sec = cfg.data["lemmas"]
        assert paths == list(range(max(sec["product_n_seeds"], sec["sup_n_seeds"])))

    @pytest.mark.parametrize("name", sorted(LEMMA_CFGS))
    def test_outputs_match_the_three_checks(self, name, tmp_path):
        cfg = lemma_cfg(name, tmp_path / "o")
        run(cfg)
        g, sec = sp.make_grid(**cfg.data["grid"]), cfg.data["lemmas"]
        unit = sp.RectRegion(0.0, 1.0, 0.0, 1.0)
        shifted = sp.RectRegion(0.0, 1.0, 1.0, 2.0)
        one = sp.const(1.0)
        plans = {
            "partition_product_diagonal": sp.partition_product_plan(
                g, one, one, unit, unit, sec["product_n_values"], "diagonal",
                n_seeds=sec["product_n_seeds"]),
            "partition_product_disjoint": sp.partition_product_plan(
                g, one, one, unit, shifted, sec["product_n_values"], "disjoint",
                n_seeds=sec["product_n_seeds"]),
            "partition_sup": sp.partition_sup_plan(g, unit, sec["sup_n_values"],
                                                   n_seeds=sec["sup_n_seeds"]),
        }
        checks = {label: sp.run_partition_plans(g, cfg.data["seed"], [plan])[0]
                  for label, plan in plans.items()}
        report = {k: [r.to_json_dict() for r in rows] for k, rows in checks.items()}
        csv = ["check,n,seed,statistic\n"] + [
            f"{label},{r.n},{k},{v:.17g}\n"
            for label, rows in checks.items() for r in rows for k, v in enumerate(r.samples)]
        out = tmp_path / "o"
        assert (out / "lemmas_report.json").read_text(encoding="utf-8") == (
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        assert (out / "lemmas_convergence.csv").read_text(encoding="utf-8") == "".join(csv)


class TestRun:
    def test_qv_artifacts(self, tmp_path):
        cfg = parse_config(cfg_text(dict(QV_CFG, out_dir=str(tmp_path / "o"))))
        files = run(cfg)
        assert set(files) == {"config_effective.json", "manifest.json",
                              "qv_report.json", "qv_convergence.csv"}
        report = json.loads((tmp_path / "o" / "qv_report.json").read_text())
        assert set(report["per_estimator"]) == {"diagonal", "characteristic",
                                                "slicewise"}
        assert report["qv_relative_tolerance"] == 0.1
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["command"] == "qv"
        assert sorted(manifest["outputs"]) == sorted(
            f for f in files if f != "manifest.json")

    def test_simulate_zero_vol_matches_baseline_bytes(self, tmp_path):
        cfg = parse_config(cfg_text(dict(SIM_CFG, out_dir=str(tmp_path / "s"))))
        run(cfg)
        sol = (tmp_path / "s" / "solution.csv").read_bytes()
        base = (tmp_path / "s" / "baseline.csv").read_bytes()
        assert sol == base

    def test_rerun_is_byte_identical_except_manifest_times(self, tmp_path):
        out = tmp_path / "r"
        cfg = parse_config(cfg_text(dict(QV_CFG, out_dir=str(out))))
        names = ("qv_report.json", "qv_convergence.csv", "config_effective.json")
        run(cfg)
        first = {n: (out / n).read_bytes() for n in names}
        m1 = json.loads((out / "manifest.json").read_text())
        run(cfg)
        for n in names:
            assert (out / n).read_bytes() == first[n]
        m2 = json.loads((out / "manifest.json").read_text())
        for volatile in ("wall_time_s", "timestamp_utc"):
            m1.pop(volatile), m2.pop(volatile)
        assert m1 == m2

    def test_yield_and_compare_and_lemmas_artifacts(self, tmp_path):
        ycfg = {
            "command": "yield",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.25},
            "coefficients": {"a": {"kind": "const", "value": 0.1}},
            "n_paths": 40, "seed": 2, "out_dir": str(tmp_path / "y"),
            "yield": {"t_slices": [0.5, 1.0], "keep_paths": False},
        }
        files = run(parse_config(cfg_text(ycfg)))
        assert "yield_slices.csv" in files and "baseline.csv" in files

        ccfg = {
            "command": "compare",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.25},
            "coefficients": {"a": {"kind": "const", "value": 1.0}},
            "n_paths": 60, "seed": 2, "out_dir": str(tmp_path / "c"),
        }
        files = run(parse_config(cfg_text(ccfg)))
        assert "compare_report.json" in files
        rep = json.loads((tmp_path / "c" / "compare_report.json").read_text())
        assert rep["degenerate"] is False

        lcfg = {
            "command": "lemmas",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.125},
            "seed": 4, "out_dir": str(tmp_path / "l"),
            "lemmas": {"product_n_values": [4, 8], "product_n_seeds": 50,
                       "sup_n_values": [2, 4], "sup_n_seeds": 5},
        }
        files = run(parse_config(cfg_text(lcfg)))
        assert "lemmas_report.json" in files and "lemmas_convergence.csv" in files

    def test_weakform_artifacts(self, tmp_path):
        wcfg = {
            "command": "weakform",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.05},
            "coefficients": {"a": {"kind": "t"}},
            "seed": 6, "out_dir": str(tmp_path / "w"),
            "weakform": {"h_values": [0.1, 0.05], "n_seeds": 3},
        }
        files = run(parse_config(cfg_text(wcfg)))
        assert "weakform_report.json" in files and "residuals.json" in files
        rep = json.loads((tmp_path / "w" / "weakform_report.json").read_text())
        assert rep["corrupted_over_intact_ratio"] > 1.0
        records = json.loads((tmp_path / "w" / "residuals.json").read_text())
        assert {"h", "seed", "test_function_id", "residual", "variant"} <= set(records[0])

    def test_weakform_residuals_match_per_test_function_loop(self, tmp_path):
        import sheetpde as sp
        from sheetpde.operators import weak_residual_transport, write_residual_records

        wcfg = {
            "command": "weakform",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.025},
            "coefficients": {"a": {"kind": "x"}, "c": {"kind": "const", "value": 0.3}},
            "initial_curve": {"kind": "nelson_siegel", "beta0": 0.05, "beta1": -0.02,
                              "beta2": 0.01, "tau": 1.5},
            "seed": 8, "out_dir": str(tmp_path / "w"),
            "weakform": {"h_values": [0.1, 0.05, 0.025], "n_seeds": 3},
        }
        run(parse_config(cfg_text(wcfg)))
        coeffs = sp.CoefficientSet(a=sp.coord_x(), b=negate(sp.coord_x()), c=sp.const(0.3))
        op = sp.OperatorD(coeffs)
        r0 = sp.nelson_siegel_curve(0.05, -0.02, 0.01, 1.5)
        fine = sp.make_grid(1.0, 1.0, 0.025)
        records = []
        for seed_idx in range(3):
            sheet_fine = sp.sample_sheet(fine, 8, path_index=seed_idx)
            for h in (0.1, 0.05, 0.025):
                factor = round(h / 0.025)
                sheet = sp.restrict_sheet(sheet_fine, factor) if factor > 1 else sheet_fine
                W = sp.diagonal_noise(sheet)
                battery = sp.standard_bump_battery(sheet.grid)
                variants = [("intact", sp.solve_transport(coeffs, r0, W))]
                if h == 0.025:
                    plan = sp.TransportPlan.build(sheet.grid, coeffs, r0)
                    variants.append(("corrupted", plan.corrupted_solution(W)))
                for variant, r in variants:
                    for tf_id, tf in enumerate(battery):
                        records.append({"h": h, "seed": seed_idx, "test_function_id": tf_id,
                                        "residual": weak_residual_transport(r, W, op, tf),
                                        "variant": variant})
        write_residual_records(tmp_path / "loop.json", records)
        assert ((tmp_path / "w" / "residuals.json").read_bytes()
                == (tmp_path / "loop.json").read_bytes())

    def test_weakform_coefficient_work_independent_of_seed_count(self, tmp_path,
                                                                 monkeypatch):
        from sheetpde.coefficients import CoefficientSet

        calls = []

        def counted(method):
            def wrapped(self, *args, **kwargs):
                calls.append(1)
                return method(self, *args, **kwargs)
            return wrapped

        for name in ("eval", "partial"):
            monkeypatch.setattr(CoefficientSet, name, counted(getattr(CoefficientSet, name)))
        per_run = []
        for n_seeds in (1, 4):
            wcfg = {
                "command": "weakform",
                "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.05},
                "coefficients": {"a": {"kind": "t"}, "c": {"kind": "const", "value": 0.3}},
                "seed": 6, "out_dir": str(tmp_path / f"w{n_seeds}"),
                "weakform": {"h_values": [0.1, 0.05], "n_seeds": n_seeds},
            }
            cfg = parse_config(cfg_text(wcfg))
            calls.clear()
            run(cfg)
            per_run.append(len(calls))
        assert per_run[0] > 0
        assert per_run[0] == per_run[1]

    def test_yield_worker_pool_is_deterministic(self, tmp_path, monkeypatch):
        # --workers is accepted but runs nothing in parallel
        def no_threads(self):
            raise AssertionError("a run must start no thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        base = {
            "command": "yield",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.25},
            "coefficients": {"a": {"kind": "const", "value": 0.1}},
            "n_paths": 32, "seed": 9,
            "yield": {"t_slices": [1.0], "keep_paths": False},
        }
        outs = {}
        for label, workers in (("w1", 1), ("w2", 2)):
            cfg = parse_config(cfg_text(dict(base, out_dir=str(tmp_path / label))))
            run(cfg, workers=workers)
            outs[label] = {n: (tmp_path / label / n).read_bytes()
                           for n in ("yield_slices.csv", "yield_mean.csv",
                                     "yield_variance.csv")}
        assert outs["w1"] == outs["w2"]

    def test_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        import sheetpde.cli as cli_mod

        def boom(cfg, outputs):
            outputs.path("solution.csv").write_text("partial")
            raise OSError("disk full")

        monkeypatch.setattr(cli_mod, "_run_simulate", boom)
        out = tmp_path / "f"
        cfg = parse_config(cfg_text(dict(SIM_CFG, out_dir=str(out))))
        with pytest.raises(OSError):
            run(cfg)
        assert not (out / "solution.csv").exists()
        assert not (out / "config_effective.json").exists()
        assert not (out / "manifest.json").exists()


# configs whose values the grid cannot place; each must fail in parse_config,
# not in run after the output directory exists
OFF_GRID_CFGS = {
    "qv-t-past-t_max": ({"command": "qv", "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.125},
                         "qv": {"t": 2.0, "n_values": [2, 4], "n_seeds": 2}},
                        "qv.t must be on the lattice"),
    "qv-x_hi-past-x_max": ({"command": "qv",
                            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.125},
                            "qv": {"x_hi": 1.5, "n_values": [2, 4], "n_seeds": 2}},
                           "qv.x_hi must be on the lattice"),
    "compare-maturities": ({"command": "compare",
                            "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.125},
                            "compare": {"maturities": [0.3, 2.0]}},
                           "compare.maturities must be on the lattice"),
    "weakform-coarsening-factor": ({"command": "weakform",
                                    "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.1},
                                    "weakform": {"h_values": [0.3, 0.1]}},
                                   "coarsening factor 3 does not divide"),
    "weakform-step-off-the-axes": ({"command": "weakform",
                                    "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.1},
                                    "weakform": {"h_values": [0.6, 0.3]}},
                                   "h=0.3 does not divide the t-axis extent"),
}


class TestMain:
    def write_cfg(self, tmp_path, data):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        return str(p)

    @pytest.mark.parametrize("name", sorted(OFF_GRID_CFGS))
    def test_exit_2_off_grid_values_before_any_output(self, name, tmp_path):
        data, message = OFF_GRID_CFGS[name]
        out = tmp_path / "o"
        data = dict(data, out_dir=str(out))
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg_text(data))
        assert main([data["command"], "--config", self.write_cfg(tmp_path, data)]) == 2
        assert not out.exists()

    def test_exit_zero_and_artifacts(self, tmp_path):
        p = self.write_cfg(tmp_path, dict(SIM_CFG, out_dir=str(tmp_path / "go")))
        assert main(["simulate", "--config", p]) == 0
        assert (tmp_path / "go" / "solution.csv").exists()

    def test_flag_overrides(self, tmp_path):
        p = self.write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "flagged"
        assert main(["simulate", "--config", p, "--out", str(out), "--seed", "9"]) == 0
        eff = json.loads((out / "config_effective.json").read_text())
        assert eff["seed"] == 9

    def test_exit_2_config_error(self, tmp_path):
        p = self.write_cfg(tmp_path, dict(SIM_CFG,
                                          grid={"t_max": 1.0, "x_max": 1.0, "h": 0.3}))
        assert main(["simulate", "--config", p]) == 2

    def test_exit_2_command_mismatch(self, tmp_path):
        p = self.write_cfg(tmp_path, dict(SIM_CFG, out_dir=str(tmp_path / "x")))
        assert main(["qv", "--config", p]) == 2

    def test_exit_3_existence_violation(self, tmp_path):
        for b in (0.5, -1.0 + 1e-10):
            bad = {
                "command": "yield",
                "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.25},
                "coefficients": {"a": {"kind": "const", "value": 1.0},
                                 "b": {"kind": "const", "value": b}},
                "out_dir": str(tmp_path / "nope"),
            }
            p = self.write_cfg(tmp_path, bad)
            assert main(["yield", "--config", p]) == 3
            assert not (tmp_path / "nope").exists()

    def test_exit_2_criterion_tolerance_is_not_configurable(self, tmp_path, capsys):
        out = tmp_path / "tol"
        p = self.write_cfg(tmp_path, dict(SIM_CFG, out_dir=str(out),
                                          tolerances={"deterministic": 1e-9}))
        assert main(["simulate", "--config", p]) == 2
        assert "unknown key 'deterministic'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
    def test_exit_2_workers_out_of_range(self, tmp_path, monkeypatch, capsys, workers):
        import sheetpde.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("run must not start")

        monkeypatch.setattr(cli_mod, "run", never)
        out = tmp_path / "w"
        p = self.write_cfg(tmp_path, dict(SIM_CFG, out_dir=str(out)))
        assert main(["simulate", "--config", p, "--workers", str(workers)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, extra", [
        ("yield", {"grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.125}, "n_paths": 10}),
        ("simulate", {"grid": {"t_max": 4.0, "x_max": 4.0, "h": 0.25}}),
        ("compare", {"grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.125}, "n_paths": 10}),
        ("weakform", {"grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.125},
                      "weakform": {"h_values": [0.25, 0.125], "n_seeds": 2}}),
    ])
    def test_exit_3_non_finite_result(self, tmp_path, capsys, command, extra):
        out = tmp_path / "overflow"
        cfg = dict({"command": command, "seed": 1, "out_dir": str(out),
                    "coefficients": {"a": {"kind": "const", "value": 1e308}}}, **extra)
        p = self.write_cfg(tmp_path, cfg)
        assert main([command, "--config", p]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, text", [
        (["--h", "nan"], None),
        ([], '{"command": "simulate", "grid": {"t_max": 1.0, "x_max": 1.0, "h": 0.1}, '
             '"coefficients": {"a": {"kind": "const", "value": NaN}}}'),
    ], ids=["h-override-nan", "json-nan"])
    def test_exit_2_non_finite_number(self, tmp_path, capsys, argv, text):
        out = tmp_path / "nf"
        p = tmp_path / "cfg.json"
        p.write_text(text or json.dumps(SIM_CFG))
        assert main(["simulate", "--config", str(p), "--out", str(out), *argv]) == 2
        assert "finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_4_missing_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 4
