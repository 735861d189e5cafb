"""Workload definitions for the end-to-end benchmark: configs and oracles.

Each workload is a sequence of CLI invocations. One invocation is one or
more commands (a config document plus a worker count) whose outputs are
checked against the exact Gaussian law of the solution, or against the
invariants the paper proves, before the invocation counts as a success.

Inputs are a pure function of the workload name, the workload seed and
the invocation index; the program only ever sees the generated config
files. This module needs numpy for the oracles but never imports
sheetpde, so the checks are independent of the code they verify.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bounds in standard errors of the exact law. A yield invocation checks
# about a thousand lattice points and a benchmark session runs about a
# thousand invocations, so a single point may deviate by K_POINT before it
# fails (two-sided normal tail 2e-9 per point); a statistic checked once
# per invocation, such as a surface's average z-score, by K_SIGMA.
K_POINT = 6.0
K_SIGMA = 5.0
# Weak-form refutation: the corrupted solution must miss the weak form by
# at least this factor more than the intact one (about 10^4 is typical).
MIN_CORRUPTION_RATIO = 100.0

STD_NORMAL = statistics.NormalDist()
Z95 = 1.6448536269514722  # standard normal 0.95 quantile
PHI_Z95 = math.exp(-0.5 * Z95 * Z95) / math.sqrt(2.0 * math.pi)

NELSON_SIEGEL = {"kind": "nelson_siegel", "beta0": 0.05, "beta1": -0.02,
                 "beta2": 0.01, "tau": 1.5}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``SMOKE`` the self-test."""

    yield_h: float
    yield_paths: int
    qv_h: float
    qv_n_values: tuple
    qv_seeds: int
    lemmas_h: float
    product_n_values: tuple
    product_seeds: int
    sup_n_values: tuple
    sup_seeds: int
    weakform_h_values: tuple
    weakform_seeds: int
    simulate_h: float


FULL = Sizes(yield_h=0.05, yield_paths=2000,
             qv_h=1 / 512, qv_n_values=(64, 128, 256), qv_seeds=50,
             lemmas_h=1 / 256, product_n_values=(8, 32, 128), product_seeds=60,
             sup_n_values=(4, 16, 64, 256), sup_seeds=20,
             weakform_h_values=(0.02, 0.01, 0.005), weakform_seeds=10,
             simulate_h=1 / 512)

SMOKE = Sizes(yield_h=0.125, yield_paths=400,
              qv_h=1 / 256, qv_n_values=(64, 128, 256), qv_seeds=20,
              lemmas_h=1 / 64, product_n_values=(4, 16, 64), product_seeds=60,
              sup_n_values=(4, 16, 64), sup_seeds=12,
              weakform_h_values=(0.04, 0.02), weakform_seeds=4,
              simulate_h=1 / 64)


def _yield_config(sizes: Sizes, seed: int) -> dict:
    return {"command": "yield",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": sizes.yield_h},
            "coefficients": {"a": {"kind": "const", "value": 0.1},
                             "c": {"kind": "const", "value": 0.0}},
            "initial_curve": dict(NELSON_SIEGEL),
            "seed": seed, "n_paths": sizes.yield_paths,
            "yield": {"t_slices": [0.25, 0.5, 1.0], "keep_paths": False}}


def _qv_config(sizes: Sizes, seed: int) -> dict:
    return {"command": "qv",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": sizes.qv_h},
            "coefficients": {"a": {"kind": "const", "value": 1.0}},
            "seed": seed,
            "qv": {"t": 1.0, "x_lo": 0.0, "x_hi": 1.0,
                   "n_values": list(sizes.qv_n_values), "n_seeds": sizes.qv_seeds}}


def _lemmas_config(sizes: Sizes, seed: int) -> dict:
    return {"command": "lemmas",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": sizes.lemmas_h},
            "seed": seed,
            "lemmas": {"product_n_values": list(sizes.product_n_values),
                       "product_n_seeds": sizes.product_seeds,
                       "sup_n_values": list(sizes.sup_n_values),
                       "sup_n_seeds": sizes.sup_seeds}}


def _weakform_config(sizes: Sizes, seed: int) -> dict:
    return {"command": "weakform",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": sizes.weakform_h_values[-1]},
            "coefficients": {"a": {"kind": "t"}},
            "initial_curve": dict(NELSON_SIEGEL),
            "seed": seed,
            "weakform": {"h_values": list(sizes.weakform_h_values),
                         "n_seeds": sizes.weakform_seeds}}


def _simulate_config(sizes: Sizes, seed: int) -> dict:
    return {"command": "simulate",
            "grid": {"t_max": 1.0, "x_max": 1.0, "h": sizes.simulate_h},
            "coefficients": {"a": {"kind": "t"}},
            "initial_curve": dict(NELSON_SIEGEL),
            "seed": seed}


# name -> (why, [(config builder, workers), ...]); the why is the reason the
# workload exists, i.e. the layer it isolates. BENCHMARK.json gates the
# three whose run-to-run spread stays within its bounds on a shared host;
# qv-fine and yield-paths-2w move by about 30 % with the host's load and
# are run by name (see README.md).
WORKLOADS = {
    "yield-paths": (
        "2000 tiny sheets, 1 worker: per-path fixed costs (streams, coefficients, criterion, r0)",
        [(_yield_config, 1)]),
    "yield-paths-2w": (
        "same inputs with --workers 2: the only workload through the thread pool",
        [(_yield_config, 2)]),
    "qv-fine": (
        "50 large sheets at h=1/512: sampling, prefix sums and diagonal gathers",
        [(_qv_config, 1)]),
    "lemmas-partition": (
        "partition lemmas at h=1/256: Python-level rectangle corner lookups",
        [(_lemmas_config, 1)]),
    "weakform-write": (
        "weak residuals over bumps, then one large non-constant solve and CSV output",
        [(_weakform_config, 1), (_simulate_config, 1)]),
}


def invocation_seed(workload: str, seed: int, index: int) -> int:
    """Config seed of invocation ``index`` of a run seeded with ``seed``."""
    return random.Random(f"{workload}/{seed}/{index}").randrange(2 ** 31)


def invocation_commands(workload: str, seed: int, index: int,
                        sizes: Sizes = FULL) -> list[tuple[dict, int]]:
    """The (config, workers) commands of one invocation."""
    s = invocation_seed(workload, seed, index)
    return [(build(sizes, s), workers) for build, workers in WORKLOADS[workload][1]]


def sheets_per_invocation(workload: str, sizes: Sizes = FULL) -> int:
    """Monte Carlo paths (sheets) one invocation needs; fixed by its inputs."""
    if workload.startswith("yield-paths"):
        return sizes.yield_paths
    if workload == "qv-fine":
        return sizes.qv_seeds
    if workload == "lemmas-partition":
        # a template sheet, the product check twice (diagonal and disjoint)
        # and the sup check
        return 1 + 2 * sizes.product_seeds + sizes.sup_seeds
    if workload == "weakform-write":
        return sizes.weakform_seeds + 1
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class VerificationError(Exception):
    """An output that is missing, malformed or contradicts the exact law."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise VerificationError(msg)


def nelson_siegel(x: np.ndarray, beta0: float, beta1: float, beta2: float,
                  tau: float) -> np.ndarray:
    u = np.asarray(x, dtype=np.float64) / tau
    safe = np.where(u == 0.0, 1.0, u)
    g = np.where(u == 0.0, 1.0, -np.expm1(-safe) / safe)
    return beta0 + beta1 * g + beta2 * (g - np.exp(-u))


def _r0(cfg: dict):
    curve = cfg["initial_curve"]
    return lambda x: nelson_siegel(x, curve["beta0"], curve["beta1"],
                                   curve["beta2"], curve["tau"])


def read_lattice_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, values) of a lattice CSV; raises VerificationError if malformed."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n").split(",")
            body = np.loadtxt(f, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise VerificationError(f"{path.name}: {exc}") from None
    _check(header[0] == "t\\x", f"{path.name}: bad header")
    x = np.array([float(v) for v in header[1:]])
    _check(body.shape[1] == x.size + 1, f"{path.name}: ragged rows")
    return body[:, 0], x, body[:, 1:]


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise VerificationError(f"{path.name}: {exc}") from None


def _check_lattice(t, x, cfg: dict, name: str) -> None:
    g = cfg["grid"]
    h = g["h"]
    n_t, n_x = round(g["t_max"] / h), round(g["x_max"] / h)
    _check(t.size == n_t + 1 and x.size == n_x + 1, f"{name}: wrong lattice size")
    _check(np.allclose(t, np.arange(n_t + 1) * h, rtol=0, atol=1e-12)
           and np.allclose(x, np.arange(n_x + 1) * h, rtol=0, atol=1e-12),
           f"{name}: wrong lattice coordinates")


def _aggregate_z(z: np.ndarray, corr: np.ndarray) -> float:
    """Mean of correlated unit z-scores, standardized by its exact sd."""
    return float(np.mean(z) / math.sqrt(np.mean(corr)))


def yield_exact_law(cfg: dict, t: np.ndarray, x: np.ndarray):
    """Exact law of the yield ensemble on the lattice, constant vol, c = 0.

    r(t, x) = r0(t+x) + a B(t, t+x) with Cov B = min(s,t) min(u,v), so the
    mean is r0(t+x), the variance a^2 t (t+x) and both are exact on the
    lattice. Returns (mean, variance, SE of the mean, SE of the variance).
    """
    a = cfg["coefficients"]["a"]["value"]
    n = cfg["n_paths"]
    tt, xx = t[:, None], x[None, :]
    mean = _r0(cfg)(tt + xx)
    var = a * a * tt * (tt + xx)
    return mean, var, np.sqrt(var / n), var * math.sqrt(2.0 / (n - 1))


def verify_yield(cfg: dict, out: Path) -> None:
    n = cfg["n_paths"]
    t, x, mean = read_lattice_csv(out / "yield_mean.csv")
    _check_lattice(t, x, cfg, "yield_mean.csv")
    t2, x2, var = read_lattice_csv(out / "yield_variance.csv")
    _check(np.array_equal(t, t2) and np.array_equal(x, x2),
           "yield_variance.csv: lattice differs from yield_mean.csv")
    _check(np.all(np.isfinite(mean)) and np.all(np.isfinite(var)), "non-finite moments")
    mu, sig2, se_mean, se_var = yield_exact_law(cfg, t, x)

    # t = 0: the curve is deterministic
    _check(np.max(np.abs(mean[0] - mu[0])) <= 1e-12, "mean at t=0 is not r0(x)")
    _check(np.max(np.abs(var[0])) <= 1e-12, "variance at t=0 is not 0")

    pos = t > 0
    ts = np.repeat(t[pos], x.size)
    xi = (t[pos][:, None] + x[None, :]).ravel()
    corr = (np.minimum.outer(ts, ts) * np.minimum.outer(xi, xi)
            / np.sqrt(np.outer(ts * xi, ts * xi)))
    z_mean = ((mean - mu) / np.where(pos[:, None], se_mean, 1.0))[pos].ravel()
    z_var = ((var - sig2) / np.where(pos[:, None], se_var, 1.0))[pos].ravel()
    _check(np.max(np.abs(z_mean)) <= K_POINT,
           f"mean off r0(t+x) by {np.max(np.abs(z_mean)):.2f} SE at some point")
    _check(np.max(np.abs(z_var)) <= K_POINT,
           f"variance off a^2 t (t+x) by {np.max(np.abs(z_var)):.2f} SE at some point")
    agg_mean = _aggregate_z(z_mean, corr)
    agg_var = _aggregate_z(z_var, corr * corr)
    _check(abs(agg_mean) <= K_SIGMA, f"mean surface biased by {agg_mean:.2f} SE")
    _check(abs(agg_var) <= K_SIGMA, f"variance surface biased by {agg_var:.2f} SE")

    try:
        with open(out / "yield_slices.csv", encoding="utf-8") as f:
            _check(f.readline().strip() == "t,x,mean,variance,q05,q95",
                   "yield_slices.csv: bad header")
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise VerificationError(f"yield_slices.csv: {exc}") from None
    slices = cfg["yield"]["t_slices"]
    _check(rows.shape == (len(slices) * x.size, 6), "yield_slices.csv: wrong row count")
    _check(np.all(np.isfinite(rows)), "yield_slices.csv: non-finite values")
    h = cfg["grid"]["h"]
    for k, ts_ in enumerate(slices):
        block = rows[k * x.size:(k + 1) * x.size]
        i = round(ts_ / h)
        _check(np.all(block[:, 0] == ts_) and np.array_equal(block[:, 1], x),
               "yield_slices.csv: wrong slice coordinates")
        _check(np.array_equal(block[:, 2], mean[i]) and np.array_equal(block[:, 3], var[i]),
               "yield_slices.csv disagrees with the moment files")
        if ts_ == 0:
            continue
        sd = np.sqrt(sig2[i])
        se_q = sd * math.sqrt(0.05 * 0.95 / n) / PHI_Z95
        for col, sign in ((4, -1.0), (5, 1.0)):
            z = (block[:, col] - (mu[i] + sign * Z95 * sd)) / se_q
            _check(np.max(np.abs(z)) <= K_POINT,
                   f"q{'05' if sign < 0 else '95'} at t={ts_} off by "
                   f"{np.max(np.abs(z)):.2f} SE")

    tb, xb, base = read_lattice_csv(out / "baseline.csv")
    _check(np.array_equal(tb, t) and np.array_equal(xb, x), "baseline.csv: wrong lattice")
    _check(np.max(np.abs(base - mu)) <= 1e-12, "baseline.csv is not r0(t+x)")


def verify_qv(cfg: dict, out: Path) -> None:
    report = _read_json(out / "qv_report.json")
    within = report.get("within_tolerance", {})
    # the diagonal estimator provably vanishes under refinement (criterion
    # 2(i)), so only the two estimators with non-vanishing limits are checked
    for est in ("characteristic", "slicewise"):
        _check(within.get(est) is True,
               f"qv {est} estimator outside tolerance: "
               f"{report.get('per_estimator', {}).get(est)}")
        rel = report["per_estimator"][est]["relative_error"]
        _check(math.isfinite(rel), f"qv {est}: non-finite relative error")
    sec = cfg["qv"]
    try:
        with open(out / "qv_convergence.csv", encoding="utf-8") as f:
            _check(f.readline().strip() == "estimator,n,seed,qv", "qv_convergence.csv header")
            rows = [line.rstrip("\n").split(",") for line in f]
    except OSError as exc:
        raise VerificationError(str(exc)) from None
    _check(len(rows) == 3 * len(sec["n_values"]) * sec["n_seeds"],
           "qv_convergence.csv: wrong row count")
    vals = np.array([float(r[3]) for r in rows])
    _check(np.all(np.isfinite(vals)) and np.all(vals >= 0), "qv samples not finite and >= 0")


def partition_sup_law(n: int, area: float, n_seeds: int) -> tuple[float, float]:
    """Exact median of sup_k |X(F_k)| over n equal slabs of total ``area``,
    and the standard error of the median of ``n_seeds`` independent draws.

    The slab measures are independent N(0, area/n), so the sup has the law
    P(sup <= s) = (2 Phi(s/sigma) - 1)^n with sigma^2 = area/n; the sample
    median's error is 1 / (2 f(m) sqrt(n_seeds)), f the density at the median m.
    """
    sigma = math.sqrt(area / n)
    z = STD_NORMAL.inv_cdf((1.0 + 2.0 ** (-1.0 / n)) / 2.0)
    density = n * 0.5 ** ((n - 1) / n) * 2.0 * STD_NORMAL.pdf(z) / sigma
    return sigma * z, 1.0 / (2.0 * density * math.sqrt(n_seeds))


def verify_lemmas(cfg: dict, out: Path) -> None:
    report = _read_json(out / "lemmas_report.json")
    sec = cfg["lemmas"]
    for key in ("partition_product_diagonal", "partition_product_disjoint"):
        rows = report[key]
        _check([r["n"] for r in rows] == sec["product_n_values"], f"{key}: wrong n values")
        l2 = [r["l2_distance"] for r in rows]
        _check(all(a > b for a, b in zip(l2, l2[1:])), f"{key}: l2_distance not decreasing {l2}")
        for r in rows:
            # the partition sums are unbiased for the limit (1 and 0) at every n
            dev = abs(r["mean_sum"] - r["limit"])
            _check(math.isfinite(dev) and dev <= K_POINT * r["std_error"],
                   f"{key} n={r['n']}: mean_sum {r['mean_sum']:.4g} not within "
                   f"{K_POINT} SE of {r['limit']}")
    _check(report["partition_product_disjoint"][0]["limit"] == 0.0, "disjoint limit is not 0")
    sup = report["partition_sup"]
    _check([r["n"] for r in sup] == sec["sup_n_values"], "partition_sup: wrong n values")
    # the sups are over slabs of the unit square [0,1]^2 cut to the sheet
    g = cfg["grid"]
    area = min(1.0, g["t_max"]) * min(1.0, g["t_max"] + g["x_max"])
    law = [partition_sup_law(n, area, sec["sup_n_seeds"]) for n in sec["sup_n_values"]]
    med = [r["median_sup"] for r in sup]
    for n, m, (exact, se) in zip(sec["sup_n_values"], med, law):
        _check(math.isfinite(m) and abs(m - exact) <= K_POINT * se,
               f"partition_sup n={n}: median_sup {m:.4g} not within {K_POINT} SE "
               f"of the exact median {exact:.4g} (SE {se:.3g})")
    # decreasing in n up to the sampling error of two medians: the exact
    # medians fall by only about 2.3 SE from n=4 to n=16 at 20 seeds
    for a, b, (_, sa), (_, sb) in zip(med, med[1:], law, law[1:]):
        _check(a - b > -K_SIGMA * math.hypot(sa, sb), f"median_sup not decreasing {med}")
    try:
        with open(out / "lemmas_convergence.csv", encoding="utf-8") as f:
            n_rows = sum(1 for _ in f) - 1
    except OSError as exc:
        raise VerificationError(str(exc)) from None
    expected = (2 * len(sec["product_n_values"]) * sec["product_n_seeds"]
                + len(sec["sup_n_values"]) * sec["sup_n_seeds"])
    _check(n_rows == expected, "lemmas_convergence.csv: wrong row count")


def verify_weakform(cfg: dict, out: Path) -> None:
    report = _read_json(out / "weakform_report.json")
    _check(report.get("monotone_decreasing") is True,
           f"weak residuals not decreasing in h: {report.get('median_residuals')}")
    ratio = report.get("corrupted_over_intact_ratio")
    _check(isinstance(ratio, (int, float)) and ratio >= MIN_CORRUPTION_RATIO,
           f"corrupted/intact residual ratio {ratio} below {MIN_CORRUPTION_RATIO}")
    records = _read_json(out / "residuals.json")
    sec = cfg["weakform"]
    n_tf = 12
    expected = sec["n_seeds"] * n_tf * (len(sec["h_values"]) + 1)
    _check(len(records) == expected, "residuals.json: wrong record count")
    _check(all(math.isfinite(r["residual"]) for r in records), "non-finite residual")


def verify_simulate(cfg: dict, out: Path) -> None:
    t, x, sol = read_lattice_csv(out / "solution.csv")
    _check_lattice(t, x, cfg, "solution.csv")
    tb, xb, base = read_lattice_csv(out / "baseline.csv")
    _check(np.array_equal(t, tb) and np.array_equal(x, xb), "baseline.csv: wrong lattice")
    _check(np.all(np.isfinite(sol)) and np.all(np.isfinite(base)), "non-finite solution")
    _check(np.array_equal(sol[0], base[0]), "solution row t=0 differs from baseline")
    mu = _r0(cfg)(t[:, None] + x[None, :])
    _check(np.max(np.abs(base - mu)) <= 1e-12, "baseline.csv is not r0(t+x)")


VERIFIERS = {"yield": verify_yield, "qv": verify_qv, "lemmas": verify_lemmas,
             "weakform": verify_weakform, "simulate": verify_simulate}


def verify_command(cfg: dict, out: Path) -> None:
    """Raise VerificationError unless the outputs of one command are right."""
    for name in ("config_effective.json", "manifest.json"):
        _check((out / name).is_file(), f"missing {name}")
    VERIFIERS[cfg["command"]](cfg, out)
