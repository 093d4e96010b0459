"""Acceptance suite: one test per release criterion.

Run ``pytest tests/test_acceptance.py -s`` to see a pass/fail line per
criterion.  Each test measures its own runtime against the stated cap.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from cavityshift import (InstrumentConfig, ModelParams, analyze_dataset,
                         calibrate_noise, cavity_delta,
                         critical_field, delta_derivative, delta_difference,
                         film_delta, fit_transition, plan_sweep,
                         run_paired_experiment, run_sensitivity)
from cavityshift.cli import main
from cavityshift.model import _balance_residual
from cavityshift.protocol import acquire_curve


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _r_squared(x: np.ndarray, y: np.ndarray) -> float:
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 1.0
    return 1.0 - float(np.sum(resid ** 2)) / sst


def _oracle_cavity_delta(params: ModelParams, h: float) -> float:
    """Vectorized residual grid scan plus bisection; solver-independent."""
    if h == 0.0:
        return 0.0
    upper = params.alpha * h * h + params.delta_inf
    grid = np.linspace(0.0, upper, 4096)
    residual = (params.alpha * h * h * grid - grid ** 2
                - params.delta_inf * grid ** 2 / (grid + params.delta_v))
    first_neg = int(np.nonzero(residual[1:] < 0)[0][0])
    lo, hi = float(grid[first_neg]), float(grid[first_neg + 1])
    while hi - lo > 1e-14 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if _balance_residual(params, h, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def params():
    return ModelParams()


@pytest.fixture(scope="module")
def reference_cfg():
    return InstrumentConfig(seed=1)


def test_criterion_1_model_anchors(params):
    start = time.perf_counter()
    film_ok = film_delta(params, 150.0) == pytest.approx(0.600, rel=1e-12)
    cavity_150 = cavity_delta(params, 150.0)
    cavity_ok = abs(cavity_150 - 0.400) <= 0.10 * 0.400
    diffs = np.array([delta_difference(params, h)
                      for h in np.linspace(250.0, 500.0, 251)])
    diff_ok = bool(np.all((diffs >= 0.19) & (diffs <= 0.21)))
    elapsed = time.perf_counter() - start
    _report(1, film_ok and cavity_ok and diff_ok and elapsed < 1.0,
            f"film(150)=0.600, cavity(150)={cavity_150:.4f} (0.4 +/- 10%), "
            f"difference in [0.19, 0.21] mK on [250, 500] G "
            f"({elapsed:.2f} s < 1 s)")


def test_criterion_2_derivative_structure(params):
    start = time.perf_counter()
    h_film = np.linspace(0.0, 250.0, 101)
    film_slopes = np.array([delta_derivative(params, h, "film") for h in h_film])
    r2_film = _r_squared(h_film, film_slopes)

    h_low = np.linspace(0.5, 0.3 * params.h_v, 60)
    cavity_slopes = np.array([delta_derivative(params, h, "cavity") for h in h_low])
    r2_cavity = _r_squared(h_low, cavity_slopes)

    h_high = np.linspace(5.0 * params.h_v, 10.0 * params.h_v, 26)
    rel = np.array([
        abs(delta_derivative(params, h, "film") - delta_derivative(params, h, "cavity"))
        / delta_derivative(params, h, "film") for h in h_high])
    elapsed = time.perf_counter() - start
    ok = (r2_film > 0.9999 and r2_cavity > 0.999
          and bool(np.all(rel < 0.02)) and elapsed < 1.0)
    _report(2, ok,
            f"film R^2={r2_film:.6f} (>0.9999), low-field cavity "
            f"R^2={r2_cavity:.6f} (>0.999), max high-field slope gap "
            f"{rel.max():.4f} (<0.02) ({elapsed:.2f} s < 1 s)")


def test_criterion_3_oracle_equivalence(params):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    solver_err = max(abs(cavity_delta(params, h) - _oracle_cavity_delta(params, h))
                     for h in rng.uniform(0.0, 10.0 * params.h_v, 50))
    round_trip_err = 0.0
    for delta in rng.uniform(1e-4, 5.0, 50):
        for kind, forward in (("film", film_delta), ("cavity", cavity_delta)):
            h = critical_field(params, delta, kind)
            round_trip_err = max(round_trip_err,
                                 abs(forward(params, h) - delta) / delta)
    elapsed = time.perf_counter() - start
    ok = solver_err <= 1e-9 and round_trip_err <= 1e-9 and elapsed < 5.0
    _report(3, ok,
            f"solver vs brute-force oracle {solver_err:.2e} mK (<=1e-9), "
            f"critical-field round trip {round_trip_err:.2e} rel (<=1e-9) "
            f"({elapsed:.2f} s < 5 s)")


def test_criterion_4_noiseless_end_to_end(params, tmp_path):
    start = time.perf_counter()
    out = tmp_path / "quiet"
    config = tmp_path / "zero_noise.json"
    config.write_text(json.dumps(
        {"instrument": {"resistance_noise": 0.0, "temperature_jitter": 0.0}}),
        encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert main(["analyze", str(out / "run.json")]) == 0
    film = np.loadtxt(out / "delta_curve_film.csv", delimiter=",", skiprows=1,
                      encoding="utf-8")
    cavity = np.loadtxt(out / "delta_curve_cavity.csv", delimiter=",", skiprows=1,
                        encoding="utf-8")
    diff = np.loadtxt(out / "difference.csv", delimiter=",", skiprows=1,
                      encoding="utf-8")
    film_err = max(abs(row[1] - film_delta(params, row[0])) for row in film)
    cavity_err = max(abs(row[1] - cavity_delta(params, row[0])) for row in cavity)
    diff_err = max(abs(row[1] - delta_difference(params, row[0])) for row in diff)
    worst_uk = max(film_err, cavity_err, diff_err) * 1e3  # mK -> uK
    elapsed = time.perf_counter() - start
    ok = worst_uk <= 1.0 and elapsed < 10.0
    _report(4, ok,
            f"noiseless pipeline worst delta error {worst_uk:.2e} uK (<=1) "
            f"at every planned field ({elapsed:.2f} s < 10 s)")


def test_criterion_5_sensitivity_reproduction(params, reference_cfg):
    start = time.perf_counter()
    plan = plan_sweep(params, reference_cfg, np.linspace(50, 250, 10))
    sigma_star = calibrate_noise(0.1, reference_cfg, plan, 0.05,
                                 params=params, trials=200)
    calibrated = replace(reference_cfg, resistance_noise=sigma_star)
    study = run_sensitivity(params, calibrated, plan, 500)
    null_model = ModelParams(t_c=params.t_c, alpha=params.alpha, delta_inf=0.0,
                             h_v=params.h_v, cond_scale=params.cond_scale)
    null_study = run_sensitivity(null_model, calibrated, plan, 1000)
    elapsed = time.perf_counter() - start
    ok = (0.09 <= study.delta_n <= 0.11 and study.detection_z >= 3.0
          and null_study.z_fraction_ge_3 <= 0.01 and study.valid
          and elapsed < 60.0)
    _report(5, ok,
            f"sigma_R*={sigma_star:.4f} ohm, delta_n={study.delta_n:.4f} mK "
            f"(in [0.09, 0.11]), mean z={study.detection_z:.2f} (>=3), "
            f"null false-detection {null_study.z_fraction_ge_3:.3f} (<=0.01) "
            f"({elapsed:.1f} s < 60 s)")


def test_criterion_6_derivative_contrast(params):
    start = time.perf_counter()
    at_crossover = 1.0 - (delta_derivative(params, params.h_v, "cavity")
                          / delta_derivative(params, params.h_v, "film"))
    at_five = 1.0 - (delta_derivative(params, 5 * params.h_v, "cavity")
                     / delta_derivative(params, 5 * params.h_v, "film"))
    elapsed = time.perf_counter() - start
    ok = at_crossover >= 0.20 and at_five <= 0.05 and elapsed < 1.0
    _report(6, ok,
            f"contrast {at_crossover:.3f} at h_v (>=0.20), {at_five:.4f} at "
            f"5 h_v (<=0.05) ({elapsed:.2f} s < 1 s)")


def test_criterion_7_determinism(tmp_path):
    def run_twice(argv_for):
        dirs = (tmp_path / f"{argv_for.__name__}_a", tmp_path / f"{argv_for.__name__}_b")
        for d in dirs:
            assert main(argv_for(d)) == 0
        for name in sorted(p.name for p in dirs[0].iterdir()):
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                return False, name
        return True, ""

    def model_curve(out):
        return ["model-curve", "--out", str(out), "--max-field", "120"]

    def simulate(out):
        return ["simulate", "--out", str(out), "--seed", "21"]

    def sensitivity(out):
        return ["sensitivity", "--out", str(out), "--seed", "21", "--trials", "100"]

    def calibrate(out):
        return ["calibrate", "--out", str(out), "--seed", "21", "--trials", "100"]

    results = {}
    for command in (model_curve, simulate, sensitivity, calibrate):
        results[command.__name__] = run_twice(command)

    # analyze twice over the same dataset
    data_dir = tmp_path / "dataset"
    assert main(["simulate", "--out", str(data_dir), "--seed", "21"]) == 0
    outs = (tmp_path / "analyze_a", tmp_path / "analyze_b")
    for out in outs:
        assert main(["analyze", str(data_dir / "run.json"), "--out", str(out)]) == 0
    analyze_ok = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in sorted(p.name for p in outs[0].iterdir()))
    results["analyze"] = (analyze_ok, "")

    bad = [f"{k} ({v[1]})" for k, v in results.items() if not v[0]]
    _report(7, not bad,
            "byte-identical outputs for equal seeds across "
            f"{', '.join(results)}" + (f"; mismatches: {bad}" if bad else ""))


def test_criterion_8_statistical_honesty(params, reference_cfg):
    plan = plan_sweep(params, reference_cfg, [150.0])
    t_stars, sigmas = [], []
    for trial in range(500):
        curve = acquire_curve(params, reference_cfg, plan, 150.0, "film",
                              substream_prefix=(trial,))
        fit = fit_transition(curve)
        t_stars.append(fit.t_star)
        sigmas.append(fit.sigma_t_star)
    empirical = float(np.std(t_stars, ddof=1))
    reported = float(np.mean(sigmas))
    sigma_ok = abs(empirical - reported) / reported <= 0.25

    wide_plan = plan_sweep(params, reference_cfg, np.linspace(50, 250, 10))
    delta_n = {}
    for k in (1, 4, 16):
        plan_k = replace(wide_plan, repetitions=k)
        delta_n[k] = run_sensitivity(params, reference_cfg, plan_k, 100).delta_n
    scaling_err = max(abs(delta_n[k] * np.sqrt(k) - delta_n[1]) / delta_n[1]
                      for k in (4, 16))
    ok = sigma_ok and scaling_err <= 0.20
    _report(8, ok,
            f"fit sigma {reported * 1e3:.4f} mK vs empirical "
            f"{empirical * 1e3:.4f} mK (within 25%), delta_n 1/sqrt(k) "
            f"deviation {scaling_err:.3f} over k in (1, 4, 16) (<=0.20)")
