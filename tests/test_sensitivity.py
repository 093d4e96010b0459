from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cavityshift import (CalibrationError, InputError, InstrumentConfig,
                         ModelParams, analyze_dataset, calibrate_defaults,
                         calibrate_noise, plan_sweep, run_paired_experiment,
                         run_sensitivity, sensitivity)
from cavityshift.sensitivity import Z_CAP

REFERENCE_SIGMA_R = 0.0751


@pytest.fixture(scope="module")
def params():
    return calibrate_defaults()


@pytest.fixture(scope="module")
def reference():
    return InstrumentConfig(resistance_noise=REFERENCE_SIGMA_R, seed=1)


@pytest.fixture(scope="module")
def quiet():
    return InstrumentConfig(resistance_noise=0.0, temperature_jitter=0.0, seed=1)


@pytest.fixture(scope="module")
def plan(params, reference):
    return plan_sweep(params, reference, np.linspace(50, 250, 10))


@pytest.fixture
def stub(monkeypatch):
    """Install ``response(sigma_R) -> delta_n`` as the study; every
    sigma_R it is called with is appended to the returned list."""
    calls = []

    def install(response, valid=lambda sigma: True):
        def study(params, cfg, plan, trials):
            sigma = cfg.resistance_noise
            calls.append(sigma)
            ok = valid(sigma)
            return SimpleNamespace(delta_n=response(sigma), valid=ok,
                                   failed_trials=0 if ok else 53)

        monkeypatch.setattr(sensitivity, "run_sensitivity", study)
        return calls

    return install


class TestRunSensitivity:
    def test_trials_floor(self, params, reference, plan):
        with pytest.raises(InputError):
            run_sensitivity(params, reference, plan, 50)

    def test_noiseless_report(self, params, quiet, plan):
        report = run_sensitivity(params, quiet, plan, 100)
        assert report.delta_n <= 1e-3
        assert report.z_capped
        assert report.detection_z == Z_CAP
        assert report.failed_trials == 0
        assert report.valid

    def test_reference_delta_n_near_target(self, params, reference, plan):
        report = run_sensitivity(params, reference, plan, 200)
        assert 0.09 <= report.delta_n <= 0.11
        assert report.calibrated_sigma_r == REFERENCE_SIGMA_R

    def test_determinism(self, params, reference, plan):
        a = run_sensitivity(params, reference, plan, 100)
        b = run_sensitivity(params, reference, plan, 100)
        assert a.delta_n == b.delta_n
        assert a.detection_z == b.detection_z
        assert a.derivative_contrast == b.derivative_contrast

    def test_null_model_not_detected(self, params, reference, plan):
        null = ModelParams(t_c=params.t_c, alpha=params.alpha, delta_inf=0.0,
                           h_v=params.h_v)
        report = run_sensitivity(null, reference, plan, 200)
        assert report.detection_z <= 2.0
        assert report.z_fraction_ge_3 <= 0.01

    def test_contrast_field_is_nearest_to_crossover(self, params, reference, plan):
        report = run_sensitivity(params, reference, plan, 100)
        assert report.contrast_field == 50.0

    def test_singular_fits_counted_not_raised(self, params, reference, plan):
        # at 0.3 ohm six curves (trials 22, 47, 68, 158, 169, 194) fit to a
        # width below one temperature step; without them delta_n keeps the
        # linear response to the noise
        noisy = replace(reference, resistance_noise=0.3)
        report = run_sensitivity(params, noisy, plan, 200)
        assert report.failed_trials == 6
        assert not report.valid
        baseline = run_sensitivity(params, reference, plan, 200)
        assert report.delta_n / 0.3 == pytest.approx(
            baseline.delta_n / REFERENCE_SIGMA_R, rel=0.02)

    def test_fit_aggregates_cover_every_curve(self, params, reference, plan):
        noisy = replace(reference, resistance_noise=0.3)
        report = run_sensitivity(params, noisy, plan, 200)
        curves = 2 * len(plan.fields) * plan.repetitions * 200
        failed = sum(report.failed_fits_by_reason.values())
        assert sum(report.lm_steps_histogram) + failed == curves
        assert report.failed_fits_by_reason == {
            "fitted width below the temperature step; transition not resolved": 6}

    @pytest.mark.parametrize("seed, failed", [
        (3, [1, 37, 40, 41, 65, 110, 165]),
        (7, [69, 83, 89, 126, 142, 171, 182, 194])])
    def test_failed_trials_at_three_tenths_ohm(self, params, plan, seed, failed):
        # the trials whose fits fail at 0.3 ohm, pinned for two more seeds
        # beside seed 1 (test_singular_fits_counted_not_raised)
        noisy = InstrumentConfig(resistance_noise=0.3, seed=seed)
        found = [trial for trial in range(200)
                 if analyze_dataset(run_paired_experiment(
                     params, noisy, plan, substream_prefix=(trial,))).failed_fits]
        assert found == failed

    @pytest.mark.parametrize("fields, message", [
        ((60.0, 70.0), "at least 3 fields for its delta curves, got 2"),
        ((10.0, 20.0, 30.0, 40.0, 45.0), "no field at or above h_v = 50 G")])
    def test_plan_without_a_result_rejected_before_any_trial(
            self, params, reference, monkeypatch, fields, message):
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sensitivity, "run_paired_experiment", trial)
        study_plan = plan_sweep(params, reference, fields)
        with pytest.raises(InputError, match=message):
            run_sensitivity(params, reference, study_plan, 100)
        with pytest.raises(InputError, match=message):
            calibrate_noise(0.1, reference, study_plan, params=params)

    def test_mostly_failed_study_reported_invalid(self, params, reference, plan):
        # at 4 ohm most curves lose a plateau, leaving film and cavity
        # fits on different fields
        noisy = replace(reference, resistance_noise=4.0)
        report = run_sensitivity(params, noisy, plan, 100)
        assert report.failed_trials > 50
        assert not report.valid


class TestCalibration:
    def test_roundtrip_to_target_band(self, params, reference, plan):
        sigma = calibrate_noise(0.1, reference, plan, 0.1, params=params, trials=200)
        assert sigma > 0
        check = run_sensitivity(params, replace(reference, resistance_noise=sigma),
                                plan, 200)
        assert 0.09 <= check.delta_n <= 0.11

    def test_nonpositive_target_rejected(self, params, reference, plan, stub):
        probes = stub(lambda sigma: 1.34 * sigma)
        with pytest.raises(InputError):
            calibrate_noise(0.0, reference, plan, 0.1, params=params)
        # every delta_n once lay "within tolerance" of an infinite target
        with pytest.raises(InputError, match="target"):
            calibrate_noise(math.inf, reference, plan, 0.1, params=params)
        # a tolerance that can never be met once ran seven studies, six of
        # them at one sigma_R, and ended in a misleading CalibrationError
        for tolerance in (-0.1, 0.0, 1.0, math.nan):
            with pytest.raises(InputError, match="tolerance"):
                calibrate_noise(0.1, reference, plan, tolerance, params=params)
        assert probes == []

    def test_delta_n_linear_response(self, params, reference, plan):
        low = run_sensitivity(params, reference, plan, 150).delta_n
        high = run_sensitivity(
            params, replace(reference, resistance_noise=2 * REFERENCE_SIGMA_R),
            plan, 150).delta_n
        assert high / low == pytest.approx(2.0, rel=0.15)

    def test_repetition_scaling_smoke(self, params, reference, plan):
        single = run_sensitivity(params, reference, plan, 100).delta_n
        plan4 = replace(plan, repetitions=4)
        averaged = run_sensitivity(params, reference, plan4, 100).delta_n
        assert averaged * 2.0 == pytest.approx(single, rel=0.2)


class TestCalibrationSearch:
    """calibrate_noise against stubbed studies with a known delta_n(sigma_R)."""

    SLOPE = 1.34  # mK per ohm, close to the reference plan's response

    @pytest.fixture
    def probes(self, stub):
        return stub(lambda sigma: self.SLOPE * sigma)

    def test_in_tolerance_first_probe_returned(self, params, reference, plan, probes):
        target = self.SLOPE * REFERENCE_SIGMA_R * 1.01
        sigma = calibrate_noise(target, reference, plan, 0.05, params=params)
        assert sigma == REFERENCE_SIGMA_R
        assert probes == [REFERENCE_SIGMA_R]

    def test_proportional_probe_returned(self, params, reference, plan, probes):
        # the first probe is out of tolerance; the step through the origin
        # lands on the target of a proportional response
        target = self.SLOPE * 2 * REFERENCE_SIGMA_R
        sigma = calibrate_noise(target, reference, plan, 0.05, params=params)
        assert probes == [REFERENCE_SIGMA_R, sigma]
        assert sigma == pytest.approx(
            REFERENCE_SIGMA_R * target / (self.SLOPE * REFERENCE_SIGMA_R), rel=1e-12)

    @pytest.mark.parametrize("target", [0.127, 0.5])
    def test_no_sigma_evaluated_twice(self, params, reference, plan, probes, target):
        sigma = calibrate_noise(target, reference, plan, 0.05, params=params)
        assert abs(self.SLOPE * sigma - target) <= 0.05 * target
        assert len(probes) == len(set(probes))

    def test_offset_response_converges(self, params, reference, plan, stub):
        # a noise-free floor of 0.05 mK: the proportional step falls short,
        # the secant through the two probes is exact
        probes = stub(lambda sigma: 0.05 + self.SLOPE * sigma)
        sigma = calibrate_noise(0.3, reference, plan, 0.01, params=params)
        assert len(probes) == 3
        assert sigma == pytest.approx(0.25 / self.SLOPE, rel=1e-12)

    def test_target_below_offset_raises(self, params, reference, plan, stub):
        probes = stub(lambda sigma: 0.05 + self.SLOPE * sigma)
        with pytest.raises(CalibrationError, match="below the noise-free floor"):
            calibrate_noise(0.03, reference, plan, 0.05, params=params)
        assert len(probes) == 2

    def test_non_increasing_response_raises(self, params, reference, plan, stub):
        probes = stub(lambda sigma: 0.1)
        with pytest.raises(CalibrationError, match="does not increase") as excinfo:
            calibrate_noise(0.2, reference, plan, 0.05, params=params)
        assert len(probes) == 2
        assert "(0.0751, 0.1, 0)" in str(excinfo.value)

    def test_invalid_in_tolerance_probe_rejected(self, params, reference, plan, stub):
        # above 0.3 ohm a quarter of the trials fail their fits; the search
        # passes such a probe while out of tolerance and steers by it, then
        # lands on another one
        probes = stub(lambda sigma: self.SLOPE * sigma * (1.0 + sigma),
                      valid=lambda sigma: sigma < 0.3)
        with pytest.raises(CalibrationError, match="53 of 200 trials failed"):
            calibrate_noise(1.0, reference, plan, 0.05, params=params)
        passed = [sigma for sigma in probes[:-1] if sigma >= 0.3]
        assert passed
        assert all(abs(self.SLOPE * s * (1 + s) - 1.0) > 0.05 for s in passed)
        assert 0.3 < probes[-1] < 0.8
        assert abs(self.SLOPE * probes[-1] * (1 + probes[-1]) - 1.0) <= 0.05


class TestContrastTable:
    """The per-field derivative contrast table of run_sensitivity."""

    def test_noiseless_model_contrast_values(self, params, quiet):
        study_plan = plan_sweep(params, quiet, np.linspace(10, 250, 13))
        report = run_sensitivity(params, quiet, study_plan, 1, min_trials=1)
        idx_h_v = int(np.argmin(np.abs(report.contrast_fields - params.h_v)))
        assert report.contrast_fields[idx_h_v] == params.h_v
        assert report.contrast_model[idx_h_v] >= 0.20
        idx_high = int(np.argmin(np.abs(report.contrast_fields - 5 * params.h_v)))
        assert report.contrast_model[idx_high] <= 0.05

    def test_degenerate_cavity_has_zero_contrast(self, params, quiet):
        flat = ModelParams(t_c=params.t_c, alpha=params.alpha, delta_inf=0.0,
                           h_v=params.h_v)
        study_plan = plan_sweep(params, quiet, np.linspace(10, 250, 13))
        report = run_sensitivity(flat, quiet, study_plan, 1, min_trials=1)
        assert np.all(report.contrast_model == 0.0)
        assert np.all(report.contrast_mean == 0.0)

    def test_noisy_contrast_reported_with_sigma(self, params, reference):
        study_plan = plan_sweep(params, reference, np.linspace(10, 250, 13))
        report = run_sensitivity(params, reference, study_plan, 50, min_trials=50)
        assert report.failed_trials == 0
        assert np.all(report.contrast_sigma >= 0.0)
        idx = int(np.argmin(np.abs(report.contrast_fields - params.h_v)))
        model_value = report.contrast_model[idx]
        assert report.contrast_mean[idx] == pytest.approx(
            model_value, abs=4 * report.contrast_sigma[idx] / np.sqrt(50) + 0.05)
