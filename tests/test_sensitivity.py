from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cavityshift import (CalibrationError, InputError, InstrumentConfig,
                         ModelParams, calibrate_defaults, calibrate_noise,
                         plan_sweep, run_sensitivity, sensitivity)
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

    def test_empty_bracket_rejected(self, params, reference, plan):
        with pytest.raises(CalibrationError):
            calibrate_noise(0.1, reference, plan, 0.1, params=params,
                            trials=200, bracket=(0.0, 0.0))

    def test_nonpositive_target_rejected(self, params, reference, plan):
        with pytest.raises(InputError):
            calibrate_noise(0.0, reference, plan, 0.1, params=params)

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
    """calibrate_noise against a stubbed study whose delta_n is linear."""

    SLOPE = 1.34  # mK per ohm, close to the reference plan's response

    @pytest.fixture
    def probes(self, monkeypatch):
        calls = []

        def linear_study(params, cfg, plan, trials):
            calls.append(cfg.resistance_noise)
            return SimpleNamespace(delta_n=self.SLOPE * cfg.resistance_noise,
                                   valid=True)

        monkeypatch.setattr(sensitivity, "run_sensitivity", linear_study)
        return calls

    def test_in_tolerance_first_probe_returned(self, params, reference, plan, probes):
        target = self.SLOPE * REFERENCE_SIGMA_R * 1.01
        sigma = calibrate_noise(target, reference, plan, 0.05, params=params)
        assert sigma == REFERENCE_SIGMA_R
        assert probes == [REFERENCE_SIGMA_R]

    def test_doubled_bracket_end_returned(self, params, reference, plan, probes):
        target = self.SLOPE * 2 * REFERENCE_SIGMA_R
        sigma = calibrate_noise(target, reference, plan, 0.05, params=params)
        assert sigma == 2 * REFERENCE_SIGMA_R
        assert len(probes) == 2

    def test_given_bracket_floor_returned(self, params, reference, plan, probes):
        sigma = calibrate_noise(0.1, reference, plan, 0.05, params=params,
                                bracket=(0.1 / self.SLOPE, 1.0))
        assert sigma == 0.1 / self.SLOPE
        assert len(probes) == 1

    @pytest.mark.parametrize("target", [0.127, 0.5])
    def test_no_sigma_evaluated_twice(self, params, reference, plan, probes, target):
        sigma = calibrate_noise(target, reference, plan, 0.05, params=params)
        assert abs(self.SLOPE * sigma - target) <= 0.05 * target
        assert len(probes) == len(set(probes))

    def test_invalid_in_tolerance_probe_rejected(self, params, reference, plan,
                                                 monkeypatch):
        # above 0.3 ohm a quarter of the trials fail their fits; the search
        # passes such probes while out of tolerance, then lands on one
        calls = []

        def failing_study(params, cfg, plan, trials):
            calls.append(cfg.resistance_noise)
            valid = cfg.resistance_noise < 0.3
            return SimpleNamespace(delta_n=self.SLOPE * cfg.resistance_noise,
                                   valid=valid, failed_trials=0 if valid else 53)

        monkeypatch.setattr(sensitivity, "run_sensitivity", failing_study)
        with pytest.raises(CalibrationError, match="53 of 200 trials failed"):
            calibrate_noise(1.0, reference, plan, 0.05, params=params)
        assert any(sigma >= 0.3 for sigma in calls[:-1])
        assert 0.3 < calls[-1] < 0.8
        assert abs(self.SLOPE * calls[-1] - 1.0) <= 0.05


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
