from __future__ import annotations

import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, erfinv

from cavityshift import (CalibrationError, InputError, InstrumentConfig,
                         ModelParams, analyze_dataset, calibrate_noise,
                         cavity_delta, delta_n_per_ohm,
                         film_delta, plan_sweep, run_paired_experiment,
                         run_sensitivity, sensitivity, weighted_mean_difference)
from cavityshift import SensitivityReport
from cavityshift.analysis import MK_PER_K, plateau_level, t_star_variance
from cavityshift.config import run_config_from_dict
from cavityshift.instrument import MAX_RESISTANCE, MIN_RESISTANCE
from cavityshift.protocol import plan_table

REFERENCE_SIGMA_R = 0.0751


@pytest.fixture(scope="module")
def params():
    return ModelParams()


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
        # every T* sigma weighs as the 1e-9 mK floor, so each difference
        # has sigma sqrt(2) 1e-9 mK and z is the model's mean shift over a
        # standard error of sqrt(2) 1e-9 / sqrt(n) mK
        fields = np.array(plan.fields)
        shift = np.mean(film_delta(params, fields) - cavity_delta(params, fields))
        assert report.detection_z == pytest.approx(
            shift * math.sqrt(fields.size / 2) / 1e-9, rel=1e-4)
        assert report.failed_trials == 0
        assert report.valid

    def test_noiseless_null_model_has_zero_z(self, params, quiet, plan):
        # no shift and no noise: every trial's mean is 0 over a standard
        # error at the noise floor, so z is 0
        null = ModelParams(t_c=params.t_c, alpha=params.alpha, delta_inf=0.0,
                           h_v=params.h_v)
        report = run_sensitivity(null, quiet, plan, 100)
        assert report.failed_trials == 0
        assert report.detection_z == 0.0

    def test_tiny_noise_significance_is_not_clipped(self, params, reference, plan):
        # at 1e-7 ohm the mean z is about 2.7e6; a cap on z at 1e6 once
        # reported exactly 1e6
        report = run_sensitivity(params, replace(reference, resistance_noise=1e-7),
                                 plan, 100)
        assert report.failed_trials == 0
        assert report.detection_z > 2e6

    def test_reference_delta_n_near_target(self, params, reference, plan):
        report = run_sensitivity(params, reference, plan, 200)
        assert 0.09 <= report.delta_n <= 0.11
        assert report.delta_n_per_ohm == delta_n_per_ohm(params, reference, plan)[0]
        assert report.delta_n_floor == 0.0

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

    def test_three_tenths_ohm_study_valid(self, params, reference, plan):
        # at 0.3 ohm six curves (trials 22, 47, 68, 158, 169, 194) once fit
        # to a width below one temperature step, an optimizer trap that
        # the bounded width step removes; delta_n keeps the linear
        # response to the noise
        noisy = replace(reference, resistance_noise=0.3)
        report = run_sensitivity(params, noisy, plan, 200)
        assert report.failed_trials == 0
        assert report.valid
        baseline = run_sensitivity(params, reference, plan, 200)
        assert report.delta_n / 0.3 == pytest.approx(
            baseline.delta_n / REFERENCE_SIGMA_R, rel=0.02)

    def test_fit_aggregates_cover_every_curve(self, params, reference, plan):
        noisy = replace(reference, resistance_noise=0.3)
        report = run_sensitivity(params, noisy, plan, 200)
        curves = 2 * len(plan.fields) * plan.repetitions * 200
        assert sum(report.lm_steps_histogram) == curves
        assert report.failed_fits_by_reason == {}

    @pytest.mark.parametrize("seed, failed", [(3, []), (7, [])])
    def test_failed_trials_at_three_tenths_ohm(self, params, plan, seed, failed):
        # the trials whose fits fail at 0.3 ohm, pinned for two more seeds
        # beside seed 1 (test_three_tenths_ohm_study_valid); without the
        # bound on the width step they were 1, 37, 40, 41, 65, 110, 165
        # (seed 3) and 69, 83, 89, 126, 142, 171, 182, 194 (seed 7)
        noisy = InstrumentConfig(resistance_noise=0.3, seed=seed)
        found = [trial for trial in range(200)
                 if analyze_dataset(run_paired_experiment(
                     params, noisy, plan, substream_prefix=(trial,))).failed_fits]
        assert found == failed

    @pytest.mark.parametrize("fields, message", [
        ((60.0, 70.0), "film fits cover 2 distinct field\\(s\\); a delta curve needs 3"),
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
        # at 4.5 ohm most trials have a failed fit: of the 142 failed fits
        # at seed 1, 87 lose a plateau, 43 do not converge and 12 do not
        # resolve the transition; 82 trials fail
        noisy = replace(reference, resistance_noise=4.5)
        report = run_sensitivity(params, noisy, plan, 100)
        assert report.failed_trials > 50
        assert not report.valid
        assert sum(report.failed_trials_by_reason.values()) == report.failed_trials

    def test_trial_with_a_rank_deficient_tc_regression_counted_failed(
            self, params, reference, plan, monkeypatch):
        # three trials whose analysis leaves no difference and one note, as
        # a rank-deficient Tc regression does, but no failed fit; such a
        # trial once ended the study
        note = "film Tc regression is rank deficient (degenerate field grid)"
        real = sensitivity.analyze_dataset
        trials = iter(range(100))

        def analysis(curves):
            result = real(curves)
            if next(trials) in (4, 40, 91):
                return replace(result, difference=None, notes=[note])
            return result

        monkeypatch.setattr(sensitivity, "analyze_dataset", analysis)
        report = run_sensitivity(params, reference, plan, 100)
        assert report.failed_trials == 3
        assert not report.valid
        assert report.failed_fits_by_reason == {}
        assert report.failed_trials_by_reason == {note: 3}


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

    @pytest.mark.parametrize("tolerance, message", [
        ("0.5", "be a real number, got '0.5'"), (None, "be a real number, got None"),
        (True, "be a real number, got True"),
        (10 ** 400, "lie within the float range, got a 1329-bit integer")])
    def test_tolerance_of_a_wrong_type_rejected_naming_it(self, params, reference, plan,
                                                         stub, tolerance, message):
        # "0.5" and None once ended in a bare TypeError from the comparison
        probes = stub(lambda sigma: 1.34 * sigma)
        with pytest.raises(InputError, match=f"^tolerance must {message}$"):
            calibrate_noise(0.1, reference, plan, tolerance, params=params)
        assert probes == []

    @pytest.mark.parametrize("trials", [150.5, 1e3, "200", None, True])
    def test_trials_of_a_wrong_type_rejected_naming_it(self, params, reference, plan,
                                                       monkeypatch, trials):
        # 150.5 and 1e3 once ended in range()'s bare TypeError after the
        # checks, "200" in the comparison's
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sensitivity, "run_paired_experiment", trial)
        message = f"^trials must be an integer, got {trials!r}$"
        with pytest.raises(InputError, match=message):
            run_sensitivity(params, reference, plan, trials)
        with pytest.raises(InputError, match=message):
            calibrate_noise(0.1, reference, plan, params=params, trials=trials)

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
    """calibrate_noise against stubbed studies with a known delta_n(sigma_R):
    one study at the closed-form sigma_R, which must land."""

    SLOPE = 1.34  # mK per ohm, close to the reference plan's response

    @pytest.fixture
    def probes(self, stub):
        return stub(lambda sigma: self.SLOPE * sigma)

    @pytest.fixture
    def first(self, params, reference, plan):
        """The one probe for a target: its closed-form prediction."""
        kappa_r, _ = delta_n_per_ohm(params, reference, plan)
        return lambda target: target / kappa_r

    def test_in_tolerance_first_probe_returned(self, params, reference, plan, probes,
                                               first):
        target = 0.1
        assert abs(self.SLOPE * first(target) - target) <= 0.05 * target
        sigma = calibrate_noise(target, reference, plan, 0.05, params=params)
        assert sigma == first(target)
        assert probes == [first(target)]

    @pytest.mark.parametrize("target", [0.127, 0.5])
    def test_no_sigma_evaluated_twice(self, params, reference, plan, probes, target):
        sigma = calibrate_noise(target, reference, plan, 0.05, params=params)
        assert abs(self.SLOPE * sigma - target) <= 0.05 * target
        assert probes == [sigma]

    def test_target_below_offset_raises(self, params, reference, plan, stub):
        # the offset is the noise-free floor kappa_T sigma_T of 1 mK of
        # jitter, 0.225 mK: a target below it fails before any study
        probes = stub(lambda sigma: 0.225 + self.SLOPE * sigma)
        jittered = replace(reference, temperature_jitter=1.0)
        for target in (0.1, delta_n_per_ohm(params, jittered, plan)[1]):
            with pytest.raises(CalibrationError, match="below the noise-free floor"):
                calibrate_noise(target, jittered, plan, 0.05, params=params)
        assert probes == []

    def test_study_outside_tolerance_raises_naming_it(self, params, reference, plan,
                                                      stub, first):
        # the one study is all there is: a response half as steep as
        # predicted is not searched, it is reported
        probes = stub(lambda sigma: 0.5 * self.SLOPE * sigma,
                      valid=lambda sigma: False)
        with pytest.raises(CalibrationError, match="outside tolerance 0.05") as excinfo:
            calibrate_noise(0.2, reference, plan, 0.05, params=params)
        assert probes == [first(0.2)]
        delta_n = 0.5 * self.SLOPE * first(0.2)
        assert f"({first(0.2):.4g}, {delta_n:.4g}, 53)" in str(excinfo.value)

    def test_invalid_in_tolerance_probe_rejected(self, params, reference, plan, stub,
                                                 first):
        # a quarter of the stub's trials fail: its delta_n lies within
        # tolerance, but measures the failed fits' outliers
        probes = stub(lambda sigma: self.SLOPE * sigma, valid=lambda sigma: False)
        with pytest.raises(CalibrationError, match="53 of 200 trials failed") as excinfo:
            calibrate_noise(1.0, reference, plan, 0.05, params=params)
        assert probes == [first(1.0)]
        assert f"({first(1.0):.4g}, {self.SLOPE * first(1.0):.4g}, 53)" in str(
            excinfo.value)


def resistance_variance(t, t_star, width, r_n):
    return t_star_variance(t, t_star, width, r_n)[0]


def jitter_variance(t, t_star, width, r_n):
    """The first-order t* variance (K^2) per mK^2 of temperature jitter,
    from the Jacobian of the erf curve written out on its own:
    [A^-1 J^T diag(J_0^2) J A^-1][0, 0] with A = J^T J."""
    s = width * 1e-3 / (2.0 * erfinv(0.8))
    u = (t - t_star) / s
    gauss = np.exp(-u * u)
    jac = np.column_stack([-r_n / (math.sqrt(math.pi) * s) * gauss,     # d/dt_star
                           -r_n / (math.sqrt(math.pi) * width) * u * gauss,  # d/dwidth
                           0.5 * (1.0 + erf(u))])                         # d/dr_n
    column = np.linalg.solve(jac.T @ jac, [1.0, 0.0, 0.0])
    return float(np.sum((jac[:, 0] * (jac @ column)) ** 2)) * 1e-6


def reference_delta_n_per_ohm(params, cfg, plan, variance=resistance_variance):
    """kappa as its own algebra once wrote it out, from the raw sums of
    the film Tc regression: the reference the delta curves of perfect
    fits must match, for the per-curve t* ``variance``."""
    fields = np.array(plan.fields)
    table = plan_table(params, plan, cfg.base_temperature, cfg.transition_width,
                       cfg.normal_resistance)
    v = {}
    for kind, t_stars in table.t_stars.items():
        v[kind] = np.array([
            variance(table.setpoints, t_star, cfg.transition_width,
                     cfg.normal_resistance)
            for t_star in t_stars]) / plan.repetitions
        unresolved = fields[~(v[kind] < math.inf)]
        if unresolved.size:
            raise InputError(f"the sweep does not resolve the {kind} transition at "
                             f"{unresolved[0]:g} G: its fit covariance is singular")
    x = fields ** 2
    w = 1.0 / v["film"]
    add = np.add.reduce
    sw = float(add(w))
    swx = float(add(w * x))
    swxx = float(add(w * x * x))
    det = sw * swxx - swx * swx
    if not (det > 0) or det <= 1e-12 * sw * swxx:
        raise InputError("film Tc regression is rank deficient "
                         "(degenerate field grid)")
    var_c = swxx / det
    cov_c = (swxx - swx * x) / det  # a_i v_i, since w_i v_i = 1
    pooled = np.concatenate([var_c + v["film"] - 2.0 * cov_c, var_c + v["cavity"]])
    return MK_PER_K * math.sqrt(float(np.mean(pooled)))


class TestPlateauRule:
    """The study check applies the fit's plateau rule to the noise-free
    curves of a plan, and a derived plan passes it."""

    #: The default fields, a 4-field plan and a split plan of 5 fields from
    #: 0 to 100 G and 5 from 150 to 500 G.
    FIELD_LISTS = {"default": None, "four": [50.0, 100.0, 150.0, 200.0],
                   "split": [0.0, 25.0, 50.0, 75.0, 100.0,
                             150.0, 237.5, 325.0, 412.5, 500.0]}

    @settings(deadline=None, max_examples=60)
    @given(width=st.floats(math.log(0.1), math.log(50.0)).map(math.exp),
           fields=st.sampled_from(list(FIELD_LISTS.values())))
    def test_every_noise_free_curve_of_a_derived_plan_passes(self, width, fields):
        # the derived span once stayed eight widths whatever the fields'
        # spread: below about 0.29 mK curves of the default fields failed
        data = {"instrument": {"transition_width": width}}
        if fields is not None:
            data["plan"] = {"fields": fields}
        config = run_config_from_dict(data)
        cfg = config.instrument
        table = plan_table(config.model, config.plan, cfg.base_temperature, width,
                           cfg.normal_resistance)
        for profiles in table.profiles.values():
            for profile in profiles:
                assert plateau_level(np.sort(profile)) >= 0.98 * cfg.normal_resistance


class TestPredictedSlope:
    """delta_n_per_ohm, the closed-form delta_n per unit resistance noise
    and per unit temperature jitter of a plan."""

    @pytest.mark.parametrize("plan", [
        {},
        {"fields": [50.0 + i * 200.0 / 39.0 for i in range(40)], "repetitions": 5},
        {"fields": [50.0, 100.0, 150.0, 200.0]}],
        ids=["reference", "forty-fields-five-repetitions", "four-fields"])
    def test_matches_the_reference_algebra(self, plan):
        config = run_config_from_dict({"plan": plan})
        args = config.model, config.instrument, config.plan
        assert delta_n_per_ohm(*args)[0] == pytest.approx(
            reference_delta_n_per_ohm(*args), rel=1e-14)

    def test_jitter_term_matches_an_independent_oracle(self):
        config = run_config_from_dict({})
        args = config.model, config.instrument, config.plan
        kappa_t = delta_n_per_ohm(*args)[1]
        assert kappa_t == pytest.approx(reference_delta_n_per_ohm(*args, jitter_variance),
                                        rel=1e-12)
        assert kappa_t == pytest.approx(0.22525, abs=5e-6)

    def test_close_fields_match_the_reference_to_the_regressions_precision(
            self, params, reference):
        # fields 0.6 ppm apart leave det / (sw swxx) = 1.0e-12, at which the
        # raw sums of the reference lose up to 2e-4 of det; kappa, from the
        # centred sums of the Tc regression, reads 1.2e-5 above it and
        # equals kappa in exact arithmetic on the same variances to 16 digits
        close = plan_sweep(params, reference, [100.0, 100.0000615, 100.000123])
        assert delta_n_per_ohm(params, reference, close)[0] == pytest.approx(
            reference_delta_n_per_ohm(params, reference, close), rel=1e-4)

    @pytest.fixture(scope="class")
    def kappa(self, params, reference, plan):
        return delta_n_per_ohm(params, reference, plan)[0]

    @pytest.mark.parametrize("normal_resistance", [MIN_RESISTANCE, MAX_RESISTANCE])
    def test_finite_at_either_end_of_the_resistance_domain(self, params, reference, plan,
                                                           normal_resistance):
        # the normal equations scale as r_n^2, unrescaled: below about
        # 1e-155 ohm they once underflowed to a singular covariance
        kappa_r, kappa_t = delta_n_per_ohm(params, reference, plan)
        at_end = delta_n_per_ohm(
            params, replace(reference, normal_resistance=normal_resistance), plan)
        assert all(map(math.isfinite, at_end)) and at_end[0] > 0
        assert at_end[1] == pytest.approx(kappa_t, rel=1e-9)
        assert at_end[0] == pytest.approx(kappa_r * 10.0 / normal_resistance, rel=1e-9)

    @pytest.mark.parametrize("normal_resistance", [MIN_RESISTANCE, 1e10, 1e11,
                                                   MAX_RESISTANCE])
    @pytest.mark.parametrize("fields", [None, [50.0, 100.0, 150.0, 200.0]],
                             ids=["reference", "four-fields"])
    def test_scales_as_one_over_r_n_over_the_whole_domain(self, fields,
                                                          normal_resistance):
        # kappa_R once took each t* sigma at 1 ohm of noise, which fell
        # under the 1 pK floor past about 1e10 ohm: at 1e11 and 1e12 ohm it
        # read 8 and 80 times its exact value on the reference plan
        config = run_config_from_dict({"plan": {"fields": fields} if fields else {}})
        kappa_r, kappa_t = delta_n_per_ohm(config.model, config.instrument, config.plan)
        assert config.instrument.normal_resistance == 10.0
        at_r_n = delta_n_per_ohm(
            config.model, replace(config.instrument, normal_resistance=normal_resistance),
            config.plan)
        assert at_r_n[0] * normal_resistance == pytest.approx(kappa_r * 10.0, rel=1e-15)
        assert at_r_n[1] == pytest.approx(kappa_t, rel=1e-15)

    def test_four_repetitions_halve_it(self, params, reference, plan, kappa):
        plan4 = replace(plan, repetitions=4)
        assert delta_n_per_ohm(params, reference, plan4)[0] == pytest.approx(
            kappa / 2, rel=1e-12)

    def test_independent_of_seed_and_noise(self, params, reference, plan):
        both = delta_n_per_ohm(params, reference, plan)
        for cfg in (replace(reference, seed=7), replace(reference, resistance_noise=0.2),
                    replace(reference, resistance_noise=0.0),
                    replace(reference, temperature_jitter=2.0)):
            assert delta_n_per_ohm(params, cfg, plan) == both

    def test_matches_monte_carlo(self, params, reference, plan, kappa):
        study = run_sensitivity(params, reference, plan, 200)
        assert abs(study.delta_n - kappa * REFERENCE_SIGMA_R) <= 3 * study.delta_n_se

    # a sweep 2 K above every transition, and one of 12 mK around 50 mK
    # wide transitions, which the study check once passed
    @pytest.mark.parametrize("shift, span", [(2.0, None), (0.0, 0.012)],
                             ids=["above-the-transitions", "clipping-the-plateaus"])
    def test_unresolved_transition_rejected_before_any_study(
            self, params, reference, plan, stub, shift, span):
        probes = stub(lambda sigma: 1.34 * sigma)
        shifted = replace(plan, t_center_guess=plan.t_center_guess + shift,
                          t_span=span or plan.t_span)
        with pytest.raises(InputError, match="^the sweep does not resolve the film "
                                             "transition at 50 G: curve does not span "
                                             "both resistance plateaus$"):
            calibrate_noise(0.1, reference, shifted, params=params)
        assert probes == []

    def test_jittered_calibration_runs_one_study(self, params, plan, monkeypatch):
        # 1 mK of jitter sets a floor of 0.225 mK; the closed form takes
        # sigma_R = sqrt(0.3^2 - 0.225^2) / kappa_R = 0.1467 ohm, where the
        # study reads delta_n 0.3004 mK
        studies, reports = [], []

        def counted(*args, **kwargs):
            studies.append(args[1].resistance_noise)
            reports.append(run_sensitivity(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(sensitivity, "run_sensitivity", counted)
        cfg = InstrumentConfig(temperature_jitter=1.0, seed=1)
        kappa_r, kappa_t = delta_n_per_ohm(params, cfg, plan)
        sigma = calibrate_noise(0.3, cfg, plan, 0.05, params=params, trials=200)
        assert studies == [sigma]
        assert sigma == pytest.approx(math.sqrt(0.3 ** 2 - kappa_t ** 2) / kappa_r,
                                      rel=1e-12)
        report, = reports
        assert report.delta_n_floor == kappa_t
        assert abs(report.delta_n - 0.3) <= 0.05 * 0.3

    @pytest.mark.parametrize("seed", [1, 7])
    def test_calibration_runs_one_study_per_target(self, params, plan, monkeypatch,
                                                   seed):
        # the bench calibration targets, on the real pipeline: the first
        # probe at target / kappa is already within 5%
        studies = []

        def counted(*args, **kwargs):
            studies.append(args[1].resistance_noise)
            return run_sensitivity(*args, **kwargs)

        monkeypatch.setattr(sensitivity, "run_sensitivity", counted)
        cfg = InstrumentConfig(seed=seed)
        for target in (0.1, 0.127):
            studies.clear()
            sigma = calibrate_noise(target, cfg, plan, 0.05, params=params, trials=200)
            assert studies == [sigma]


class TestStandardErrors:
    """The Monte Carlo standard errors of delta_n and the mean z."""

    def test_recomputed_from_the_trials(self, params, reference, plan):
        report = run_sensitivity(params, reference, plan, 100)
        fields = np.array(plan.fields)
        truth = {"film": film_delta(params, fields), "cavity": cavity_delta(params, fields)}
        z, msq = [], []
        for trial in range(100):
            result = analyze_dataset(run_paired_experiment(
                params, reference, plan, substream_prefix=(trial,)))
            err = np.concatenate([result.film.deltas - truth["film"],
                                  result.cavity.deltas - truth["cavity"]])
            msq.append(np.mean(err ** 2))
            mean, se = weighted_mean_difference(result.difference, min_field=params.h_v)
            z.append(abs(mean) / se)
        assert report.failed_trials == 0
        assert report.detection_z_se == pytest.approx(np.std(z, ddof=1) / 10, rel=1e-12)
        assert report.delta_n_se == pytest.approx(
            np.std(msq, ddof=1) / 10 / (2 * report.delta_n), rel=1e-12)
        assert report.delta_n_se < 0.05 * report.delta_n

    def test_single_trial_has_none(self, params, quiet, monkeypatch):
        monkeypatch.setattr(sensitivity, "MIN_TRIALS", 1)
        study_plan = plan_sweep(params, quiet, np.linspace(50, 250, 5))
        report = run_sensitivity(params, quiet, study_plan, 1)
        assert math.isnan(report.delta_n_se) and math.isnan(report.detection_z_se)
        # nor a spread of the contrast over trials
        assert np.isnan(report.contrast_sigma).all()
        assert math.isnan(report.derivative_contrast_sigma)


class TestContrastTable:
    """The per-field derivative contrast table of run_sensitivity."""

    def test_noiseless_model_contrast_values(self, params, quiet, monkeypatch):
        monkeypatch.setattr(sensitivity, "MIN_TRIALS", 1)
        study_plan = plan_sweep(params, quiet, np.linspace(10, 250, 13))
        report = run_sensitivity(params, quiet, study_plan, 1)
        idx_h_v = int(np.argmin(np.abs(report.contrast_fields - params.h_v)))
        assert report.contrast_fields[idx_h_v] == params.h_v
        assert report.contrast_model[idx_h_v] >= 0.20
        idx_high = int(np.argmin(np.abs(report.contrast_fields - 5 * params.h_v)))
        assert report.contrast_model[idx_high] <= 0.05

    def test_model_contrast_at_zero_field_is_its_limit(self, params, quiet,
                                                        monkeypatch):
        # both model slopes vanish at 0 G; the contrast there is the limit
        # delta_inf / (delta_v + delta_inf), 0.75 on the reference model,
        # not the 0 of two equal slopes
        monkeypatch.setattr(sensitivity, "MIN_TRIALS", 1)
        study_plan = plan_sweep(params, quiet, np.linspace(0, 250, 11))
        report = run_sensitivity(params, quiet, study_plan, 1)
        assert report.contrast_fields[0] == 0.0
        assert report.contrast_model[0] == pytest.approx(
            params.delta_inf / (params.delta_v + params.delta_inf), rel=1e-15)
        assert report.contrast_model[0] == pytest.approx(0.75)

    def test_degenerate_cavity_has_zero_contrast(self, params, quiet, monkeypatch):
        monkeypatch.setattr(sensitivity, "MIN_TRIALS", 1)
        flat = ModelParams(t_c=params.t_c, alpha=params.alpha, delta_inf=0.0,
                           h_v=params.h_v)
        study_plan = plan_sweep(params, quiet, np.linspace(10, 250, 13))
        report = run_sensitivity(flat, quiet, study_plan, 1)
        assert np.all(report.contrast_model == 0.0)
        assert np.all(report.contrast_mean == 0.0)

    def test_noisy_contrast_reported_with_sigma(self, params, reference, monkeypatch):
        monkeypatch.setattr(sensitivity, "MIN_TRIALS", 50)
        study_plan = plan_sweep(params, reference, np.linspace(10, 250, 13))
        report = run_sensitivity(params, reference, study_plan, 50)
        assert report.failed_trials == 0
        assert np.all(report.contrast_sigma >= 0.0)
        idx = int(np.argmin(np.abs(report.contrast_fields - params.h_v)))
        model_value = report.contrast_model[idx]
        assert report.contrast_mean[idx] == pytest.approx(
            model_value, abs=4 * report.contrast_sigma[idx] / np.sqrt(50) + 0.05)


class TestRepeatedStudy:
    def test_cold_and_warm_profile_cache_give_equal_reports(self, params, reference,
                                                            plan):
        # the bench byte-compares its repeated in-process rounds
        plan_table.cache_clear()
        cold = run_sensitivity(params, reference, plan, 100)
        warm = run_sensitivity(params, reference, plan, 100)
        for item in fields(SensitivityReport):
            a, b = getattr(cold, item.name), getattr(warm, item.name)
            if isinstance(a, (float, np.ndarray)):
                assert np.array_equal(a, b, equal_nan=True), item.name
            else:
                assert a == b, item.name
