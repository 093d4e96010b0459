from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import curve_fit, least_squares
from scipy.special import erf

from cavityshift import (DeltaCurve, FitError, InputError, InstrumentConfig,
                         ModelParams, acquire_curve, analyze_dataset,
                         build_delta_curve, cavity_delta, delta_derivative,
                         derivative_curve, difference_curve, film_delta,
                         fit_transition, linearity_and_convergence_report,
                         plan_sweep, run_paired_experiment,
                         weighted_mean_difference)
from cavityshift import analysis
from cavityshift.analysis import (_SIGMA_FLOOR, CONVERGENCE_THRESHOLD, MK_PER_K,
                                  DerivativeCurve, DifferenceCurve, FitFailure,
                                  FitResult, _aggregate_repeats, _damped_step,
                                  _normal_matrices, _weighted_line_fit,
                                  relative_slope_difference)
from cavityshift.config import run_config_from_dict
from cavityshift.instrument import ERF_WIDTH_FACTOR, resistive_transition
from cavityshift.protocol import TransitionCurve

REFERENCE_SIGMA_R = 0.0751

#: Found by fuzzing the config domain: one of its fits once overflowed.
JITTER_OVERFLOW_CONFIG = {
    "model": {"alpha": 0.0003657102230106953},
    "instrument": {"base_temperature": 1.201989465374509,
                   "transition_width": 0.05875546465102714,
                   "temperature_jitter": 9.138519989788767},
    "plan": {"n_points": 39}, "seed": 3493288461}


@pytest.fixture(scope="module")
def params():
    return ModelParams()


@pytest.fixture(scope="module")
def quiet():
    return InstrumentConfig(resistance_noise=0.0, temperature_jitter=0.0)


@pytest.fixture(scope="module")
def reference():
    return InstrumentConfig(resistance_noise=REFERENCE_SIGMA_R, seed=1)


def jacobian(t, p):
    """Explicit (n, 3) Jacobian of the erf model at p = (t_star, width, r_n)."""
    t_star, width, r_n = p
    s = width * 1e-3 / ERF_WIDTH_FACTOR
    u = (t - t_star) / s
    bump = r_n * np.exp(-u * u) / np.sqrt(np.pi)
    return np.column_stack((-bump / s, -bump * u / width, 0.5 * (1.0 + erf(u))))


def oracle_fit(curve):
    """MINPACK Levenberg-Marquardt erf fit: (t_star, width, r_n, sigma_t_star)."""
    t, r = curve.temperatures, curve.resistances

    def residuals(p):
        return resistive_transition(t, *p) - r

    sol = least_squares(residuals, [curve.oracle_t_star, 50.0, 10.0],
                        jac=lambda p: jacobian(t, p),
                        method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    s2 = 2.0 * sol.cost / (t.size - 3)
    sigma = float(np.sqrt(np.linalg.inv(sol.jac.T @ sol.jac)[0, 0] * s2))
    return (*sol.x, sigma)


def synthetic_delta_curve(fields, deltas, sigmas=None, kind="film"):
    fields = np.asarray(fields, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    sigmas = np.zeros_like(fields) if sigmas is None else np.asarray(sigmas)
    return DeltaCurve(kind=kind, fields=fields, deltas=deltas, sigmas=sigmas,
                      fit_sigmas=sigmas, t_c_estimate=1.5, t_c_sigma=0.0, t_c_source=f"{kind}-intercept")


class TestFitTransition:
    def test_noiseless_recovery_below_microkelvin(self, params, quiet):
        plan = plan_sweep(params, quiet, [0.0])
        curve = acquire_curve(params, quiet, plan, 0.0, "film")
        fit = fit_transition(curve)
        assert abs(fit.t_star - 1.5) <= 1e-6
        assert fit.width == pytest.approx(50.0, rel=1e-9)
        assert fit.r_n == pytest.approx(10.0, rel=1e-9)

    def test_matches_scipy_curve_fit_on_noisy_data(self, params, reference):
        plan = plan_sweep(params, reference, [150.0])
        curve = acquire_curve(params, reference, plan, 150.0, "film")
        fit = fit_transition(curve)

        popt, _ = curve_fit(resistive_transition, curve.temperatures,
                            curve.resistances, p0=[1.4994, 50.0, 10.0])
        assert fit.t_star == pytest.approx(popt[0], abs=1e-9)
        assert fit.width == pytest.approx(popt[1], rel=1e-6)
        assert fit.r_n == pytest.approx(popt[2], rel=1e-8)

    def test_reference_noise_sigma_near_point_one_millikelvin(self, params, reference):
        plan = plan_sweep(params, reference, [150.0])
        curve = acquire_curve(params, reference, plan, 150.0, "film")
        fit = fit_transition(curve)
        assert fit.sigma_t_star * 1e3 == pytest.approx(0.1, rel=0.25)

    def test_width_recovered_at_reference_noise(self, params, reference):
        plan = plan_sweep(params, reference, [150.0])
        widths = []
        for trial in range(100):
            curve = acquire_curve(params, reference, plan, 150.0, "film",
                                  substream_prefix=(trial,))
            widths.append(fit_transition(curve).width)
        assert np.mean(widths) == pytest.approx(50.0, rel=0.02)

    def test_sigma_honest_and_unbiased_over_seeds(self, params, reference):
        plan = plan_sweep(params, reference, [150.0])
        truth = params.t_c - film_delta(params, 150.0) * 1e-3
        t_stars, sigmas = [], []
        for trial in range(500):
            curve = acquire_curve(params, reference, plan, 150.0, "film",
                                  substream_prefix=(trial,))
            fit = fit_transition(curve)
            t_stars.append(fit.t_star)
            sigmas.append(fit.sigma_t_star)
        empirical = float(np.std(t_stars, ddof=1))
        reported = float(np.mean(sigmas))
        assert abs(empirical - reported) / reported < 0.25
        assert abs(np.mean(t_stars) - truth) <= 0.2 * reported

    @pytest.mark.parametrize("sigma_r", [REFERENCE_SIGMA_R, 0.2])
    def test_matches_minpack_oracle(self, params, sigma_r):
        cfg = InstrumentConfig(resistance_noise=sigma_r, seed=1)
        plan = plan_sweep(params, cfg, np.linspace(50, 250, 10))
        for trial in range(5):
            for curve in run_paired_experiment(params, cfg, plan,
                                               substream_prefix=(trial,)):
                fit = fit_transition(curve)
                t_star, width, r_n, sigma = oracle_fit(curve)
                assert abs(fit.t_star - t_star) * 1e3 <= 1e-6
                assert abs(fit.width - width) <= 1e-5
                assert fit.r_n == pytest.approx(r_n, rel=1e-6)
                assert fit.sigma_t_star == pytest.approx(sigma, rel=1e-6)
                # the fit scales the products of unscaled rows by c_i c_j;
                # the explicit Jacobian at the fit's own point pins that
                t, r = curve.temperatures, curve.resistances
                p = (fit.t_star, fit.width, fit.r_n)
                jac = jacobian(t, p)
                res = resistive_transition(t, *p) - r
                own = math.sqrt(np.linalg.inv(jac.T @ jac)[0, 0]
                                * float(res @ res) / (t.size - 3))
                assert fit.sigma_t_star == pytest.approx(own, rel=1e-9)

    @settings(deadline=None, max_examples=200)
    @given(position=st.floats(0.2, 0.8), width_fraction=st.floats(0.0, 1.0),
           r_n=st.floats(0.1, 1e3))
    def test_noiseless_recovery_over_random_transitions(self, position,
                                                        width_fraction, r_n):
        # midpoint in the central 60% of the grid, width from 5 steps to span/8
        t = np.linspace(1.3, 1.7, 200)
        step_mk = (t[1] - t[0]) * 1e3
        span_mk = (t[-1] - t[0]) * 1e3
        width = 5 * step_mk + width_fraction * (span_mk / 8 - 5 * step_mk)
        t_star = t[0] + position * (t[-1] - t[0])
        curve = TransitionCurve(field=0.0, kind="film", temperatures=t,
                                resistances=resistive_transition(t, t_star, width, r_n))
        fit = fit_transition(curve)
        assert fit.t_star == pytest.approx(t_star, rel=1e-6)
        assert fit.width == pytest.approx(width, rel=1e-6)
        assert fit.r_n == pytest.approx(r_n, rel=1e-6)

    @pytest.mark.parametrize("clamped", [False, True])
    def test_transition_narrower_than_a_step_raises_fit_error(self, clamped):
        # a 1 mK transition on a 2 mK grid is a step function; a sweep
        # clamped at the cryostat floor starts with zero-length steps
        grid = np.linspace(1.3, 1.7, 200)
        floor = 1.33 if clamped else grid[0]
        t = np.maximum(grid, floor)
        flags = tuple(f"clamped:{i}" for i in np.nonzero(grid < floor)[0])
        curve = TransitionCurve(field=0.0, kind="film", temperatures=t,
                                resistances=resistive_transition(t, 1.5003, 1.0, 10.0),
                                flags=flags)
        with pytest.raises(FitError, match="below the temperature step") as excinfo:
            fit_transition(curve)
        # the fit found the true width; only it is below the step
        assert excinfo.value.iterations > 0
        assert excinfo.value.params[1] == pytest.approx(1.0, rel=1e-6)

    def test_singular_covariance_branch(self, params, reference, monkeypatch):
        plan = plan_sweep(params, reference, [150.0])
        curve = acquire_curve(params, reference, plan, 150.0, "film")

        def singular_when_undamped(jtj, grad, lam):
            # the damped LM steps solve as usual; the undamped solve for
            # cov[0, 0] finds the normal matrix singular
            return None if lam == 0.0 else _damped_step(jtj, grad, lam)

        monkeypatch.setattr(analysis, "_damped_step", singular_when_undamped)
        with pytest.raises(FitError, match="singular covariance") as excinfo:
            fit_transition(curve)
        assert excinfo.value.iterations > 0
        assert excinfo.value.params[1] == pytest.approx(50.0, rel=0.1)

    @settings(deadline=None, max_examples=200)
    @given(diagonal=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
           lower=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           null_axis=st.integers(0, 2))
    def test_undamped_solve_reads_the_inverse(self, diagonal, lower, null_axis):
        # cov[0, 0] is the first component of the undamped solve against
        # e_0; A = L L^T with a unit-scale L is SPD and well conditioned
        factor = np.diag(diagonal)
        factor[np.tril_indices(3, -1)] = lower
        spd = factor @ factor.T
        column = _damped_step(spd[np.tril_indices(3)], (-1.0, 0.0, 0.0), 0.0)
        assert column[0] == pytest.approx(np.linalg.inv(spd)[0, 0], rel=1e-12)
        # a parameter no sample informs: rank 2, a zero row and column
        keep = [i for i in range(3) if i != null_axis]
        rank_two = np.zeros((3, 3))
        rank_two[np.ix_(keep, keep)] = spd[:2, :2]
        assert np.linalg.matrix_rank(rank_two) == 2
        assert _damped_step(rank_two[np.tril_indices(3)], (-1.0, 0.0, 0.0), 0.0) is None

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_resistance_rejected(self, value):
        t = np.linspace(1.3, 1.7, 200)
        r = resistive_transition(t, 1.5, 50.0, 10.0)
        r[150] = value
        curve = TransitionCurve(field=0.0, kind="film", temperatures=t, resistances=r)
        with pytest.raises(InputError, match="resistances must be finite"):
            fit_transition(curve)

    def test_too_few_samples_rejected(self, quiet):
        t = np.linspace(1.3, 1.7, 10)
        curve = TransitionCurve(field=0.0, kind="film", temperatures=t,
                                resistances=resistive_transition(t, 1.5, 50.0, 10.0))
        with pytest.raises(InputError):
            fit_transition(curve)

    def test_constant_temperature_rejected(self):
        # a sweep whose setpoints all clamp to the cryostat floor: with noise
        # about zero both plateau fractions could pass, and the zero initial
        # width once escaped as ZeroDivisionError
        t = np.full(200, 0.3)
        r = np.random.default_rng(1).normal(0.0, REFERENCE_SIGMA_R, t.size)
        curve = TransitionCurve(field=50.0, kind="film", temperatures=t, resistances=r,
                                flags=tuple(f"clamped:{i}" for i in range(t.size)))
        with pytest.raises(InputError, match="every temperature is 0.3 K"):
            fit_transition(curve)

    def test_noisy_curve_not_thrown_onto_a_step(self, params):
        # at 0.3 ohm an early Gauss-Newton step once threw the width of
        # this 50 mK wide transition onto its min_width clamp, and the fit
        # stopped at the step-function point below with FitError; the
        # bounded width step reaches the erf minimum instead
        noisy = InstrumentConfig(resistance_noise=0.3, seed=1)
        plan = plan_sweep(params, noisy, np.linspace(50, 250, 10))
        curve = acquire_curve(params, noisy, plan, 50.0, "cavity",
                              substream_prefix=(68,))
        t, r = curve.temperatures, curve.resistances

        def cost(t_star, width, r_n):
            res = resistive_transition(t, t_star, width, r_n) - r
            return float(res @ res)

        fit = fit_transition(curve)
        assert 40.0 <= fit.width <= 60.0
        assert cost(fit.t_star, fit.width, fit.r_n) < cost(
            1.4743270021336943, 0.4020100502512669, 8.81821056826963)
        assert abs(fit.t_star - curve.oracle_t_star) <= 4 * fit.sigma_t_star

    def test_midpoint_step_stays_near_the_sweep(self):
        # a 0.06 mK wide transition under 9 mK of temperature jitter: with
        # the t_star step unbounded, this fit ran t_star off until
        # u * u overflowed in _normal_equations (a RuntimeWarning, an
        # error under the suite's warning filter)
        config = run_config_from_dict(JITTER_OVERFLOW_CONFIG)
        curve = acquire_curve(config.model, config.instrument, config.plan,
                              config.plan.fields[1], "film", substream_prefix=(6,))
        t = curve.temperatures
        span = t[-1] - t[0]
        with pytest.raises(FitError) as info:
            fit_transition(curve)
        assert t[0] - span <= info.value.params[0] <= t[-1] + span

    def test_missing_plateau_rejected(self, quiet):
        # sweep entirely below the transition: no normal plateau sampled
        t = np.linspace(1.3, 1.45, 100)
        curve = TransitionCurve(field=0.0, kind="film", temperatures=t,
                                resistances=resistive_transition(t, 1.5, 50.0, 10.0))
        with pytest.raises(InputError):
            fit_transition(curve)

    def test_reference_fits_take_few_accepted_steps(self, params, reference):
        # Gauss-Newton alone converges linearly on these noisy curves and
        # takes 4.56 accepted steps per fit here; full-Hessian steps in
        # the tail take about 3.2
        plan = plan_sweep(params, reference, np.linspace(50, 250, 10))
        steps = [fit_transition(curve).iterations
                 for trial in range(50)
                 for curve in run_paired_experiment(params, reference, plan,
                                                    substream_prefix=(trial,))]
        assert len(steps) == 1000
        assert np.mean(steps) <= 3.4


class TestFullHessian:
    """J^T J + S from ``_normal_matrices`` is the Hessian of cost / 2."""

    #: the lower-triangle entries of S; S22 is zero
    S_ENTRIES = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]

    @pytest.fixture(scope="class")
    def case(self, params):
        # a 0.3 ohm curve, moved off its optimum so that the residuals
        # carry the model error and S is far from negligible
        noisy = InstrumentConfig(resistance_noise=0.3, seed=1)
        plan = plan_sweep(params, noisy, [150.0])
        curve = acquire_curve(params, noisy, plan, 150.0, "film")
        fit = fit_transition(curve)
        p = np.array([fit.t_star + 3e-3, fit.width * 1.3, fit.r_n * 0.9])
        t, r = curve.temperatures, curve.resistances
        t_star, width, r_n = p
        u = (t - t_star) * (ERF_WIDTH_FACTOR / (width * 1e-3))
        g = np.exp(-u * u)
        res = resistive_transition(t, *p) - r
        rows = np.array([g, u * g, 1.0 + erf(u), res, u * res, u * u * res])
        jtj, _, hess = _normal_matrices((rows @ rows.T).tolist(), width, r_n)

        def half_cost(q):
            res = resistive_transition(t, *q) - r
            return 0.5 * float(res @ res)

        # central differences on steps of 1e-4 of each parameter's scale
        h = 1e-4 * np.array([width * 1e-3, width, r_n])
        eye = np.diag(h)
        central = np.array([[(half_cost(p + eye[i] + eye[j]) - half_cost(p + eye[i] - eye[j])
                              - half_cost(p - eye[i] + eye[j])
                              + half_cost(p - eye[i] - eye[j])) / (4.0 * h[i] * h[j])
                             for j in range(3)] for i in range(3)])
        full = lambda lower: np.array([[lower[max(i, j) * (max(i, j) + 1) // 2 + min(i, j)]
                                        for j in range(3)] for i in range(3)])
        return full(jtj), full(hess), central

    @staticmethod
    def relative_error(matrix, central):
        # each entry against the geometric mean of its two diagonal
        # entries, which does not depend on the parameters' units
        scale = np.sqrt(np.outer(np.diag(central), np.diag(central)))
        return float(np.max(np.abs(matrix - central) / scale))

    def test_matches_central_differences_of_half_cost(self, case):
        jtj, hess, central = case
        assert self.relative_error(hess, central) <= 1e-6
        # Gauss-Newton's J^T J alone is far off at this point
        assert self.relative_error(jtj, central) > 1e-2

    @pytest.mark.parametrize("entry", S_ENTRIES)
    def test_sign_flip_of_any_s_entry_is_detected(self, case, entry):
        jtj, hess, central = case
        i, j = entry
        flipped = hess.copy()
        flipped[i, j] = flipped[j, i] = jtj[i, j] - (hess[i, j] - jtj[i, j])
        assert self.relative_error(flipped, central) > 1e-6


class TestGaussNewtonRows:
    """A Gauss-Newton point's 4-row Gram gives the J^T J and J^T res of the
    6-row Gram a Newton point takes, and no J^T J + S."""

    @pytest.fixture(scope="class", params=[REFERENCE_SIGMA_R, 0.3])
    def curve(self, request, params):
        config = InstrumentConfig(resistance_noise=request.param, seed=1)
        plan = plan_sweep(params, config, [150.0])
        return acquire_curve(params, config, plan, 150.0, "film")

    @pytest.mark.parametrize("point", ["initial guess", "off the optimum"])
    def test_four_rows_match_six(self, curve, point):
        t, r = curve.temperatures, curve.resistances
        if point == "initial guess":
            # r_top and the step as fit_transition takes them
            k = t.size // 10
            r_top = float(np.sort(r)[-k:].sum()) / k
            p = analysis._initial_guess(t, r, r_top, float(np.diff(t).max()) * 1e3)
        else:
            fit = fit_transition(curve)
            p = [fit.t_star + 3e-3, fit.width * 1.3, fit.r_n * 0.9]
        u, rows = np.empty(t.size), analysis._row_stack(t.size)
        analysis._evaluate(t, r, p, u, rows)
        jtj_gn, grad_gn, hess_gn = analysis._normal_equations(p, u, rows, False)
        jtj, grad, hess = analysis._normal_equations(p, u, rows, True)
        np.testing.assert_array_max_ulp(np.array(jtj_gn), np.array(jtj), maxulp=2)
        np.testing.assert_array_max_ulp(np.array(grad_gn), np.array(grad), maxulp=2)
        assert hess_gn is None
        assert len(hess) == 6 and all(map(math.isfinite, hess))


class TestPlateauBoundary:
    """A curve needs at least 10% of its points strictly below 0.2 r_top and
    strictly above 0.8 r_top.  On this 10 mK grid with a noise-free 50 mK
    transition, moving the midpoint by one step moves one point across."""

    T = np.linspace(1.0, 1.99, 100)

    def curve(self, t_star):
        return TransitionCurve(field=0.0, kind="film", temperatures=self.T,
                               resistances=resistive_transition(self.T, t_star, 50.0, 10.0))

    @staticmethod
    def plateau_counts(r):
        r_top = np.mean(np.sort(r)[-(r.size // 10):])
        return int(np.sum(r < 0.2 * r_top)), int(np.sum(r > 0.8 * r_top)), r_top

    @pytest.mark.parametrize("t_star, side", [(1.111, 0), (1.880, 1)])
    def test_exactly_ten_percent_fits(self, t_star, side):
        curve = self.curve(t_star)
        assert self.plateau_counts(curve.resistances)[side] == 10
        fit = fit_transition(curve)
        assert fit.t_star == pytest.approx(t_star, abs=1e-9)

    @pytest.mark.parametrize("t_star, side", [(1.101, 0), (1.890, 1)])
    def test_one_point_fewer_raises(self, t_star, side):
        curve = self.curve(t_star)
        assert self.plateau_counts(curve.resistances)[side] == 9
        with pytest.raises(InputError, match="both resistance plateaus"):
            fit_transition(curve)

    def test_point_on_the_threshold_does_not_count(self):
        curve = self.curve(1.111)
        below, _, r_top = self.plateau_counts(curve.resistances)
        assert below == 10
        curve.resistances[below - 1] = 0.2 * r_top  # the highest of the ten
        assert self.plateau_counts(curve.resistances)[0] == 9
        with pytest.raises(InputError, match="both resistance plateaus"):
            fit_transition(curve)


class TestBuildDeltaCurve:
    def test_noiseless_film_deltas(self, params, quiet):
        plan = plan_sweep(params, quiet, [50.0, 100.0, 150.0])
        fits = [(f, fit_transition(acquire_curve(params, quiet, plan, f, "film")))
                for f in plan.fields]
        curve = build_delta_curve(fits, "film")
        assert curve.deltas == pytest.approx([0.0666667, 0.2666667, 0.6], rel=1e-5)
        assert curve.deltas == pytest.approx(
            [film_delta(params, f) for f in plan.fields], abs=1e-6)
        assert curve.t_c_estimate == pytest.approx(params.t_c, abs=1e-9)

    def test_noiseless_cavity_with_shared_t_c(self, params, quiet):
        plan = plan_sweep(params, quiet, [50.0, 100.0, 150.0])
        fits = [(f, fit_transition(acquire_curve(params, quiet, plan, f, "cavity")))
                for f in plan.fields]
        curve = build_delta_curve(fits, "cavity", t_c=(params.t_c, 0.0))
        expected = [cavity_delta(params, f) for f in plan.fields]
        assert curve.deltas == pytest.approx(expected, abs=1e-6)
        assert curve.deltas[-1] == pytest.approx(0.4, rel=0.10)
        assert curve.t_c_source == "film-intercept"

    def test_single_field_rejected(self):
        fit = FitResult(t_star=1.5, sigma_t_star=0.0, width=50.0, r_n=10.0,
                        residual_norm=0.0, iterations=1)
        with pytest.raises(InputError):
            build_delta_curve([(0.0, fit)] * 5, "film")

    def test_repetitions_aggregate(self, params, reference):
        plan = plan_sweep(params, reference, [50.0, 150.0, 250.0])
        fits = []
        for f in plan.fields:
            for rep in range(4):
                curve = acquire_curve(params, reference, plan, f, "film",
                                      substream_prefix=(rep,))
                fits.append((f, fit_transition(curve)))
        combined = build_delta_curve(fits, "film")
        assert combined.fields.size == 3
        single = build_delta_curve(fits[::4], "film")
        assert np.all(combined.sigmas < single.sigmas)


def aggregate_loop(fits):
    """Per-field loop over a dict of lists; the reference for
    _aggregate_repeats, which must match it bit for bit."""
    by_field = {}
    for field, fit in fits:
        by_field.setdefault(float(field), []).append(fit)
    fields = np.array(sorted(by_field))
    t_star = np.empty(fields.size)
    sigma = np.empty(fields.size)
    for i, f in enumerate(fields):
        group = by_field[float(f)]
        ts = np.array([g.t_star for g in group])
        sg = np.array([g.sigma_t_star for g in group])
        if np.all(sg > _SIGMA_FLOOR):
            w = 1.0 / sg ** 2
            t_star[i] = float(np.sum(w * ts) / np.sum(w))
            sigma[i] = float(1.0 / math.sqrt(np.sum(w)))
        else:
            t_star[i] = float(np.mean(ts))
            sigma[i] = float(math.sqrt(np.mean(sg ** 2) / len(group)))
    return fields, t_star, sigma


class TestAggregateRepeats:
    @pytest.mark.parametrize("repetitions", [1, 5])
    def test_matches_loop_reference_bit_for_bit(self, repetitions):
        rng = np.random.default_rng(repetitions)
        for _ in range(300):
            n_fields = int(rng.integers(3, 12))
            fields = np.sort(rng.uniform(0.0, 250.0, n_fields))
            fits = []
            for field in fields:
                for _ in range(repetitions):
                    t_star = 1.5 - rng.uniform(0.0, 1e-3)
                    sigma = rng.choice([rng.uniform(1e-6, 1e-4), rng.uniform(1e-6, 1e-4),
                                        rng.uniform(1e-6, 1e-4), 0.0, _SIGMA_FLOOR])
                    fits.append((field, FitResult(t_star, sigma, 50.0, 10.0, 0.01, 4)))
            order = rng.permutation(len(fits))  # unsorted fields, shuffled repeats
            fits = [fits[i] for i in order]
            expected = aggregate_loop(fits)
            got = _aggregate_repeats(fits)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()

    def test_one_sigma_at_the_floor_gives_the_field_equal_weights(self):
        fits = [(10.0, FitResult(1.4, 1e-5, 50.0, 10.0, 0.0, 4)),
                (10.0, FitResult(1.5, _SIGMA_FLOOR, 50.0, 10.0, 0.0, 4)),
                (20.0, FitResult(1.3, 1e-5, 50.0, 10.0, 0.0, 4)),
                (20.0, FitResult(1.4, 3e-5, 50.0, 10.0, 0.0, 4))]
        fields, t_star, sigma = _aggregate_repeats(fits)
        assert fields.tolist() == [10.0, 20.0]
        assert t_star[0] == pytest.approx(1.45, rel=1e-15)
        assert sigma[0] == pytest.approx(math.sqrt((1e-10 + 1e-24) / 2) / math.sqrt(2))
        assert t_star[1] == pytest.approx((1.3 * 9 + 1.4) / 10)


class TestDifference:
    def test_curve_minus_itself_is_exactly_zero(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        fits = [(f, fit_transition(acquire_curve(params, quiet, plan, f, "film")))
                for f in plan.fields]
        curve = build_delta_curve(fits, "film")
        diff = difference_curve(curve, curve)
        assert np.all(diff.values == 0.0)

    def test_grid_mismatch_rejected(self):
        a = synthetic_delta_curve([10, 20, 30], [1, 2, 3])
        b = synthetic_delta_curve([10, 20, 31], [1, 2, 3], kind="cavity")
        with pytest.raises(InputError):
            difference_curve(a, b)

    def test_noiseless_difference_tracks_model(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(150, 500, 8))
        result = analyze_dataset(run_paired_experiment(params, quiet, plan))
        expected = np.array([film_delta(params, f) - cavity_delta(params, f)
                             for f in plan.fields])
        assert result.difference.values == pytest.approx(expected, abs=1e-6)
        assert np.all(np.abs(result.difference.values - 0.2) < 0.05)

    def test_reference_noise_weighted_mean(self, params, reference):
        # sigma of the weighted mean should sit in the 0.03-0.05 mK band
        plan = plan_sweep(params, reference, np.linspace(50, 250, 10))
        truth = np.mean([film_delta(params, f) - cavity_delta(params, f)
                         for f in plan.fields])
        means, sigmas = [], []
        for trial in range(60):
            res = analyze_dataset(run_paired_experiment(
                params, reference, plan, substream_prefix=(trial,)))
            mean, sigma = weighted_mean_difference(res.difference)
            means.append(mean)
            sigmas.append(sigma)
        assert 0.03 <= np.mean(sigmas) <= 0.05
        assert np.mean(means) == pytest.approx(truth, abs=3 * np.mean(sigmas) / np.sqrt(60))


class TestSharedTcCancels:
    """Tc cancels in the film-cavity difference on a shared Tc and in
    every slope, so their sigmas leave its sigma out.  With it in, the
    scatter of both over trials was about 0.86 of the reported sigma."""

    @pytest.fixture(scope="class")
    def results(self, params, reference):
        plan = plan_sweep(params, reference, np.linspace(50, 250, 10))
        results = [analyze_dataset(run_paired_experiment(
            params, reference, plan, substream_prefix=(trial,)))
            for trial in range(300)]
        assert not any(result.failed_fits for result in results)
        return results

    def test_weighted_mean_shift_scatter_matches_its_sigma(self, results):
        means = [result.mean_difference for result in results]
        sigmas = [result.mean_difference_sigma for result in results]
        assert 0.9 <= np.std(means, ddof=1) / np.mean(sigmas) <= 1.1

    def test_film_slope_scatter_matches_its_sigma(self, results):
        slopes = np.array([result.film_derivative.slopes for result in results])
        sigmas = np.array([result.film_derivative.sigmas for result in results])
        ratio = np.std(slopes, axis=0, ddof=1) / np.mean(sigmas, axis=0)
        assert 0.9 <= np.median(ratio) <= 1.1


class TestDerivativeCurve:
    def test_quadratic_recovers_linear_slope(self, params):
        fields = np.linspace(10, 250, 40)
        curve = synthetic_delta_curve(fields, params.alpha * fields ** 2)
        deriv = derivative_curve(curve)
        idx = int(np.argmin(np.abs(fields - 100.0)))
        expected = 2 * params.alpha * fields[idx]
        assert deriv.slopes[idx] == pytest.approx(expected, rel=0.005)
        assert deriv.slopes[idx] == pytest.approx(5.3333e-3 * fields[idx] / 100, rel=5e-3)
        interior = ~deriv.one_sided
        assert np.all(np.abs(deriv.slopes[interior] - 2 * params.alpha
                             * fields[interior]) <= 0.005 * 2 * params.alpha
                      * fields[interior])

    def test_constant_curve_has_zero_derivative(self):
        curve = synthetic_delta_curve(np.linspace(0, 100, 20), np.full(20, 0.3))
        deriv = derivative_curve(curve)
        assert np.all(deriv.slopes == 0.0)

    def test_endpoints_flagged_one_sided(self):
        curve = synthetic_delta_curve(np.linspace(0, 100, 11), np.linspace(0, 1, 11))
        deriv = derivative_curve(curve)
        assert list(deriv.one_sided) == [True, True] + [False] * 7 + [True, True]

    def test_window_validation(self):
        curve = synthetic_delta_curve(np.linspace(0, 100, 4), np.zeros(4))
        with pytest.raises(InputError, match="window 5 exceeds the 4 available points"):
            derivative_curve(curve)

    def test_noiseless_cavity_low_field_linearity(self, params):
        # windowed derivative of the exact model curve, fields below 0.3 h_v
        fields = np.linspace(1.0, 15.0, 30)
        curve = synthetic_delta_curve(
            fields, [cavity_delta(params, f) for f in fields], kind="cavity")
        deriv = derivative_curve(curve)
        x = deriv.fields[~deriv.one_sided]
        y = deriv.slopes[~deriv.one_sided]
        slope = np.polyfit(x, y, 1)
        resid = y - np.polyval(slope, x)
        r2 = 1 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.999


def derivative_loop(fields, deltas, sigmas, window):
    """Per-point windowed regression; the reference for derivative_curve.
    Also returns sum(|coeff * y|) per point, the scale of its rounding."""
    n = fields.size
    half = window // 2
    slopes, errors, scale = np.empty(n), np.empty(n), np.empty(n)
    one_sided = np.zeros(n, dtype=bool)
    for i in range(n):
        lo = min(max(i - half, 0), n - window)
        sl = slice(lo, lo + window)
        one_sided[i] = lo != i - half
        x, y = fields[sl], deltas[sl]
        dx = x - float(np.mean(x))
        sxx = float(dx @ dx)
        slopes[i] = float(dx @ (y - float(np.mean(y)))) / sxx
        coeff = dx / sxx
        errors[i] = math.sqrt(np.sum((coeff * sigmas[sl]) ** 2))
        scale[i] = np.sum(np.abs(coeff * y))
    return slopes, errors, one_sided, scale


class TestDerivativeLoopReference:
    def test_random_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(5, 40))
            fields = np.cumsum(rng.uniform(0.1, 30.0, n)) + rng.uniform(0.0, 100.0)
            deltas = rng.uniform(-1.0, 1.0) * fields ** 2 * 1e-4 + rng.normal(0, 0.1, n)
            sigmas = rng.uniform(0.0, 0.2, n)
            curve = synthetic_delta_curve(fields, deltas, sigmas)
            deriv = derivative_curve(curve)
            slopes, errors, one_sided, scale = derivative_loop(fields, deltas, sigmas, 5)
            assert np.array_equal(deriv.one_sided, one_sided)
            assert np.all(np.abs(deriv.slopes - slopes) <= 1e-12 * scale)
            assert np.allclose(deriv.sigmas, errors, rtol=1e-12, atol=0.0)

    def test_window_spanning_the_whole_grid(self):
        fields = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
        curve = synthetic_delta_curve(fields, fields ** 2, np.full(5, 0.1))
        deriv = derivative_curve(curve)
        slopes, errors, one_sided, _ = derivative_loop(fields, fields ** 2,
                                                       np.full(5, 0.1), 5)
        assert deriv.one_sided.tolist() == [True, True, False, True, True]
        assert np.array_equal(deriv.one_sided, one_sided)
        assert deriv.slopes == pytest.approx(slopes, rel=1e-13)
        assert deriv.sigmas == pytest.approx(errors, rel=1e-13)


# The post-fit steps as they were before the per-grid derivative operator
# and the direct ufunc reductions, verbatim: the references the current
# code must match bit for bit.

def reference_weighted_line_fit(x, y, sigma):
    weighted = bool(np.all(sigma > _SIGMA_FLOOR))
    w = 1.0 / sigma ** 2 if weighted else np.ones_like(x)
    sw = float(np.sum(w))
    swx = float(np.sum(w * x))
    swxx = float(np.sum(w * x * x))
    swy = float(np.sum(w * y))
    swxy = float(np.sum(w * x * y))
    det = sw * swxx - swx * swx
    if not (det > 0) or det <= 1e-12 * sw * swxx:
        raise InputError("regression is rank deficient (degenerate field grid)")
    a = (swxx * swy - swx * swxy) / det
    b = (sw * swxy - swx * swy) / det
    var_a = swxx / det
    if not weighted:
        resid = y - a - b * x
        var_a *= float(resid @ resid) / max(x.size - 2, 1)
    return a, math.sqrt(max(var_a, 0.0))


def reference_weighted_mean_difference(diff, min_field=0.0):
    mask = diff.fields >= min_field
    if not np.any(mask):
        raise InputError("no fields at or above the requested minimum")
    values = diff.values[mask]
    sigmas = diff.sigmas[mask]
    if np.all(sigmas > _SIGMA_FLOOR * MK_PER_K):
        w = 1.0 / sigmas ** 2
        return (float(np.sum(w * values) / np.sum(w)),
                float(1.0 / math.sqrt(np.sum(w))))
    return float(np.mean(values)), 0.0


def reference_derivative_curve(curve, window):
    n = curve.fields.size
    if window % 2 == 0 or window < 3:
        raise InputError(f"window must be odd and >= 3, got {window}")
    if window > n:
        raise InputError(f"window {window} exceeds the {n} available points")
    half = window // 2
    centre = np.arange(n)
    lo = np.clip(centre - half, 0, n - window)
    rows = lo[:, None] + np.arange(window)
    dx = curve.fields[rows]
    dx -= dx.mean(axis=1, keepdims=True)
    coeff = dx / (dx * dx).sum(axis=1, keepdims=True)
    y = curve.deltas[rows]
    slopes = (coeff * (y - y.mean(axis=1, keepdims=True))).sum(axis=1)
    sigmas = np.sqrt(((coeff * curve.fit_sigmas[rows]) ** 2).sum(axis=1))
    one_sided = lo != centre - half
    return DerivativeCurve(kind=curve.kind, fields=curve.fields.copy(),
                           slopes=slopes, sigmas=sigmas, one_sided=one_sided)


def reference_r_squared(x, y):
    if x.size < 3:
        return math.nan
    xbar = float(np.mean(x))
    ybar = float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    sst = float(np.sum((y - ybar) ** 2))
    if sst == 0.0:
        return 1.0
    slope = float(np.sum((x - xbar) * (y - ybar))) / sxx
    ssr = float(np.sum((y - ybar - slope * (x - xbar)) ** 2))
    return 1.0 - ssr / sst


def reference_linearity_and_convergence_report(film, cavity):
    if film.fields.shape != cavity.fields.shape or np.any(film.fields != cavity.fields):
        raise InputError("film and cavity derivatives are on different field grids")
    rel = relative_slope_difference(film.slopes, cavity.slopes)
    region = ~(film.one_sided | cavity.one_sided)
    r2_film = reference_r_squared(film.fields[region], film.slopes[region])
    r2_cavity = reference_r_squared(cavity.fields[region], cavity.slopes[region])
    ok = np.abs(rel) < CONVERGENCE_THRESHOLD
    ok_onward = np.logical_and.accumulate(ok[::-1])[::-1]
    convergence_field = (float(film.fields[np.argmax(ok_onward)]) if ok_onward.any()
                         else None)
    return rel, r2_film, r2_cavity, convergence_field


def uneven_grid(rng, n):
    return np.cumsum(rng.uniform(0.1, 30.0, n)) + rng.uniform(0.0, 100.0)


def floored_sigmas(rng, n, scale):
    """Sigmas on the ``scale`` of the values, a few of them zero or at the
    floor of the K (analysis._SIGMA_FLOOR) or the mK regressions."""
    sigmas = rng.uniform(0.01, 1.0, n) * scale
    picked = rng.random(n) < 0.1
    sigmas[picked] = rng.choice([0.0, _SIGMA_FLOOR, _SIGMA_FLOOR * MK_PER_K],
                                picked.sum())
    return sigmas


def same_bits(*pairs):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in pairs)


class TestPostFitMatchesReference:
    """Random grids of 3-40 fields (5-40 for the 5-point derivative)
    with uneven steps, sigmas at the floors, and film and cavity slopes
    that are zero or equal (the NaN and 0 contrasts)."""

    def test_derivative_curve(self):
        rng = np.random.default_rng(23)
        for _ in range(400):
            n = int(rng.integers(5, 41))
            fields = uneven_grid(rng, n)
            deltas = rng.uniform(-1.0, 1.0) * fields ** 2 * 1e-4 + rng.normal(0, 0.1, n)
            curve = synthetic_delta_curve(fields, deltas, floored_sigmas(rng, n, 0.1))
            got = derivative_curve(curve)
            want = reference_derivative_curve(curve, 5)
            assert same_bits(*((getattr(got, name), getattr(want, name))
                               for name in ("fields", "slopes", "sigmas", "one_sided")))

    def test_weighted_line_fit(self):
        rng = np.random.default_rng(29)
        for _ in range(400):
            n = int(rng.integers(3, 41))
            x = uneven_grid(rng, n) ** 2
            y = 1.5 - 1e-7 * x + rng.normal(0.0, 1e-4, n)
            sigma = floored_sigmas(rng, n, 1e-4)
            assert same_bits((_weighted_line_fit(x, y, sigma),
                              reference_weighted_line_fit(x, y, sigma)))

    def test_weighted_mean_difference(self):
        rng = np.random.default_rng(31)
        for _ in range(400):
            n = int(rng.integers(3, 41))
            fields = uneven_grid(rng, n)
            diff = DifferenceCurve(fields=fields, values=rng.normal(0.2, 0.1, n),
                                   sigmas=floored_sigmas(rng, n, 0.1))
            min_field = float(rng.choice(fields))
            assert same_bits((weighted_mean_difference(diff, min_field),
                              reference_weighted_mean_difference(diff, min_field)))

    def test_linearity_and_convergence_report(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            n = int(rng.integers(5, 41))
            fields = uneven_grid(rng, n)
            slopes = {kind: rng.normal(1.0, 0.05, n) for kind in ("film", "cavity")}
            for kind in ("film", "cavity"):
                slopes[kind][rng.random(n) < 0.1] = 0.0
            equal = rng.random(n) < 0.2
            slopes["cavity"][equal] = slopes["film"][equal]
            if rng.random() < 0.1:  # a constant film slope: R^2 is 1
                slopes["film"][:] = 0.5
            film, cavity = (
                derivative_curve(synthetic_delta_curve(fields, np.zeros(n), kind=kind))
                for kind in ("film", "cavity"))
            film, cavity = (replace(deriv, slopes=slopes[deriv.kind])
                            for deriv in (film, cavity))
            got = linearity_and_convergence_report(film, cavity)
            rel, r2_film, r2_cavity, field = reference_linearity_and_convergence_report(
                film, cavity)
            assert same_bits((got.relative_difference, rel), (got.r2_film, r2_film),
                             (got.r2_cavity, r2_cavity), (got.fields, fields))
            assert got.convergence_field == field

    def test_one_operator_per_grid(self):
        grids = (np.linspace(0.0, 100.0, 11), np.geomspace(1.0, 100.0, 11))
        curves = [synthetic_delta_curve(fields, fields ** 2, np.full(11, 0.1))
                  for fields in grids]
        analysis._derivative_operator.cache_clear()
        for curve in curves * 3:  # alternate the two grids
            got = derivative_curve(curve)
            want = reference_derivative_curve(curve, 5)
            assert same_bits((got.slopes, want.slopes), (got.sigmas, want.sigmas))
        info = analysis._derivative_operator.cache_info()
        assert (info.misses, info.hits) == (2, 4)
        operators = [analysis._derivative_operator(fields.tobytes())
                     for fields in grids]
        assert not np.array_equal(operators[0][1], operators[1][1])
        for array in (*operators[0], *operators[1]):
            assert not array.flags.writeable
        assert derivative_curve(curves[0]).one_sided is operators[0][2]


class TestConvergenceReport:
    def test_identical_inputs(self, params):
        fields = np.linspace(10, 250, 20)
        curve = synthetic_delta_curve(fields, params.alpha * fields ** 2)
        deriv = derivative_curve(curve)
        report = linearity_and_convergence_report(deriv, deriv)
        assert np.all(report.relative_difference == 0.0)
        assert report.convergence_field == fields[0]

    @staticmethod
    def loop_reference(film, cavity, threshold):
        """Per-element relative difference and first field from which
        every later one converges, written as plain loops."""
        rel = []
        for f, c in zip(film.tolist(), cavity.tolist()):
            rel.append(0.0 if f == c else (f - c) / f if f != 0.0 else math.nan)
        onward = [i for i in range(len(rel))
                  if all(abs(r) < threshold for r in rel[i:])]
        return np.array(rel), onward[0] if onward else None

    @pytest.mark.parametrize("film, cavity", [
        ([1.0, 2.0, 0.0, 4.0, 5.0, 6.0], [0.5, 2.0, 0.0, 4.1, 5.01, 6.0]),
        ([1.0, 0.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.0, 3.0, 4.0, 5.0, 6.0]),
        ([1.0, 2.0, 3.0, np.nan, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0, 7.0]),
    ])
    def test_matches_loop_reference(self, film, cavity):
        fields = np.linspace(10.0, 60.0, 6)
        one_sided = np.array([True, False, False, False, False, True])

        def deriv(kind, slopes):
            return DerivativeCurve(kind=kind, fields=fields, slopes=np.array(slopes),
                                   sigmas=np.ones(6), one_sided=one_sided)

        report = linearity_and_convergence_report(deriv("film", film),
                                                  deriv("cavity", cavity))
        rel, first = self.loop_reference(np.array(film), np.array(cavity), 0.05)
        assert report.relative_difference.tobytes() == rel.tobytes()
        assert report.convergence_field == (None if first is None else fields[first])

    def test_noiseless_contrast_large_at_crossover(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        result = analyze_dataset(run_paired_experiment(params, quiet, plan))
        report = result.convergence
        idx = int(np.argmin(np.abs(report.fields - params.h_v)))
        assert report.relative_difference[idx] >= 0.20

    def test_noiseless_contrast_small_at_five_crossovers(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        result = analyze_dataset(run_paired_experiment(params, quiet, plan))
        report = result.convergence
        idx = int(np.argmin(np.abs(report.fields - 5 * params.h_v)))
        assert abs(report.relative_difference[idx]) <= 0.05


class TestAnalyzeDataset:
    def test_noiseless_end_to_end_identity(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        result = analyze_dataset(run_paired_experiment(params, quiet, plan))
        for kind, reference_fn in (("film", film_delta), ("cavity", cavity_delta)):
            curve = getattr(result, kind)
            expected = np.array([reference_fn(params, f) for f in curve.fields])
            assert np.max(np.abs(curve.deltas - expected)) <= 1e-3  # 1 uK in mK

    def test_film_only_dataset_degrades_gracefully(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        curves = [c for c in run_paired_experiment(params, quiet, plan)
                  if c.kind == "film"]
        result = analyze_dataset(curves)
        assert result.film is not None
        assert result.cavity is None
        assert result.difference is None
        assert result.mean_difference is None

    def test_cavity_only_dataset_flagged(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        curves = [c for c in run_paired_experiment(params, quiet, plan)
                  if c.kind == "cavity"]
        result = analyze_dataset(curves)
        assert result.cavity is not None
        assert result.cavity.t_c_source == "cavity-intercept"
        assert any("self-regressed" in note for note in result.notes)

    def test_lost_plateau_counted_and_difference_skipped(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        curves = run_paired_experiment(params, quiet, plan)
        # the cavity curve at the first field reads zero throughout
        assert (curves[1].field, curves[1].kind) == (50.0, "cavity")
        curves[1].resistances = np.zeros_like(curves[1].resistances)
        result = analyze_dataset(curves)
        assert result.failed_fits == 1
        assert result.failures == [FitFailure(50.0, "cavity", 0,
                                              "no resistive plateau found", None, None)]
        assert result.film.fields.size == 10
        assert result.cavity.fields.size == 9
        assert result.difference is None
        assert result.convergence is None
        assert result.mean_difference is None
        assert any("different fields" in note for note in result.notes)

    def test_four_fields_skip_only_the_derivatives(self, params, quiet):
        plan = plan_sweep(params, quiet, [50.0, 100.0, 150.0, 200.0])
        result = analyze_dataset(run_paired_experiment(params, quiet, plan))
        assert result.difference.fields.size == 4
        assert result.mean_difference is not None
        assert result.film_derivative is None and result.cavity_derivative is None
        assert result.convergence is None
        assert result.notes[:2] == [
            f"window 5 exceeds the 4 available points of the {kind} delta curve"
            for kind in ("film", "cavity")]
        assert result.notes[2].startswith("Tc taken from the film")
        assert len(set(result.notes)) == len(result.notes) == 3

    def test_step_function_fit_failure_recorded(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        curves = run_paired_experiment(params, quiet, plan)
        step = curves[6]  # film at the fourth field
        step.resistances = resistive_transition(step.temperatures, 1.45, 1.0, 10.0)
        result = analyze_dataset(curves)
        assert result.failed_fits == 1
        (failure,) = result.failures
        assert (failure.field, failure.kind, failure.repetition) == (
            step.field, "film", 0)
        assert "below the temperature step" in failure.reason
        assert failure.iterations > 0
        assert failure.residual_norm > 0
        assert len(result.fits) == 19

    def test_model_level_linear_fit_of_cavity_derivative(self, params):
        # analytic derivative of the solved balance is linear well below h_v
        h = np.linspace(5.0, 15.0, 60)
        slopes = np.array([delta_derivative(params, x, "cavity") for x in h])
        fit = np.polyfit(h, slopes, 1)
        resid = slopes - np.polyval(fit, h)
        r2 = 1 - np.sum(resid ** 2) / np.sum((slopes - slopes.mean()) ** 2)
        assert r2 > 0.999
