from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import curve_fit, least_squares
from scipy.special import erf

from cavityshift import (CavityShiftError, DeltaCurve, FitError, InputError,
                         InstrumentConfig, ModelParams, acquire_curve, analyze_dataset,
                         build_delta_curve, cavity_delta, delta_derivative,
                         derivative_curve, difference_curve, film_delta,
                         fit_transition, plan_sweep, run_paired_experiment,
                         weighted_mean_difference)
from cavityshift import analysis
from cavityshift.analysis import (_SIGMA_FLOOR, _SQRT_PI, MK_PER_K,
                                  DerivativeCurve, DifferenceCurve, FitFailure,
                                  FitResult, _aggregate_repeats, _damped_step,
                                  _evaluate, _normal_equations, _row_stack,
                                  _weighted_line_fit, relative_slope_difference)
from cavityshift.config import default_run_config, run_config_from_dict
from cavityshift.instrument import (ERF_WIDTH_FACTOR, MAX_RESISTANCE, MIN_RESISTANCE,
                                   resistive_transition)
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


def oracle_fit(curve, t_star):
    """MINPACK Levenberg-Marquardt erf fit from the midpoint ``t_star``:
    (t_star, width, r_n, sigma_t_star)."""
    t, r = curve.temperatures, curve.resistances

    def residuals(p):
        return resistive_transition(t, *p) - r

    sol = least_squares(residuals, [t_star, 50.0, 10.0],
                        jac=lambda p: jacobian(t, p),
                        method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    s2 = 2.0 * sol.cost / (t.size - 3)
    sigma = float(np.sqrt(np.linalg.inv(sol.jac.T @ sol.jac)[0, 0] * s2))
    return (*sol.x, sigma)


def reference_curve(scale: float) -> TransitionCurve:
    """The default run's first film curve (``simulate``'s
    curve_000_film_rep0.csv) with its resistances times ``scale``."""
    config = default_run_config()
    curve = acquire_curve(config.model, config.instrument, config.plan,
                          config.plan.fields[0], "film")
    return replace(curve, resistances=curve.resistances * scale)


def in_fit_domain(curve: TransitionCurve) -> bool:
    """Whether the fit takes ``curve``'s resistances: each within +-1e15
    ohm, and a plateau (the mean of the top tenth, at least 2 samples) of
    at least 1e-15 ohm, or of at most 0, which the fit refuses as it did
    before it had a domain."""
    r = np.sort(curve.resistances)
    return (-analysis._MAX_ABS_RESISTANCE <= r[0] and r[-1] <= analysis._MAX_ABS_RESISTANCE
            and not 0 < r[-max(2, r.size // 10):].mean() < analysis._MIN_PLATEAU)


@st.composite
def finite_curves(draw) -> TransitionCurve:
    """20-120 finite samples of noise, a step, a monotone ramp, or an erf
    with and without noise; temperatures from 1e-3 to 1e3 K over spans
    of 1e-12 to 100 K, and a resistance scale from 1e-300 to 1e300, drawn
    from the fit's domain, 1e-15 to 1e15, about half the time."""
    n = draw(st.integers(20, 120))
    t_0 = 10.0 ** draw(st.floats(-3.0, 3.0))
    span = 10.0 ** draw(st.floats(-12.0, 2.0))
    scale = 10.0 ** draw(st.one_of(st.floats(-15.0, 15.0), st.floats(-300.0, 300.0)))
    shape = draw(st.sampled_from(["noise", "step", "monotone", "erf", "noisy erf"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.linspace(-1.0, 1.0, n)
    if shape == "noise":
        r = rng.normal(size=n)
    elif shape == "step":
        r = (x > rng.uniform(-0.5, 0.5)).astype(float)
    elif shape == "monotone":
        r = np.sort(rng.uniform(size=n))
    else:
        r = 0.5 * (1.0 + erf((x - rng.uniform(-0.5, 0.5)) / rng.uniform(0.01, 1.0)))
        if shape == "noisy erf":
            r += rng.normal(0.0, 0.05, n)
    t = t_0 + np.linspace(0.0, span, n)
    # a span below the float spacing at t_0 repeats temperatures, which a
    # curve may do only as a sweep clamped at the cryostat floor
    flags = () if (t[1:] > t[:-1]).all() else ("clamped:0",)
    return TransitionCurve(field=0.0, kind="film", temperatures=t,
                           resistances=r * scale, flags=flags)


def synthetic_delta_curve(fields, deltas, sigmas=None, kind="film"):
    fields = np.asarray(fields, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    sigmas = np.zeros_like(fields) if sigmas is None else np.asarray(sigmas)
    return DeltaCurve(kind=kind, fields=fields, deltas=deltas, sigmas=sigmas,
                      fit_sigmas=sigmas, t_c_estimate=1.5, t_c_sigma=0.0)


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
    def test_matches_minpack_oracle(self, params, sigma_r, table_of):
        cfg = InstrumentConfig(resistance_noise=sigma_r, seed=1)
        plan = plan_sweep(params, cfg, np.linspace(50, 250, 10))
        t_stars = table_of(params, cfg, plan).t_stars
        for trial in range(5):
            for curve in run_paired_experiment(params, cfg, plan,
                                               substream_prefix=(trial,)):
                fit = fit_transition(curve)
                t_star, width, r_n, sigma = oracle_fit(
                    curve, t_stars[curve.kind][plan.fields.index(curve.field)])
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

    # resistances near 1e161 once overflowed the fit's sums of squares;
    # they now lie outside the fit's domain and are refused
    @settings(deadline=None, max_examples=300)
    @example(curve=reference_curve(2.0 ** 40), unscaled=reference_curve(1.0))
    @example(curve=reference_curve(1e160), unscaled=None)
    @example(curve=reference_curve(1e-320), unscaled=None)  # subnormal max |R|
    @example(curve=TransitionCurve(  # the last r_n lies past the largest float
        field=0.0, kind="film", temperatures=np.linspace(1.0, 1.1, 50),
        resistances=np.repeat([0.0, sys.float_info.max], 25)), unscaled=None)
    @given(curve=finite_curves(), unscaled=st.none())
    def test_any_finite_curve_fits_or_raises_a_package_error(self, curve, unscaled):
        # where ``unscaled`` is given, the fit keeps its t* bit for bit
        try:
            fit = fit_transition(curve)
        except CavityShiftError as exc:
            assert unscaled is None
            assert in_fit_domain(curve) or isinstance(exc, InputError)
            return
        assert isinstance(fit, FitResult)
        assert in_fit_domain(curve)
        if unscaled is not None:
            assert fit.t_star == fit_transition(unscaled).t_star

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

    @pytest.mark.parametrize("normal_resistance", [MIN_RESISTANCE, MAX_RESISTANCE])
    def test_noise_free_curve_fits_at_either_end_of_the_domain(self, params,
                                                               normal_resistance):
        cfg = InstrumentConfig(normal_resistance=normal_resistance, resistance_noise=0.0)
        plan = plan_sweep(params, cfg, [0.0])
        fit = fit_transition(acquire_curve(params, cfg, plan, 0.0, "film"))
        assert abs(fit.t_star - 1.5) <= 1e-6
        assert fit.width == pytest.approx(50.0, rel=1e-9)
        assert fit.r_n == pytest.approx(normal_resistance, rel=1e-9)

    @pytest.mark.parametrize("scale, message", [
        (1e160, "resistances must be finite and within +-1e+15 ohm"),
        (-1e15, "resistances must be finite and within +-1e+15 ohm"),
        (1e-17, "no resistive plateau found")])
    def test_curve_outside_the_domain_is_a_counted_input_error(self, params, quiet,
                                                               scale, message):
        # a curve past either bound is refused by name, with no numpy
        # warning on the way, and the analysis counts it as a failed fit
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        curves = run_paired_experiment(params, quiet, plan)
        curves[4] = replace(curves[4], resistances=curves[4].resistances * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                fit_transition(curves[4])
            result = analyze_dataset(curves)
        assert result.failures == [FitFailure(curves[4], message, None, None)]
        assert result.failed_fits == 1

    @settings(deadline=None, max_examples=200)
    @given(sigma_r=st.sampled_from([0.0, REFERENCE_SIGMA_R, 0.3]),
           jitter=st.sampled_from([0.0, 2.0]), trial=st.integers(0, 10 ** 6),
           kind=st.sampled_from(["film", "cavity"]), k=st.integers(-43, 36))
    def test_power_of_two_scale_moves_no_bit(self, params, sigma_r, jitter, trial, kind,
                                             k):
        # 10 ohm times 2^k stays within [1e-12, 1e12] ohm: inside the
        # domain, t*, width and sigma do not depend on R's scale, and r_n
        # and a failed fit's r_n and residual norm scale exactly
        cfg = InstrumentConfig(resistance_noise=sigma_r, temperature_jitter=jitter)
        plan = plan_sweep(params, cfg, [150.0])
        curve = acquire_curve(params, cfg, plan, 150.0, kind, substream_prefix=(trial,))
        scaled = replace(curve, resistances=np.ldexp(curve.resistances, k))
        try:
            fit = fit_transition(curve)
        except FitError as exc:
            t_star, width, r_n = exc.params
            want = (FitError, str(exc), float_bits((
                exc.iterations, math.ldexp(exc.residual_norm, k),
                (t_star, width, math.ldexp(r_n, k)))))
        else:
            want = (FitResult, float_bits((fit.t_star, fit.sigma_t_star, fit.width,
                                           math.ldexp(fit.r_n, k), fit.residual_norm,
                                           fit.iterations)))
        assert fit_outcome(fit_transition, scaled) == want

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

    def test_noisy_curve_not_thrown_onto_a_step(self, params, table_of):
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
        t_star = table_of(params, noisy, plan).t_stars["cavity"][0]
        assert abs(fit.t_star - t_star) <= 4 * fit.sigma_t_star

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
        # takes 4.55 accepted steps per fit here; full-Hessian steps after
        # a switch at 1e-3 relative step size took 3.24, and full-Hessian
        # steps from the first accepted step on take about 3.0
        plan = plan_sweep(params, reference, np.linspace(50, 250, 10))
        steps = [fit_transition(curve).iterations
                 for trial in range(50)
                 for curve in run_paired_experiment(params, reference, plan,
                                                    substream_prefix=(trial,))]
        assert len(steps) == 1000
        assert np.mean(steps) <= 3.1


class TestFullHessian:
    """J^T J + S from ``_normal_equations`` is the Hessian of cost / 2."""

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
        t_star, width, r_n = p.tolist()
        rows = _row_stack(t.size)
        _evaluate(t, r, t_star, width, r_n, rows)
        jtj, _, hess = _normal_equations(width, r_n, rows)

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
        curve = build_delta_curve(fits)
        assert curve.deltas == pytest.approx([0.0666667, 0.2666667, 0.6], rel=1e-5)
        assert curve.deltas == pytest.approx(
            [film_delta(params, f) for f in plan.fields], abs=1e-6)
        assert curve.t_c_estimate == pytest.approx(params.t_c, abs=1e-9)

    def test_noiseless_cavity_with_shared_t_c(self, params, quiet):
        plan = plan_sweep(params, quiet, [50.0, 100.0, 150.0])
        fits = {kind: [(f, fit_transition(acquire_curve(params, quiet, plan, f, kind)))
                       for f in plan.fields] for kind in ("film", "cavity")}
        film = build_delta_curve(fits["film"])
        curve = build_delta_curve(fits["cavity"], film)
        assert (film.kind, curve.kind) == ("film", "cavity")
        expected = [cavity_delta(params, f) for f in plan.fields]
        assert curve.deltas == pytest.approx(expected, abs=1e-6)
        assert curve.deltas[-1] == pytest.approx(0.4, rel=0.10)
        # the cavity takes the film's Tc, whose sigma adds to each T*'s
        assert (curve.t_c_estimate, curve.t_c_sigma) == (film.t_c_estimate,
                                                         film.t_c_sigma)
        assert curve.sigmas == pytest.approx(
            np.hypot(curve.fit_sigmas, film.t_c_sigma * MK_PER_K), rel=1e-12)

    def test_single_field_rejected(self):
        fit = FitResult(t_star=1.5, sigma_t_star=0.0, width=50.0, r_n=10.0,
                        residual_norm=0.0, iterations=1)
        with pytest.raises(InputError):
            build_delta_curve([(0.0, fit)] * 5)

    def test_repetitions_aggregate(self, params, reference):
        plan = plan_sweep(params, reference, [50.0, 150.0, 250.0])
        fits = []
        for f in plan.fields:
            for rep in range(4):
                curve = acquire_curve(params, reference, plan, f, "film",
                                      substream_prefix=(rep,))
                fits.append((f, fit_transition(curve)))
        combined = build_delta_curve(fits)
        assert combined.fields.size == 3
        single = build_delta_curve(fits[::4])
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
        sg = np.maximum([g.sigma_t_star for g in group], _SIGMA_FLOOR)
        w = 1.0 / sg ** 2
        t_star[i] = float(np.sum(w * ts) / np.sum(w))
        sigma[i] = float(1.0 / math.sqrt(np.sum(w)))
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

    def test_a_zero_sigma_weighs_as_the_floor(self):
        def aggregate(sigma):
            return _aggregate_repeats([
                (10.0, FitResult(1.4, 1e-5, 50.0, 10.0, 0.0, 4)),
                (10.0, FitResult(1.5, sigma, 50.0, 10.0, 0.0, 4)),
                (20.0, FitResult(1.3, 1e-5, 50.0, 10.0, 0.0, 4)),
                (20.0, FitResult(1.4, 3e-5, 50.0, 10.0, 0.0, 4))])

        at_zero, at_floor = aggregate(0.0), aggregate(_SIGMA_FLOOR)
        assert at_zero[0].tolist() == [10.0, 20.0]
        assert same_bits(*zip(at_zero, at_floor))
        # the repeat at the floor outweighs the other by 1e14
        assert at_zero[1][0] == pytest.approx(1.5, rel=1e-13)
        assert at_zero[1][1] == pytest.approx((1.3 * 9 + 1.4) / 10)


class TestDifference:
    def test_curve_minus_itself_is_exactly_zero(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        fits = [(f, fit_transition(acquire_curve(params, quiet, plan, f, "film")))
                for f in plan.fields]
        curve = build_delta_curve(fits)
        diff = difference_curve(curve, curve)
        assert np.all(diff.values == 0.0)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_noise_free_mean_has_the_floor_standard_error(self, n):
        # every sigma 0 weighs as the 1e-9 mK floor: equal weights, and a
        # standard error that is never 0
        values = np.linspace(0.1, 0.3, n)
        diff = DifferenceCurve(fields=np.arange(1.0, n + 1), values=values,
                               sigmas=np.zeros(n))
        mean, se = weighted_mean_difference(diff)
        assert mean == pytest.approx(values.mean(), rel=1e-15)
        assert se == pytest.approx(1e-9 / math.sqrt(n), rel=1e-15)

    def test_mean_without_a_field_at_or_above_the_minimum_rejected(self):
        diff = DifferenceCurve(fields=np.array([10.0, 20.0]), values=np.ones(2),
                               sigmas=np.ones(2))
        assert weighted_mean_difference(diff, min_field=20.0) == (1.0, 1.0)
        with pytest.raises(InputError, match="^no fields at or above the requested "
                                             "minimum$"):
            weighted_mean_difference(diff, min_field=20.000000000000004)

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


class TestDeltaSigmasMatchTheirScatter:
    """The reported delta sigmas against the scatter of the deltas about
    the truth over 400 trials (the SE of that scatter is 3.5%).  A film
    delta shares its own T* with the Tc intercept; without their
    covariance the film sigma read 1.26 times the scatter at 50 G and
    0.89 times at 228 G."""

    def test_every_field_of_both_kinds(self, params, reference, table_of):
        plan = plan_sweep(params, reference, np.linspace(50, 250, 10))
        truth = table_of(params, reference, plan).deltas
        results = [analyze_dataset(run_paired_experiment(
            params, reference, plan, substream_prefix=(trial,)))
            for trial in range(400)]
        for kind in ("film", "cavity"):
            curves = [getattr(result, kind) for result in results]
            errors = np.array([curve.deltas for curve in curves]) - truth[kind]
            sigmas = np.array([curve.sigmas for curve in curves])
            ratio = np.mean(sigmas, axis=0) / np.std(errors, axis=0, ddof=1)
            assert np.all(np.abs(ratio - 1.0) <= 0.15), (kind, ratio)


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


def exact_weighted_line_fit(x, y, sigma):
    """The weighted line fit in exact rational arithmetic on the same
    float inputs and weights: (a, sigma_a^2, the intercept's row)."""
    w = [Fraction(v) for v in (1.0 / np.maximum(sigma, _SIGMA_FLOOR) ** 2).tolist()]
    xs = [Fraction(v) for v in x.tolist()]
    ys = [Fraction(v) for v in y.tolist()]
    sw = sum(w)
    swx = sum(wi * xi for wi, xi in zip(w, xs))
    swxx = sum(wi * xi * xi for wi, xi in zip(w, xs))
    swy = sum(wi * yi for wi, yi in zip(w, ys))
    swxy = sum(wi * xi * yi for wi, xi, yi in zip(w, xs, ys))
    det = sw * swxx - swx * swx
    return ((swxx * swy - swx * swxy) / det, swxx / det,
            [wi * (swxx - swx * xi) / det for wi, xi in zip(w, xs)])


def assert_matches_exact_line_fit(x, y, sigma):
    a, sigma_a, row = _weighted_line_fit(x, y, sigma)
    want_a, want_var, want_row = exact_weighted_line_fit(x, y, sigma)
    assert a == pytest.approx(float(want_a), rel=1e-14)
    assert sigma_a == pytest.approx(math.sqrt(want_var), rel=1e-14)

    def delta_sigmas(r):
        coeff = (np.asarray(r, dtype=float) - np.eye(x.size)) * np.maximum(sigma,
                                                                           _SIGMA_FLOOR)
        return np.sqrt(np.add.reduce(coeff * coeff, 1))

    # the row as the film's delta sigmas read it: a floor-level sigma's own
    # entry carries the rounding of its tiny centred offset, but it is
    # weighed there by that sigma
    assert delta_sigmas(row) == pytest.approx(
        delta_sigmas([float(r) for r in want_row]), rel=1e-12)


# The post-fit steps as they were before the per-grid derivative operator
# and the direct ufunc reductions, verbatim but for the one noise floor
# of the weights: the references the current code must match bit for bit.

def reference_weighted_mean_difference(diff, min_field=0.0):
    mask = diff.fields >= min_field
    if not np.any(mask):
        raise InputError("no fields at or above the requested minimum")
    values = diff.values[mask]
    sigmas = np.maximum(diff.sigmas[mask], _SIGMA_FLOOR * MK_PER_K)
    w = 1.0 / sigmas ** 2
    return (float(np.sum(w * values) / np.sum(w)),
            float(1.0 / math.sqrt(np.sum(w))))


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


def reference_relative_slope_difference(film, cavity):
    """(film - cavity) / film per element, 0 where equal and NaN where only
    the film slope is 0, written as a plain loop."""
    return np.array([0.0 if f == c else (f - c) / f if f != 0.0 else math.nan
                     for f, c in zip(film.tolist(), cavity.tolist())])


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
        # against exact arithmetic: a sigma at or below the floor among
        # ~1e-5 K ones weighs ~1e14 times more, which cost the raw sums of
        # an earlier version up to 1.5e-4 of a and made its conditioning
        # check reject 50 of these 400 draws as degenerate grids
        rng = np.random.default_rng(29)
        for _ in range(400):
            n = int(rng.integers(3, 41))
            x = uneven_grid(rng, n) ** 2
            y = 1.5 - 1e-7 * x + rng.normal(0.0, 1e-4, n)
            assert_matches_exact_line_fit(x, y, floored_sigmas(rng, n, 1e-4))

    def test_one_floor_level_sigma_on_a_spread_grid_is_not_rejected(self):
        x = np.linspace(50.0, 250.0, 10) ** 2
        y = 1.5 - 1e-7 * x + np.random.default_rng(5).normal(0.0, 1e-4, 10)
        sigma = np.full(10, 1e-4)
        sigma[3] = _SIGMA_FLOOR
        assert_matches_exact_line_fit(x, y, sigma)

    def test_intercept_row_gives_the_intercept_and_its_sigma(self):
        # the row r of a = sum_j r_j y_j: without floor-level sigmas (whose
        # own entries carry the rounding of their centred offsets) r @ y is
        # a and sqrt(sum (r sigma)^2) is sigma_a
        rng = np.random.default_rng(31)
        for _ in range(2000):
            n = int(rng.integers(3, 41))
            x = uneven_grid(rng, n) ** 2
            y = 1.5 - 1e-7 * x + rng.normal(0.0, 1e-4, n)
            sigma = rng.uniform(0.01, 1.0, n) * 1e-4
            a, sigma_a, row = _weighted_line_fit(x, y, sigma)
            assert row @ y == pytest.approx(a, rel=1e-11)
            assert math.sqrt(np.sum((row * sigma) ** 2)) == pytest.approx(sigma_a,
                                                                          rel=1e-11)

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

    def test_relative_slope_difference(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            n = int(rng.integers(5, 41))
            slopes = {kind: rng.normal(1.0, 0.05, n) for kind in ("film", "cavity")}
            for kind in ("film", "cavity"):
                slopes[kind][rng.random(n) < 0.1] = 0.0
            equal = rng.random(n) < 0.2
            slopes["cavity"][equal] = slopes["film"][equal]
            assert same_bits((relative_slope_difference(slopes["film"], slopes["cavity"]),
                              reference_relative_slope_difference(slopes["film"],
                                                                  slopes["cavity"])))

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


# The erf fit as it was before its loop ran on scalar locals (one set-up
# block, no S formed at the initial guess), verbatim but for its names
# and docstrings: the reference fit_transition must match bit for bit.

ref_SQRT_PI = math.sqrt(math.pi)
ref_GUESS_LEVELS = np.array([[0.5], [0.1], [0.9]])


def ref_damped_step(jtj: tuple[float, ...], grad: tuple[float, float, float],
                    lam: float) -> tuple[float, float, float] | None:
    a00, a10, a11, a20, a21, a22 = jtj
    a = 1.0 + lam
    d0 = a00 * a
    if not 0.0 < d0 < math.inf:
        return None
    l00 = math.sqrt(d0)
    l10 = a10 / l00
    l20 = a20 / l00
    d1 = a11 * a - l10 * l10
    if not 0.0 < d1 < math.inf:
        return None
    l11 = math.sqrt(d1)
    l21 = (a21 - l20 * l10) / l11
    d2 = a22 * a - l20 * l20 - l21 * l21
    if not 0.0 < d2 < math.inf:
        return None
    l22 = math.sqrt(d2)
    y0 = -grad[0] / l00
    y1 = (-grad[1] - l10 * y0) / l11
    y2 = (-grad[2] - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    return x0, x1, x2


def ref_initial_guess(t: np.ndarray, r: np.ndarray, r_top: float,
                      step_mk: float) -> list[float]:
    i_mid, i_lo, i_hi = np.abs(r - ref_GUESS_LEVELS * r_top).argmin(axis=1).tolist()
    width = max(abs(t[i_hi] - t[i_lo]) * MK_PER_K, 2.0 * step_mk)
    return [float(t[i_mid]), float(width), r_top]


def ref_xtol_scales(p: list[float]) -> tuple[float, float, float]:
    return max(abs(p[0]), 1e-30), max(abs(p[1]), 1e-30), max(abs(p[2]), 1e-30)


ref_XTOL = 1e-10
ref_MAX_ITER = 100
ref_WIDTH_STEP_FACTOR = 4.0


def ref_row_factors(width: float, r_n: float) -> tuple[float, float, float]:
    k = ERF_WIDTH_FACTOR / (width * 1e-3)
    return k, -r_n / ref_SQRT_PI * k, -r_n / (ref_SQRT_PI * width)


def ref_normal_matrices(gram: list[list[float]], width: float, r_n: float
                        ) -> tuple[tuple[float, ...], tuple[float, float, float],
                                   tuple[float, ...]]:
    g0, g1, g2 = gram[0], gram[1], gram[2]
    k, c0, c1 = ref_row_factors(width, r_n)
    jtj = (g0[0] * c0 * c0,
           g0[1] * c0 * c1, g1[1] * c1 * c1,
           g0[2] * c0 * 0.5, g1[2] * c1 * 0.5, g2[2] * 0.25)
    b0, b1 = g0[3], g1[3]
    grad = (b0 * c0, b1 * c1, g2[3] * 0.5)
    a3, a4 = g1[4], g1[5]
    # the S entries above, written with c0 and c1
    hess = (jtj[0] + 2.0 * c0 * k * b1,
            jtj[1] - c0 * (b0 - 2.0 * a3) / width,
            jtj[2] - 2.0 * c1 * (b1 - a4) / width,
            jtj[3] + c0 * b0 / r_n, jtj[4] + c1 * b1 / r_n, jtj[5])
    return jtj, grad, hess


def ref_row_stack(n: int) -> tuple[np.ndarray, ...]:
    stack = np.empty((6, n))
    return (*stack, stack)


def ref_evaluate(t: np.ndarray, r: np.ndarray, q: list[float], u: np.ndarray,
                 rows: tuple[np.ndarray, ...]) -> float:
    shape, res = rows[2], rows[3]
    np.subtract(t, q[0], u)
    np.multiply(u, ERF_WIDTH_FACTOR / (q[1] * 1e-3), u)
    erf(u, shape)
    np.add(shape, 1.0, shape)
    np.multiply(shape, 0.5 * q[2], res)
    np.subtract(res, r, res)
    return float(res.dot(res))


def ref_normal_equations(q: list[float], u: np.ndarray,
                         rows: tuple[np.ndarray, ...]):
    gauss, ugauss, _, res, ures, u2res, stack = rows
    np.multiply(u, u, gauss)
    np.negative(gauss, gauss)
    np.exp(gauss, gauss)
    np.multiply(gauss, u, ugauss)
    np.multiply(res, u, ures)
    np.multiply(ures, u, u2res)
    return ref_normal_matrices(stack.dot(stack.T).tolist(), q[1], q[2])


def ref_ldexp(x: float, e: int) -> float:
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def reference_fit_transition(curve: TransitionCurve) -> FitResult:
    t = curve.temperatures
    r = curve.resistances
    n = t.size
    if n < 20:
        raise InputError(f"need at least 20 samples, got {n}")
    step_mk = float((t[1:] - t[:-1]).max()) * MK_PER_K
    if step_mk == 0:  # e.g. a sweep whose setpoints all clamp to the floor
        raise InputError(f"every temperature is {float(t[0])!r} K; the curve has "
                         "no transition to fit")
    r_sorted = np.sort(r)
    if not (-math.inf < r_sorted[0] and r_sorted[-1] < math.inf):  # NaN sorts last
        raise InputError("resistances must be finite")
    # max |R| = m 2^e with 0.5 <= m < 1; the fit runs on R 2^-e, applied
    # with ldexp since 2^-e itself overflows for a subnormal max |R|
    e = math.frexp(max(-r_sorted[0], r_sorted[-1]))[1]
    np.ldexp(r_sorted, -e, out=r_sorted)
    r = np.ldexp(r, -e)
    k = max(2, n // 10)
    r_top = float(r_sorted[-k:].sum()) / k  # bit-equal to .mean()
    if not (r_top > 0):
        raise InputError("no resistive plateau found")
    below = int(r_sorted.searchsorted(0.2 * r_top))                # r < 0.2 r_top
    above = n - int(r_sorted.searchsorted(0.8 * r_top, "right"))  # r > 0.8 r_top
    if below / n < 0.1 or above / n < 0.1:
        raise InputError("curve does not span both resistance plateaus")

    min_width = 0.2 * step_mk
    span = float(t[-1] - t[0])
    t_lo, t_hi = float(t[0]) - span, float(t[-1]) + span
    p = ref_initial_guess(t, r, r_top, step_mk)

    # one set of buffers per fit, which every evaluation overwrites: the
    # scaled offsets u and a stack of rows (see ref_evaluate); the current
    # point lives on only in its cost and normal matrices
    u, rows = np.empty(n), ref_row_stack(n)

    cost = ref_evaluate(t, r, p, u, rows)
    jtj, grad, hess = ref_normal_equations(p, u, rows)
    s0, s1, s2 = ref_xtol_scales(p)
    lam = 1e-3
    iterations = 0
    converged = False

    def fit_error(message: str) -> FitError:
        return FitError(message, iterations=iterations,
                        residual_norm=ref_ldexp(math.sqrt(cost / n), e),
                        params=(p[0], p[1], ref_ldexp(p[2], e)))

    for _ in range(ref_MAX_ITER):
        step = ref_damped_step(hess, grad, lam) if iterations else None
        if step is None:
            step = ref_damped_step(jtj, grad, lam)
            if step is None:
                break
        width = min(max(p[1] + step[1], p[1] / ref_WIDTH_STEP_FACTOR),
                    p[1] * ref_WIDTH_STEP_FACTOR)
        p_new = [min(max(p[0] + step[0], t_lo), t_hi), max(width, min_width),
                 p[2] + step[2]]
        if p_new[2] <= 0:
            p_new[2] = p[2]
        d0 = abs(p_new[0] - p[0]) / s0
        d1 = abs(p_new[1] - p[1]) / s1
        d2 = abs(p_new[2] - p[2]) / s2
        if d0 <= ref_XTOL and d1 <= ref_XTOL and d2 <= ref_XTOL:
            converged = True
            break
        cost_new = ref_evaluate(t, r, p_new, u, rows)
        if cost_new <= cost:
            # the Jacobian is formed only here, since a rejected
            # evaluation's Jacobian would be thrown away
            p, cost = p_new, cost_new
            jtj, grad, hess = ref_normal_equations(p, u, rows)
            lam = max(lam * 0.1, 1e-14)
            s0, s1, s2 = ref_xtol_scales(p)
            iterations += 1
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    if not converged:
        raise fit_error("transition fit did not converge")
    if p[1] < step_mk:
        raise fit_error("fitted width below the temperature step; "
                        "transition not resolved")

    # cov[0, 0] = (J^T J)^-1[0, 0] s^2; the undamped solve against the
    # unit vector e_0 gives the first column of (J^T J)^-1
    column = ref_damped_step(jtj, (-1.0, 0.0, 0.0), 0.0)
    if column is None:
        raise fit_error("singular covariance at the fitted parameters")
    var_t_star = column[0] * (cost / max(n - 3, 1))
    return FitResult(
        t_star=p[0],
        sigma_t_star=math.sqrt(max(var_t_star, 0.0)),
        width=abs(p[1]),
        r_n=ref_ldexp(p[2], e),
        residual_norm=float(math.sqrt(cost / n) / p[2]),
        iterations=iterations)


def float_bits(value):
    """``value`` with every float as its type and hex form, so that two
    values compare equal only when their bits do (-0.0 against 0.0 too)."""
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if isinstance(value, tuple):
        return tuple(float_bits(v) for v in value)
    return value


def fit_outcome(fit, curve):
    """The result of ``fit(curve)`` field by field, or the error it
    raises with its message and attributes, in :func:`float_bits` form."""
    try:
        result = fit(curve)
    except CavityShiftError as exc:
        return (type(exc), str(exc), float_bits((getattr(exc, "iterations", None),
                                                 getattr(exc, "residual_norm", None),
                                                 getattr(exc, "params", None))))
    return type(result), float_bits(tuple(getattr(result, f) for f in (
        "t_star", "sigma_t_star", "width", "r_n", "residual_norm", "iterations")))


class TestFitMatchesReference:
    """fit_transition against reference_fit_transition: the same bits
    of every result field, or the same error, message and attributes."""

    # the reference fits at any finite scale of R; the fit refuses a
    # curve outside its domain, and matches the reference inside it
    @settings(deadline=None, max_examples=300)
    @example(curve=reference_curve(1e160))
    @example(curve=reference_curve(1e-320))
    @example(curve=reference_curve(1e-13))
    @example(curve=reference_curve(1e14))
    @example(curve=TransitionCurve(
        field=0.0, kind="film", temperatures=np.linspace(1.0, 1.1, 50),
        resistances=np.repeat([0.0, sys.float_info.max], 25)))
    @given(curve=finite_curves())
    def test_any_finite_curve(self, curve):
        outcome = fit_outcome(fit_transition, curve)
        if in_fit_domain(curve):
            assert outcome == fit_outcome(reference_fit_transition, curve)
        else:
            assert outcome[0] is InputError

    @pytest.mark.parametrize("config", [
        {"instrument": {"resistance_noise": REFERENCE_SIGMA_R}},
        {"instrument": {"resistance_noise": 0.3}},
        {"instrument": {"resistance_noise": 0.4}},
        {"instrument": {"resistance_noise": REFERENCE_SIGMA_R, "temperature_jitter": 2.0}},
        {"instrument": {"resistance_noise": 0.0, "temperature_jitter": 0.0}},
        JITTER_OVERFLOW_CONFIG,
    ], ids=["reference", "0.3-ohm", "0.4-ohm", "jitter", "noise-free", "jitter-overflow"])
    def test_study_curves(self, config):
        config = run_config_from_dict({"seed": 3, **config})
        outcomes = [(fit_outcome(fit_transition, curve),
                     fit_outcome(reference_fit_transition, curve))
                    for trial in range(20)
                    for curve in run_paired_experiment(config.model, config.instrument,
                                                       config.plan, (trial,))]
        assert all(got == want for got, want in outcomes)
        assert len(outcomes) == 20 * 2 * len(config.plan.fields)

    @pytest.mark.parametrize("t, r, flags, message", [
        (np.linspace(1.3, 1.7, 10), np.linspace(0.0, 10.0, 10), (), None),
        (np.full(200, 0.3), np.linspace(0.0, 10.0, 200), ("clamped:0",), None),
        (np.linspace(1.3, 1.7, 200), np.where(np.arange(200) == 150, math.nan, 1.0), (),
         "resistances must be finite and within +-1e+15 ohm"),
        (np.linspace(1.3, 1.45, 100),
         resistive_transition(np.linspace(1.3, 1.45, 100), 1.5, 50.0, 10.0), (), None),
        (np.linspace(1.3, 1.7, 200), -np.linspace(0.0, 10.0, 200), (), None),
    ], ids=["too-few", "one-temperature", "nan-resistance", "one-plateau", "no-plateau"])
    def test_refused_curves(self, t, r, flags, message):
        # ``message``, where given, is the fit's own: it names the bound of
        # its domain where the reference names finiteness alone
        curve = TransitionCurve(field=0.0, kind="film", temperatures=t, resistances=r,
                                flags=flags)
        outcome = fit_outcome(fit_transition, curve)
        assert outcome[0] is InputError
        want = fit_outcome(reference_fit_transition, curve)
        assert outcome == (want if message is None else (want[0], message, want[2]))


def reference_t_star_variance(temperatures: np.ndarray, t_star: float, width: float,
                              r_n: float) -> tuple[float, float]:
    """t_star_variance's body as it once was, evaluating the noise-free
    curve to fill the rows."""
    rows = _row_stack(temperatures.size)
    _evaluate(temperatures, resistive_transition(temperatures, t_star, width, r_n),
              t_star, width, r_n, rows)
    jtj = _normal_equations(width, r_n, rows, second_order=False)[0]
    column = _damped_step(jtj, (-1.0, 0.0, 0.0), 0.0)
    if column is None:
        return math.inf, math.inf
    gauss, ugauss, shape = rows[1:4]
    # the row factors c0 and c1 of _normal_equations
    c0 = -r_n / _SQRT_PI * (ERF_WIDTH_FACTOR / (width * 1e-3))
    c1 = -r_n / (_SQRT_PI * width)
    # per sample, (J A^-1)[i, 0] J_0: its share of t*'s shift per unit jitter
    shift = (c0 * column[0]) * gauss + (c1 * column[1]) * ugauss
    shift += (0.5 * column[2]) * shape
    shift *= c0 * gauss
    return column[0], float(shift.dot(shift)) * 1e-6


class TestTStarVarianceMatchesReference:
    """t_star_variance forms no curve: J^T J and the jitter term read no
    residual, so both variances keep their bits."""

    @settings(deadline=None, max_examples=300)
    @example(n=200, position=0.5, width_fraction=0.125, log_r_n=1.0)
    @example(n=200, position=0.5, width_fraction=0.125, log_r_n=-12.0)
    @example(n=200, position=0.5, width_fraction=0.125, log_r_n=12.0)
    @example(n=20, position=1.4, width_fraction=0.001, log_r_n=12.0)
    @given(n=st.integers(20, 400), position=st.floats(-0.5, 1.5),
           width_fraction=st.floats(1e-3, 2.0), log_r_n=st.floats(-12.0, 12.0))
    def test_same_bits(self, n, position, width_fraction, log_r_n):
        # a 0.4 K sweep at 1.3 K, t* up to half a span past either end, the
        # 10-90 width from 0.4 mK to 800 mK, and r_n over its whole domain
        t = np.linspace(1.3, 1.7, n)
        t_star, width, r_n = 1.3 + 0.4 * position, 400.0 * width_fraction, 10.0 ** log_r_n
        assert float_bits(analysis.t_star_variance(t, t_star, width, r_n)) == \
            float_bits(reference_t_star_variance(t, t_star, width, r_n))


class TestConvergenceReport:
    """The relative film-cavity slope difference, the ``convergence``
    block of analysis.json."""

    def test_identical_inputs(self, params):
        fields = np.linspace(10, 250, 20)
        deriv = derivative_curve(synthetic_delta_curve(fields, params.alpha * fields ** 2))
        assert np.all(relative_slope_difference(deriv.slopes, deriv.slopes) == 0.0)

    @pytest.mark.parametrize("film, cavity", [
        ([1.0, 2.0, 0.0, 4.0, 5.0, 6.0], [0.5, 2.0, 0.0, 4.1, 5.01, 6.0]),
        ([1.0, 0.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.0, 3.0, 4.0, 5.0, 6.0]),
        ([1.0, 2.0, 3.0, np.nan, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0, 7.0]),
    ])
    def test_matches_loop_reference(self, film, cavity):
        film, cavity = np.array(film), np.array(cavity)
        assert (relative_slope_difference(film, cavity).tobytes()
                == reference_relative_slope_difference(film, cavity).tobytes())

    def test_noiseless_contrast_large_at_crossover(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        result = analyze_dataset(run_paired_experiment(params, quiet, plan))
        idx = int(np.argmin(np.abs(result.film_derivative.fields - params.h_v)))
        assert result.relative_slope_difference[idx] >= 0.20

    def test_noiseless_contrast_small_at_five_crossovers(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        result = analyze_dataset(run_paired_experiment(params, quiet, plan))
        idx = int(np.argmin(np.abs(result.film_derivative.fields - 5 * params.h_v)))
        assert abs(result.relative_slope_difference[idx]) <= 0.05


class TestAnalyzeDataset:
    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError, match="^dataset contains no curves$"):
            analyze_dataset([])

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
        # the cavity shares the film's Tc, so without film fits it has none
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        curves = [c for c in run_paired_experiment(params, quiet, plan)
                  if c.kind == "cavity"]
        result = analyze_dataset(curves)
        assert result.cavity is None
        assert result.notes == ["film fits cover 0 distinct field(s); "
                                "a delta curve needs 3"]

    def test_lost_plateau_counted_and_difference_skipped(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        curves = run_paired_experiment(params, quiet, plan)
        # the cavity curve at the first field reads zero throughout
        assert (curves[1].field, curves[1].kind) == (50.0, "cavity")
        curves[1].resistances = np.zeros_like(curves[1].resistances)
        result = analyze_dataset(curves)
        assert result.failed_fits == 1
        (failure,) = result.failures
        assert failure.curve is curves[1]
        assert failure == FitFailure(curves[1], "no resistive plateau found", None, None)
        assert result.film.fields.size == 10
        assert result.cavity.fields.size == 9
        assert result.difference is None
        assert result.relative_slope_difference is None
        assert result.mean_difference is None
        assert any("different fields" in note for note in result.notes)

    def test_four_fields_skip_only_the_derivatives(self, params, quiet):
        plan = plan_sweep(params, quiet, [50.0, 100.0, 150.0, 200.0])
        result = analyze_dataset(run_paired_experiment(params, quiet, plan))
        assert result.difference.fields.size == 4
        assert result.mean_difference is not None
        assert result.film_derivative is None and result.cavity_derivative is None
        assert result.relative_slope_difference is None
        assert result.notes == [
            f"window 5 exceeds the 4 available points of the {kind} delta curve"
            for kind in ("film", "cavity")]

    def test_step_function_fit_failure_recorded(self, params, quiet):
        plan = plan_sweep(params, quiet, np.linspace(50, 250, 10))
        curves = run_paired_experiment(params, quiet, plan)
        step = curves[6]  # film at the fourth field
        step.resistances = resistive_transition(step.temperatures, 1.45, 1.0, 10.0)
        result = analyze_dataset(curves)
        assert result.failed_fits == 1
        (failure,) = result.failures
        assert failure.curve is step
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
