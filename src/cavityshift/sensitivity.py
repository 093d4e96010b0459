"""Monte Carlo sensitivity engine.

Calibrates the resistance noise so the pipeline reaches a requested
single-measurement sensitivity, then quantifies how significantly the
film-cavity shift is detected and how strongly the low-field
derivatives of the two samples differ.

Trials are independent work units keyed by their substream index, so
results do not depend on execution order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .analysis import (MAX_FAILED_FRACTION, MK_PER_K, analyze_dataset, line_fit_sums,
                       relative_slope_difference, t_star_variance,
                       weighted_mean_difference)
from .errors import CalibrationError, InputError
from .instrument import InstrumentConfig
from .protocol import SweepPlan, plan_table, run_paired_experiment, temperature_grid

#: Reported in place of an infinite significance on noise-free data.
Z_CAP = 1e6

#: Most Monte Carlo studies one noise calibration runs.
MAX_PROBES = 10

#: Fewest trials a study may run.
MIN_TRIALS = 100


@dataclass(frozen=True)
class SensitivityReport:
    """Summary of one Monte Carlo sensitivity study."""

    delta_n: float                  # mK, pooled std of extracted delta about truth
    trials: int
    delta_n_se: float               # mK, its Monte Carlo standard error
    delta_n_per_ohm: float          # mK/ohm, closed-form delta_n / sigma_R
    detection_z: float              # mean per-trial significance of the shift
    detection_z_se: float           # its Monte Carlo standard error
    z_fraction_ge_3: float          # fraction of trials with z >= 3
    z_capped: bool                  # True when any trial hit Z_CAP or had no noise
    derivative_contrast: float      # relative film-cavity slope difference near h_v
    derivative_contrast_sigma: float
    contrast_field: float           # gauss, grid field nearest h_v
    failed_trials: int
    valid: bool                     # False when > 1% of trials failed
    contrast_fields: np.ndarray     # gauss, the plan's fields
    contrast_mean: np.ndarray       # measured contrast per field, mean over trials
    contrast_sigma: np.ndarray      # its standard deviation over trials
    contrast_model: np.ndarray      # noise-free model contrast per field
    lm_steps_histogram: list[int]   # successful fits per accepted LM step count
    failed_fits_by_reason: dict[str, int]  # failed fits per reason, sorted by reason


def _check_study(params: model.ModelParams, cfg: InstrumentConfig, plan: SweepPlan,
                 trials: int) -> float:
    """kappa = :func:`delta_n_per_ohm` of a study that can give a result.

    Raises :class:`InputError`, before any trial runs, for a study with

    1. fewer than :data:`MIN_TRIALS` trials,
    2. fewer than 3 fields (a delta curve needs 3),
    3. no field at or above h_v (the significance is taken there),
    4. a temperature grid wholly at or below the cryostat floor (every
       setpoint is clamped to it, so no curve has a transition to fit), or
    5. checked last, a plan whose closed form :func:`delta_n_per_ohm`
       raises on: a sweep that does not resolve a transition (a singular
       fit covariance), or a field grid that the Tc regression cannot
       resolve (a rank-deficient regression against H^2).
    """
    if trials < MIN_TRIALS:
        raise InputError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if len(plan.fields) < 3:
        raise InputError(f"a study needs at least 3 fields for its delta curves, "
                         f"got {len(plan.fields)}")
    if not any(field >= params.h_v for field in plan.fields):
        raise InputError(f"no field at or above h_v = {params.h_v:g} G, where the "
                         f"detection significance is taken")
    if temperature_grid(plan)[-1] <= cfg.base_temperature:
        raise InputError(f"the temperature grid lies wholly at or below the cryostat "
                         f"floor base_temperature = {cfg.base_temperature:g} K")
    return delta_n_per_ohm(params, cfg, plan)


def _standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of ``values``; NaN for fewer than 2."""
    if values.size < 2:
        return math.nan
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def delta_n_per_ohm(params: model.ModelParams, cfg: InstrumentConfig,
                    plan: SweepPlan) -> float:
    """kappa = delta_n / sigma_R in mK per ohm, in closed form.

    Per curve, v is the variance of the fitted t* per unit resistance
    noise: the fit's own covariance at the true (t*,
    ``transition_width``, ``normal_resistance``) on the plan's clamped
    setpoints (:func:`analysis.t_star_variance`), divided by
    ``plan.repetitions`` for the precision-weighted mean of the repeats.
    Per study, both delta curves share the film H^2 intercept
    c = sum_i a_i t*_i, whose 1/v weights give var(c) = sum_i a_i^2 v_i
    and cov(c, t*_i) = a_i v_i for a film fit (0 for a cavity fit).  A
    film delta then has the variance var(c) + v_i - 2 cov(c, t*_i) and a
    cavity delta var(c) + v_i; kappa is the root mean of these 2F
    variances, pooled as :func:`run_sensitivity` pools the squared delta
    errors.  Temperature jitter is left out.

    Raises :class:`InputError` when a fit covariance is singular (the
    sweep does not resolve that transition, so no study could fit it) or
    when the intercept's regression is rank deficient
    (:func:`analysis.line_fit_sums`).
    """
    fields = np.array(plan.fields)
    table = plan_table(params, plan, cfg.base_temperature, cfg.transition_width,
                       cfg.normal_resistance)
    v = {}
    for kind, t_stars in table.t_stars.items():
        v[kind] = np.array([
            t_star_variance(table.setpoints, t_star, cfg.transition_width,
                            cfg.normal_resistance)
            for t_star in t_stars]) / plan.repetitions
        unresolved = fields[~(v[kind] < math.inf)]
        if unresolved.size:
            raise InputError(f"the sweep does not resolve the {kind} transition at "
                             f"{unresolved[0]:g} G: its fit covariance is singular")
    x = fields ** 2
    _, swx, swxx, det = line_fit_sums(x, 1.0 / v["film"])
    var_c = swxx / det
    cov_c = (swxx - swx * x) / det  # a_i v_i, since w_i v_i = 1
    pooled = np.concatenate([var_c + v["film"] - 2.0 * cov_c, var_c + v["cavity"]])
    return MK_PER_K * math.sqrt(float(np.mean(pooled)))


def run_sensitivity(params: model.ModelParams, cfg: InstrumentConfig,
                    plan: SweepPlan, trials: int) -> SensitivityReport:
    """Full pipeline, ``trials`` times, each with its own substreams.

    Per trial this synthesizes the paired experiment, extracts delta
    curves with :func:`analysis.analyze_dataset`, and records (a) the
    per-field delta errors against the model truth, (b) the two-sided
    significance z = |weighted-mean shift| / SE over fields at or above
    h_v, and (c) the relative derivative contrast per field.  Trials
    with any failed fit or without a difference curve are counted and
    skipped; more than 1% of them marks the report invalid.  Beside the measured contrast (mean and
    sigma over trials) the report holds the noise-free model contrast on
    the same grid, which is what the 20%-at-crossover expectation refers
    to.  Over every curve of
    every trial, failed trials included, it also counts the successful
    fits by their accepted LM steps and the failed fits by reason.  It
    also holds the closed-form prediction kappa of :func:`delta_n_per_ohm`.

    A study :func:`_check_study` rejects raises :class:`InputError`
    before any trial runs.
    """
    kappa = _check_study(params, cfg, plan, trials)
    fields = np.array(plan.fields)
    truth = plan_table(params, plan, cfg.base_temperature, cfg.transition_width,
                       cfg.normal_resistance).deltas
    contrast_idx = int(np.argmin(np.abs(fields - params.h_v)))

    sq_errors: list[float] = []
    z_values: list[float] = []
    contrast_rows: list[np.ndarray] = []
    capped = False
    failed = 0
    lm_steps: list[int] = []
    reasons: Counter[str] = Counter()
    for trial in range(trials):
        curves = run_paired_experiment(params, cfg, plan, substream_prefix=(trial,))
        result = analyze_dataset(curves)
        lm_steps.extend(fit.iterations for *_, fit in result.fits)
        reasons.update(failure.reason for failure in result.failures)
        # with 3+ fields and no failed fit, only a rank-deficient Tc
        # regression leaves no difference
        if result.failed_fits or result.difference is None:
            failed += 1
            continue
        for kind in ("film", "cavity"):
            curve = result.film if kind == "film" else result.cavity
            err = curve.deltas - truth[kind]
            sq_errors.extend((err * err).tolist())
        mean, se = weighted_mean_difference(result.difference, min_field=params.h_v)
        if se > 0:
            z_values.append(min(abs(mean) / se, Z_CAP))
            capped = capped or z_values[-1] == Z_CAP
        else:
            z_values.append(Z_CAP if mean != 0 else 0.0)
            capped = True
        if result.convergence is not None:
            contrast_rows.append(result.convergence.relative_difference)

    ok_trials = trials - failed
    if ok_trials == 0:
        raise InputError("every trial failed its fits; nothing to report")
    delta_n = float(math.sqrt(np.mean(sq_errors)))
    # delta method: delta_n = sqrt(M), M the mean over trials of each
    # trial's mean squared error (every trial adds one per field and kind)
    msq_se = _standard_error(np.reshape(sq_errors, (ok_trials, -1)).mean(axis=1))
    z_arr = np.array(z_values)
    if contrast_rows:
        stack = np.vstack(contrast_rows)
        contrast_mean = np.mean(stack, axis=0)
        contrast_sigma = (np.std(stack, axis=0, ddof=1) if stack.shape[0] > 1
                          else np.zeros(fields.size))
    else:
        contrast_mean = np.full(fields.size, math.nan)
        contrast_sigma = np.full(fields.size, math.nan)
    return SensitivityReport(
        delta_n=delta_n,
        delta_n_se=msq_se / (2.0 * delta_n) if delta_n > 0 else msq_se,
        delta_n_per_ohm=kappa,
        trials=trials,
        detection_z=float(np.mean(z_arr)),
        detection_z_se=_standard_error(z_arr),
        z_fraction_ge_3=float(np.mean(z_arr >= 3.0)),
        z_capped=capped,
        derivative_contrast=float(contrast_mean[contrast_idx]),
        derivative_contrast_sigma=float(contrast_sigma[contrast_idx]),
        contrast_field=float(fields[contrast_idx]),
        failed_trials=failed,
        valid=failed <= MAX_FAILED_FRACTION * trials,
        contrast_fields=fields,
        contrast_mean=contrast_mean,
        contrast_sigma=contrast_sigma,
        contrast_model=relative_slope_difference(
            model.delta_derivative(params, fields, "film"),
            model.delta_derivative(params, fields, "cavity")),
        lm_steps_histogram=np.bincount(lm_steps, minlength=1).tolist(),
        failed_fits_by_reason=dict(sorted(reasons.items())))


def calibrate_noise(target_delta_n: float, cfg: InstrumentConfig, plan: SweepPlan,
                    tolerance: float = 0.1, *, params: model.ModelParams,
                    trials: int = 200) -> float:
    """Find the resistance noise that reproduces a target delta_n (mK).

    A secant iteration on the Monte Carlo delta_n of the full pipeline,
    ``trials`` trials per probe, for the model ``params``.
    The first probe is the closed-form prediction target / kappa, with
    kappa from :func:`delta_n_per_ohm`.  The next steps through the
    origin, i.e. proportionally: sigma_1 = sigma_0 * target /
    delta_n(sigma_0).  Later steps are secants through the two latest
    probes.  All probes reuse the same substreams (common random
    numbers), so delta_n is close to proportional to sigma_R and the
    whole calibration is deterministic for a given master seed.  The
    first probe whose delta_n lies within ``tolerance`` of the target is
    returned.  kappa leaves out temperature jitter, which is 0 by
    default; jitter adds a noise-free floor to delta_n, so the first
    probe overshoots the target and the secant corrects it.

    A target that is not finite and positive, a tolerance outside
    (0, 1), or a study :func:`_check_study` rejects raise
    :class:`InputError` before any study runs.

    Raises :class:`CalibrationError`, listing every probe as (sigma_R,
    delta_n, failed trials), when the probe within tolerance comes from
    an invalid study (more than 1% of its trials failed, so its delta_n
    measures the failed fits' outliers rather than the noise), when
    delta_n does not increase between the two latest probes, when the
    next sigma_R is not positive (the target lies below the noise-free
    floor), or after :data:`MAX_PROBES` probes.
    """
    if not (0 < target_delta_n < math.inf):
        raise InputError(f"target delta_n must be finite and > 0, got {target_delta_n}")
    if not (0 < tolerance < 1):  # also rejects NaN
        raise InputError(f"tolerance must lie in (0, 1), got {tolerance}")
    sigma = target_delta_n / _check_study(params, cfg, plan, trials)
    probes: list[tuple[float, float, int]] = []

    def failure(reason: str) -> CalibrationError:
        listed = ", ".join(f"({s:.4g}, {d:.4g}, {f})" for s, d, f in probes)
        return CalibrationError(
            f"{reason}; probes (sigma_R ohm, delta_n mK, failed trials): {listed}")

    last_sigma = last_delta_n = 0.0  # the origin: no noise, no spread
    while True:
        study = run_sensitivity(params, replace(cfg, resistance_noise=sigma),
                                plan, trials)
        delta_n = study.delta_n
        probes.append((sigma, delta_n, study.failed_trials))
        if abs(delta_n - target_delta_n) <= tolerance * target_delta_n:
            if not study.valid:
                raise failure(
                    f"sigma_R={sigma:.4g} ohm gives delta_n {delta_n:.4g} mK "
                    f"within tolerance, but {study.failed_trials} of {trials} "
                    "trials failed their fits, so the study is invalid")
            return sigma
        if len(probes) == MAX_PROBES:
            raise failure(f"no probe within tolerance of {target_delta_n} mK "
                          f"after {MAX_PROBES} probes")
        slope = (delta_n - last_delta_n) / (sigma - last_sigma)
        if not (0 < slope < math.inf):
            raise failure(f"delta_n does not increase with sigma_R (slope {slope:.4g})")
        last_sigma, last_delta_n = sigma, delta_n
        sigma += (target_delta_n - delta_n) / slope
        if not (0 < sigma < math.inf):
            raise failure(f"next sigma_R {sigma:.4g} ohm is not positive: target "
                          f"{target_delta_n} mK lies below the noise-free floor of delta_n")
