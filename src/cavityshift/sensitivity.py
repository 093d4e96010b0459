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
from .analysis import (MAX_FAILED_FRACTION, FitResult, analyze_dataset,
                       build_delta_curve, t_star_variance, weighted_mean_difference)
from .errors import CalibrationError, InputError, check_number, is_number
from .instrument import InstrumentConfig
from .protocol import SweepPlan, plan_table, run_paired_experiment, temperature_grid

#: Fewest trials a study may run.
MIN_TRIALS = 100


@dataclass(frozen=True)
class SensitivityReport:
    """Summary of one Monte Carlo sensitivity study."""

    delta_n: float                  # mK, pooled std of extracted delta about truth
    trials: int
    delta_n_se: float               # mK, its Monte Carlo standard error
    delta_n_per_ohm: float          # mK/ohm, closed-form delta_n / sigma_R
    delta_n_floor: float            # mK, kappa_T sigma_T: delta_n at zero sigma_R
    detection_z: float              # mean per-trial significance of the shift
    detection_z_se: float           # its Monte Carlo standard error
    z_fraction_ge_3: float          # fraction of trials with z >= 3
    derivative_contrast: float      # relative film-cavity slope difference near h_v
    derivative_contrast_sigma: float
    contrast_field: float           # gauss, grid field nearest h_v
    failed_trials: int
    valid: bool                     # False when > 1% of trials failed
    contrast_fields: np.ndarray     # gauss, the plan's fields
    contrast_mean: np.ndarray       # measured contrast per field, mean over trials
    contrast_sigma: np.ndarray      # its standard deviation over trials (NaN from < 2)
    contrast_model: np.ndarray      # noise-free model contrast per field
    lm_steps_histogram: list[int]   # successful fits per accepted LM step count
    failed_fits_by_reason: dict[str, int]  # failed fits per reason, sorted by reason
    failed_trials_by_reason: dict[str, int]  # failed trials per first reason, sorted


def _check_study(params: model.ModelParams, cfg: InstrumentConfig, plan: SweepPlan,
                 trials: int) -> tuple[float, float]:
    """:func:`delta_n_per_ohm` of a study that can give a result.

    Raises :class:`InputError`, before any trial runs, for a study with

    1. a ``trials`` that is not an integer, or fewer than
       :data:`MIN_TRIALS` trials,
    2. no field at or above h_v (the significance is taken there),
    3. a temperature grid wholly at or below the cryostat floor (every
       setpoint is clamped to it, so no curve has a transition to fit), or
    4. checked last, a plan whose noise-free delta curves
       :func:`delta_n_per_ohm` cannot build: a sweep that does not
       resolve a transition (a singular fit covariance), fewer than 3
       fields (a delta curve needs 3), or a field grid that the Tc
       regression cannot resolve (a rank-deficient regression against
       H^2).
    """
    check_number("trials", trials, integer=True)
    if trials < MIN_TRIALS:
        raise InputError(f"need at least {MIN_TRIALS} trials, got {trials}")
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
                    plan: SweepPlan) -> tuple[float, float]:
    """(kappa_R, kappa_T): delta_n per unit resistance noise, in mK per
    ohm, and per unit temperature jitter, in mK per mK, from the delta
    curves of perfect fits.

    Each curve of the plan, ``plan.repetitions`` per field and kind, is
    given the fit its analysis would return at the true (t*,
    ``transition_width``, ``normal_resistance``) on the plan's clamped
    setpoints.  For kappa_R its sigma is the fit's own covariance at unit
    resistance noise, for kappa_T the first-order t* variance at unit
    jitter (both from :func:`analysis.t_star_variance`).  Each kappa is
    the RMS of the sigmas of the film and cavity delta curves that
    :func:`analysis.build_delta_curve` makes of these fits, pooled as
    :func:`run_sensitivity` pools the squared delta errors.  So delta_n
    is predicted as hypot(kappa_R sigma_R, kappa_T sigma_T), and kappa_T
    sigma_T is its noise-free floor.

    Raises :class:`InputError` when a fit covariance is singular (the
    sweep does not resolve that transition, so no study could fit it),
    or when the builder rejects the film or cavity curve (fewer than 3
    fields, or a rank-deficient Tc regression).
    """
    table = plan_table(params, plan, cfg.base_temperature, cfg.transition_width,
                       cfg.normal_resistance)
    fits = [{kind: [] for kind in model.KINDS} for _ in range(2)]  # kappa_R, kappa_T
    for kind, t_stars in table.t_stars.items():
        for field, t_star in zip(plan.fields, t_stars):
            variances = t_star_variance(table.setpoints, t_star, cfg.transition_width,
                                        cfg.normal_resistance)
            if not variances[0] < math.inf:
                raise InputError(f"the sweep does not resolve the {kind} transition "
                                 f"at {field:g} G: its fit covariance is singular")
            for by_kind, v in zip(fits, variances):
                fit = FitResult(t_star, math.sqrt(v), cfg.transition_width,
                                cfg.normal_resistance, 0.0, 0)
                by_kind[kind] += [(field, fit)] * plan.repetitions
    return _rms_delta_sigma(fits[0]), _rms_delta_sigma(fits[1])


def _rms_delta_sigma(fits: dict[str, list]) -> float:
    """RMS of the sigmas of the film and cavity delta curves of ``fits``."""
    film = build_delta_curve(fits["film"])
    cavity = build_delta_curve(fits["cavity"], film)
    sigmas = np.concatenate([film.sigmas, cavity.sigmas])
    return math.sqrt(float(np.mean(sigmas * sigmas)))


def run_sensitivity(params: model.ModelParams, cfg: InstrumentConfig,
                    plan: SweepPlan, trials: int) -> SensitivityReport:
    """Full pipeline, ``trials`` times, each with its own substreams.

    Per trial this synthesizes the paired experiment, extracts delta
    curves with :func:`analysis.analyze_dataset`, and records (a) the
    per-field delta errors against the model truth, (b) the two-sided
    significance z = |weighted-mean shift| / SE over fields at or above
    h_v, and (c) the relative derivative contrast per field.  Trials
    with any failed fit or without a difference curve are counted and
    skipped; more than 1% of them marks the report invalid.  A trial's z
    is finite because every weight raises its sigma to the 1 pK noise
    floor: on noise-free signal data the floor alone sets it (a mean z of
    about 3.4e8 on the reference plan), and a noise-free null model,
    whose mean shift is 0, gives 0.  Beside the
    measured contrast (mean and sigma over trials) the report holds the
    noise-free model contrast on the same grid, which is what the
    20%-at-crossover expectation refers to.  Over every curve of every
    trial, failed trials included, it also counts the successful
    fits by their accepted LM steps and the failed fits by reason.  It
    counts each failed trial once, by the reason of its first failed fit
    in curve order or, when no fit failed, by its first note.  It also
    holds the closed-form kappa_R of :func:`delta_n_per_ohm` and the
    noise-free floor kappa_T sigma_T of delta_n that temperature jitter
    sets.

    A study :func:`_check_study` rejects raises :class:`InputError`
    before any trial runs, and so does, after them, a study whose every
    trial failed, naming the reason that failed the most trials.
    """
    kappa_r, kappa_t = _check_study(params, cfg, plan, trials)
    fields = np.array(plan.fields)
    truth = plan_table(params, plan, cfg.base_temperature, cfg.transition_width,
                       cfg.normal_resistance).deltas
    contrast_idx = int(np.argmin(np.abs(fields - params.h_v)))

    sq_errors: list[float] = []
    z_values: list[float] = []
    contrast_rows: list[np.ndarray] = []
    lm_steps: list[int] = []
    reasons: Counter[str] = Counter()
    trial_reasons: Counter[str] = Counter()
    for trial in range(trials):
        curves = run_paired_experiment(params, cfg, plan, substream_prefix=(trial,))
        result = analyze_dataset(curves)
        lm_steps.extend(fit.iterations for _, fit in result.fits)
        reasons.update(failure.reason for failure in result.failures)
        # with 3+ fields and no failed fit, only a rank-deficient Tc
        # regression leaves no difference
        if result.failed_fits or result.difference is None:
            trial_reasons[result.failures[0].reason if result.failures
                          else result.notes[0]] += 1
            continue
        for kind in model.KINDS:
            err = getattr(result, kind).deltas - truth[kind]
            sq_errors.extend((err * err).tolist())
        mean, se = weighted_mean_difference(result.difference, min_field=params.h_v)
        z_values.append(abs(mean) / se)
        if result.relative_slope_difference is not None:
            contrast_rows.append(result.relative_slope_difference)

    failed = sum(trial_reasons.values())
    ok_trials = trials - failed
    if ok_trials == 0:
        reason, count = trial_reasons.most_common(1)[0]
        raise InputError(f"every trial failed its fits; nothing to report "
                         f"({count} of {trials} failed with: {reason})")
    delta_n = float(math.sqrt(np.mean(sq_errors)))
    # delta method: delta_n = sqrt(M), M the mean over trials of each
    # trial's mean squared error (every trial adds one per field and kind)
    msq_se = _standard_error(np.reshape(sq_errors, (ok_trials, -1)).mean(axis=1))
    z_arr = np.array(z_values)
    stack = np.vstack(contrast_rows or [np.full(fields.size, math.nan)])
    contrast_mean = np.mean(stack, axis=0)
    # like _standard_error, no spread from fewer than 2 trials
    contrast_sigma = (np.std(stack, axis=0, ddof=1) if len(contrast_rows) > 1
                      else np.full(fields.size, math.nan))
    return SensitivityReport(
        delta_n=delta_n,
        delta_n_se=msq_se / (2.0 * delta_n) if delta_n > 0 else msq_se,
        delta_n_per_ohm=kappa_r,
        delta_n_floor=kappa_t * cfg.temperature_jitter,
        trials=trials,
        detection_z=float(np.mean(z_arr)),
        detection_z_se=_standard_error(z_arr),
        z_fraction_ge_3=float(np.mean(z_arr >= 3.0)),
        derivative_contrast=float(contrast_mean[contrast_idx]),
        derivative_contrast_sigma=float(contrast_sigma[contrast_idx]),
        contrast_field=float(fields[contrast_idx]),
        failed_trials=failed,
        valid=failed <= MAX_FAILED_FRACTION * trials,
        contrast_fields=fields,
        contrast_mean=contrast_mean,
        contrast_sigma=contrast_sigma,
        contrast_model=model.slope_contrast(params, fields),
        lm_steps_histogram=np.bincount(lm_steps, minlength=1).tolist(),
        failed_fits_by_reason=dict(sorted(reasons.items())),
        failed_trials_by_reason=dict(sorted(trial_reasons.items())))


def calibrate_noise(target_delta_n: float, cfg: InstrumentConfig, plan: SweepPlan,
                    tolerance: float = 0.1, *, params: model.ModelParams,
                    trials: int = 200) -> float:
    """The resistance noise that reproduces a target delta_n (mK), in
    closed form, checked by one Monte Carlo study.

    With kappa_R and kappa_T from :func:`delta_n_per_ohm`, delta_n =
    hypot(kappa_R sigma_R, kappa_T sigma_T) gives sigma_R =
    sqrt(target^2 - floor^2) / kappa_R, where floor = kappa_T sigma_T is
    the noise-free floor that the temperature jitter sigma_T sets (0
    without jitter, so sigma_R = target / kappa_R).  One study of
    ``trials`` trials of the full pipeline for the model ``params`` runs
    at that sigma_R; it is returned when the study is valid and its
    delta_n lies within ``tolerance`` of the target.

    A target that is not finite and positive, a tolerance that is not a
    real number in (0, 1), or a study :func:`_check_study` rejects raise
    :class:`InputError` before any study runs.

    Raises :class:`CalibrationError` before any trial when the target
    lies at or below the floor (the config is valid, but this instrument
    cannot reach the target), and after the study, naming it as
    (sigma_R, delta_n, failed trials), when its delta_n misses the
    tolerance or the study is invalid (more than 1% of its trials failed,
    so its delta_n measures the failed fits' outliers rather than the
    noise).
    """
    check_number("target delta_n", target_delta_n, above=0)
    if not is_number(tolerance):
        check_number("tolerance", tolerance)  # refuses it, naming its type
    if not (0 < tolerance < 1):  # also rejects NaN
        raise InputError(f"tolerance must lie in (0, 1), got {tolerance}")
    kappa_r, kappa_t = _check_study(params, cfg, plan, trials)
    floor = kappa_t * cfg.temperature_jitter
    ratio = floor / target_delta_n
    if not ratio < 1:
        raise CalibrationError(
            f"target {target_delta_n} mK lies below the noise-free floor of delta_n, "
            f"{floor:.4g} mK from {cfg.temperature_jitter:g} mK of temperature jitter")
    sigma = target_delta_n * math.sqrt((1.0 - ratio) * (1.0 + ratio)) / kappa_r
    study = run_sensitivity(params, replace(cfg, resistance_noise=sigma), plan, trials)
    if not abs(study.delta_n - target_delta_n) <= tolerance * target_delta_n:
        reason = (f"delta_n lies outside tolerance {tolerance:g} of the target "
                  f"{target_delta_n} mK")
    elif not study.valid:
        reason = (f"{study.failed_trials} of {trials} trials failed their fits, "
                  "so the study is invalid")
    else:
        return sigma
    raise CalibrationError(
        f"{reason}; study (sigma_R ohm, delta_n mK, failed trials): "
        f"({sigma:.4g}, {study.delta_n:.4g}, {study.failed_trials})")
