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
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .analysis import analyze_dataset, weighted_mean_difference
from .errors import CalibrationError, InputError
from .instrument import InstrumentConfig
from .protocol import SweepPlan, run_paired_experiment

#: Reported in place of an infinite significance on noise-free data.
Z_CAP = 1e6

#: Most Monte Carlo studies one noise calibration runs.
MAX_PROBES = 10


@dataclass(frozen=True)
class SensitivityReport:
    """Summary of one Monte Carlo sensitivity study."""

    delta_n: float                  # mK, pooled std of extracted delta about truth
    trials: int
    detection_z: float              # mean per-trial significance of the shift
    z_fraction_ge_3: float          # fraction of trials with z >= 3
    z_capped: bool                  # True when any trial hit Z_CAP (no noise)
    derivative_contrast: float      # relative film-cavity slope difference near h_v
    derivative_contrast_sigma: float
    contrast_field: float           # gauss, grid field nearest h_v
    calibrated_sigma_r: float       # ohm, the resistance noise in effect
    runtime: float                  # seconds (excluded from serialized reports)
    failed_trials: int
    valid: bool                     # False when > 1% of trials failed
    contrast_fields: np.ndarray     # gauss, the plan's fields
    contrast_mean: np.ndarray       # measured contrast per field, mean over trials
    contrast_sigma: np.ndarray      # its standard deviation over trials
    contrast_model: np.ndarray      # noise-free model contrast per field
    lm_steps_histogram: list[int]   # successful fits per accepted LM step count
    failed_fits_by_reason: dict[str, int]  # failed fits per reason, sorted by reason


def _true_deltas(params: model.ModelParams, fields: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "film": np.array([model.film_delta(params, f) for f in fields]),
        "cavity": np.array([model.cavity_delta(params, f) for f in fields]),
    }


def _model_contrast(params: model.ModelParams, field: float) -> float:
    film = model.delta_derivative(params, field, "film")
    cav = model.delta_derivative(params, field, "cavity")
    if film == cav:
        return 0.0
    if film == 0.0:
        return math.nan
    return (film - cav) / film


def run_sensitivity(params: model.ModelParams, cfg: InstrumentConfig,
                    plan: SweepPlan, trials: int, *, window: int = 5,
                    min_trials: int = 100) -> SensitivityReport:
    """Full pipeline, ``trials`` times, each with its own substreams.

    Per trial this synthesizes the paired experiment, extracts delta
    curves, and records (a) the per-field delta errors against the
    model truth, (b) the two-sided significance z = |weighted-mean
    shift| / SE over fields at or above h_v, and (c) the relative
    derivative contrast per field.  Trials with any failed fit are
    counted and skipped; more than 1% of them marks the report invalid.
    Beside the measured contrast (mean and sigma over trials) the report
    holds the noise-free model contrast on the same grid, which is what
    the 20%-at-crossover expectation refers to.  Over every curve of
    every trial, failed trials included, it also counts the successful
    fits by their accepted LM steps and the failed fits by reason.

    A plan that cannot give a result raises :class:`InputError` before
    any trial runs: fewer than 3 fields (a delta curve needs 3) or no
    field at or above h_v (the significance is taken there).
    """
    if trials < min_trials:
        raise InputError(f"need at least {min_trials} trials, got {trials}")
    fields = np.array(plan.fields)
    if fields.size < 3:
        raise InputError(f"a study needs at least 3 fields for its delta curves, "
                         f"got {fields.size}")
    if not np.any(fields >= params.h_v):
        raise InputError(f"no field at or above h_v = {params.h_v:g} G, where the "
                         f"detection significance is taken")
    t0 = time.perf_counter()
    truth = _true_deltas(params, fields)
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
        result = analyze_dataset(curves, window=window)
        lm_steps.extend(fit.iterations for *_, fit in result.fits)
        reasons.update(failure.reason for failure in result.failures)
        if result.failed_fits or result.film is None or result.cavity is None:
            failed += 1
            continue
        for kind in ("film", "cavity"):
            curve = result.film if kind == "film" else result.cavity
            err = curve.deltas - truth[kind]
            sq_errors.extend((err * err).tolist())
        mean, se = weighted_mean_difference(result.difference, min_field=params.h_v)
        if se > 0:
            z_values.append(min(abs(mean) / se, Z_CAP))
        else:
            z_values.append(Z_CAP if mean != 0 else 0.0)
            capped = True
        if result.convergence is not None:
            contrast_rows.append(result.convergence.relative_difference)

    ok_trials = trials - failed
    if ok_trials == 0:
        raise InputError("every trial failed its fits; nothing to report")
    delta_n = float(math.sqrt(np.mean(sq_errors)))
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
        trials=trials,
        detection_z=float(np.mean(z_arr)),
        z_fraction_ge_3=float(np.mean(z_arr >= 3.0)),
        z_capped=capped,
        derivative_contrast=float(contrast_mean[contrast_idx]),
        derivative_contrast_sigma=float(contrast_sigma[contrast_idx]),
        contrast_field=float(fields[contrast_idx]),
        calibrated_sigma_r=cfg.resistance_noise,
        runtime=time.perf_counter() - t0,
        failed_trials=failed,
        valid=failed <= 0.01 * trials,
        contrast_fields=fields,
        contrast_mean=contrast_mean,
        contrast_sigma=contrast_sigma,
        contrast_model=np.array([_model_contrast(params, f) for f in fields]),
        lm_steps_histogram=np.bincount(lm_steps, minlength=1).tolist(),
        failed_fits_by_reason=dict(sorted(reasons.items())))


def calibrate_noise(target_delta_n: float, cfg: InstrumentConfig, plan: SweepPlan,
                    tolerance: float = 0.1, *,
                    params: model.ModelParams | None = None, trials: int = 200) -> float:
    """Find the resistance noise that reproduces a target delta_n (mK).

    A secant iteration on the Monte Carlo delta_n of the full pipeline.
    It starts from the configured noise (0.05 ohm when that is 0) and
    first steps through the origin, i.e. proportionally:
    sigma_1 = sigma_0 * target / delta_n(sigma_0).  Later steps are
    secants through the two latest probes.  All probes reuse the same
    substreams (common random numbers), so delta_n is close to
    proportional to sigma_R and the whole calibration is deterministic
    for a given master seed.  The first probe whose delta_n lies within
    ``tolerance`` of the target is returned.  A target that is not
    finite and positive or a tolerance outside (0, 1) raises
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
    if params is None:
        params = model.calibrate_defaults()

    probes: list[tuple[float, float, int]] = []

    def failure(reason: str) -> CalibrationError:
        listed = ", ".join(f"({s:.4g}, {d:.4g}, {f})" for s, d, f in probes)
        return CalibrationError(
            f"{reason}; probes (sigma_R ohm, delta_n mK, failed trials): {listed}",
            achieved=probes[-1][1], target=target_delta_n)

    sigma = cfg.resistance_noise if cfg.resistance_noise > 0 else 0.05
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
