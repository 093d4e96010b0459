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
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .analysis import analyze_dataset, weighted_mean_difference
from .errors import CalibrationError, InputError
from .instrument import InstrumentConfig
from .protocol import SweepPlan, run_paired_experiment

#: Reported in place of an infinite significance on noise-free data.
Z_CAP = 1e6


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
    the 20%-at-crossover expectation refers to.
    """
    if trials < min_trials:
        raise InputError(f"need at least {min_trials} trials, got {trials}")
    t0 = time.perf_counter()
    fields = np.array(plan.fields)
    truth = _true_deltas(params, fields)
    contrast_idx = int(np.argmin(np.abs(fields - params.h_v)))

    sq_errors: list[float] = []
    z_values: list[float] = []
    contrast_rows: list[np.ndarray] = []
    capped = False
    failed = 0
    for trial in range(trials):
        curves = run_paired_experiment(params, cfg, plan, substream_prefix=(trial,))
        result = analyze_dataset(curves, window=window)
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
        contrast_model=np.array([_model_contrast(params, f) for f in fields]))


def calibrate_noise(target_delta_n: float, cfg: InstrumentConfig, plan: SweepPlan,
                    tolerance: float = 0.1, *,
                    params: model.ModelParams | None = None, trials: int = 200,
                    bracket: tuple[float, float] | None = None,
                    max_iter: int = 60) -> float:
    """Find the resistance noise that reproduces a target delta_n (mK).

    Brackets sigma_R (doubling from the configured noise unless a
    bracket is given), then bisects it against the Monte Carlo delta_n
    of the full pipeline.  The first probe whose delta_n lies within
    ``tolerance`` of the target is returned, whether it is a bracket
    end or a bisection midpoint, and no sigma_R is evaluated twice.
    All evaluations reuse the same substreams (common random numbers),
    so the response is smooth and the whole calibration is
    deterministic for a given master seed.  Raises
    :class:`CalibrationError` with the bracket when the target cannot
    be reached, or when the probe within tolerance comes from an
    invalid study (more than 1% of its trials failed), whose delta_n
    measures the failed fits' outliers rather than the noise.
    """
    if not (target_delta_n > 0):
        raise InputError(f"target delta_n must be > 0, got {target_delta_n}")
    if params is None:
        params = model.calibrate_defaults()

    studies: dict[float, SensitivityReport] = {}

    def delta_n_at(sigma_r: float) -> float:
        if sigma_r not in studies:
            probe = replace(cfg, resistance_noise=sigma_r)
            studies[sigma_r] = run_sensitivity(params, probe, plan, trials)
        return studies[sigma_r].delta_n

    def within_tolerance(delta_n: float) -> bool:
        return abs(delta_n - target_delta_n) <= tolerance * target_delta_n

    def valid(sigma_r: float) -> float:
        study = studies[sigma_r]
        if not study.valid:
            raise CalibrationError(
                f"sigma_R={sigma_r:.4g} ohm gives delta_n {study.delta_n:.4g} mK "
                f"within tolerance, but {study.failed_trials} of {trials} trials "
                "failed their fits, so the study is invalid",
                bracket=(lo, hi), achieved=study.delta_n, target=target_delta_n)
        return sigma_r

    if bracket is not None:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not (hi > lo >= 0.0):
            raise CalibrationError(f"empty sigma_R bracket {bracket}",
                                   bracket=(lo, hi), target=target_delta_n)
    else:
        lo = 0.0
        hi = cfg.resistance_noise if cfg.resistance_noise > 0 else 0.05
        for _ in range(40):
            achieved = delta_n_at(hi)
            if within_tolerance(achieved):
                return valid(hi)
            if achieved >= target_delta_n:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise CalibrationError(
                f"could not bracket target {target_delta_n} mK below sigma_R={hi}",
                bracket=(lo, hi), target=target_delta_n)

    if lo > 0:
        floor = delta_n_at(lo)
        if within_tolerance(floor):
            return valid(lo)
        if floor > target_delta_n:
            raise CalibrationError(
                f"delta_n floor {floor:.4g} mK already above target {target_delta_n} mK",
                bracket=(lo, hi), achieved=floor, target=target_delta_n)

    achieved = math.nan
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        achieved = delta_n_at(mid)
        if within_tolerance(achieved):
            return valid(mid)
        if achieved < target_delta_n:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"calibration did not reach {target_delta_n} mK within {max_iter} bisections",
        bracket=(lo, hi), achieved=achieved, target=target_delta_n)
