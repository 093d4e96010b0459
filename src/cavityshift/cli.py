"""Command-line front end.

Subcommands: model-curve, simulate, analyze, sensitivity, calibrate.
Every command is deterministic given config plus seed; outputs are
written atomically with full float precision.

Exit codes: 0 success, 2 config/usage, 3 reserved, 4 I/O, 5 fit,
6 calibration.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, model
from .analysis import AnalysisResult, analyze_dataset
from .config import (RunConfig, default_run_config, load_run_config,
                     run_config_from_dict, run_config_to_dict)
from .errors import (CalibrationError, CavityShiftError, ConfigError,
                     FitError, InputError)
from .fileio import write_csv, write_json
from .protocol import plan_sweep, read_run, run_paired_experiment, write_run
from .sensitivity import calibrate_noise, run_sensitivity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 4
EXIT_FIT = 5
EXIT_CALIBRATION = 6

#: A run aborts with EXIT_FIT when more than this fraction of its
#: curves fail to fit.
FIT_FAILURE_THRESHOLD = 0.01


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed_type(text: str) -> int:
    value = int(text)
    if not (0 <= value < 2 ** 64):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def _fields_type(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad field list {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityshift",
        description="Simulate and analyze the film/cavity critical-field "
                    "shift experiment.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None,
                       help="JSON run configuration (defaults used if omitted)")
        p.add_argument("--seed", type=_seed_type, default=None,
                       help="override the master seed")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: from config)")

    p = sub.add_parser("model-curve", help="tabulate the noise-free model curves")
    add_common(p)
    p.add_argument("--min-field", type=float, default=0.0)
    p.add_argument("--max-field", type=float, default=250.0)
    p.add_argument("--step", type=float, default=1.0)

    p = sub.add_parser("simulate", help="synthesize a paired film/cavity dataset")
    add_common(p)
    p.add_argument("--fields", type=_fields_type, default=None,
                   help="comma-separated field list in gauss")
    p.add_argument("--noiseless", action="store_true",
                   help="disable all instrument noise")

    p = sub.add_parser("analyze", help="extract delta curves from a dataset")
    p.add_argument("manifest", type=Path, help="run.json of a simulated dataset")
    p.add_argument("--out", type=Path, default=None,
                   help="output directory (default: next to the manifest)")
    p.add_argument("--window", type=_positive_int, default=5,
                   help="derivative window in points (odd)")

    p = sub.add_parser("sensitivity", help="Monte Carlo sensitivity study")
    add_common(p)
    p.add_argument("--trials", type=_positive_int, default=500)
    p.add_argument("--fields", type=_fields_type, default=None)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--calibrate", action="store_true",
                   help="calibrate sigma_R to --target before the study")
    p.add_argument("--target", type=float, default=0.1,
                   help="calibration target delta_n in mK")
    p.add_argument("--cal-trials", type=_positive_int, default=200)
    p.add_argument("--tolerance", type=float, default=0.1,
                   help="relative calibration tolerance")

    p = sub.add_parser("calibrate", help="find sigma_R for a target delta_n")
    add_common(p)
    p.add_argument("--target", type=float, default=0.1)
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--tolerance", type=float, default=0.1)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = load_run_config(args.config) if args.config else default_run_config()
    if getattr(args, "seed", None) is not None:
        raw = run_config_to_dict(config)
        raw["seed"] = args.seed
        config = run_config_from_dict(raw)
    if getattr(args, "fields", None):
        rebuilt = plan_sweep(config.model, config.instrument, args.fields)
        config = replace(config, plan=replace(
            rebuilt, n_points=config.plan.n_points,
            repetitions=config.plan.repetitions))
    if getattr(args, "noiseless", False):
        config = replace(config, instrument=replace(
            config.instrument, resistance_noise=0.0, temperature_jitter=0.0))
    if getattr(args, "out", None) is not None:
        config = replace(config, output_dir=str(args.out))
    return config


def cmd_model_curve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if not (0 <= args.min_field <= args.max_field < math.inf
            and 0 < args.step < math.inf):  # also rejects NaN
        raise ConfigError("need finite 0 <= min-field <= max-field and step > 0")
    params = config.model
    n_steps = int(round((args.max_field - args.min_field) / args.step))
    fields = [args.min_field + i * args.step for i in range(n_steps + 1)]
    rows = []
    for h in fields:
        film = model.film_delta(params, h)
        cavity = model.cavity_delta(params, h)
        rows.append((h, film, cavity, film - cavity,
                     model.delta_derivative(params, h, "film"),
                     model.delta_derivative(params, h, "cavity")))
    out = Path(config.output_dir)
    path = write_csv(
        out / "model_curves.csv",
        ["field_gauss", "delta_film_mK", "delta_cavity_mK", "difference_mK",
         "ddelta_dH_film", "ddelta_dH_cavity"],
        rows,
        comments=[f"cavity_energy_form={model.CAVITY_FORM_NOTE}"])
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    curves = run_paired_experiment(config.model, config.instrument, config.plan)
    manifest = write_run(config.output_dir, curves,
                         run_config_to_dict(config, include_output_dir=False))
    print(f"wrote {manifest} with {len(curves)} curves")
    print(f"{'field_G':>10} {'kind':>7} {'rep':>4} {'points':>7}")
    for curve in curves:
        print(f"{curve.field:>10.3f} {curve.kind:>7} {curve.repetition:>4} "
              f"{len(curve.temperatures):>7}")
    return EXIT_OK


def _analysis_payload(result: AnalysisResult, window: int,
                      flags: dict[tuple[float, str, int], tuple[str, ...]]) -> dict:
    """The analysis.json document; ``flags`` maps (field, kind,
    repetition) to the flags of that curve."""
    payload: dict = {
        "format_version": "1",
        "fit_failures": result.failed_fits,
        "n_curves": len(result.fits) + result.failed_fits,
        "notes": result.notes,
        "fits": [
            {
                "field_gauss": field, "kind": kind, "repetition": rep,
                "t_star_K": fit.t_star, "sigma_t_star_K": fit.sigma_t_star,
                "width_mK": fit.width, "r_n_ohm": fit.r_n,
                "residual_norm": fit.residual_norm,
                "converged": fit.converged, "iterations": fit.iterations,
                "flags": list(flags[field, kind, rep]),
            }
            for field, kind, rep, fit in result.fits
        ],
        "failed_fits": [
            {
                "field_gauss": f.field, "kind": f.kind, "repetition": f.repetition,
                "reason": f.reason, "iterations": f.iterations,
                "residual_norm_ohm": f.residual_norm,
            }
            for f in result.failures
        ],
    }
    for kind in ("film", "cavity"):
        curve = getattr(result, kind)
        if curve is not None:
            payload[f"t_c_{kind}_K"] = curve.t_c_estimate
            payload[f"t_c_{kind}_sigma_K"] = curve.t_c_sigma
            payload[f"t_c_{kind}_source"] = curve.t_c_source
    if result.mean_difference is not None:
        payload["weighted_mean_difference_mK"] = result.mean_difference
        payload["weighted_mean_difference_sigma_mK"] = result.mean_difference_sigma
    if result.convergence is not None:
        rep = result.convergence
        payload["convergence"] = {
            "fields_gauss": rep.fields.tolist(),
            "relative_derivative_difference": [
                None if np.isnan(v) else v for v in rep.relative_difference],
            "r2_film": None if np.isnan(rep.r2_film) else rep.r2_film,
            "r2_cavity": None if np.isnan(rep.r2_cavity) else rep.r2_cavity,
            "convergence_field_gauss": rep.convergence_field,
            "threshold": rep.threshold,
            "window": window,
        }
    return payload


def _write_analysis_files(result: AnalysisResult, out: Path, window: int,
                          flags: dict[tuple[float, str, int], tuple[str, ...]]) -> None:
    for kind in ("film", "cavity"):
        curve = getattr(result, kind)
        if curve is not None:
            write_csv(out / f"delta_curve_{kind}.csv",
                      ["field_gauss", "delta_mK", "sigma_mK"], curve.points)
        deriv = getattr(result, f"{kind}_derivative")
        if deriv is not None:
            write_csv(out / f"derivative_{kind}.csv",
                      ["field_gauss", "ddelta_dH_mK_per_G", "sigma_mK_per_G",
                       "one_sided_window"],
                      zip(deriv.fields.tolist(), deriv.slopes.tolist(),
                          deriv.sigmas.tolist(),
                          (int(v) for v in deriv.one_sided)))
    if result.difference is not None:
        write_csv(out / "difference.csv",
                  ["field_gauss", "difference_mK", "sigma_mK"],
                  result.difference.points)
    write_json(out / "analysis.json", _analysis_payload(result, window, flags))


def cmd_analyze(args: argparse.Namespace) -> int:
    if not args.manifest.exists():
        print(f"error: manifest {args.manifest} not found", file=sys.stderr)
        return EXIT_IO
    try:
        curves, _ = read_run(args.manifest)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: could not read dataset: {exc}", file=sys.stderr)
        return EXIT_IO
    if not curves:
        print("error: dataset contains no curves", file=sys.stderr)
        return EXIT_IO
    result = analyze_dataset(curves, window=args.window)
    out = Path(args.out) if args.out else args.manifest.parent
    flags = {(c.field, c.kind, c.repetition): c.flags for c in curves}
    _write_analysis_files(result, out, args.window, flags)
    total = len(result.fits) + result.failed_fits
    if result.failed_fits > FIT_FAILURE_THRESHOLD * total:
        print(f"error: {result.failed_fits}/{total} fits failed; the failures "
              f"are listed in {out / 'analysis.json'}", file=sys.stderr)
        return EXIT_FIT
    if result.mean_difference is not None:
        print(f"Delta = {result.mean_difference:.4f} +/- "
              f"{result.mean_difference_sigma:.4f} mK "
              f"(weighted mean over {result.difference.fields.size} fields)")
    elif result.film is not None and result.cavity is not None:
        print("warning: film and cavity fits cover different fields; "
              "difference step skipped")
    else:
        missing = "cavity" if result.film is not None else "film"
        print(f"warning: no {missing} curves; difference step skipped")
    print(f"wrote analysis files to {out}")
    return EXIT_OK


def cmd_sensitivity(args: argparse.Namespace) -> int:
    config = _load_config(args)
    cfg = config.instrument
    calibrated = None
    if args.calibrate:
        calibrated = calibrate_noise(args.target, cfg, config.plan,
                                     args.tolerance, params=config.model,
                                     trials=args.cal_trials)
        cfg = replace(cfg, resistance_noise=calibrated)
    report = run_sensitivity(config.model, cfg, config.plan, args.trials)
    out = Path(config.output_dir)

    def json_float(value: float):
        return None if np.isnan(value) else value

    payload = {
        "format_version": "1",
        "delta_n_mK": report.delta_n,
        "trials": report.trials,
        "detection_z_mean": report.detection_z,
        "detection_z_fraction_ge_3": report.z_fraction_ge_3,
        "z_capped": report.z_capped,
        "derivative_contrast": json_float(report.derivative_contrast),
        "derivative_contrast_sigma": json_float(report.derivative_contrast_sigma),
        "contrast_field_gauss": report.contrast_field,
        "calibrated_sigma_r_ohm": report.calibrated_sigma_r,
        "failed_trials": report.failed_trials,
        "failed_fits_by_reason": report.failed_fits_by_reason,
        "lm_steps_histogram": report.lm_steps_histogram,
        "valid": report.valid,
        "seed": config.seed,
        "config": run_config_to_dict(replace(config, instrument=cfg),
                                     include_output_dir=False),
    }
    write_json(out / "sensitivity.json", payload)
    write_csv(out / "contrast.csv",
              ["field_gauss", "contrast_mean", "contrast_sigma", "model_contrast"],
              zip(report.contrast_fields.tolist(), report.contrast_mean.tolist(),
                  report.contrast_sigma.tolist(), report.contrast_model.tolist()))
    if report.valid:
        note = ""
    else:
        note = " (INVALID: too many failed trials)"
    print(f"delta_n = {report.delta_n:.4f} mK, mean z = {report.detection_z:.2f}, "
          f"contrast@{report.contrast_field:.0f}G = "
          f"{report.derivative_contrast:.3f}{note}")
    print(f"runtime: {report.runtime:.1f} s")
    print(f"wrote {out / 'sensitivity.json'}")
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    sigma_r = calibrate_noise(args.target, config.instrument, config.plan,
                              args.tolerance, params=config.model,
                              trials=args.trials)
    out = Path(config.output_dir)
    write_json(out / "calibration.json", {
        "format_version": "1",
        "sigma_r_ohm": sigma_r,
        "target_delta_n_mK": args.target,
        "tolerance": args.tolerance,
        "trials": args.trials,
        "seed": config.seed,
    })
    print(f"sigma_R = {sigma_r:.6f} ohm for delta_n = {args.target} mK")
    print(f"wrote {out / 'calibration.json'}")
    return EXIT_OK


_COMMANDS = {
    "model-curve": cmd_model_curve,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "sensitivity": cmd_sensitivity,
    "calibrate": cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except CalibrationError as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CavityShiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
