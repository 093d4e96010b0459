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
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, model
from .analysis import (CONVERGENCE_THRESHOLD, DERIVATIVE_WINDOW, MAX_FAILED_FRACTION,
                       AnalysisResult, analyze_dataset)
from .config import RunConfig, default_run_config, load_run_config
from .errors import CalibrationError, InputError
from .fileio import write_csv, write_json
from .protocol import read_run, run_paired_experiment, write_run
from .sensitivity import calibrate_noise, delta_n_per_ohm, run_sensitivity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 4
EXIT_FIT = 5
EXIT_CALIBRATION = 6

#: Most rows model-curve writes: 200 times the 5001-row grid (0.05 G
#: steps over 250 G) of the cli_files benchmark workload.
MAX_MODEL_ROWS = 10 ** 6


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
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default: out)")

    p = sub.add_parser("model-curve", help="tabulate the noise-free model curves")
    add_common(p)
    p.add_argument("--min-field", type=float, default=0.0)
    p.add_argument("--max-field", type=float, default=250.0)
    p.add_argument("--step", type=float, default=1.0)

    p = sub.add_parser("simulate", help="synthesize a paired film/cavity dataset")
    add_common(p)

    p = sub.add_parser("analyze", help="extract delta curves from a dataset")
    p.add_argument("manifest", type=Path, help="run.json of a simulated dataset")
    p.add_argument("--out", type=Path, default=None,
                   help="output directory (default: next to the manifest)")

    p = sub.add_parser("sensitivity", help="Monte Carlo sensitivity study")
    add_common(p)
    p.add_argument("--trials", type=int, default=500)

    p = sub.add_parser("calibrate", help="find sigma_R for a target delta_n")
    add_common(p)
    p.add_argument("--target", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=0.1)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = load_run_config(args.config) if args.config else default_run_config()
    if args.seed is not None:
        config = replace(config, instrument=replace(config.instrument, seed=args.seed))
    return config


def cmd_model_curve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if not (0 <= args.min_field <= args.max_field < math.inf
            and 0 < args.step < math.inf):  # also rejects NaN
        raise InputError("need finite 0 <= min-field <= max-field and step > 0")
    steps = (args.max_field - args.min_field) / args.step
    # whole steps only, so no row lies past max-field; 1e-9 absorbs the
    # rounding of a range that is a whole number of steps
    n_rows = math.floor(steps + 1e-9) + 1 if steps < MAX_MODEL_ROWS else math.inf
    if n_rows > MAX_MODEL_ROWS:
        raise InputError(f"the field grid would have more than {MAX_MODEL_ROWS} "
                         "rows; raise --step or narrow the range")
    params = config.model
    fields = args.min_field + np.arange(n_rows) * args.step
    film = model.film_delta(params, fields)
    cavity = model.cavity_delta(params, fields)
    columns = (fields, film, cavity, film - cavity,
               model.delta_derivative(params, fields, "film"),
               model.delta_derivative(params, fields, "cavity"))
    path = write_csv(
        args.out / "model_curves.csv",
        ["field_gauss", "delta_film_mK", "delta_cavity_mK", "difference_mK",
         "ddelta_dH_film", "ddelta_dH_cavity"],
        columns, comments=[f"cavity_energy_form={model.CAVITY_FORM_NOTE}"])
    print(f"wrote {path} ({fields.size} rows)")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    curves = run_paired_experiment(config.model, config.instrument, config.plan)
    manifest = write_run(args.out, curves, asdict(config))
    print(f"wrote {manifest} with {len(curves)} curves")
    print(f"{'field_G':>10} {'kind':>7} {'rep':>4} {'points':>7}")
    for curve in curves:
        print(f"{curve.field:>10.3f} {curve.kind:>7} {curve.repetition:>4} "
              f"{len(curve.temperatures):>7}")
    return EXIT_OK


def _analysis_payload(result: AnalysisResult,
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
                "iterations": fit.iterations,
                "flags": list(flags[field, kind, rep]),
            }
            for field, kind, rep, fit in result.fits
        ],
        "failed_fits": [
            {
                "field_gauss": f.field, "kind": f.kind, "repetition": f.repetition,
                "reason": f.reason, "iterations": f.iterations,
                "residual_norm_ohm": f.residual_norm,
                "last_params": f.params,
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
            "relative_derivative_difference": rep.relative_difference.tolist(),
            "r2_film": rep.r2_film,
            "r2_cavity": rep.r2_cavity,
            "convergence_field_gauss": rep.convergence_field,
            "threshold": CONVERGENCE_THRESHOLD,
            "window": DERIVATIVE_WINDOW,
        }
    return payload


def _write_analysis_files(result: AnalysisResult, out: Path,
                          flags: dict[tuple[float, str, int], tuple[str, ...]]) -> None:
    for kind in ("film", "cavity"):
        curve = getattr(result, kind)
        if curve is not None:
            write_csv(out / f"delta_curve_{kind}.csv",
                      ["field_gauss", "delta_mK", "sigma_mK"],
                      (curve.fields, curve.deltas, curve.sigmas))
        deriv = getattr(result, f"{kind}_derivative")
        if deriv is not None:
            write_csv(out / f"derivative_{kind}.csv",
                      ["field_gauss", "ddelta_dH_mK_per_G", "sigma_mK_per_G",
                       "one_sided_window"],
                      (deriv.fields, deriv.slopes, deriv.sigmas,
                       deriv.one_sided.astype(int)))
    if result.difference is not None:
        write_csv(out / "difference.csv",
                  ["field_gauss", "difference_mK", "sigma_mK"],
                  (result.difference.fields, result.difference.values,
                   result.difference.sigmas))
    write_json(out / "analysis.json", _analysis_payload(result, flags))


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        curves, _ = read_run(args.manifest)
    except (OSError, InputError) as exc:
        print(f"error: could not read dataset: {exc}", file=sys.stderr)
        return EXIT_IO
    result = analyze_dataset(curves)
    out = Path(args.out) if args.out else args.manifest.parent
    flags = {(c.field, c.kind, c.repetition): c.flags for c in curves}
    _write_analysis_files(result, out, flags)
    total = len(result.fits) + result.failed_fits
    if result.failed_fits > MAX_FAILED_FRACTION * total:
        print(f"error: {result.failed_fits}/{total} fits failed; the failures "
              f"are listed in {out / 'analysis.json'}", file=sys.stderr)
        return EXIT_FIT
    if result.mean_difference is not None:
        print(f"Delta = {result.mean_difference:.4f} +/- "
              f"{result.mean_difference_sigma:.4f} mK "
              f"(weighted mean over {result.difference.fields.size} fields)")
    else:
        print(f"warning: {result.notes[0]}; difference step skipped")
    print(f"wrote analysis files to {out}")
    return EXIT_OK


def cmd_sensitivity(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_sensitivity(config.model, config.instrument, config.plan,
                             args.trials)

    payload = {
        "format_version": "1",
        "delta_n_mK": report.delta_n,
        "delta_n_se": report.delta_n_se,
        "delta_n_per_ohm_predicted": report.delta_n_per_ohm,
        "trials": report.trials,
        "detection_z_mean": report.detection_z,
        "detection_z_se": report.detection_z_se,
        "detection_z_fraction_ge_3": report.z_fraction_ge_3,
        "z_capped": report.z_capped,
        "derivative_contrast": report.derivative_contrast,
        "derivative_contrast_sigma": report.derivative_contrast_sigma,
        "contrast_field_gauss": report.contrast_field,
        "failed_trials": report.failed_trials,
        "failed_fits_by_reason": report.failed_fits_by_reason,
        "lm_steps_histogram": report.lm_steps_histogram,
        "valid": report.valid,
        "config": asdict(config),
    }
    write_json(args.out / "sensitivity.json", payload)
    write_csv(args.out / "contrast.csv",
              ["field_gauss", "contrast_mean", "contrast_sigma", "model_contrast"],
              (report.contrast_fields, report.contrast_mean, report.contrast_sigma,
               report.contrast_model))
    if report.valid:
        note = ""
    else:
        note = " (INVALID: too many failed trials)"
    print(f"delta_n = {report.delta_n:.4f} mK, mean z = {report.detection_z:.2f}, "
          f"contrast@{report.contrast_field:.0f}G = "
          f"{report.derivative_contrast:.3f}{note}")
    print(f"wrote {args.out / 'sensitivity.json'}")
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    sigma_r = calibrate_noise(args.target, config.instrument, config.plan,
                              args.tolerance, params=config.model,
                              trials=args.trials)
    write_json(args.out / "calibration.json", {
        "format_version": "1",
        "sigma_r_ohm": sigma_r,
        "delta_n_per_ohm_predicted": delta_n_per_ohm(config.model, config.instrument,
                                                     config.plan),
        "target_delta_n_mK": args.target,
        "tolerance": args.tolerance,
        "trials": args.trials,
        "seed": config.instrument.seed,
    })
    print(f"sigma_R = {sigma_r:.6f} ohm for delta_n = {args.target} mK")
    print(f"wrote {args.out / 'calibration.json'}")
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
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationError as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
