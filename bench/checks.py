"""Correctness checks for the benchmark's outputs.

Nothing here imports cavityshift: every expected value is computed from
the benchmark's own inputs with closed forms, or is a property the
method must have.  Each ``check_*`` function returns a list of failure
messages; an empty list means the check passed.  Units follow the
package: gauss, millikelvin, ohm.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Tolerance of the noise-free model comparisons (mK and mK/G).
MODEL_TOL = 1e-9

#: Accepted RMS of the delta-curve pulls (delta - truth) / sigma.  Tc is
#: shared by every point of a dataset, so the pulls are correlated and
#: their RMS scatters from seed to seed (0.72 to 1.39 over 40 seeds of
#: the cli_files dataset); the window leaves room for that tail and
#: still rejects sigmas that are off by a factor of three.
PULL_RMS_RANGE = (0.5, 2.0)


# --- closed forms ------------------------------------------------------------

def cavity_root(model: dict, fields) -> np.ndarray:
    """Cavity depression (mK): the positive root of d^2 - b*d - A*dv = 0.

    With A = alpha*H^2, dv = alpha*h_v^2 and b = A - dv - delta_inf this
    is the balance alpha*H^2 = d + delta_inf*d/(d + dv).  The branch is
    chosen per sign of b so that neither form cancels.
    """
    h = np.asarray(fields, dtype=float)
    a = model["alpha"] * h * h
    dv = model["alpha"] * model["h_v"] ** 2
    b = a - dv - model["delta_inf"]
    root_d = np.sqrt(b * b + 4.0 * a * dv)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.where(root_d - b > 0, 2.0 * a * dv / (root_d - b), 0.0)
    return np.where(b >= 0, 0.5 * (b + root_d), small)


def cavity_slope(model: dict, fields) -> np.ndarray:
    """d(delta_cavity)/dH = 2*alpha*H / (1 + delta_inf*dv/(d + dv)^2)."""
    h = np.asarray(fields, dtype=float)
    d = cavity_root(model, h)
    dv = model["alpha"] * model["h_v"] ** 2
    return 2.0 * model["alpha"] * h / (1.0 + model["delta_inf"] * dv / (d + dv) ** 2)


def model_contrast(model: dict, fields) -> np.ndarray:
    """Relative film-cavity slope difference (film' - cavity') / film'."""
    h = np.asarray(fields, dtype=float)
    d = cavity_root(model, h)
    dv = model["alpha"] * model["h_v"] ** 2
    g = model["delta_inf"] * dv / (d + dv) ** 2
    return g / (1.0 + g)


# --- parsers -------------------------------------------------------------------

def read_table(path: Path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """Parse a '#'-commented CSV: (key=value comments, header, rows)."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[float]] = []
    for line in Path(path).read_text().splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value
        elif not header:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def column(header: list[str], rows: np.ndarray, name: str) -> np.ndarray:
    return rows[:, header.index(name)]


def read_run_files(run_dir: Path) -> list[dict]:
    """Every curve listed in run.json, as parsed from its CSV."""
    manifest = json.loads((Path(run_dir) / "run.json").read_text())
    curves = []
    for entry in manifest["curves"]:
        meta, header, rows = read_table(Path(run_dir) / entry["file"])
        curves.append({
            "field": float(meta["field_gauss"]),
            "kind": meta["kind"],
            "repetition": int(meta["repetition"]),
            "temperatures": column(header, rows, "temperature_K"),
            "resistances": column(header, rows, "resistance_ohm"),
        })
    return curves


# --- checks ------------------------------------------------------------------

def _max_error(got: np.ndarray, want: np.ndarray) -> float:
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want), initial=0.0))


def check_model_curves(model: dict, fields: np.ndarray, header: list[str],
                       rows: np.ndarray) -> list[str]:
    """model_curves.csv against the closed forms, all to MODEL_TOL."""
    if rows.shape[0] != fields.size:
        return [f"model_curves.csv has {rows.shape[0]} rows, expected {fields.size}"]
    h = column(header, rows, "field_gauss")
    film = model["alpha"] * fields * fields
    cavity = cavity_root(model, fields)
    expected = {
        "field_gauss": fields,
        "delta_film_mK": film,
        "delta_cavity_mK": cavity,
        "difference_mK": film - cavity,
        "ddelta_dH_film": 2.0 * model["alpha"] * fields,
        "ddelta_dH_cavity": cavity_slope(model, fields),
    }
    failures = []
    for name, want in expected.items():
        got = h if name == "field_gauss" else column(header, rows, name)
        err = _max_error(got, want)
        if not err <= MODEL_TOL:
            failures.append(f"model_curves.csv {name}: max error {err:.3e} > {MODEL_TOL}")
    return failures


def check_round_trip(files: list[dict], memory: list[dict]) -> list[str]:
    """Curves read back from disk equal the in-memory dataset bit for bit."""
    if len(files) != len(memory):
        return [f"run has {len(files)} curve files, expected {len(memory)}"]
    failures = []
    for got, want in zip(files, memory):
        key = (want["field"], want["kind"], want["repetition"])
        if (got["field"], got["kind"], got["repetition"]) != key:
            failures.append(f"curve {key} missing or out of order")
            continue
        for name in ("temperatures", "resistances"):
            a, b = got[name], np.asarray(want[name], dtype=float)
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                failures.append(f"curve {key} {name} differ from the in-memory dataset")
    return failures


def delta_pull_rms(model: dict, kind: str, header: list[str], rows: np.ndarray) -> float:
    h = column(header, rows, "field_gauss")
    truth = model["alpha"] * h * h if kind == "film" else cavity_root(model, h)
    pulls = (column(header, rows, "delta_mK") - truth) / column(header, rows, "sigma_mK")
    return float(math.sqrt(np.mean(pulls * pulls)))


def check_delta_pulls(model: dict, fields: np.ndarray,
                      tables: dict[str, tuple[list[str], np.ndarray]]) -> list[str]:
    """Delta curves cover every field and their pulls have an RMS near 1."""
    failures = []
    for kind, (header, rows) in tables.items():
        h = column(header, rows, "field_gauss")
        if h.shape != fields.shape or not np.allclose(h, fields, rtol=0, atol=1e-9):
            failures.append(f"delta_curve_{kind}.csv fields differ from the plan")
            continue
        rms = delta_pull_rms(model, kind, header, rows)
        lo, hi = PULL_RMS_RANGE
        if not lo <= rms <= hi:
            failures.append(f"delta_curve_{kind}.csv pull RMS {rms:.3f} outside [{lo}, {hi}]")
    return failures


def check_signal_study(report: dict) -> list[str]:
    """Criterion-5 bounds on the signal study (sensitivity.json)."""
    failures = []
    if not 0.09 <= report["delta_n_mK"] <= 0.11:
        failures.append(f"signal delta_n {report['delta_n_mK']:.4f} mK outside [0.09, 0.11]")
    if not report["detection_z_mean"] >= 3.0:
        failures.append(f"signal mean z {report['detection_z_mean']:.3f} < 3")
    if report["failed_trials"] != 0 or not report["valid"]:
        failures.append(f"signal study failed {report['failed_trials']} trials")
    return failures


def check_null_study(report: dict) -> list[str]:
    """A model without the shift is detected in at most 1% of trials."""
    failures = []
    if not report["detection_z_fraction_ge_3"] <= 0.01:
        failures.append("null study false-detection fraction "
                        f"{report['detection_z_fraction_ge_3']:.4f} > 0.01")
    if report["failed_trials"] != 0:
        failures.append(f"null study failed {report['failed_trials']} trials")
    return failures


def check_contrast(model: dict, header: list[str], rows: np.ndarray) -> list[str]:
    """contrast.csv's model column against the closed-form contrast."""
    h = column(header, rows, "field_gauss")
    err = _max_error(column(header, rows, "model_contrast"), model_contrast(model, h))
    if not err <= MODEL_TOL:
        return [f"contrast.csv model_contrast: max error {err:.3e} > {MODEL_TOL}"]
    return []


def check_calibration(target: float, tolerance: float, delta_n: float) -> list[str]:
    """delta_n at the calibrated sigma_R lies within tolerance of the target."""
    if not abs(delta_n - target) <= tolerance * target:
        return [f"calibrated delta_n {delta_n:.5f} mK misses target {target} mK "
                f"by more than {tolerance:.0%}"]
    return []
