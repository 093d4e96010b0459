"""Each benchmark check passes on exact output and fails on a perturbed one.

Run with ``python3 -m pytest bench/test_checks.py``.  The outputs are
built here from the checks' own closed forms, so these tests need no
package code either.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks

MODEL = {"t_c": 1.5, "alpha": 0.6 / 150.0 ** 2, "delta_inf": 0.2, "h_v": 50.0,
         "cond_scale": 1.0}
MODEL_HEADER = ["field_gauss", "delta_film_mK", "delta_cavity_mK", "difference_mK",
                "ddelta_dH_film", "ddelta_dH_cavity"]
MICROKELVIN = 1e-3  # in mK


def test_cavity_root_solves_the_balance():
    h = np.concatenate([[0.0], np.geomspace(1e-3, 1e5, 400)])
    d = checks.cavity_root(MODEL, h)
    dv = MODEL["alpha"] * MODEL["h_v"] ** 2
    lhs = MODEL["alpha"] * h * h
    rhs = d + MODEL["delta_inf"] * d / (d + dv)
    assert d[0] == 0.0
    assert np.all(d[1:] > 0.0)
    assert np.max(np.abs(lhs - rhs) / np.maximum(lhs, 1e-300)) < 1e-12
    assert np.all(d <= lhs)


def model_rows(fields):
    film = MODEL["alpha"] * fields ** 2
    cavity = checks.cavity_root(MODEL, fields)
    return np.column_stack([fields, film, cavity, film - cavity,
                            2 * MODEL["alpha"] * fields, checks.cavity_slope(MODEL, fields)])


def test_model_curves_check():
    fields = 0.013 + np.arange(101) * 2.5
    rows = model_rows(fields)
    assert checks.check_model_curves(MODEL, fields, MODEL_HEADER, rows) == []

    shifted = rows.copy()
    shifted[40, 2] += MICROKELVIN
    assert checks.check_model_curves(MODEL, fields, MODEL_HEADER, shifted)
    slope = rows.copy()
    slope[7, 5] += 1e-6
    assert checks.check_model_curves(MODEL, fields, MODEL_HEADER, slope)
    assert checks.check_model_curves(MODEL, fields, MODEL_HEADER, rows[:-1])


def curve(field, kind, repetition, seed):
    rng = np.random.default_rng(seed)
    return {"field": field, "kind": kind, "repetition": repetition,
            "temperatures": np.linspace(1.2, 1.6, 50),
            "resistances": 5.0 + rng.normal(0.0, 0.07, 50)}


def write_run(run_dir, curves):
    """A dataset in the documented run format: run.json plus curve CSVs."""
    run_dir.mkdir()
    entries = []
    for i, c in enumerate(curves):
        name = f"curve_{i:03d}.csv"
        lines = [f"# field_gauss={c['field']!r}", f"# kind={c['kind']}",
                 f"# repetition={c['repetition']}", "temperature_K,resistance_ohm"]
        lines += [f"{t!r},{r!r}" for t, r in zip(c["temperatures"].tolist(),
                                                  c["resistances"].tolist())]
        (run_dir / name).write_text("\n".join(lines) + "\n")
        entries.append({"file": name})
    (run_dir / "run.json").write_text(json.dumps({"curves": entries}))


def test_round_trip_check(tmp_path):
    memory = [curve(f, k, 0, i) for i, (f, k) in
              enumerate([(50.0, "film"), (50.0, "cavity"), (72.5, "film"), (72.5, "cavity")])]
    write_run(tmp_path / "exact", memory)
    assert checks.check_round_trip(checks.read_run_files(tmp_path / "exact"), memory) == []

    write_run(tmp_path / "dropped", memory[:2] + memory[3:])
    assert checks.check_round_trip(checks.read_run_files(tmp_path / "dropped"), memory)

    nudged = [dict(c) for c in memory]
    nudged[2]["resistances"] = nudged[2]["resistances"].copy()
    nudged[2]["resistances"][10] = np.nextafter(nudged[2]["resistances"][10], np.inf)
    write_run(tmp_path / "nudged", nudged)
    assert checks.check_round_trip(checks.read_run_files(tmp_path / "nudged"), memory)


def delta_tables(fields, sigma_scale=1.0, shift=0.0):
    rng = np.random.default_rng(5)
    tables = {}
    for kind in ("film", "cavity"):
        truth = (MODEL["alpha"] * fields ** 2 if kind == "film"
                 else checks.cavity_root(MODEL, fields))
        sigma = np.full(fields.size, 0.05)
        delta = truth + sigma * rng.normal(size=fields.size) + shift
        tables[kind] = (["field_gauss", "delta_mK", "sigma_mK"],
                        np.column_stack([fields, delta, sigma * sigma_scale]))
    return tables


def test_delta_pull_check():
    fields = np.linspace(50.0, 250.0, 40)
    assert checks.check_delta_pulls(MODEL, fields, delta_tables(fields)) == []
    assert checks.check_delta_pulls(MODEL, fields, delta_tables(fields, sigma_scale=3.0))
    assert checks.check_delta_pulls(MODEL, fields, delta_tables(fields, shift=0.15))
    dropped = {k: (h, rows[1:]) for k, (h, rows) in delta_tables(fields).items()}
    assert checks.check_delta_pulls(MODEL, fields, dropped)


SIGNAL = {"delta_n_mK": 0.1007, "detection_z_mean": 3.2, "failed_trials": 0, "valid": True}
NULL = {"detection_z_fraction_ge_3": 0.002, "failed_trials": 0}


@pytest.mark.parametrize("change", [{"delta_n_mK": 0.085}, {"delta_n_mK": 0.115},
                                    {"detection_z_mean": 2.99},
                                    {"failed_trials": 1, "valid": True}])
def test_signal_study_check(change):
    assert checks.check_signal_study(SIGNAL) == []
    assert checks.check_signal_study({**SIGNAL, **change})


@pytest.mark.parametrize("change", [{"detection_z_fraction_ge_3": 0.012},
                                    {"failed_trials": 2}])
def test_null_study_check(change):
    assert checks.check_null_study(NULL) == []
    assert checks.check_null_study({**NULL, **change})


@pytest.mark.parametrize("delta_inf", [0.2, 0.0])
def test_contrast_check(delta_inf):
    model = {**MODEL, "delta_inf": delta_inf}
    fields = np.linspace(50.0, 250.0, 10)
    header = ["field_gauss", "contrast_mean", "contrast_sigma", "model_contrast"]
    rows = np.column_stack([fields, fields * 0, fields * 0,
                            checks.model_contrast(model, fields)])
    assert checks.check_contrast(model, header, rows) == []
    rows[0, 3] += 1e-6
    assert checks.check_contrast(model, header, rows)


def test_calibration_check():
    assert checks.check_calibration(0.1, 0.05, 0.0976) == []
    assert checks.check_calibration(0.1, 0.05, 0.0949)
    assert checks.check_calibration(0.127, 0.05, 0.1334)
