from __future__ import annotations

import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import cavityshift
from cavityshift import cli, sensitivity
from cavityshift.analysis import relative_slope_difference
from cavityshift.cli import build_parser, main
from cavityshift.config import (default_run_config, load_run_config,
                                run_config_from_dict)
from cavityshift.errors import InputError
from cavityshift.fileio import write_json


#: A normal resistance of 1e12 ohm, the top of its domain, with the noise
#: that calibrates the reference plan there to 0.1 mK.
BIG_RESISTANCE = {"instrument": {"normal_resistance": 1e12, "resistance_noise": 7.4e9}}


def read_model_curves(path):
    rows = {}
    with open(path, encoding="utf-8") as handle:
        header = None
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            values = [float(v) for v in line.split(",")]
            rows[values[0]] = dict(zip(header, values))
    return rows


#: A config that sets every field of every section, and the seed, away
#: from its default.
EVERY_FIELD_CHANGED = {
    "model": {"t_c": 1.45, "alpha": 3e-5, "delta_inf": 0.25, "h_v": 45.0,
              "cond_scale": 1.1},
    "instrument": {"base_temperature": 0.31, "normal_resistance": 9.0,
                   "transition_width": 45.0, "resistance_noise": 0.06,
                   "temperature_jitter": 0.01},
    "plan": {"fields": [45.0, 80.0, 120.0, 160.0], "t_center_guess": 1.44,
             "t_span": 0.35, "n_points": 150, "repetitions": 2},
    "seed": 3,
}


#: Fields whose squares are subnormal and whose spread squares to 0, so
#: no regression against H^2 can resolve them; the large alpha keeps
#: delta_v = alpha*h_v**2 at its 1e-9 mK floor.  (Squares that underflow
#: to 0 leave delta_v of any field at or above h_v below that floor.)
UNDERFLOWING_FIELDS = {"model": {"alpha": 1e300, "h_v": 3.2e-155},
                       "plan": {"fields": [3.2e-155, 3.3e-155, 3.4e-155]}}


def load_strict_json(path):
    """``path`` parsed as strict JSON: a ``NaN`` or ``Infinity`` token raises."""
    def reject(token):
        raise ValueError(f"{path} holds the non-standard JSON token {token}")
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)


def test_write_json_writes_non_finite_numbers_as_null(tmp_path):
    nan, inf = math.nan, math.inf
    payload = {"dict": {"a": nan, "b": inf, "c": -inf, "d": 0.1},
               "list": [nan, [inf, np.float64(-inf)], 1 / 3],
               "tuple": (np.float64(nan), (-inf, 2.5e-308), np.float64(1 / 7)),
               "other": [7, "inf", True, None]}
    want = {"dict": {"a": None, "b": None, "c": None, "d": 0.1},
            "list": [None, [None, None], 1 / 3],
            "tuple": [None, [None, 2.5e-308], 1 / 7],
            "other": [7, "inf", True, None]}
    path = write_json(tmp_path / "payload.json", payload)
    assert load_strict_json(path) == want
    # finite floats keep their repr, so the bytes are those of the payload
    # with its non-finite numbers spelled null
    assert (path.read_text(encoding="utf-8")
            == json.dumps(want, indent=2, sort_keys=True) + "\n")


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_written_files_get_the_mode_open_gives(tmp_path, umask):
    # the temp file of each write once kept its owner-only 0o600
    previous = os.umask(umask)
    try:
        assert main(["model-curve", "--out", str(tmp_path)]) == 0
        assert main(["simulate", "--out", str(tmp_path / "run")]) == 0
    finally:
        os.umask(previous)
    written = sorted(tmp_path.rglob("*.*"))
    assert len(written) == 22
    assert {path.stat().st_mode & 0o777 for path in written} == {0o666 & ~umask}


def simulate_zero_noise(tmp_path, out):
    """``simulate`` into ``out`` with a config file of the instrument
    without resistance noise or temperature jitter; its exit code."""
    config = tmp_path / "zero_noise.json"
    config.write_text(json.dumps(
        {"instrument": {"resistance_noise": 0.0, "temperature_jitter": 0.0}}),
        encoding="utf-8")
    return main(["simulate", "--config", str(config), "--out", str(out)])


class TestConfigSchema:
    @pytest.mark.parametrize("data", [{}, EVERY_FIELD_CHANGED],
                             ids=["default", "every-field-changed"])
    def test_defaults_round_trip(self, data):
        config = run_config_from_dict(data)
        serialized = asdict(config)
        assert run_config_from_dict(serialized) == config
        if data:
            default = asdict(default_run_config())
            for section in ("model", "instrument", "plan"):
                for key, value in serialized[section].items():
                    assert value != default[section][key], (section, key)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InputError):
            run_config_from_dict({"modle": {}})
        # the output directory is set by --out alone
        with pytest.raises(InputError, match="unknown top-level key"):
            run_config_from_dict({"output_dir": "out"})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(InputError):
            run_config_from_dict({"model": {"alpha": 1e-5, "tc": 1.5}})
        # the coil keys went with the coil model: acquisition applies
        # each planned field exactly
        for key, value in (("coil_constant", 3.0), ("current_resolution", 1e-3)):
            with pytest.raises(InputError):
                run_config_from_dict({"instrument": {key: value}})

    def test_component_invariants_enforced(self):
        with pytest.raises(InputError):
            run_config_from_dict({"model": {"alpha": -1.0}})
        with pytest.raises(InputError):
            run_config_from_dict({"instrument": {"transition_width": 0.0}})
        with pytest.raises(InputError):
            run_config_from_dict({"plan": {"fields": [5.0, 5.0]}})

    def test_seed_validation(self):
        with pytest.raises(InputError):
            run_config_from_dict({"seed": -1})
        with pytest.raises(InputError):
            run_config_from_dict({"seed": 2 ** 64})
        with pytest.raises(InputError):
            run_config_from_dict({"seed": "one"})

    def test_top_level_seed_conflicting_with_instrument_rejected(self):
        # the top-level seed once silently overwrote instrument.seed
        with pytest.raises(InputError, match="seed 99 and instrument.seed 5 differ"):
            run_config_from_dict({"seed": 99, "instrument": {"seed": 5}})
        config = run_config_from_dict({"seed": 5, "instrument": {"seed": 5}})
        assert config == run_config_from_dict({"seed": 5})
        assert config.instrument.seed == 5

    def test_default_plan_spans_crossover_decade(self):
        config = default_run_config()
        assert config.plan.fields[0] == pytest.approx(50.0)
        assert config.plan.fields[-1] == pytest.approx(250.0)
        assert len(config.plan.fields) == 10

    @pytest.mark.parametrize("section, value", [
        ("plan", 5), ("plan", [1, 2]), ("plan", "ab"), ("plan", None),
        ("instrument", 5), ("model", 3), ("model", None), ("model", "x")])
    def test_section_not_an_object_rejected(self, section, value):
        # these once escaped dict() or set() as TypeError/ValueError, and
        # "x" was read as the unknown key 'x'
        with pytest.raises(InputError, match=f"'{section}' section must be a "
                                              f"JSON object, got {type(value).__name__}"):
            run_config_from_dict({section: value})

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputError):
            load_run_config(path)
        # a byte that is not UTF-8 once escaped as UnicodeDecodeError
        path.write_bytes(b"\xff{}")
        with pytest.raises(InputError, match="could not read config file .*bad.json: "
                                             "'utf-8' codec can't decode"):
            load_run_config(path)


class TestModelCurveCommand:
    def test_reference_row_values(self, tmp_path):
        out = tmp_path / "curves"
        assert main(["model-curve", "--out", str(out), "--max-field", "250"]) == 0
        rows = read_model_curves(out / "model_curves.csv")
        row = rows[150.0]
        assert row["delta_film_mK"] == pytest.approx(0.600, abs=1e-12)
        assert row["delta_cavity_mK"] == pytest.approx(0.400, rel=0.10)
        assert abs(row["difference_mK"] - 0.200) < 0.03
        assert rows[250.0]["difference_mK"] == pytest.approx(0.200, rel=0.05)

    def test_single_zero_field_row(self, tmp_path):
        out = tmp_path / "zero"
        assert main(["model-curve", "--out", str(out), "--min-field", "0",
                     "--max-field", "0"]) == 0
        rows = read_model_curves(out / "model_curves.csv")
        assert list(rows) == [0.0]
        assert all(v == 0.0 for v in rows[0.0].values())

    def test_grid_ends_at_the_last_whole_step(self, tmp_path):
        # the row count was once rounded, so 1 G / 0.6 G wrote a row at 1.2 G
        out = tmp_path / "partial"
        assert main(["model-curve", "--out", str(out), "--max-field", "1",
                     "--step", "0.6"]) == 0
        assert list(read_model_curves(out / "model_curves.csv")) == [0.0, 0.6]

    def test_bad_range_exits_config(self, tmp_path, capsys):
        assert main(["model-curve", "--out", str(tmp_path), "--min-field", "10",
                     "--max-field", "5"]) == 2
        # a non-finite bound or step once escaped as OverflowError/ValueError
        for option, value in (("--max-field", "inf"), ("--step", "nan"),
                              ("--step", "inf"), ("--step", "1e-300")):
            assert main(["model-curve", "--out", str(tmp_path), option, value]) == 2
        # a field whose alpha*H**2 passes 1e150 mK once wrote inf and NaN, exit 0
        capsys.readouterr()
        assert main(["model-curve", "--out", str(tmp_path), "--min-field", "1e160",
                     "--max-field", "1e160"]) == 2
        assert capsys.readouterr().err.rstrip().endswith("got 1e+160")
        assert not (tmp_path / "model_curves.csv").exists()

    def test_seed_flag_is_retired(self, tmp_path):
        # the model curves are noise-free; --seed once changed no byte of them
        with pytest.raises(SystemExit) as excinfo:
            main(["model-curve", "--seed", "1", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert not (tmp_path / "model_curves.csv").exists()


class TestSimulateAnalyze:
    def test_simulate_writes_twenty_curves(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--seed", "7"]) == 0
        assert (out / "run.json").exists()
        assert len(list(out.glob("curve_*.csv"))) == 20

    def test_byte_identical_for_equal_seeds(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--out", str(out), "--seed", "11"]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_noiseless_pipeline_recovers_difference(self, tmp_path, capsys):
        out = tmp_path / "quiet"
        assert simulate_zero_noise(tmp_path, out) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        captured = capsys.readouterr().out
        assert "Delta =" in captured
        with open(out / "analysis.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["fit_failures"] == 0
        diff = np.loadtxt(out / "difference.csv", delimiter=",", skiprows=1,
                          encoding="utf-8")
        from cavityshift import ModelParams, cavity_delta, film_delta
        params = ModelParams()
        expected = np.array([film_delta(params, f) - cavity_delta(params, f)
                             for f in diff[:, 0]])
        assert np.max(np.abs(diff[:, 1] - expected)) <= 1e-3

    def test_convergence_block_is_the_relative_slope_difference(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        block = load_strict_json(out / "analysis.json")["convergence"]
        assert set(block) == {"fields_gauss", "relative_derivative_difference", "window"}
        film, cavity = (np.loadtxt(out / f"derivative_{kind}.csv", delimiter=",",
                                   skiprows=1, encoding="utf-8")
                        for kind in ("film", "cavity"))
        assert np.array(block["fields_gauss"]).tobytes() == film[:, 0].tobytes()
        assert (np.array(block["relative_derivative_difference"]).tobytes()
                == relative_slope_difference(film[:, 1], cavity[:, 1]).tobytes())
        assert block["window"] == 5

    def test_noiseless_flag_is_retired(self, tmp_path):
        # the config file sets the noise; simulate --noiseless once did too
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--noiseless", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_fit_entries_carry_curve_flags(self, tmp_path):
        # a floor above the start of the default grid clamps its first points
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"base_temperature": 1.32}}),
                          encoding="utf-8")
        out = tmp_path / "clamped"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        assert len(payload["fits"]) == len(manifest["curves"]) == 20
        for fit, entry in zip(payload["fits"], manifest["curves"]):
            lines = (out / entry["file"]).read_text(encoding="utf-8").splitlines()
            header = next(line for line in lines if line.startswith("# flags="))
            assert ";".join(fit["flags"]) == header.removeprefix("# flags=")
            assert fit["flags"][0] == "clamped:0"
        assert {"t_star_K", "sigma_t_star_K", "width_mK", "r_n_ohm", "residual_norm",
                "iterations"} < set(payload["fits"][0])

    def test_failed_fit_entries_carry_curve_flags(self, tmp_path, capsys):
        # at Tc = 0.31 K the cryostat floor clamps most setpoints of every
        # sweep, so no curve spans both plateaus and every fit fails
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"t_c": 0.31}}), encoding="utf-8")
        out = tmp_path / "floor"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 5
        assert "20/20 fits failed" in capsys.readouterr().err
        payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        assert payload["fits"] == []
        assert len(payload["failed_fits"]) == len(manifest["curves"]) == 20
        for failure, entry in zip(payload["failed_fits"], manifest["curves"]):
            assert (failure["field_gauss"], failure["kind"], failure["repetition"]) == (
                entry["field_gauss"], entry["kind"], entry["repetition"])
            lines = (out / entry["file"]).read_text(encoding="utf-8").splitlines()
            header = next(line for line in lines if line.startswith("# flags="))
            assert ";".join(failure["flags"]) == header.removeprefix("# flags=")
            assert failure["flags"][0] == "clamped:0"
            assert failure["reason"] == "curve does not span both resistance plateaus"

    def test_analyze_missing_manifest_exits_io(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 4

    @pytest.mark.parametrize("edit, message", [
        (lambda m: {**m, "curves": 5}, "key 'curves' must hold a list of curve "
                                       "entries, got 5"),
        (lambda m: [m], "a run manifest must be a JSON object, got list"),
        (lambda m: {**m, "curves": ["x"]}, "curve entry 0 needs a 'file' name, got 'x'"),
        (lambda m: {k: v for k, v in m.items() if k != "curves"},
         "key 'curves' must hold a list of curve entries, got no such key"),
        (lambda m: {**m, "curves": m["curves"][:3] + [
            {k: v for k, v in m["curves"][3].items() if k != "file"}]},
         "curve entry 3 needs a 'file' name"),
        (lambda m: {**m, "curves": []}, "got []")],
        ids=["curves-not-a-list", "top-level-array", "entry-not-an-object",
             "no-curves-key", "entry-without-file", "empty-curves-list"])
    def test_malformed_manifest_exits_io_naming_the_key(self, tmp_path, capsys,
                                                       edit, message):
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        manifest = out / "run.json"
        data = json.loads(manifest.read_text(encoding="utf-8"))
        manifest.write_text(json.dumps(edit(data)), encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", str(manifest)]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda entry, i: {**entry, "repetition": False},
         "repetition is 0 in the file but False in the manifest"),
        (lambda entry, i: {**entry, "n_points": 200.0} if i == 3 else entry,
         "n_points is 200 in the file but 200.0 in the manifest")],
        ids=["repetition-false", "n-points-float"])
    def test_manifest_entry_of_another_type_exits_io(self, tmp_path, capsys, edit,
                                                     message):
        # Python's False == 0 and 200.0 == 200 once let both analyse (exit 0)
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        manifest = out / "run.json"
        data = json.loads(manifest.read_text(encoding="utf-8"))
        data["curves"] = [edit(entry, i) for i, entry in enumerate(data["curves"])]
        manifest.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", str(manifest)]) == 4
        assert message in capsys.readouterr().err

    def test_whole_field_may_be_a_json_integer(self, tmp_path):
        # as the README's hand-assembled manifest writes it: 50 for 50.0
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        manifest = out / "run.json"
        data = json.loads(manifest.read_text(encoding="utf-8"))
        for entry in data["curves"]:
            if entry["field_gauss"] in (50.0, 250.0):
                entry["field_gauss"] = int(entry["field_gauss"])
        manifest.write_text(json.dumps(data), encoding="utf-8")
        assert '"field_gauss": 50,' in manifest.read_text(encoding="utf-8")
        assert main(["analyze", str(manifest)]) == 0

    def test_non_finite_row_exits_io(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--seed", "3"]) == 0
        path = out / "curve_000_film_rep0.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = "nan," + lines[-1].split(",")[1]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["analyze", str(out / "run.json")]) == 4
        assert f"line {len(lines)}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["field_gauss", "repetition"])
    def test_bad_header_value_exits_io_naming_file_and_key(self, tmp_path, capsys, key):
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        path = out / "curve_001_cavity_rep0.csv"
        lines = [f"# {key}=x" if line.startswith(f"# {key}=") else line
                 for line in path.read_text(encoding="utf-8").splitlines()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", str(out / "run.json")]) == 4
        err = capsys.readouterr().err
        assert str(path) in err and f"{key}='x'" in err

    @pytest.mark.parametrize("value", [-50.0, math.inf])
    def test_field_outside_the_plan_domain_exits_io(self, tmp_path, capsys, value):
        # with the manifest agreeing, inf once exited 2 naming no file and
        # -50.0 was analysed as a real field
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        for entry in manifest["curves"][2:4]:
            path = out / entry["file"]
            entry["field_gauss"] = value
            lines = [f"# field_gauss={value!r}" if line.startswith("# field_gauss=")
                     else line for line in path.read_text(encoding="utf-8").splitlines()]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out / "run.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", str(out / "run.json")]) == 4
        err = capsys.readouterr().err
        assert "curve_001_film_rep0.csv: header field_gauss=" in err
        assert "must be finite and nonnegative" in err

    @pytest.mark.parametrize("name, damage", [
        ("curve_001_cavity_rep0.csv", lambda data: data + b"\xff"),
        ("run.json", lambda data: b"{")], ids=["curve-not-utf8", "manifest-cut-short"])
    def test_unreadable_file_exits_io_naming_it(self, tmp_path, capsys, name, damage):
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        path = out / name
        path.write_bytes(damage(path.read_bytes()))
        capsys.readouterr()
        assert main(["analyze", str(out / "run.json")]) == 4
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("copy", [False, True], ids=["file-listed-twice",
                                                         "two-files-equal-headers"])
    def test_curve_given_twice_exits_io_naming_both_files(self, tmp_path, capsys, copy):
        # such a run was once analysed with the curve as its own repeat,
        # and the flag map dropped one of the two
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        entry = dict(manifest["curves"][0])
        if copy:
            (out / "copy.csv").write_bytes((out / entry["file"]).read_bytes())
            entry["file"] = "copy.csv"
        manifest["curves"].append(entry)
        (out / "run.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", str(out / "run.json")]) == 4
        err = capsys.readouterr().err
        assert (f"curve entries 0 ({out / 'curve_000_film_rep0.csv'}) and 20 "
                f"({out / entry['file']}) hold one curve") in err
        assert not (out / "analysis.json").exists()

    def test_hand_assembled_run_analyzes_as_the_simulated_one(self, tmp_path, capsys):
        # the README's minimal run: curve files with only the field_gauss
        # and kind headers, and manifest entries with only the five keys
        run, bare = tmp_path / "run", tmp_path / "bare"
        assert main(["simulate", "--seed", "1", "--out", str(run)]) == 0
        assert main(["analyze", str(run / "run.json")]) == 0
        bare.mkdir()
        entries = json.loads((run / "run.json").read_text(encoding="utf-8"))["curves"]
        for entry in entries:
            lines = (run / entry["file"]).read_text(encoding="utf-8").splitlines(
                keepends=True)
            kept = [line for line in lines if not line.startswith("#")
                    or line.startswith(("# field_gauss=", "# kind="))]
            assert len(lines) - len(kept) == 2  # the repetition and flags headers
            (bare / entry["file"]).write_text("".join(kept), encoding="utf-8")

        def analyze(*keys):
            (bare / "run.json").write_text(json.dumps(
                {"format_version": "1",
                 "curves": [{key: entry[key] for key in keys} for entry in entries]}),
                encoding="utf-8")
            return main(["analyze", str(bare / "run.json")])

        # the README's two messages: every entry needs every key, repetition
        # too though the header that gives it is gone
        for keys, missing in ((("file",), "n_points is 200"),
                              (("file", "field_gauss", "kind", "n_points"),
                               "repetition is 0")):
            capsys.readouterr()
            assert analyze(*keys) == 4
            assert f"{missing} in the file but None in the manifest" in \
                capsys.readouterr().err
        assert analyze("file", "field_gauss", "kind", "repetition", "n_points") == 0
        names = ["analysis.json", "difference.csv",
                 *(f"{view}_{kind}.csv" for view in ("delta_curve", "derivative")
                   for kind in ("film", "cavity"))]
        for name in names:
            assert (bare / name).read_bytes() == (run / name).read_bytes(), name

    @pytest.mark.parametrize("flags, code", [("", 4), ("clamped:1", 0)])
    def test_repeated_temperature_needs_a_clamped_flag(self, tmp_path, capsys,
                                                       flags, code):
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        path = out / "curve_000_film_rep0.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        start = lines.index("temperature_K,resistance_ohm") + 1
        lines[start + 1] = (lines[start].split(",")[0] + ","
                            + lines[start + 1].split(",")[1])
        lines = [f"# flags={flags}" if line.startswith("# flags=") else line
                 for line in lines]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", str(out / "run.json")]) == code
        if code:
            err = capsys.readouterr().err
            assert str(path) in err and "strictly increasing" in err

    def test_output_directory_that_is_a_file_exits_io(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("", encoding="utf-8")
        assert main(["simulate", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("I/O error")

    def test_manifest_path_that_is_a_directory_exits_io_leaving_no_temp_file(
            self, tmp_path, capsys):
        # os.replace onto a directory fails after the temp file is written:
        # the writer removes it and re-raises the OSError
        out = tmp_path / "run"
        (out / "run.json").mkdir(parents=True)
        assert main(["simulate", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("I/O error: ")
        assert (out / "run.json").is_dir() and not any((out / "run.json").iterdir())
        assert not list(out.glob("*.tmp"))
        assert len(list(out.glob("curve_*.csv"))) == 20

    # resistances near 1e161 once overflowed the fit's sums of squares,
    # and that curve's fit failed with an infinite residual; they now lie
    # outside the fit's domain, the curve is a counted failure, and
    # analysis.json must stay strict JSON
    def test_overflowing_resistances_leave_strict_json(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out)]) == 0
        path = out / "curve_000_film_rep0.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        start = lines.index("temperature_K,resistance_ohm") + 1
        rows = (line.split(",") for line in lines[start:])
        lines[start:] = [f"{t},{float(r) * 1e160!r}" for t, r in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["analyze", str(out / "run.json")]) == 5
        payload = load_strict_json(out / "analysis.json")
        (failure,) = payload["failed_fits"]
        assert failure["reason"] == "resistances must be finite and within +-1e+15 ohm"
        for value in (failure["residual_norm_ohm"], *(failure["last_params"] or ())):
            assert value is None or math.isfinite(value)

    def test_step_function_curve_exits_fit_and_is_listed(self, tmp_path, capsys):
        from cavityshift.instrument import resistive_transition

        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        path = out / "curve_003_cavity_rep0.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        start = lines.index("temperature_K,resistance_ohm") + 1
        temps = [float(line.split(",")[0]) for line in lines[start:]]
        steps = resistive_transition(np.array(temps), temps[100] + 1e-4, 1.0, 10.0)
        lines[start:] = [f"{t!r},{float(r)!r}" for t, r in zip(temps, steps)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["analyze", str(out / "run.json")]) == 5
        assert "analysis.json" in capsys.readouterr().err
        payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        assert payload["fit_failures"] == 1
        assert payload["n_curves"] == 20
        assert len(payload["fits"]) == 19
        (failure,) = payload["failed_fits"]
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        field = manifest["curves"][7]["field_gauss"]
        assert failure["field_gauss"] == field
        assert (failure["kind"], failure["repetition"]) == ("cavity", 0)
        assert "below the temperature step" in failure["reason"]
        assert failure["iterations"] > 0
        assert failure["residual_norm_ohm"] > 0
        # the last LM point: t* (K), width (mK), r_n (ohm)
        t_star, width, r_n = failure["last_params"]
        assert width < max(np.diff(temps)) * 1e3
        assert temps[0] <= t_star <= temps[-1] and r_n > 0

    def test_film_only_dataset_still_analyzed(self, tmp_path, capsys):
        out = tmp_path / "filmonly"
        assert simulate_zero_noise(tmp_path, out) == 0
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        manifest["curves"] = [c for c in manifest["curves"] if c["kind"] == "film"]
        (out / "run.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["analyze", str(out / "run.json")]) == 0
        captured = capsys.readouterr().out
        assert "difference step skipped" in captured
        assert (out / "delta_curve_film.csv").exists()
        assert not (out / "difference.csv").exists()

    def test_two_field_dataset_reports_why_difference_skipped(self, tmp_path, capsys):
        # all four fits succeed; the warning once read "no film curves"
        # and analysis.json held no note
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"fields": [50.0, 100.0]}}),
                          encoding="utf-8")
        out = tmp_path / "two"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        captured = capsys.readouterr().out
        assert ("warning: film fits cover 2 distinct field(s); a delta curve needs 3; "
                "difference step skipped") in captured
        payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        assert len(payload["fits"]) == 4
        assert payload["notes"] == [
            "film fits cover 2 distinct field(s); a delta curve needs 3"]
        assert not list(out.glob("delta_curve_*.csv"))

    def test_underflowing_fields_analyzed_without_delta_curves(self, tmp_path, capsys):
        # all six fits succeed; analyze once exited 2 on the rank-deficient
        # Tc regression and wrote no analysis.json
        config = tmp_path / "config.json"
        config.write_text(json.dumps(UNDERFLOWING_FIELDS), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        assert ("warning: film Tc regression is rank deficient (degenerate field "
                "grid); difference step skipped") in capsys.readouterr().out
        payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        assert len(payload["fits"]) == 6
        assert payload["notes"] == [
            "film Tc regression is rank deficient (degenerate field grid)"]
        assert not list(out.glob("delta_curve_*.csv"))

    def test_unpaired_fields_skip_difference(self, tmp_path, capsys):
        out = tmp_path / "unpaired"
        assert simulate_zero_noise(tmp_path, out) == 0
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        first_cavity = next(c for c in manifest["curves"] if c["kind"] == "cavity")
        manifest["curves"].remove(first_cavity)
        (out / "run.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["analyze", str(out / "run.json")]) == 0
        assert "cover different fields" in capsys.readouterr().out
        assert (out / "delta_curve_cavity.csv").exists()
        assert not (out / "difference.csv").exists()

    def test_custom_fields_list(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"fields": [60.0, 120.0, 180.0]}}),
                          encoding="utf-8")
        out = tmp_path / "fields"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert len(list(out.glob("curve_*.csv"))) == 6

    @pytest.mark.parametrize("key", ["resistance_noise", "normal_resistance",
                                     "transition_width", "base_temperature"])
    def test_non_finite_config_value_exits_config(self, tmp_path, capsys, key):
        # JSON's Infinity once gave curves of inf/NaN resistances (exit 0)
        # or a numpy warning and a message about temperatures
        config = tmp_path / "config.json"
        config.write_text(f'{{"instrument": {{"{key}": Infinity}}}}', encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sensitivity", "calibrate"])
    @pytest.mark.parametrize("value", [1e-300, 9.99e-13])
    def test_normal_resistance_below_the_floor_exits_config(self, tmp_path, capsys,
                                                            command, value):
        # 1e-300 ohm once simulated and analyzed, while sensitivity refused
        # it as a sweep that does not resolve the film transition
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"normal_resistance": value,
                                                     "resistance_noise": value / 100}}),
                          encoding="utf-8")
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"input error: invalid 'instrument' section: normal_resistance "
                       f"must be finite and >= 1e-12 and <= 1000000000000.0, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"model": {"alpha": true}}', "alpha"),
        ('{"instrument": {"resistance_noise": false}}', "resistance_noise"),
        ('{"plan": {"t_span": true}}', "t_span"),
        ('{"plan": {"fields": ["50", "100", "150"]}}', "fields[0]"),
        ('{"plan": {"fields": [true, 2.0, 3.0]}}', "fields[0]"),
        ('{"model": {"h_v": 1%s}}' % ("0" * 399), "h_v"),
        ('{"instrument": {"temperature_jitter": 1%s}}' % ("0" * 399),
         "temperature_jitter"),
        ('{"plan": {"fields": 50}}', "fields"),
        ('{"model": {"t_c": null}}', "t_c"),
        ('{"model": {"t_c": "1.5"}}', "t_c")],
        ids=["alpha-true", "noise-false", "t_span-true", "field-strings", "field-true",
             "h_v-huge", "jitter-huge", "fields-not-a-list", "t_c-null", "t_c-string"])
    def test_wrong_typed_setting_exits_config(self, tmp_path, capsys, text, key):
        # the first five once ran (true as 1), the 400-digit integers escaped
        # as OverflowError, and the last three exited 2 naming no key
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and f"{key} must " in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"plan"', "null"])
    def test_config_not_an_object_exits_config(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == "input error: run configuration must be a JSON object\n")
        assert not out.exists()

    def test_section_not_an_object_exits_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"plan": [1, 2]}', encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert ("input error: 'plan' section must be a JSON object, got list"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_u64_exits_config(self, tmp_path, capsys, seed):
        out = tmp_path / "run"
        assert main(["simulate", "--seed", seed, "--out", str(out)]) == 2
        assert (f"input error: seed must be a 64-bit unsigned int, got {seed}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_instrument_seed_alone_sets_the_seed(self, tmp_path):
        # instrument.seed was once accepted and then replaced by the
        # default seed 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"seed": 5}}), encoding="utf-8")
        from_file, from_flag = tmp_path / "file", tmp_path / "flag"
        assert main(["simulate", "--config", str(config), "--out", str(from_file)]) == 0
        assert main(["simulate", "--seed", "5", "--out", str(from_flag)]) == 0
        names = sorted(p.name for p in from_file.iterdir())
        assert names == sorted(p.name for p in from_flag.iterdir())
        for name in names:
            assert (from_file / name).read_bytes() == (from_flag / name).read_bytes()

    def test_conflicting_seeds_exit_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "instrument": {"seed": 5}}),
                          encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and "seed 3 and instrument.seed 5 differ" in err
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["top-level", "instrument"])
    @pytest.mark.parametrize("value", [True, 5.5])
    def test_non_integer_seed_exits_config(self, tmp_path, capsys, spelling, value):
        # instrument.seed once took these and then dropped them
        data = {"seed": value} if spelling == "top-level" else {"instrument": {"seed": value}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error")
        assert f"seed must be a 64-bit unsigned int, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sensitivity"])
    @pytest.mark.parametrize("key, value", [("n_points", 200.0), ("repetitions", 1.5),
                                            ("repetitions", True)])
    def test_non_integer_plan_size_exits_config(self, tmp_path, capsys, command,
                                                key, value):
        # a float size once escaped np.linspace or range as TypeError (exit
        # 1), and true was read as one repetition
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {key: value}}), encoding="utf-8")
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and f"{key} must be an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["model-curve", "simulate", "sensitivity",
                                         "calibrate"])
    @pytest.mark.parametrize("section", [{"plan": {"t_span": 1e-300, "t_center_guess": 1.4}},
                                         # eight 1 pK widths at 1000 K, derived for
                                         # a field of 0, where no depression widens
                                         # the span
                                         {"model": {"t_c": 1000.0},
                                          "instrument": {"transition_width": 1e-9},
                                          "plan": {"fields": [0.0]}}])
    def test_collapsed_temperature_grid_exits_config(self, tmp_path, capsys, command,
                                                     section):
        # such a plan once failed in the first curve (simulate, sensitivity),
        # in the first fit (calibrate) or not at all (model-curve)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(section), encoding="utf-8")
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and "temperature grid collapses" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["model-curve", "simulate", "sensitivity",
                                         "calibrate"])
    @pytest.mark.parametrize("data, message", [
        # simulate once acquired 1e300 repetitions without end
        ({"plan": {"repetitions": 10 ** 300}}, "more than 1e+08 samples: 10 field(s) "
         f"x 2 kinds x repetitions={10 ** 300} x n_points=200"),
        # model-curve once wrote a NaN cavity slope in every row, with exit 0
        ({"model": {"alpha": 1e-300, "h_v": 1e-300}}, "alpha=1e-300 and h_v=1e-300"),
        # once exited 2 naming t_center_guess, a setting the config did not set
        ({"model": {"alpha": 1.0, "h_v": 1e200}}, "alpha=1.0 and h_v=1e+200"),
        # so did a field whose film depression overflowed, and model-curve ran
        ({"plan": {"fields": [1e160]}}, "invalid 'plan' section: field must lie in "
         "[0, 7500.0] G, where alpha*H**2 reaches 1000*t_c = 1500.0 mK, "
         "got 1e+160"),
    ], ids=["plan-past-the-size-limit", "zero-crossover-depression",
            "infinite-crossover-depression", "field-past-the-bound"])
    def test_config_beyond_the_model_or_memory_exits_config(self, tmp_path, capsys,
                                                            command, data, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and message in err
        assert not out.exists()

    def test_grid_at_the_cryostat_floor_fails_every_fit(self, tmp_path, capsys):
        # every setpoint clamps to 0.3 K; analyze once ended in ZeroDivisionError
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"t_center_guess": 0.1, "t_span": 0.1}}),
                          encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 5
        assert "20/20 fits failed" in capsys.readouterr().err
        payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        assert {f["reason"] for f in payload["failed_fits"]} == {
            "every temperature is 0.3 K; the curve has no transition to fit"}
        # rejected before fitting: there is no last LM point
        assert all(f["last_params"] is None for f in payload["failed_fits"])

    @pytest.mark.parametrize("command", ["sensitivity", "calibrate"])
    def test_study_at_the_cryostat_floor_exits_config(self, tmp_path, capsys, command):
        # sensitivity once ended in ZeroDivisionError in its first trial; the
        # fit's plateau rule refuses the flat noise-free curves at the floor
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"t_center_guess": 0.1, "t_span": 0.1}}),
                          encoding="utf-8")
        out = tmp_path / "study"
        assert main([command, "--config", str(config), "--trials", "100",
                     "--out", str(out)]) == 2
        assert ("input error: the sweep does not resolve the film transition at 50 G: "
                "no resistive plateau found") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sensitivity", "calibrate"])
    def test_underflowing_fields_exit_config(self, tmp_path, capsys, command):
        # the closed-form kappa once divided by the zero determinant of the
        # film Tc regression: ZeroDivisionError, exit 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(UNDERFLOWING_FIELDS), encoding="utf-8")
        out = tmp_path / "study"
        assert main([command, "--config", str(config), "--trials", "100",
                     "--out", str(out)]) == 2
        assert "film Tc regression is rank deficient" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_clipping_the_plateaus_exits_before_any_trial(self, tmp_path, capsys,
                                                                monkeypatch):
        # a 12 mK sweep of a 50 mK wide transition: the study once passed its
        # checks, fitted all 2000 curves and then exited "every trial failed"
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sensitivity, "run_paired_experiment", trial)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"t_span": 0.012}}), encoding="utf-8")
        out = tmp_path / "study"
        assert main(["sensitivity", "--config", str(config), "--trials", "100",
                     "--out", str(out)]) == 2
        assert ("input error: the sweep does not resolve the film transition at 50 G: "
                "curve does not span both resistance plateaus") in capsys.readouterr().err
        assert not out.exists()

    def test_study_whose_every_trial_fails_names_the_reason(self, tmp_path, capsys):
        # 10 ohm of noise on the reference plan: its noise-free curves pass
        # the study checks, then every noisy trial fails a fit; the exit once
        # said only "nothing to report"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"resistance_noise": 10.0}}),
                          encoding="utf-8")
        out = tmp_path / "study"
        assert main(["sensitivity", "--config", str(config), "--trials", "100",
                     "--out", str(out)]) == 2
        assert ("every trial failed its fits; nothing to report (81 of 100 failed "
                "with: curve does not span both resistance plateaus)"
                in capsys.readouterr().err)
        assert not out.exists()


class TestLocale:
    """Every file is read and written as UTF-8, so a locale whose codec is
    ASCII changes nothing: the CLI runs in a subprocess under each."""

    ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    @classmethod
    def python(cls, cwd, argv, ascii_locale):
        env = {k: v for k, v in os.environ.items() if k not in cls.ASCII_LOCALE}
        src = str(Path(cavityshift.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        if ascii_locale:
            env.update(cls.ASCII_LOCALE)
        return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              capture_output=True, encoding="utf-8")

    def cli(self, cwd, argv, ascii_locale):
        return self.python(cwd, ["-m", "cavityshift.cli", *argv], ascii_locale)

    def test_outputs_equal_under_an_ascii_locale(self, tmp_path):
        probe = self.python(tmp_path, ["-c", "import locale; "
                                       "print(locale.getpreferredencoding(False))"], True)
        assert probe.stdout.strip().lower().replace("-", "") not in ("utf8", "")
        outputs = {}
        for ascii_locale in (False, True):
            root = tmp_path / ("ascii" if ascii_locale else "default")
            root.mkdir()
            done = self.cli(root, ["simulate", "--out", "run"], ascii_locale)
            assert done.returncode == 0, done.stderr
            first = root / "run" / "curve_000_film_rep0.csv"
            first.write_bytes("# operator=J\u00f6rg\n".encode() + first.read_bytes())
            done = self.cli(root, ["analyze", "run/run.json"], ascii_locale)
            assert done.returncode == 0, done.stderr
            outputs[ascii_locale] = done.stdout, {
                str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}
        assert outputs[True] == outputs[False]
        assert "run/analysis.json" in outputs[True][1]
        # a byte that is not UTF-8 still exits 4 naming the file
        bad = root / "run" / "curve_001_cavity_rep0.csv"
        bad.write_bytes(bad.read_bytes() + b"\xff")
        done = self.cli(root, ["analyze", "run/run.json"], True)
        assert done.returncode == 4
        assert ("could not read curve file run/curve_001_cavity_rep0.csv: "
                "'utf-8' codec can't decode byte 0xff") in done.stderr


class TestSensitivityCommand:
    def test_small_study_writes_report(self, tmp_path):
        out = tmp_path / "sens"
        assert main(["sensitivity", "--out", str(out), "--trials", "100"]) == 0
        with open(out / "sensitivity.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["trials"] == 100
        assert payload["valid"] is True
        assert 0.05 <= payload["delta_n_mK"] <= 0.15
        assert "runtime" not in payload  # reports must stay byte-deterministic
        # the config echo is the one source of sigma_R and the seed
        assert not {"calibrated_sigma_r_ohm", "seed"} & set(payload)
        assert payload["config"]["instrument"]["seed"] == 1
        # every curve of every trial: 2 kinds x 10 fields x 100 trials
        assert sum(payload["lm_steps_histogram"]) == 2000
        assert payload["failed_fits_by_reason"] == {}
        contrast = np.loadtxt(out / "contrast.csv", delimiter=",", skiprows=1,
                              encoding="utf-8")
        assert contrast.shape == (10, 4)
        assert contrast[0, 0] == 50.0
        assert contrast[0, 3] == pytest.approx(0.639, abs=0.01)

    def test_subnormal_crossover_depression_exits_config(self, tmp_path, capsys):
        # delta_v = 1e-323: delta_inf*delta_v and (delta_c + delta_v)**2 both
        # underflowed to 0, and every model_contrast was NaN without a
        # warning; it lies below delta_v's 1e-9 mK floor now
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"alpha": 1e-300, "h_v": 3e-12}}),
                          encoding="utf-8")
        out = tmp_path / "sens"
        assert main(["sensitivity", "--config", str(config), "--out", str(out),
                     "--trials", "100"]) == 2
        assert "got alpha=1e-300 and h_v=3e-12" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reports(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["sensitivity", "--out", str(out), "--trials", "100",
                         "--seed", "5"]) == 0
        assert (out_a / "sensitivity.json").read_bytes() == \
            (out_b / "sensitivity.json").read_bytes()

    @pytest.mark.parametrize("fields, message", [
        ("60,70", "film fits cover 2 distinct field(s); a delta curve needs 3"),
        ("10,20,30,40,45", "no field at or above h_v = 50 G"),
        (",", "field list is empty")])
    def test_plan_without_a_result_exits_config(self, tmp_path, capsys, fields, message):
        # the first two once ran trials first: all 100 of them, then "every trial
        # failed its fits", or up to trial 0's significance step
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"plan": {"fields": [float(f) for f in fields.split(",") if f]}}),
            encoding="utf-8")
        out = tmp_path / "sens"
        assert main(["sensitivity", "--config", str(config), "--trials", "100",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_missing_the_transitions_exits_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        # a grid from 0.25 to 0.45 K, below every transition: the study once
        # fitted all 2000 curves, then exited with "every trial failed"
        trials = []
        run = sensitivity.run_paired_experiment

        def counted(*args, **kwargs):
            trials.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(sensitivity, "run_paired_experiment", counted)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"t_center_guess": 0.35, "t_span": 0.2}}),
                          encoding="utf-8")
        out = tmp_path / "sens"
        assert main(["sensitivity", "--config", str(config), "--trials", "100",
                     "--out", str(out)]) == 2
        assert "does not resolve the film transition at 50 G" in capsys.readouterr().err
        assert not out.exists()
        assert trials == []

    def test_jittered_study_whose_fits_once_overflowed_exits_config(
            self, tmp_path, capsys):
        # found by fuzzing the config domain: a fit of this study once ran
        # t_star off until it overflowed, a RuntimeWarning the suite raises
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"alpha": 0.0003657102230106953},
            "instrument": {"base_temperature": 1.201989465374509,
                           "transition_width": 0.05875546465102714,
                           "temperature_jitter": 9.138519989788767},
            "plan": {"n_points": 39}, "seed": 3493288461}), encoding="utf-8")
        out = tmp_path / "sens"
        assert main(["sensitivity", "--config", str(config), "--trials", "100",
                     "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    def test_jitter_below_the_floor_fails_trials_not_the_study(self, tmp_path, capsys):
        # 40 mK of jitter about setpoints near a 10 mK floor: one draw below
        # 0 K once raised DomainError and ended the study at trial 0, exit 2
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"t_c": 0.2},
            "instrument": {"base_temperature": 0.01, "temperature_jitter": 40.0,
                           "transition_width": 20.0},
            "plan": {"n_points": 40}}), encoding="utf-8")
        run, sens = tmp_path / "run", tmp_path / "sens"
        assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
        assert main(["sensitivity", "--config", str(config), "--trials", "100",
                     "--out", str(sens)]) == 0
        assert "INVALID: too many failed trials" in capsys.readouterr().out
        payload = json.loads((sens / "sensitivity.json").read_text(encoding="utf-8"))
        assert payload["trials"] == 100
        assert 1 < payload["failed_trials"] < 100
        assert payload["valid"] is False

    def test_closed_form_kappa_once_per_study(self, tmp_path, monkeypatch):
        # the study check's kappa gives the one probe and the reported
        # prediction; sensitivity once computed it twice, calibrate four times
        calls, studies = [], []
        kappa, study = sensitivity.delta_n_per_ohm, sensitivity.run_sensitivity

        def counted_kappa(*args):
            calls.append(args)
            return kappa(*args)

        def counted_study(*args):
            studies.append(args)
            return study(*args)

        for module in (cli, sensitivity):
            monkeypatch.setattr(module, "delta_n_per_ohm", counted_kappa)
        monkeypatch.setattr(sensitivity, "run_sensitivity", counted_study)
        assert main(["sensitivity", "--trials", "100",
                     "--out", str(tmp_path / "sens")]) == 0
        assert len(calls) == 1
        calls.clear()
        assert main(["calibrate", "--trials", "100",
                     "--out", str(tmp_path / "cal")]) == 0
        assert len(studies) == 1
        # calibrate_noise's check, the checking study's check and the report
        assert len(calls) == 3

    def test_calibrated_study_takes_sigma_r_from_the_config(self, tmp_path):
        # calibrate, then a study whose config carries the calibrated
        # sigma_R: the JSON number round-trips exactly
        sens, cal = tmp_path / "sens", tmp_path / "cal"
        assert main(["calibrate", "--trials", "200", "--seed", "3",
                     "--out", str(cal)]) == 0
        sigma_r = json.loads((cal / "calibration.json").read_text(
            encoding="utf-8"))["sigma_r_ohm"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"resistance_noise": sigma_r}}),
                          encoding="utf-8")
        assert main(["sensitivity", "--config", str(config), "--trials", "100",
                     "--seed", "3", "--out", str(sens)]) == 0
        report = json.loads((sens / "sensitivity.json").read_text(encoding="utf-8"))
        assert report["config"]["instrument"]["resistance_noise"] == sigma_r
        assert report["delta_n_mK"] == pytest.approx(0.1, rel=0.1)

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sens"
        for trials in ("0", "-5"):
            assert main(["sensitivity", "--trials", trials, "--out", str(out)]) == 2
            assert f"need at least 100 trials, got {trials}" in capsys.readouterr().err
        assert not out.exists()

    def test_report_carries_standard_errors_and_predicted_slope(self, tmp_path):
        out = tmp_path / "sens"
        assert main(["sensitivity", "--out", str(out), "--trials", "100"]) == 0
        payload = json.loads((out / "sensitivity.json").read_text(encoding="utf-8"))
        assert 0 < payload["delta_n_se"] < 0.1 * payload["delta_n_mK"]
        assert 0 < payload["detection_z_se"] < 0.2
        kappa = payload["delta_n_per_ohm_predicted"]
        sigma_r = payload["config"]["instrument"]["resistance_noise"]
        assert kappa * sigma_r == pytest.approx(payload["delta_n_mK"], rel=0.05)

    def test_predicted_slope_at_a_teraohm_normal_resistance(self, tmp_path):
        # it once read 80 times kappa_R at 10 ohm / 1e11, set by the 1 pK floor
        from cavityshift import ModelParams, delta_n_per_ohm

        config = default_run_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BIG_RESISTANCE), encoding="utf-8")
        out = tmp_path / "sens"
        assert main(["sensitivity", "--config", str(path), "--trials", "100",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "sensitivity.json").read_text(encoding="utf-8"))
        kappa_r = delta_n_per_ohm(ModelParams(), config.instrument, config.plan)[0]
        assert payload["delta_n_per_ohm_predicted"] == pytest.approx(kappa_r / 1e11,
                                                                     rel=1e-15)

    def test_null_model_reports_low_z(self, tmp_path):
        config = asdict(default_run_config())
        config["model"]["delta_inf"] = 0.0
        path = tmp_path / "null.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "null_out"
        assert main(["sensitivity", "--config", str(path), "--out", str(out),
                     "--trials", "150"]) == 0
        with open(out / "sensitivity.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["detection_z_mean"] <= 2.0


class TestCalibrateCommand:
    def test_writes_calibration_file(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out), "--trials", "100",
                     "--tolerance", "0.1"]) == 0
        with open(out / "calibration.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["sigma_r_ohm"] > 0
        assert payload["target_delta_n_mK"] == 0.1

    def test_reports_predicted_slope(self, tmp_path):
        from cavityshift import ModelParams, delta_n_per_ohm

        config = default_run_config()
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out), "--trials", "100"]) == 0
        payload = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
        assert payload["delta_n_per_ohm_predicted"] == delta_n_per_ohm(
            ModelParams(), config.instrument, config.plan)[0]
        assert payload["delta_n_floor_mK"] == 0.0

    def test_teraohm_normal_resistance_calibrates(self, tmp_path):
        # its first probe was once set by the 1 pK floor: sigma_R 9.182e7 ohm,
        # a study's delta_n 0.0012 mK against the 0.1 mK target (exit 6)
        from cavityshift import ModelParams, delta_n_per_ohm

        config = default_run_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BIG_RESISTANCE), encoding="utf-8")
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(path), "--trials", "200",
                     "--out", str(out)]) == 0
        sigma_r = json.loads((out / "calibration.json").read_text(
            encoding="utf-8"))["sigma_r_ohm"]
        kappa_r = delta_n_per_ohm(ModelParams(), config.instrument, config.plan)[0]
        assert sigma_r == pytest.approx(1e11 * 0.1 / kappa_r, rel=1e-15)

    def test_plan_with_two_fields_exits_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"fields": [60.0, 70.0]}}),
                          encoding="utf-8")
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 2
        assert ("film fits cover 2 distinct field(s); a delta curve needs 3"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_target_below_the_jitter_floor_exits_calibration(self, tmp_path, capsys,
                                                              monkeypatch):
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sensitivity, "run_paired_experiment", trial)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"temperature_jitter": 5.0}}),
                          encoding="utf-8")
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--target", "0.01",
                     "--trials", "100", "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("calibration error")
        assert "lies below the noise-free floor" in err
        assert not (out / "calibration.json").exists()

    def test_checking_study_whose_every_trial_fails_exits_calibration(self, tmp_path,
                                                                       capsys):
        # at 0.5 mK the 0.1 mK target needs 7.3 ohm of noise on 10 ohm, where
        # every trial fails the plateau rule; this once exited 2, while the
        # same cause with a few trials passing exited 6
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"transition_width": 0.5}}),
                          encoding="utf-8")
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--trials", "200",
                     "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("calibration error: the study at sigma_R = 7.295 ohm: "
                              "every trial failed its fits")
        assert not (out / "calibration.json").exists()

    @pytest.mark.parametrize("command", [["calibrate"]])
    @pytest.mark.parametrize("tolerance", ["-0.1", "nan"])
    def test_tolerance_outside_unit_interval_exits_config(self, tmp_path, capsys,
                                                          command, tolerance):
        out = tmp_path / "cal"
        assert main([*command, "--out", str(out), "--tolerance", tolerance]) == 2
        assert "tolerance must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()


def readme_text():
    return (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def readme_blocks(language):
    """The fenced code blocks of one language in the README."""
    return re.findall(rf"^```{language}\n(.*?)^```", readme_text(), re.M | re.S)


class TestReadmeExamples:
    """The README's examples stay valid as the CLI and config change."""

    def test_every_command_line_parses(self):
        lines = [line for block in readme_blocks("sh") for line in block.splitlines()
                 if line.startswith("cavityshift ")]
        assert len(lines) >= 5
        for line in lines:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])

    def test_cli_block_runs(self, tmp_path, monkeypatch, capsys):
        # every command of the sh block under "## CLI" exits 0, in order,
        # in one directory (about 6 s, most of it the two 500-trial studies)
        cli_section = readme_text().split("\n## CLI\n", 1)[1]
        block = re.search(r"^```sh\n(.*?)^```", cli_section, re.M | re.S).group(1)
        monkeypatch.chdir(tmp_path)
        commands = [argv for line in block.splitlines()
                    if (argv := shlex.split(line, comments=True))]
        assert [argv[0] for argv in commands].count("cavityshift") >= 5
        for argv in commands:
            if argv[0] == "cavityshift":
                assert main(argv[1:]) == 0, argv
                continue
            *command, redirect, path = argv
            assert redirect == ">", argv
            if command[0] == "echo":
                Path(path).write_text(" ".join(command[1:]) + "\n", encoding="utf-8")
            else:
                assert command[:2] == ["python", "-c"], argv
                with open(path, "w", encoding="utf-8") as stdout:
                    assert subprocess.run([sys.executable, *command[1:]],
                                          stdout=stdout).returncode == 0, argv

    def test_config_example_loads(self):
        (block,) = readme_blocks("json")
        run_config_from_dict(json.loads(block))
