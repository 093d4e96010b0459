from __future__ import annotations

import json

import numpy as np
import pytest

from cavityshift.cli import main
from cavityshift.config import (default_run_config, load_run_config,
                                run_config_from_dict, run_config_to_dict)
from cavityshift.errors import ConfigError


def read_model_curves(path):
    rows = {}
    with open(path) as handle:
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


class TestConfigSchema:
    def test_defaults_round_trip(self):
        config = default_run_config()
        rebuilt = run_config_from_dict(run_config_to_dict(config))
        assert rebuilt == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"modle": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"model": {"alpha": 1e-5, "tc": 1.5}})
        # the coil keys went with the coil model: acquisition applies
        # each planned field exactly
        for key, value in (("coil_constant", 3.0), ("current_resolution", 1e-3)):
            with pytest.raises(ConfigError):
                run_config_from_dict({"instrument": {key: value}})

    def test_component_invariants_enforced(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"model": {"alpha": -1.0}})
        with pytest.raises(ConfigError):
            run_config_from_dict({"instrument": {"transition_width": 0.0}})
        with pytest.raises(ConfigError):
            run_config_from_dict({"plan": {"fields": [5.0, 5.0]}})

    def test_seed_validation(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"seed": -1})
        with pytest.raises(ConfigError):
            run_config_from_dict({"seed": 2 ** 64})
        with pytest.raises(ConfigError):
            run_config_from_dict({"seed": "one"})

    def test_top_level_seed_overrides_instrument(self):
        config = run_config_from_dict({"seed": 99, "instrument": {"seed": 5}})
        assert config.instrument.seed == 99

    def test_default_plan_spans_crossover_decade(self):
        config = default_run_config()
        assert config.plan.fields[0] == pytest.approx(50.0)
        assert config.plan.fields[-1] == pytest.approx(250.0)
        assert len(config.plan.fields) == 10

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
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

    def test_bad_range_exits_config(self, tmp_path):
        assert main(["model-curve", "--out", str(tmp_path), "--min-field", "10",
                     "--max-field", "5"]) == 2
        # a non-finite bound or step once escaped as OverflowError/ValueError
        for option, value in (("--max-field", "inf"), ("--step", "nan"),
                              ("--step", "inf")):
            assert main(["model-curve", "--out", str(tmp_path), option, value]) == 2


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
        assert main(["simulate", "--out", str(out), "--noiseless"]) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        captured = capsys.readouterr().out
        assert "Delta =" in captured
        with open(out / "analysis.json") as handle:
            payload = json.load(handle)
        assert payload["fit_failures"] == 0
        diff = np.loadtxt(out / "difference.csv", delimiter=",", skiprows=1)
        from cavityshift import calibrate_defaults, cavity_delta, film_delta
        params = calibrate_defaults()
        expected = np.array([film_delta(params, f) - cavity_delta(params, f)
                             for f in diff[:, 0]])
        assert np.max(np.abs(diff[:, 1] - expected)) <= 1e-3

    def test_fit_entries_carry_curve_flags(self, tmp_path):
        # a floor above the start of the default grid clamps its first points
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"base_temperature": 1.32}}))
        out = tmp_path / "clamped"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        manifest = json.loads((out / "run.json").read_text())
        assert len(payload["fits"]) == len(manifest["curves"]) == 20
        for fit, entry in zip(payload["fits"], manifest["curves"]):
            lines = (out / entry["file"]).read_text().splitlines()
            header = next(line for line in lines if line.startswith("# flags="))
            assert ";".join(fit["flags"]) == header.removeprefix("# flags=")
            assert fit["flags"][0] == "clamped:0"
        assert {"t_star_K", "sigma_t_star_K", "width_mK", "r_n_ohm", "residual_norm",
                "converged", "iterations"} < set(payload["fits"][0])

    def test_analyze_missing_manifest_exits_io(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 4

    def test_analyze_empty_manifest_exits_io(self, tmp_path):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps(
            {"format_version": "1", "config": {}, "curves": []}))
        assert main(["analyze", str(manifest)]) == 4

    def test_non_finite_row_exits_io(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--seed", "3"]) == 0
        path = out / "curve_000_film_rep0.csv"
        lines = path.read_text().splitlines()
        lines[-1] = "nan," + lines[-1].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(out / "run.json")]) == 4
        assert f"line {len(lines)}" in capsys.readouterr().err

    def test_step_function_curve_exits_fit_and_is_listed(self, tmp_path, capsys):
        from cavityshift.instrument import resistive_transition

        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--noiseless"]) == 0
        path = out / "curve_003_cavity_rep0.csv"
        lines = path.read_text().splitlines()
        start = lines.index("temperature_K,resistance_ohm") + 1
        temps = [float(line.split(",")[0]) for line in lines[start:]]
        steps = resistive_transition(np.array(temps), temps[100] + 1e-4, 1.0, 10.0)
        lines[start:] = [f"{t!r},{float(r)!r}" for t, r in zip(temps, steps)]
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(out / "run.json")]) == 5
        assert "analysis.json" in capsys.readouterr().err
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["fit_failures"] == 1
        assert payload["n_curves"] == 20
        assert len(payload["fits"]) == 19
        (failure,) = payload["failed_fits"]
        field = json.loads((out / "run.json").read_text())["curves"][7]["field_gauss"]
        assert failure["field_gauss"] == field
        assert (failure["kind"], failure["repetition"]) == ("cavity", 0)
        assert "below the temperature step" in failure["reason"]
        assert failure["iterations"] > 0
        assert failure["residual_norm_ohm"] > 0

    def test_film_only_dataset_still_analyzed(self, tmp_path, capsys):
        out = tmp_path / "filmonly"
        assert main(["simulate", "--out", str(out), "--noiseless"]) == 0
        manifest = json.loads((out / "run.json").read_text())
        manifest["curves"] = [c for c in manifest["curves"] if c["kind"] == "film"]
        (out / "run.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out / "run.json")]) == 0
        captured = capsys.readouterr().out
        assert "difference step skipped" in captured
        assert (out / "delta_curve_film.csv").exists()
        assert not (out / "difference.csv").exists()

    def test_unpaired_fields_skip_difference(self, tmp_path, capsys):
        out = tmp_path / "unpaired"
        assert main(["simulate", "--out", str(out), "--noiseless"]) == 0
        manifest = json.loads((out / "run.json").read_text())
        first_cavity = next(c for c in manifest["curves"] if c["kind"] == "cavity")
        manifest["curves"].remove(first_cavity)
        (out / "run.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out / "run.json")]) == 0
        assert "cover different fields" in capsys.readouterr().out
        assert (out / "delta_curve_cavity.csv").exists()
        assert not (out / "difference.csv").exists()

    def test_custom_fields_list(self, tmp_path):
        out = tmp_path / "fields"
        assert main(["simulate", "--out", str(out), "--fields", "60,120,180"]) == 0
        assert len(list(out.glob("curve_*.csv"))) == 6

    @pytest.mark.parametrize("key", ["resistance_noise", "normal_resistance",
                                     "transition_width", "base_temperature"])
    def test_non_finite_config_value_exits_config(self, tmp_path, capsys, key):
        # JSON's Infinity once gave curves of inf/NaN resistances (exit 0)
        # or a numpy warning and a message about temperatures
        config = tmp_path / "config.json"
        config.write_text(f'{{"instrument": {{"{key}": Infinity}}}}')
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not out.exists()


class TestSensitivityCommand:
    def test_small_study_writes_report(self, tmp_path):
        out = tmp_path / "sens"
        assert main(["sensitivity", "--out", str(out), "--trials", "100"]) == 0
        with open(out / "sensitivity.json") as handle:
            payload = json.load(handle)
        assert payload["trials"] == 100
        assert payload["valid"] is True
        assert 0.05 <= payload["delta_n_mK"] <= 0.15
        assert "runtime" not in payload  # reports must stay byte-deterministic
        # every curve of every trial: 2 kinds x 10 fields x 100 trials
        assert sum(payload["lm_steps_histogram"]) == 2000
        assert payload["failed_fits_by_reason"] == {}
        contrast = np.loadtxt(out / "contrast.csv", delimiter=",", skiprows=1)
        assert contrast.shape == (10, 4)
        assert contrast[0, 0] == 50.0
        assert contrast[0, 3] == pytest.approx(0.639, abs=0.01)

    def test_byte_identical_reports(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["sensitivity", "--out", str(out), "--trials", "100",
                         "--seed", "5"]) == 0
        assert (out_a / "sensitivity.json").read_bytes() == \
            (out_b / "sensitivity.json").read_bytes()

    @pytest.mark.parametrize("fields, message", [
        ("60,70", "at least 3 fields for its delta curves, got 2"),
        ("10,20,30,40,45", "no field at or above h_v = 50 G")])
    def test_plan_without_a_result_exits_config(self, tmp_path, capsys, fields, message):
        # both once ran trials first: all 100 of them, then "every trial
        # failed its fits", or up to trial 0's significance step
        out = tmp_path / "sens"
        assert main(["sensitivity", "--fields", fields, "--trials", "100",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sensitivity", "--trials", "0", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_null_model_reports_low_z(self, tmp_path):
        config = run_config_to_dict(default_run_config())
        config["model"]["delta_inf"] = 0.0
        path = tmp_path / "null.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "null_out"
        assert main(["sensitivity", "--config", str(path), "--out", str(out),
                     "--trials", "150"]) == 0
        with open(out / "sensitivity.json") as handle:
            payload = json.load(handle)
        assert payload["detection_z_mean"] <= 2.0


class TestCalibrateCommand:
    def test_writes_calibration_file(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out), "--trials", "100",
                     "--tolerance", "0.1"]) == 0
        with open(out / "calibration.json") as handle:
            payload = json.load(handle)
        assert payload["sigma_r_ohm"] > 0
        assert payload["target_delta_n_mK"] == 0.1

    def test_plan_with_two_fields_exits_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"fields": [60.0, 70.0]}}))
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 2
        assert "at least 3 fields" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["calibrate"], ["sensitivity", "--calibrate"]])
    @pytest.mark.parametrize("tolerance", ["-0.1", "nan"])
    def test_tolerance_outside_unit_interval_exits_config(self, tmp_path, capsys,
                                                          command, tolerance):
        out = tmp_path / "cal"
        assert main([*command, "--out", str(out), "--tolerance", tolerance]) == 2
        assert "tolerance must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()
