from __future__ import annotations

import json
import math
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cavityshift import cli, sensitivity
from cavityshift.cli import build_parser, main
from cavityshift.config import (default_run_config, load_run_config,
                                run_config_from_dict)
from cavityshift.errors import InputError
from cavityshift.fileio import write_json


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


#: Fields whose squares underflow to 0, so no regression against H^2
#: can resolve them.
UNDERFLOWING_FIELDS = {"model": {"h_v": 1e-200},
                       "plan": {"fields": [1e-200, 2e-200, 3e-200]}}


def load_strict_json(path):
    """``path`` parsed as strict JSON: a ``NaN`` or ``Infinity`` token raises."""
    def reject(token):
        raise ValueError(f"{path} holds the non-standard JSON token {token}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


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
    assert path.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


def simulate_zero_noise(tmp_path, out):
    """``simulate`` into ``out`` with a config file of the instrument
    without resistance noise or temperature jitter; its exit code."""
    config = tmp_path / "zero_noise.json"
    config.write_text(json.dumps(
        {"instrument": {"resistance_noise": 0.0, "temperature_jitter": 0.0}}))
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
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_run_config(path)
        # a byte that is not UTF-8 once escaped as UnicodeDecodeError
        path.write_bytes(b"\xff{}")
        with pytest.raises(InputError, match="bad.json is not UTF-8 JSON"):
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

    def test_bad_range_exits_config(self, tmp_path):
        assert main(["model-curve", "--out", str(tmp_path), "--min-field", "10",
                     "--max-field", "5"]) == 2
        # a non-finite bound or step once escaped as OverflowError/ValueError
        for option, value in (("--max-field", "inf"), ("--step", "nan"),
                              ("--step", "inf"), ("--step", "1e-300")):
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
        assert simulate_zero_noise(tmp_path, out) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        captured = capsys.readouterr().out
        assert "Delta =" in captured
        with open(out / "analysis.json") as handle:
            payload = json.load(handle)
        assert payload["fit_failures"] == 0
        diff = np.loadtxt(out / "difference.csv", delimiter=",", skiprows=1)
        from cavityshift import ModelParams, cavity_delta, film_delta
        params = ModelParams()
        expected = np.array([film_delta(params, f) - cavity_delta(params, f)
                             for f in diff[:, 0]])
        assert np.max(np.abs(diff[:, 1] - expected)) <= 1e-3

    def test_noiseless_flag_is_retired(self, tmp_path):
        # the config file sets the noise; simulate --noiseless once did too
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--noiseless", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

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
                "iterations"} < set(payload["fits"][0])

    def test_analyze_missing_manifest_exits_io(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 4

    def test_analyze_empty_manifest_exits_io(self, tmp_path):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps(
            {"format_version": "1", "config": {}, "curves": []}))
        assert main(["analyze", str(manifest)]) == 4

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
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        capsys.readouterr()
        assert main(["analyze", str(manifest)]) == 4
        assert message in capsys.readouterr().err

    def test_non_finite_row_exits_io(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--seed", "3"]) == 0
        path = out / "curve_000_film_rep0.csv"
        lines = path.read_text().splitlines()
        lines[-1] = "nan," + lines[-1].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(out / "run.json")]) == 4
        assert f"line {len(lines)}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["field_gauss", "repetition", "oracle_t_star_K"])
    def test_bad_header_value_exits_io_naming_file_and_key(self, tmp_path, capsys, key):
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        path = out / "curve_001_cavity_rep0.csv"
        lines = [f"# {key}=x" if line.startswith(f"# {key}=") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
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
        manifest = json.loads((out / "run.json").read_text())
        for entry in manifest["curves"][2:4]:
            path = out / entry["file"]
            entry["field_gauss"] = value
            lines = [f"# field_gauss={value!r}" if line.startswith("# field_gauss=")
                     else line for line in path.read_text().splitlines()]
            path.write_text("\n".join(lines) + "\n")
        (out / "run.json").write_text(json.dumps(manifest))
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

    @pytest.mark.parametrize("flags, code", [("", 4), ("clamped:1", 0)])
    def test_repeated_temperature_needs_a_clamped_flag(self, tmp_path, capsys,
                                                       flags, code):
        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
        path = out / "curve_000_film_rep0.csv"
        lines = path.read_text().splitlines()
        start = lines.index("temperature_K,resistance_ohm") + 1
        lines[start + 1] = (lines[start].split(",")[0] + ","
                            + lines[start + 1].split(",")[1])
        lines = [f"# flags={flags}" if line.startswith("# flags=") else line
                 for line in lines]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(out / "run.json")]) == code
        if code:
            err = capsys.readouterr().err
            assert str(path) in err and "strictly increasing" in err

    def test_output_directory_that_is_a_file_exits_io(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("")
        assert main(["simulate", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("I/O error")

    # resistances near 1e161 overflow the fit's sums of squares, so that
    # curve's fit may fail with an infinite residual; whatever the exit
    # code, analysis.json must stay strict JSON
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    def test_overflowing_resistances_leave_strict_json(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out)]) == 0
        path = out / "curve_000_film_rep0.csv"
        lines = path.read_text().splitlines()
        start = lines.index("temperature_K,resistance_ohm") + 1
        rows = (line.split(",") for line in lines[start:])
        lines[start:] = [f"{t},{float(r) * 1e160!r}" for t, r in rows]
        path.write_text("\n".join(lines) + "\n")
        main(["analyze", str(out / "run.json")])
        payload = load_strict_json(out / "analysis.json")
        for failure in payload["failed_fits"]:
            for value in (failure["residual_norm_ohm"], *(failure["last_params"] or ())):
                assert value is None or math.isfinite(value)

    def test_step_function_curve_exits_fit_and_is_listed(self, tmp_path, capsys):
        from cavityshift.instrument import resistive_transition

        out = tmp_path / "run"
        assert simulate_zero_noise(tmp_path, out) == 0
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
        # the last LM point: t* (K), width (mK), r_n (ohm)
        t_star, width, r_n = failure["last_params"]
        assert width < max(np.diff(temps)) * 1e3
        assert temps[0] <= t_star <= temps[-1] and r_n > 0

    def test_film_only_dataset_still_analyzed(self, tmp_path, capsys):
        out = tmp_path / "filmonly"
        assert simulate_zero_noise(tmp_path, out) == 0
        manifest = json.loads((out / "run.json").read_text())
        manifest["curves"] = [c for c in manifest["curves"] if c["kind"] == "film"]
        (out / "run.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out / "run.json")]) == 0
        captured = capsys.readouterr().out
        assert "difference step skipped" in captured
        assert (out / "delta_curve_film.csv").exists()
        assert not (out / "difference.csv").exists()

    def test_two_field_dataset_reports_why_difference_skipped(self, tmp_path, capsys):
        # all four fits succeed; the warning once read "no film curves"
        # and analysis.json held no note
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"fields": [50.0, 100.0]}}))
        out = tmp_path / "two"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        captured = capsys.readouterr().out
        assert ("warning: film fits cover 2 distinct field(s); a delta curve needs 3; "
                "difference step skipped") in captured
        payload = json.loads((out / "analysis.json").read_text())
        assert len(payload["fits"]) == 4
        assert payload["notes"] == [
            f"{kind} fits cover 2 distinct field(s); a delta curve needs 3"
            for kind in ("film", "cavity")]
        assert not list(out.glob("delta_curve_*.csv"))

    def test_underflowing_fields_analyzed_without_delta_curves(self, tmp_path, capsys):
        # all six fits succeed; analyze once exited 2 on the rank-deficient
        # Tc regression and wrote no analysis.json
        config = tmp_path / "config.json"
        config.write_text(json.dumps(UNDERFLOWING_FIELDS))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 0
        assert ("warning: film Tc regression is rank deficient (degenerate field "
                "grid); difference step skipped") in capsys.readouterr().out
        payload = json.loads((out / "analysis.json").read_text())
        assert len(payload["fits"]) == 6
        assert payload["notes"] == [
            f"{kind} Tc regression is rank deficient (degenerate field grid)"
            for kind in ("film", "cavity")]
        assert not list(out.glob("delta_curve_*.csv"))

    def test_unpaired_fields_skip_difference(self, tmp_path, capsys):
        out = tmp_path / "unpaired"
        assert simulate_zero_noise(tmp_path, out) == 0
        manifest = json.loads((out / "run.json").read_text())
        first_cavity = next(c for c in manifest["curves"] if c["kind"] == "cavity")
        manifest["curves"].remove(first_cavity)
        (out / "run.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out / "run.json")]) == 0
        assert "cover different fields" in capsys.readouterr().out
        assert (out / "delta_curve_cavity.csv").exists()
        assert not (out / "difference.csv").exists()

    def test_custom_fields_list(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"fields": [60.0, 120.0, 180.0]}}))
        out = tmp_path / "fields"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
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
        assert err.startswith("input error") and key in err
        assert not out.exists()

    def test_section_not_an_object_exits_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"plan": [1, 2]}')
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
        config.write_text(json.dumps({"instrument": {"seed": 5}}))
        from_file, from_flag = tmp_path / "file", tmp_path / "flag"
        assert main(["simulate", "--config", str(config), "--out", str(from_file)]) == 0
        assert main(["simulate", "--seed", "5", "--out", str(from_flag)]) == 0
        names = sorted(p.name for p in from_file.iterdir())
        assert names == sorted(p.name for p in from_flag.iterdir())
        for name in names:
            assert (from_file / name).read_bytes() == (from_flag / name).read_bytes()

    def test_conflicting_seeds_exit_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "instrument": {"seed": 5}}))
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
        config.write_text(json.dumps(data))
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
        config.write_text(json.dumps({"plan": {key: value}}))
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and f"{key} must be an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["model-curve", "simulate", "sensitivity",
                                         "calibrate"])
    @pytest.mark.parametrize("section", [{"plan": {"t_span": 1e-300, "t_center_guess": 1.4}},
                                         {"instrument": {"transition_width": 1e-300}}])
    def test_collapsed_temperature_grid_exits_config(self, tmp_path, capsys, command,
                                                     section):
        # such a plan once failed in the first curve (simulate, sensitivity),
        # in the first fit (calibrate) or not at all (model-curve)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(section))
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and "temperature grid collapses" in err
        assert not out.exists()

    def test_grid_at_the_cryostat_floor_fails_every_fit(self, tmp_path, capsys):
        # every setpoint clamps to 0.3 K; analyze once ended in ZeroDivisionError
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"t_center_guess": 0.1, "t_span": 0.1}}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", str(out / "run.json")]) == 5
        assert "20/20 fits failed" in capsys.readouterr().err
        payload = json.loads((out / "analysis.json").read_text())
        assert {f["reason"] for f in payload["failed_fits"]} == {
            "every temperature is 0.3 K; the curve has no transition to fit"}
        # rejected before fitting: there is no last LM point
        assert all(f["last_params"] is None for f in payload["failed_fits"])

    @pytest.mark.parametrize("command", ["sensitivity", "calibrate"])
    def test_study_at_the_cryostat_floor_exits_config(self, tmp_path, capsys, command):
        # sensitivity once ended in ZeroDivisionError in its first trial
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"t_center_guess": 0.1, "t_span": 0.1}}))
        out = tmp_path / "study"
        assert main([command, "--config", str(config), "--trials", "100",
                     "--out", str(out)]) == 2
        assert ("the temperature grid lies wholly at or below the cryostat floor "
                "base_temperature = 0.3 K") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sensitivity", "calibrate"])
    def test_underflowing_fields_exit_config(self, tmp_path, capsys, command):
        # the closed-form kappa once divided by the zero determinant of the
        # film Tc regression: ZeroDivisionError, exit 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(UNDERFLOWING_FIELDS))
        out = tmp_path / "study"
        assert main([command, "--config", str(config), "--trials", "100",
                     "--out", str(out)]) == 2
        assert "film Tc regression is rank deficient" in capsys.readouterr().err
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
        # the config echo is the one source of sigma_R and the seed
        assert not {"calibrated_sigma_r_ohm", "seed"} & set(payload)
        assert payload["config"]["instrument"]["seed"] == 1
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
        ("10,20,30,40,45", "no field at or above h_v = 50 G"),
        (",", "field list is empty")])
    def test_plan_without_a_result_exits_config(self, tmp_path, capsys, fields, message):
        # the first two once ran trials first: all 100 of them, then "every trial
        # failed its fits", or up to trial 0's significance step
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"plan": {"fields": [float(f) for f in fields.split(",") if f]}}))
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
        config.write_text(json.dumps({"plan": {"t_center_guess": 0.35, "t_span": 0.2}}))
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
            "plan": {"n_points": 39}, "seed": 3493288461}))
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
            "plan": {"n_points": 40}}))
        run, sens = tmp_path / "run", tmp_path / "sens"
        assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
        assert main(["sensitivity", "--config", str(config), "--trials", "100",
                     "--out", str(sens)]) == 0
        assert "INVALID: too many failed trials" in capsys.readouterr().out
        payload = json.loads((sens / "sensitivity.json").read_text())
        assert payload["trials"] == 100
        assert 1 < payload["failed_trials"] < 100
        assert payload["valid"] is False

    def test_closed_form_kappa_once_per_study(self, tmp_path, monkeypatch):
        # the study check's kappa is the first probe and the reported
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
        assert len(studies) == 1  # the first probe is within tolerance
        # calibrate_noise's check, the probe study's check and the report
        assert len(calls) == 3

    def test_calibrated_study_takes_sigma_r_from_the_config(self, tmp_path):
        # calibrate, then a study whose config carries the calibrated
        # sigma_R: the JSON number round-trips exactly
        sens, cal = tmp_path / "sens", tmp_path / "cal"
        assert main(["calibrate", "--trials", "200", "--seed", "3",
                     "--out", str(cal)]) == 0
        sigma_r = json.loads((cal / "calibration.json").read_text())["sigma_r_ohm"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"resistance_noise": sigma_r}}))
        assert main(["sensitivity", "--config", str(config), "--trials", "100",
                     "--seed", "3", "--out", str(sens)]) == 0
        report = json.loads((sens / "sensitivity.json").read_text())
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
        payload = json.loads((out / "sensitivity.json").read_text())
        assert 0 < payload["delta_n_se"] < 0.1 * payload["delta_n_mK"]
        assert 0 < payload["detection_z_se"] < 0.2
        kappa = payload["delta_n_per_ohm_predicted"]
        sigma_r = payload["config"]["instrument"]["resistance_noise"]
        assert kappa * sigma_r == pytest.approx(payload["delta_n_mK"], rel=0.05)

    def test_null_model_reports_low_z(self, tmp_path):
        config = asdict(default_run_config())
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

    def test_reports_predicted_slope(self, tmp_path):
        from cavityshift import ModelParams, delta_n_per_ohm

        config = default_run_config()
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out), "--trials", "100"]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["delta_n_per_ohm_predicted"] == delta_n_per_ohm(
            ModelParams(), config.instrument, config.plan)

    def test_plan_with_two_fields_exits_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plan": {"fields": [60.0, 70.0]}}))
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 2
        assert "at least 3 fields" in capsys.readouterr().err
        assert not out.exists()

    def test_target_below_the_jitter_floor_exits_calibration(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instrument": {"temperature_jitter": 5.0}}))
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--target", "0.01",
                     "--trials", "100", "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("calibration error")
        assert "lies below the noise-free floor" in err
        assert not (out / "calibration.json").exists()

    @pytest.mark.parametrize("command", [["calibrate"]])
    @pytest.mark.parametrize("tolerance", ["-0.1", "nan"])
    def test_tolerance_outside_unit_interval_exits_config(self, tmp_path, capsys,
                                                          command, tolerance):
        out = tmp_path / "cal"
        assert main([*command, "--out", str(out), "--tolerance", tolerance]) == 2
        assert "tolerance must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()


def readme_blocks(language):
    """The fenced code blocks of one language in the README."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


class TestReadmeExamples:
    """The README's examples stay valid as the CLI and config change."""

    def test_every_command_line_parses(self):
        lines = [line for block in readme_blocks("sh") for line in block.splitlines()
                 if line.startswith("cavityshift ")]
        assert len(lines) >= 5
        for line in lines:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])

    def test_config_example_loads(self):
        (block,) = readme_blocks("json")
        run_config_from_dict(json.loads(block))
