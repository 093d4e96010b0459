from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from cavityshift import (InputError, InstrumentConfig, SweepPlan,
                         acquire_curve, calibrate_defaults, cavity_delta,
                         film_delta, plan_sweep, read_run,
                         run_paired_experiment, write_run)
from cavityshift.protocol import (TransitionCurve, read_curve_csv,
                                  temperature_grid, write_curve_csv)


@pytest.fixture(scope="module")
def params():
    return calibrate_defaults()


@pytest.fixture
def quiet():
    return InstrumentConfig(resistance_noise=0.0, temperature_jitter=0.0)


@pytest.fixture
def noisy():
    return InstrumentConfig(seed=77)


def half_crossing(curve, r_n):
    """Linear interpolation of the R = r_n/2 crossing temperature."""
    r = curve.resistances
    above = np.nonzero(r >= 0.5 * r_n)[0][0]
    t0, t1 = curve.temperatures[above - 1], curve.temperatures[above]
    r0, r1 = r[above - 1], r[above]
    return t0 + (0.5 * r_n - r0) * (t1 - t0) / (r1 - r0)


class TestPlan:
    def test_span_is_eight_widths(self, params, quiet):
        plan = plan_sweep(params, quiet, [150.0])
        assert plan.t_span == pytest.approx(0.4, rel=1e-12)
        assert plan.t_center_guess == pytest.approx(
            params.t_c - 0.5 * film_delta(params, 150.0) * 1e-3, rel=1e-12)
        assert plan.n_points == 200

    def test_zero_field_centers_on_t_c(self, params, quiet):
        plan = plan_sweep(params, quiet, [0.0])
        assert plan.t_center_guess == pytest.approx(params.t_c, rel=1e-12)

    def test_empty_fields_rejected(self, params, quiet):
        with pytest.raises(InputError):
            plan_sweep(params, quiet, [])

    def test_plan_invariants(self):
        with pytest.raises(InputError):
            SweepPlan(fields=(10.0, 5.0), t_center_guess=1.5, t_span=0.4)
        with pytest.raises(InputError):
            SweepPlan(fields=(-1.0,), t_center_guess=1.5, t_span=0.4)
        with pytest.raises(InputError):
            SweepPlan(fields=(10.0,), t_center_guess=1.5, t_span=0.4, n_points=10)
        with pytest.raises(InputError):
            SweepPlan(fields=(10.0,), t_center_guess=1.5, t_span=-0.1)
        for value in (math.inf, math.nan):
            with pytest.raises(InputError, match="fields"):
                SweepPlan(fields=(10.0, value), t_center_guess=1.5, t_span=0.4)
            with pytest.raises(InputError, match="t_center_guess"):
                SweepPlan(fields=(10.0,), t_center_guess=value, t_span=0.4)
            with pytest.raises(InputError, match="t_span"):
                SweepPlan(fields=(10.0,), t_center_guess=1.5, t_span=value)

    def test_plan_covers_all_transitions(self, params, quiet):
        plan = plan_sweep(params, quiet, [50.0, 100.0, 150.0])
        grid = temperature_grid(plan)
        margin = 0.1 * plan.t_span
        for field in plan.fields:
            t_star = params.t_c - film_delta(params, field) * 1e-3
            assert grid[0] + margin <= t_star <= grid[-1] - margin


class TestAcquire:
    def test_noiseless_zero_field_crossing_at_t_c(self, params, quiet):
        plan = plan_sweep(params, quiet, [0.0])
        curve = acquire_curve(params, quiet, plan, 0.0, "film")
        crossing = half_crossing(curve, quiet.normal_resistance)
        assert crossing == pytest.approx(params.t_c, abs=2e-6)

    def test_noiseless_cavity_crossing_at_depressed_midpoint(self, params, quiet):
        plan = plan_sweep(params, quiet, [150.0])
        curve = acquire_curve(params, quiet, plan, 150.0, "cavity")
        expected = params.t_c - cavity_delta(params, 150.0) * 1e-3
        assert half_crossing(curve, quiet.normal_resistance) == pytest.approx(
            expected, abs=2e-6)
        assert curve.oracle_t_star == pytest.approx(expected, rel=1e-15)

    def test_determinism(self, params, noisy):
        plan = plan_sweep(params, noisy, [150.0])
        a = acquire_curve(params, noisy, plan, 150.0, "film")
        b = acquire_curve(params, noisy, plan, 150.0, "film")
        assert np.array_equal(a.resistances, b.resistances)
        assert np.array_equal(a.temperatures, b.temperatures)

    def test_field_not_in_plan_rejected(self, params, quiet):
        plan = plan_sweep(params, quiet, [100.0])
        with pytest.raises(InputError):
            acquire_curve(params, quiet, plan, 99.0, "film")

    def test_base_temperature_floor(self, params, noisy):
        plan = SweepPlan(fields=(50.0,), t_center_guess=0.35, t_span=0.4)
        curve = acquire_curve(params, noisy, plan, 50.0, "film")
        assert np.all(curve.temperatures >= noisy.base_temperature)
        assert any(f.startswith("clamped") for f in curve.flags)

    def test_clamped_setpoints_shared_per_plan_and_floor(self, params, noisy):
        plan = SweepPlan(fields=(50.0, 100.0), t_center_guess=0.35, t_span=0.4)
        grid = temperature_grid(plan)
        a = acquire_curve(params, noisy, plan, 50.0, "film")
        b = acquire_curve(params, noisy, plan, 100.0, "cavity", substream_prefix=(3,))
        expected = np.maximum(grid, noisy.base_temperature)
        clamped = [f"clamped:{i}" for i in np.nonzero(grid < noisy.base_temperature)[0]]
        assert clamped
        for curve in (a, b):
            assert curve.temperatures.tobytes() == expected.tobytes()
            assert [f for f in curve.flags if f.startswith("clamped")] == clamped
        with pytest.raises(ValueError):
            a.temperatures[0] = 1.0
        # a config that differs only in its floor gets its own setpoints
        lower = replace(noisy, base_temperature=0.1)
        c = acquire_curve(params, lower, plan, 50.0, "film")
        assert c.temperatures.tobytes() == grid.tobytes()
        assert not any(f.startswith("clamped") for f in c.flags)
        assert a.temperatures.tobytes() == expected.tobytes()

    def test_coverage_flag(self, params, quiet):
        plan = SweepPlan(fields=(150.0,), t_center_guess=1.80, t_span=0.4)
        curve = acquire_curve(params, quiet, plan, 150.0, "film")
        assert "midpoint-outside-central-80pct" in curve.flags


class TestPairedExperiment:
    def test_two_curves_per_field(self, params, noisy):
        fields = np.linspace(50, 250, 10)
        plan = plan_sweep(params, noisy, fields)
        curves = run_paired_experiment(params, noisy, plan)
        assert len(curves) == 20

    def test_repetition_counting_and_distinct_substreams(self, params, noisy):
        plan = plan_sweep(params, noisy, np.linspace(50, 250, 5))
        plan = SweepPlan(fields=plan.fields, t_center_guess=plan.t_center_guess,
                         t_span=plan.t_span, repetitions=3)
        curves = run_paired_experiment(params, noisy, plan)
        assert len(curves) == 30
        assert len({c.seed_path for c in curves}) == 30

    def test_pairing_shares_bit_identical_fields(self, params, noisy):
        plan = plan_sweep(params, noisy, np.linspace(50, 250, 10))
        curves = run_paired_experiment(params, noisy, plan)
        by_field = {}
        for curve in curves:
            by_field.setdefault(curve.field, set()).add(curve.kind)
        assert all(kinds == {"film", "cavity"} for kinds in by_field.values())

    def test_dataset_is_pure_function_of_inputs(self, params, noisy):
        plan = plan_sweep(params, noisy, [50.0, 150.0])
        first = run_paired_experiment(params, noisy, plan)
        second = run_paired_experiment(params, noisy, plan)
        for a, b in zip(first, second):
            assert np.array_equal(a.resistances, b.resistances)

    def test_substream_prefix_changes_noise(self, params, noisy):
        plan = plan_sweep(params, noisy, [150.0])
        a = run_paired_experiment(params, noisy, plan, substream_prefix=(0,))
        b = run_paired_experiment(params, noisy, plan, substream_prefix=(1,))
        assert not np.array_equal(a[0].resistances, b[0].resistances)


class TestRunFiles:
    def test_curve_csv_round_trip_bit_exact(self, params, noisy, tmp_path):
        plan = plan_sweep(params, noisy, [150.0])
        curve = acquire_curve(params, noisy, plan, 150.0, "cavity")
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        loaded = read_curve_csv(path)
        assert loaded.field == curve.field
        assert loaded.kind == curve.kind
        assert loaded.seed_path == curve.seed_path
        assert loaded.flags == curve.flags
        assert loaded.oracle_t_star == curve.oracle_t_star
        assert np.array_equal(loaded.temperatures, curve.temperatures)
        assert np.array_equal(loaded.resistances, curve.resistances)

    def test_run_round_trip(self, params, noisy, tmp_path):
        plan = plan_sweep(params, noisy, [50.0, 150.0])
        curves = run_paired_experiment(params, noisy, plan)
        config = {"seed": noisy.seed, "note": "round-trip"}
        manifest = write_run(tmp_path / "run", curves, config)
        loaded, loaded_config = read_run(manifest)
        assert loaded_config == config
        assert len(loaded) == len(curves)
        for a, b in zip(loaded, curves):
            assert a.field == b.field and a.kind == b.kind
            assert np.array_equal(a.resistances, b.resistances)

    def test_written_files_count(self, params, noisy, tmp_path):
        plan = plan_sweep(params, noisy, np.linspace(50, 250, 10))
        curves = run_paired_experiment(params, noisy, plan)
        write_run(tmp_path / "run", curves, {})
        assert len(list((tmp_path / "run").glob("curve_*.csv"))) == 20


class TestRunFileValidation:
    """read_run rejects curve files with bad rows or that disagree with
    the manifest, naming the file (and the line of a bad row)."""

    @pytest.fixture
    def run(self, params, tmp_path):
        cfg = InstrumentConfig(seed=3)
        plan = plan_sweep(params, cfg, [50.0, 150.0])
        manifest = write_run(tmp_path / "run", run_paired_experiment(params, cfg, plan), {})
        return manifest, tmp_path / "run" / "curve_000_film_rep0.csv"

    @staticmethod
    def replace_line(path, index, text):
        lines = path.read_text().splitlines()
        lines[index] = text
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("row", ["nan,3.0", "1.5,inf", "1.5", "1.5,3.0,4.0",
                                     "1.5;3.0", "T,R"])
    def test_bad_row_rejected_with_its_line(self, run, row):
        manifest, path = run
        lines = path.read_text().splitlines()
        index = len(lines) - 5
        self.replace_line(path, index, row)
        with pytest.raises(InputError, match=rf"{path.name}, line {index + 1}:"):
            read_run(manifest)

    def test_invalid_kind_rejected_with_its_file(self, run):
        manifest, path = run
        index = path.read_text().splitlines().index("# kind=film")
        self.replace_line(path, index, "# kind=foo")
        with pytest.raises(InputError, match=rf"{path.name}: kind must be 'film' or 'cavity'"):
            read_run(manifest)

    def test_swapped_rows_rejected_with_their_file(self, run):
        manifest, path = run
        lines = path.read_text().splitlines()
        index = len(lines) - 5
        lines[index - 1], lines[index] = lines[index], lines[index - 1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError,
                           match=rf"{path.name}: temperatures must be finite and nondecreasing"):
            read_run(manifest)

    def test_missing_row_rejected(self, run):
        manifest, path = run
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(InputError, match="n_points is 199 in the file but 200"):
            read_run(manifest)

    @pytest.mark.parametrize("line, key", [("# field_gauss=51.0", "field_gauss"),
                                           ("# kind=cavity", "kind"),
                                           ("# repetition=1", "repetition")])
    def test_header_disagreeing_with_manifest_rejected(self, run, line, key):
        manifest, path = run
        index = next(i for i, text in enumerate(path.read_text().splitlines())
                     if text.startswith(f"# {key}="))
        self.replace_line(path, index, line)
        with pytest.raises(InputError, match=rf"{path.name}: {key} is .* in the manifest"):
            read_run(manifest)


class TestCurveValidation:
    def test_nonincreasing_temperatures_rejected(self):
        with pytest.raises(InputError):
            TransitionCurve(field=10.0, kind="film",
                            temperatures=np.array([1.0, 0.9, 1.1]),
                            resistances=np.zeros(3))

    @pytest.mark.parametrize("index, value", [(100, np.nan), (-1, np.inf), (0, -np.inf)])
    def test_non_finite_temperature_rejected(self, index, value):
        t = np.linspace(1.3, 1.7, 200)
        t[index] = value
        with pytest.raises(InputError, match="finite and nondecreasing"):
            TransitionCurve(field=10.0, kind="film", temperatures=t,
                            resistances=np.zeros(200))

    def test_duplicate_temperatures_allowed_when_clamped(self):
        TransitionCurve(field=10.0, kind="film",
                        temperatures=np.array([0.3, 0.3, 0.31]),
                        resistances=np.zeros(3), flags=("clamped:0",))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            TransitionCurve(field=10.0, kind="film",
                            temperatures=np.linspace(1, 2, 5),
                            resistances=np.zeros(4))
