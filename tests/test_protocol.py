from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityshift import (InputError, InstrumentConfig, ModelParams, SweepPlan,
                         acquire_curve, cavity_delta,
                         film_delta, plan_sweep, read_run,
                         run_paired_experiment, write_run)
from cavityshift import instrument, protocol
from cavityshift.config import default_run_config, run_config_from_dict
from cavityshift.instrument import measure_profile, noise_stream, resistive_transition
from cavityshift.protocol import (KIND_CODES, TransitionCurve, curve_filename,
                                  plan_table, read_curve_csv, temperature_grid)


@pytest.fixture(scope="module")
def params():
    return ModelParams()


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

    def test_narrow_span_covers_the_fields_spread(self, params, quiet):
        # 1.25 delta_max + 2 w, wider than eight 0.25 mK widths on these fields
        narrow = replace(quiet, transition_width=0.25)
        plan = plan_sweep(params, narrow, [50.0, 250.0])
        deepest = film_delta(params, 250.0)
        assert plan.t_span == (1.25 * deepest + 2.0 * 0.25) * 1e-3 > 8 * 0.25e-3

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
        # np.linspace and range once raised TypeError on a float size, and
        # True was read as 1
        for key in ("n_points", "repetitions"):
            for value in (200.0, 1.5, True, "200", None):
                with pytest.raises(InputError, match=f"{key} must be an integer"):
                    SweepPlan(fields=(10.0,), t_center_guess=1.5, t_span=0.4,
                              **{key: value})

    @pytest.mark.parametrize("value", [True, False, None, "1.5", [1.0], 10 ** 400],
                             ids=["true", "false", "none", "string", "list", "huge-int"])
    def test_every_number_setting_refuses_a_wrong_type(self, params, quiet, value):
        # true once ran as 1, and a 400-digit integer escaped as OverflowError
        with pytest.raises(InputError, match="alpha must "):
            ModelParams(alpha=value)
        with pytest.raises(InputError, match="temperature_jitter must "):
            InstrumentConfig(temperature_jitter=value)
        with pytest.raises(InputError, match="t_span must "):
            SweepPlan(fields=(10.0,), t_center_guess=1.5, t_span=value)
        for make in (lambda fields: SweepPlan(fields=fields, t_center_guess=1.5,
                                              t_span=0.4),
                     lambda fields: plan_sweep(params, quiet, fields)):
            with pytest.raises(InputError, match=r"fields\[1\] must "):
                make([10.0, value])

    @pytest.mark.parametrize("n_points", [2 ** 62, 2 ** 63, 10 ** 300])
    def test_grid_beyond_an_array_raises(self, n_points):
        # the plan-size rule refuses each before np.linspace is asked; 2**63
        # once escaped as IndexError and the others named no key
        with pytest.raises(InputError, match=f"n_points={n_points}$"):
            SweepPlan(fields=(10.0,), t_center_guess=1.5, t_span=0.4, n_points=n_points)

    def test_plan_size_is_bounded(self):
        # 1000 fields x 2 kinds x 2500 repetitions x 20 points is the limit
        # of 1e8 samples, and one more of any setting is past it; each plan
        # is only constructed, which builds its 20-point grid and no curve.
        # repetitions = 1e300 once acquired curves without end, and
        # n_points = 1e10 asked np.linspace for 80 GB
        limit = SweepPlan(fields=np.arange(1.0, 1001.0), t_center_guess=1.5,
                          t_span=0.4, n_points=20, repetitions=2500)
        assert (len(limit.fields) * 2 * limit.repetitions * limit.n_points
                == protocol.MAX_PLAN_SAMPLES)
        for past in ({"fields": (*limit.fields, 1001.0)}, {"repetitions": 2501},
                     {"n_points": 21}, {"repetitions": 10 ** 300}, {"n_points": 10 ** 10}):
            with pytest.raises(InputError, match=r"more than 1e\+08 samples: "
                               r"\d+ field\(s\) x 2 kinds x repetitions=\d+ "
                               r"x n_points=\d+$"):
                replace(limit, **past)

    def test_field_list_rule_is_shared(self, params, quiet):
        for make in (lambda fields: SweepPlan(fields=fields, t_center_guess=1.5,
                                              t_span=0.4),
                     lambda fields: plan_sweep(params, quiet, fields)):
            with pytest.raises(InputError, match="field list is empty"):
                make([])
            for fields in (50.0, "50", None):
                with pytest.raises(InputError, match="fields must be a list of numbers"):
                    make(fields)

    def test_numpy_numbers_are_settings(self, params, quiet):
        assert ModelParams(t_c=np.float32(1.5), h_v=np.int64(50)).delta_v == params.delta_v
        assert InstrumentConfig(resistance_noise=np.float64(0.0)) == quiet
        plan = plan_sweep(params, quiet, np.linspace(50.0, 250.0, 5))
        assert plan.fields == (50.0, 100.0, 150.0, 200.0, 250.0)
        assert all(type(f) is float for f in plan.fields)
        assert SweepPlan(fields=np.array(plan.fields), t_center_guess=np.float64(1.5),
                         t_span=plan.t_span).fields == plan.fields

    def test_one_derivation_for_the_api_and_a_config(self, params, quiet):
        # the loader builds its plan section with plan_sweep: each missing
        # value is derived, each given one kept, and the default fields are
        # ten spanning [h_v, 5*h_v]
        config = default_run_config()
        assert plan_sweep(config.model, config.instrument) == config.plan
        assert config.plan.fields[0] == params.h_v and config.plan.fields[-1] == 250.0
        given = {"t_center_guess": 1.2, "t_span": 0.3, "n_points": 40, "repetitions": 2}
        plan = plan_sweep(params, quiet, [50.0, 100.0], **given)
        assert plan == SweepPlan(fields=(50.0, 100.0), **given)
        assert plan == run_config_from_dict(
            {"plan": {"fields": [50.0, 100.0], **given}}).plan
        assert plan_sweep(params, quiet, n_points=40) == replace(config.plan, n_points=40)

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

    def test_noiseless_cavity_crossing_at_depressed_midpoint(self, params, quiet,
                                                               table_of):
        plan = plan_sweep(params, quiet, [150.0])
        curve = acquire_curve(params, quiet, plan, 150.0, "cavity")
        expected = params.t_c - cavity_delta(params, 150.0) * 1e-3
        assert half_crossing(curve, quiet.normal_resistance) == pytest.approx(
            expected, abs=2e-6)
        assert table_of(params, quiet, plan).t_stars["cavity"][0] == pytest.approx(
            expected, rel=1e-15)

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

    @pytest.mark.parametrize("repetition", [-1, 1, 2])
    def test_repetition_outside_the_plan_rejected(self, params, quiet, repetition):
        plan = plan_sweep(params, quiet, [100.0])
        with pytest.raises(InputError, match=f"^repetition {repetition} outside "
                                             f"plan range$"):
            acquire_curve(params, quiet, plan, 100.0, "film", repetition)

    @pytest.mark.parametrize("repetition", [0.5, 0.0, np.float64(1.0), "0", None, True])
    def test_repetition_that_is_not_an_integer_rejected(self, params, noisy, repetition):
        # 0.5 once gave a curve labelled 0.5 carrying repetition 0's noise,
        # and "0" and None escaped as a bare TypeError from the range check
        plan = plan_sweep(params, noisy, [100.0], repetitions=2)
        with pytest.raises(InputError) as excinfo:
            acquire_curve(params, noisy, plan, 100.0, "film", repetition)
        assert str(excinfo.value) == f"repetition must be an integer, got {repetition!r}"

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

    def test_repetition_counting_and_distinct_substreams(self, params, noisy, table_of):
        plan = plan_sweep(params, noisy, np.linspace(50, 250, 5))
        plan = SweepPlan(fields=plan.fields, t_center_guess=plan.t_center_guess,
                         t_span=plan.t_span, repetitions=3)
        curves = run_paired_experiment(params, noisy, plan)
        assert len(curves) == 30
        profiles = table_of(params, noisy, plan).profiles
        noise = {(c.resistances - profiles[c.kind][plan.fields.index(c.field)]).tobytes()
                 for c in curves}
        assert len(noise) == 30

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
        write_run(tmp_path, [curve], {})
        loaded = read_curve_csv(tmp_path / curve_filename(0, "cavity", 0))
        assert loaded.field == curve.field
        assert loaded.kind == curve.kind
        assert loaded.repetition == curve.repetition
        assert loaded.flags == curve.flags
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

    def test_unwritable_flag_rejected_with_its_file(self, params, noisy, tmp_path):
        # a lone surrogate has no UTF-8 text; it once escaped as UnicodeEncodeError
        plan = plan_sweep(params, noisy, [150.0])
        curve = acquire_curve(params, noisy, plan, 150.0, "film")
        curve.flags = ("\ud800",)
        with pytest.raises(InputError, match="could not write .*curve_000_film_rep0.csv"):
            write_run(tmp_path, [curve], {})
        assert list(tmp_path.iterdir()) == []

    def test_written_files_count(self, params, noisy, tmp_path):
        plan = plan_sweep(params, noisy, np.linspace(50, 250, 10))
        curves = run_paired_experiment(params, noisy, plan)
        write_run(tmp_path / "run", curves, {})
        assert len(list((tmp_path / "run").glob("curve_*.csv"))) == 20

    @pytest.mark.parametrize("jitter", [0.0, 2.0])
    def test_written_curve_rederived_from_its_substream(self, params, table_of, tmp_path,
                                                        jitter):
        # a curve's provenance is its config seed, the field index of its
        # file name, its kind and its repetition, and its true midpoint
        # and noiseless readout are the plan table's
        cfg = InstrumentConfig(seed=77, temperature_jitter=jitter)
        plan = replace(plan_sweep(params, cfg, [50.0, 150.0]), repetitions=2)
        manifest = write_run(tmp_path, run_paired_experiment(params, cfg, plan), {})
        table = table_of(params, cfg, plan)
        curves, _ = read_run(manifest)
        entries = json.loads(manifest.read_text(encoding="utf-8"))["curves"]
        for curve, entry in zip(curves, entries, strict=True):
            index = int(entry["file"].split("_")[1])
            expected = measure_profile(
                cfg, table.setpoints, table.t_stars[curve.kind][index],
                table.profiles[curve.kind][index],
                noise_stream(cfg.seed, index, KIND_CODES[curve.kind], curve.repetition))
            assert curve.field == plan.fields[index]
            assert curve.resistances.tobytes() == expected.tobytes()

    def test_retired_header_keys_read_to_the_same_curve(self, params, noisy, tmp_path):
        # files written before the header shrank to four keys still carry
        # format_version, seed_path and oracle_t_star_K; the reader skips them
        plan = plan_sweep(params, noisy, [150.0])
        write_run(tmp_path, [acquire_curve(params, noisy, plan, 150.0, "cavity")], {})
        path = tmp_path / curve_filename(0, "cavity", 0)
        current = read_curve_csv(path)
        path.write_text("# format_version=1\n# seed_path=0/1/0\n"
                        "# oracle_t_star_K=1.4998\n" + path.read_text(encoding="utf-8"),
                        encoding="utf-8")
        legacy = read_curve_csv(path)
        for name in ("field", "kind", "repetition", "flags"):
            assert getattr(legacy, name) == getattr(current, name)
        assert legacy.temperatures.tobytes() == current.temperatures.tobytes()
        assert legacy.resistances.tobytes() == current.resistances.tobytes()


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
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[index] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("row", ["nan,3.0", "1.5,inf", "1.5", "1.5,3.0,4.0",
                                     "1.5;3.0", "T,R"])
    def test_bad_row_rejected_with_its_line(self, run, row):
        manifest, path = run
        lines = path.read_text(encoding="utf-8").splitlines()
        index = len(lines) - 5
        self.replace_line(path, index, row)
        with pytest.raises(InputError, match=rf"{path.name}, line {index + 1}:"):
            read_run(manifest)

    def test_invalid_kind_rejected_with_its_file(self, run):
        manifest, path = run
        index = path.read_text(encoding="utf-8").splitlines().index("# kind=film")
        self.replace_line(path, index, "# kind=foo")
        with pytest.raises(InputError, match=rf"{path.name}: kind must be 'film' or 'cavity'"):
            read_run(manifest)

    def test_swapped_rows_rejected_with_their_file(self, run):
        manifest, path = run
        lines = path.read_text(encoding="utf-8").splitlines()
        index = len(lines) - 5
        lines[index - 1], lines[index] = lines[index], lines[index - 1]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InputError,
                           match=rf"{path.name}: temperatures must be finite and nondecreasing"):
            read_run(manifest)

    def test_missing_row_rejected(self, run):
        manifest, path = run
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(InputError, match="n_points is 199 in the file but 200"):
            read_run(manifest)

    @pytest.mark.parametrize("line, key", [("# field_gauss=51.0", "field_gauss"),
                                           ("# kind=cavity", "kind"),
                                           ("# repetition=1", "repetition")])
    def test_header_disagreeing_with_manifest_rejected(self, run, line, key):
        manifest, path = run
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, text in enumerate(lines) if text.startswith(f"# {key}="))
        self.replace_line(path, index, line)
        with pytest.raises(InputError, match=rf"{path.name}: {key} is .* in the manifest"):
            read_run(manifest)

    @pytest.mark.parametrize("value", ["-50.0", "inf", "nan"])
    def test_field_outside_the_plan_domain_rejected_with_its_file(self, run, value):
        # an infinite field once failed only in the regression, naming no file
        manifest, path = run
        index = path.read_text(encoding="utf-8").splitlines().index("# field_gauss=50.0")
        self.replace_line(path, index, f"# field_gauss={value}")
        with pytest.raises(InputError, match=rf"{path.name}: header field_gauss='{value}' "
                                             rf"must be finite and nonnegative"):
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

    @pytest.mark.parametrize("temperatures", [[-1e308, 1e308], [math.inf, math.inf],
                                              [-1e308, 0.0, 1e308], [0.0, math.inf, 1.0]])
    def test_grid_without_a_finite_span_rejected_without_a_warning(self, temperatures):
        # a step past the float range once warned "overflow", and inf - inf
        # "invalid value", before the curve was refused
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InputError, match="finite and nondecreasing"):
                TransitionCurve(field=10.0, kind="film", temperatures=temperatures,
                                resistances=np.zeros(len(temperatures)))

    def test_curve_file_of_an_overflowing_grid_rejected_without_a_warning(self, tmp_path):
        # under -W error::RuntimeWarning, analyze of such a run once exited 1, not 4
        path = tmp_path / "curve.csv"
        path.write_text("# field_gauss=50.0\n# kind=film\ntemperature_K,resistance_ohm\n"
                        "-1e308,0.0\n1e308,1.0\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InputError, match="temperatures must be finite") as excinfo:
                read_curve_csv(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_duplicate_temperatures_allowed_when_clamped(self):
        TransitionCurve(field=10.0, kind="film",
                        temperatures=np.array([0.3, 0.3, 0.31]),
                        resistances=np.zeros(3), flags=("clamped:0",))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            TransitionCurve(field=10.0, kind="film",
                            temperatures=np.linspace(1, 2, 5),
                            resistances=np.zeros(4))


def reference_grid_check(temperatures, flags):
    """TransitionCurve's grid rules as they were before the clamped flags
    were read only for a sweep with a zero step, in Python floats (which
    never warn), and with the rule that the span is finite."""
    t = temperatures.tolist()
    steps = np.array([b - a for a, b in zip(t, t[1:])])
    smallest = float(steps.min(initial=math.inf))
    if not (0.0 <= smallest and steps.max(initial=0.0) < math.inf
            and (len(t) < 2 or math.isfinite(t[-1] - t[0]))):
        raise InputError("temperatures must be finite and nondecreasing")
    clamped = any(f.startswith("clamped") for f in flags)
    if not clamped and smallest <= 0:
        raise InputError("temperatures must be strictly increasing")


def grid_outcome(check, temperatures, flags):
    try:
        check(temperatures, flags)
    except InputError as exc:
        return str(exc)
    return None


class TestGridCheckMatchesReference:
    @settings(deadline=None, max_examples=300)
    @given(temperatures=st.lists(st.one_of(
               st.sampled_from([0.3, 1.5, 0.0, -0.0, math.inf, -math.inf, math.nan]),
               st.floats(allow_nan=True, allow_infinity=True)), max_size=8),
           flags=st.lists(st.sampled_from(["clamped:0", "midpoint-outside-central-80pct"]),
                          max_size=2).map(tuple),
           increasing=st.booleans())
    def test_any_grid(self, temperatures, flags, increasing):
        t = np.array(sorted(temperatures, key=lambda x: (math.isnan(x), x))
                     if increasing else temperatures, dtype=float)
        # inf - inf and a step past the float range once warned here
        got = grid_outcome(lambda t, flags: TransitionCurve(
            field=0.0, kind="film", temperatures=t, resistances=np.zeros(t.size),
            flags=flags), t, flags)
        assert got == grid_outcome(reference_grid_check, t, flags)


class TestCollapsedGrid:
    @pytest.mark.parametrize("center, span", [(1.4, 1e-300), (1e3, 1e-12), (1.4, 1e-14)])
    def test_plan_without_distinct_temperatures_rejected(self, center, span):
        # such a plan once failed inside the first curve, or in a fit
        with pytest.raises(InputError, match="t_span.*t_center_guess.*n_points"):
            SweepPlan(fields=(10.0,), t_center_guess=center, t_span=span)

    def test_derived_plan_of_a_sub_resolution_width_rejected(self):
        # eight 1 pK widths are finer than the float spacing at 1000 K; at a
        # field of 0 no depression widens the span
        narrow = InstrumentConfig(transition_width=1e-9)
        with pytest.raises(InputError, match="temperature grid collapses"):
            plan_sweep(ModelParams(t_c=1000.0), narrow, [0.0])

    def test_narrow_distinct_grid_accepted(self):
        plan = SweepPlan(fields=(10.0,), t_center_guess=1.0, t_span=1e-12)
        assert (np.diff(temperature_grid(plan)) > 0).all()


class TestProfileCache:
    def test_repeated_dataset_computes_no_transition(self, params, noisy, monkeypatch):
        # a plan with hundreds of curves computes one (fields, setpoints)
        # profile array per kind, and a repeated dataset none
        plan = plan_sweep(params, noisy, np.linspace(50.0, 250.0, 150))
        calls = []

        def counted(original):
            def transition(*args):
                calls.append(np.shape(args[1]))
                return original(*args)
            return transition

        for module in (protocol, instrument):
            monkeypatch.setattr(module, "resistive_transition",
                                counted(module.resistive_transition))
        plan_table.cache_clear()
        first = run_paired_experiment(params, noisy, plan)
        assert calls == [(150, 1), (150, 1)]
        second = run_paired_experiment(params, noisy, plan)
        assert len(calls) == 2
        assert len(second) == 300
        for a, b in zip(first, second):
            assert np.array_equal(a.resistances, b.resistances)

    def test_width_and_normal_resistance_key_the_table(self, params, quiet, table_of):
        plan = plan_sweep(params, quiet, [50.0, 150.0])
        plan_table.cache_clear()
        acquire_curve(params, quiet, plan, 150.0, "cavity")
        # noise and seed are not read by the table, so they share it
        acquire_curve(params, replace(quiet, resistance_noise=0.2, seed=9), plan,
                      150.0, "cavity")
        assert plan_table.cache_info().currsize == 1
        for other in (replace(quiet, transition_width=30.0),
                      replace(quiet, normal_resistance=7.0)):
            curve = acquire_curve(params, other, plan, 150.0, "cavity")
            t_star = table_of(params, other, plan).t_stars["cavity"][1]
            expected = resistive_transition(curve.temperatures, t_star,
                                            other.transition_width,
                                            other.normal_resistance)
            assert np.array_equal(curve.resistances, expected)
        assert plan_table.cache_info().misses == 3

    def test_profiles_read_only_and_readouts_fresh(self, params, noisy):
        plan = plan_sweep(params, noisy, [50.0, 150.0])
        table = plan_table(params, plan, noisy.base_temperature,
                           noisy.transition_width, noisy.normal_resistance)
        for kind in KIND_CODES:
            assert table.profiles[kind].shape == (2, plan.n_points)
            with pytest.raises(ValueError):
                table.profiles[kind][0, 0] = 1.0
        first = acquire_curve(params, noisy, plan, 150.0, "film")
        assert first.resistances.flags.writeable
        assert not np.shares_memory(first.resistances, table.profiles["film"])
        kept = first.resistances.copy()
        first.resistances[:] = -1.0
        second = acquire_curve(params, noisy, plan, 150.0, "film")
        assert np.array_equal(second.resistances, kept)
