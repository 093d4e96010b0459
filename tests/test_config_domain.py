"""Property tests over the config domain: no CLI run escapes.

Random model, instrument and plan values, each key drawn or left at its
default, log-uniformly over wide ranges and with 20-60 points per
sweep, go through ``simulate`` then ``analyze``, and on a few examples
through ``sensitivity --trials 100``, all by ``cli.main`` under the
suite's warning filters (a ``RuntimeWarning`` fails the test).  Every
command must return a documented exit code and raise nothing.  A drawn
config with one number setting, or one field, replaced by a value of
the wrong JSON type must make ``simulate`` exit 2 and write nothing, and
so must one number setting just outside its domain, with a message
naming it.
The examples are derandomized, so every run draws the same configs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavityshift.cli import main
from cavityshift.config import default_run_config, run_config_from_dict
from cavityshift.errors import InputError
from cavityshift.instrument import (MAX_RESISTANCE, MIN_RESISTANCE, InstrumentConfig,
                                    measure_profile, noise_stream)
from cavityshift.model import KINDS, MAX_T_C, MIN_DELTA_V, ModelParams
from cavityshift.protocol import (MAX_PLAN_SAMPLES, SweepPlan, plan_table, sweep_center,
                                  sweep_span)

#: The exit codes the README documents for a command that ran.
DOCUMENTED_EXIT_CODES = {0, 2, 4, 5, 6}

#: Found by fuzzing: every setpoint at or below the cryostat floor (each
#: fit divided by a zero width, in analyze and sensitivity alike).
GRID_AT_THE_FLOOR = {"plan": {"t_center_guess": 0.1, "t_span": 0.1}}

#: Found by fuzzing: a fit of this study ran t* off until u^2 overflowed.
OVERFLOWING_FIT = {
    "model": {"alpha": 0.0003657102230106953},
    "instrument": {"base_temperature": 1.201989465374509,
                   "transition_width": 0.05875546465102714,
                   "temperature_jitter": 9.138519989788767},
    "plan": {"n_points": 39}, "seed": 3493288461}

#: Jitter about setpoints near a 10 mK floor: a draw below 0 K once ended
#: the whole study at trial 0.
JITTER_BELOW_ZERO = {
    "model": {"t_c": 0.2},
    "instrument": {"base_temperature": 0.01, "temperature_jitter": 40.0,
                   "transition_width": 20.0},
    "plan": {"n_points": 40}}

#: Fields whose squares are subnormal and whose spread squares to 0: the
#: closed-form kappa once divided by the zero determinant of the film Tc
#: regression (the large alpha keeps delta_v = alpha*h_v**2 at its 1e-9
#: mK floor).
UNDERFLOWING_FIELDS = {"model": {"alpha": 1e300, "h_v": 3.2e-155},
                       "plan": {"fields": [3.2e-155, 3.3e-155, 3.4e-155]}}

#: delta_v = 1e-310 squares to 0: every model_contrast was once NaN, with
#: a divide-by-zero warning; it now lies below delta_v's 1e-9 mK floor.
UNDERFLOWING_DELTA_V = {"model": {"alpha": 1e-300, "h_v": 1e-5}}

#: delta_v = 1e-300 * 1e-300**2 underflows to 0: model-curve once wrote a
#: NaN cavity slope in every row; the model now refuses it.
ZERO_DELTA_V = {"model": {"alpha": 1e-300, "h_v": 1e-300}}

#: Every number setting, by section (the field list's entries aside).
SETTINGS = {
    "model": ("t_c", "alpha", "delta_inf", "h_v", "cond_scale"),
    "instrument": ("base_temperature", "normal_resistance", "transition_width",
                   "resistance_noise", "temperature_jitter", "seed"),
    "plan": ("t_center_guess", "t_span", "n_points", "repetitions")}

#: Values just outside each setting's domain: 0 and -1 where it must be
#: > 0, the negative float nearest 0 where it must be >= 0, and past each
#: other bound (t_c's, base_temperature's and t_center_guess's 1e3 K,
#: t_span's 8e3 K, transition_width's 1e-9 and 1e6 mK, temperature_jitter's
#: 1e6 mK, delta_inf's 1000*t_c mK at the largest t_c, the two resistances'
#: 1e12 ohm, normal_resistance's 1e-12 ohm floor, the seed's 64 bits).
#: The 1e308 and 1e-306 values were once inside the domain, and simulate
#: overflowed on each but a 1e308 ohm normal resistance (exit 1 under
#: -W error::RuntimeWarning): the erf argument of a 1e308 K grid or floor
#: and of a subnormal erf scale, and the draw of 1e308 mK of jitter or
#: 1e308 ohm of noise times a standard normal.  A normal resistance of
#: 1e-300 ohm simulated and analyzed, and its sensitivity study refused
#: the sweep as one that does not resolve the transition.
POSITIVE = (0, -1, 0.0, -1.0, math.inf, math.nan)
NONNEGATIVE = (-5e-324, -1.0, math.inf, math.nan)
OUTSIDE = {
    **dict.fromkeys(("alpha", "h_v", "cond_scale"), POSITIVE),
    "normal_resistance": (*POSITIVE, 9.999999999999998e-13, 1e-300, 5e-324,
                          1000000000000.0001, 1e308),
    "t_c": (*POSITIVE, 1000.0000000000001),
    "base_temperature": (*POSITIVE, 1000.0000000000001, 1e308),
    "t_span": (*POSITIVE, 8000.000000000001, 1.5e308),
    "transition_width": (*POSITIVE, 9.999999999999999e-10, 1e-306, 1000000.0000000001),
    "resistance_noise": (*NONNEGATIVE, 1000000000000.0001, 1e308),
    "temperature_jitter": (*NONNEGATIVE, 1000000.0000000001, 1e308),
    "delta_inf": (*NONNEGATIVE, 1000000.0000000001),
    "seed": (-1, 2 ** 64),
    "t_center_guess": (*NONNEGATIVE, 1000.0000000000001, 1e308, -math.inf),
    "n_points": (19, 0, -1),
    "repetitions": (0, -1)}

#: JSON values that no number setting holds, a 400-digit integer among them.
WRONG_TYPED = [True, False, None, "1.5", [1.0], {}, 10 ** 400]


def log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def or_zero(values: st.SearchStrategy[float]) -> st.SearchStrategy[float]:
    return st.one_of(st.just(0.0), values)


def in_domain(config: dict) -> bool:
    """Whether the model of ``config`` is valid and admits every field of
    its plan (the default fields reach 5*h_v)."""
    try:
        params = ModelParams(**config["model"])
    except InputError:  # delta_v outside [1e-9, 1000*t_c] mK
        return False
    return max(config["plan"].get("fields", [5.0 * params.h_v])) <= params.max_field


# a valid config: its model and fields inside the domain
configs = st.fixed_dictionaries({
    "model": st.fixed_dictionaries({}, optional={
        "t_c": log_uniform(0.02, 20.0),
        "alpha": log_uniform(1e-7, 1e-2),
        "delta_inf": or_zero(log_uniform(1e-3, 10.0)),
        "h_v": log_uniform(1.0, 1000.0)}),
    "instrument": st.fixed_dictionaries({}, optional={
        "base_temperature": log_uniform(0.005, 5.0),
        "normal_resistance": log_uniform(0.1, 1000.0),
        "transition_width": log_uniform(0.01, 1000.0),
        "resistance_noise": or_zero(log_uniform(1e-4, 10.0)),
        "temperature_jitter": or_zero(log_uniform(1e-3, 100.0))}),
    "plan": st.fixed_dictionaries({"n_points": st.integers(20, 60)}, optional={
        "fields": st.lists(log_uniform(1.0, 1000.0), min_size=1, max_size=8,
                           unique=True).map(sorted),
        "t_center_guess": log_uniform(0.01, 20.0),
        "t_span": log_uniform(1e-3, 10.0),
        "repetitions": st.integers(1, 2)}),
}, optional={"seed": st.integers(0, 2 ** 64 - 1)}).filter(in_domain)


def run(argv: list[str]) -> int:
    """``cli.main(argv)`` with its output swallowed; the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(config=configs)
@example(config=GRID_AT_THE_FLOOR)
@example(config=OVERFLOWING_FIT)
@example(config=JITTER_BELOW_ZERO)
@example(config=ZERO_DELTA_V)
def test_simulate_then_analyze_exit_documented(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = Path(tmp) / "run"
        code = run(["simulate", "--config", str(path), "--out", str(out)])
        assert code in DOCUMENTED_EXIT_CODES
        if code == 0:
            assert run(["analyze", str(out / "run.json")]) in DOCUMENTED_EXIT_CODES


@settings(deadline=None, derandomize=True, database=None, max_examples=12)
@given(config=configs)
@example(config=GRID_AT_THE_FLOOR)
@example(config=OVERFLOWING_FIT)
@example(config=JITTER_BELOW_ZERO)
@example(config=UNDERFLOWING_FIELDS)
@example(config=UNDERFLOWING_DELTA_V)
@example(config=ZERO_DELTA_V)
def test_sensitivity_exit_documented(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert run(["sensitivity", "--config", str(path), "--trials", "100",
                    "--out", str(Path(tmp) / "sens")]) in DOCUMENTED_EXIT_CODES


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(config=configs, bad=st.sampled_from(WRONG_TYPED), data=st.data())
def test_wrong_typed_setting_exits_config(config, bad, data):
    # a boolean once ran as 0 or 1, and the 400-digit integer ended in a
    # bare OverflowError (exit 1)
    section, key = data.draw(st.sampled_from(
        [(section, key) for section, keys in SETTINGS.items() for key in keys]
        + [("plan", "fields")]))
    if key == "fields":  # one entry of the list
        fields = config["plan"].setdefault("fields", [50.0, 100.0, 150.0])
        fields[data.draw(st.integers(0, len(fields) - 1))] = bad
    else:
        config[section][key] = bad
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = Path(tmp) / "run"
        assert run(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    (section, key, value) for section, keys in SETTINGS.items() for key in keys
    for value in OUTSIDE[key]])
@settings(deadline=None, derandomize=True, database=None, max_examples=5)
@given(config=configs)
def test_setting_just_outside_its_domain_exits_config_naming_it(config, section, key, value):
    config[section][key] = value
    if key == "seed":
        config.pop("seed", None)  # the top-level spelling must not differ
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = Path(tmp) / "run"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == 2 and not out.exists()
    assert err.getvalue().startswith("input error: ") and f"{key} must " in err.getvalue()


def test_a_given_sweep_value_is_kept_beside_a_derived_one():
    # at alpha 1e140 the default fields once put the film depression at
    # 6e144 mK and the derived centre at -3.1e141 K, and the given 1.0 K
    # once exited 2 naming t_center_guess; such a model is refused now
    with pytest.raises(InputError, match=r"^invalid 'model' section: the crossover "
                                         r"depression alpha\*h_v\*\*2 must lie in .+, "
                                         r"got alpha=1e\+140 and h_v=50\.0$"):
        run_config_from_dict({"model": {"alpha": 1e140}, "plan": {"t_center_guess": 1.0}})
    config = run_config_from_dict({"plan": {"t_center_guess": 1.0}})
    assert config.plan.t_center_guess == 1.0
    assert config.plan.t_span == default_run_config().plan.t_span


def test_a_sweep_derivation_error_names_the_plan():
    # a malformed field list met while deriving the centre once lost the
    # section's name
    with pytest.raises(InputError, match=r"^invalid 'plan' section: fields must be a "
                                         r"list of numbers, got 'abc'$"):
        run_config_from_dict({"plan": {"fields": "abc"}})


def test_a_refused_derived_centre_names_the_deepest_field():
    # 1e40 G was once admitted, and the derived centre collapsed the grid;
    # its film depression is past 1000*t_c now, and a derived centre,
    # t_c less half the deepest depression, is at least t_c/2
    with pytest.raises(InputError, match=r"^invalid 'plan' section: field must lie in "
                                         r"\[0, 7500\.0\] G, where alpha\*H\*\*2 reaches "
                                         r"1000\*t_c = 1500\.0 mK, got 1e\+40$"):
        run_config_from_dict({"plan": {"fields": [1.0, 1e40]}})


def test_a_refused_derived_span_names_the_transition_width():
    # eight widths of 1e308 mK once overflowed to an infinite derived span;
    # such a width lies past the highest Tc now, and is refused by name
    with pytest.raises(InputError, match=r"^invalid 'instrument' section: transition_width "
                                         r"must be finite and >= 1e-09 and <= 1000000\.0, "
                                         r"got 1e\+308$"):
        run_config_from_dict({"instrument": {"transition_width": 1e308}})


@pytest.mark.parametrize("config, ending", [
    ({"plan": {"t_span": 1e-300}}, "for n_points=200 strictly increasing temperatures"),
    # eight 1 pK widths are finer than the float spacing at 1000 K; at a
    # field of 0 no depression widens the span
    ({"model": {"t_c": 1000.0}, "instrument": {"transition_width": 1e-9},
      "plan": {"fields": [0.0]}},
     "temperatures (t_span was derived from transition_width = 1e-09 mK)"),
])
def test_a_collapsed_grid_names_only_a_derived_source(config, ending):
    # both once read "(t_center_guess was derived from fields, whose
    # deepest is 250.0 G)", a centre that does not collapse the grid
    with pytest.raises(InputError, match="the temperature grid collapses") as excinfo:
        run_config_from_dict(config)
    assert str(excinfo.value).endswith(ending)


def test_refused_default_fields_name_h_v():
    # delta_v = 100 mK puts 5*h_v past 1000*t_c = 1500 mK; the message
    # once named only the field, which the config never gave
    with pytest.raises(InputError, match=r"^invalid 'plan' section: field must lie in "
                                         r"\[0, 193\.6.*\] G, .+, got 250\.0 \(fields were "
                                         r"derived from h_v = 50\.0 G\)$"):
        run_config_from_dict({"model": {"alpha": 0.04, "h_v": 50.0}})


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(config=configs, n_fields=st.integers(1, 40),
       repetitions=st.one_of(st.integers(1, 10), st.integers(1, 10 ** 12)),
       n_points=st.one_of(st.integers(20, 10 ** 4),
                          st.integers(MAX_PLAN_SAMPLES // 2 + 1, 10 ** 300)))
def test_plan_size_rule(config, n_fields, repetitions, n_points):
    # constructed only, never run: a plan within the limit holds at most
    # 10^4 temperatures, and one past it must be refused before its grid;
    # the default model admits every field up to 7500 G
    config["model"] = {}
    config["plan"].update(fields=[10.0 * (i + 1) for i in range(n_fields)],
                          repetitions=repetitions, n_points=n_points)
    if n_fields * 2 * repetitions * n_points <= MAX_PLAN_SAMPLES:
        assert run_config_from_dict(config).plan.repetitions == repetitions
        return
    with pytest.raises(InputError, match=r"^invalid 'plan' section: the plan asks for "
                                         r"more than 1e\+08 samples: "):
        run_config_from_dict(config)


#: Each sweep value and resistance at both ends of its domain, and None
#: for a derived centre or span.  t_c = 1e-12 K is the lowest, where the
#: delta_v floor of 1e-9 mK meets the 1000*t_c mK bound; 1e-9 K stands for
#: the narrowest span, which the grid resolves at every admitted centre.
CORNERS = list(itertools.product(
    (1e-12, MAX_T_C), ("floor", "top"), (0.0, "top"), (5e-324, MAX_T_C),
    (MIN_DELTA_V, MAX_T_C * 1e3), (0.0, MAX_T_C * 1e3), (MIN_RESISTANCE, MAX_RESISTANCE),
    (0.0, MAX_RESISTANCE), (None, 0.0, MAX_T_C), (None, 1e-9, 8 * MAX_T_C)))


@pytest.mark.parametrize("t_c, delta_v, delta_inf, base_temperature, width, jitter, "
                         "normal_resistance, noise, center, span", CORNERS)
def test_plan_table_and_readout_stay_finite_at_the_domain_corners(
        t_c, delta_v, delta_inf, base_temperature, width, jitter, normal_resistance,
        noise, center, span):
    # fields at 0 and at the largest admitted field
    top = 1e3 * t_c
    params = ModelParams(t_c=t_c, alpha=MIN_DELTA_V if delta_v == "floor" else top,
                         h_v=1.0, delta_inf=top if delta_inf == "top" else delta_inf)
    cfg = InstrumentConfig(base_temperature=base_temperature, transition_width=width,
                           temperature_jitter=jitter, normal_resistance=normal_resistance,
                           resistance_noise=noise)
    fields = (0.0, params.max_field)
    try:
        plan = SweepPlan(fields=fields, n_points=20,
                         t_center_guess=sweep_center(params, fields) if center is None
                         else center,
                         t_span=sweep_span(params, cfg, fields) if span is None else span)
    except InputError as exc:
        # eight 1 pK widths are finer than the float spacing at 1000 K
        assert (t_c, width, span) == (MAX_T_C, MIN_DELTA_V, None), exc
        assert "temperature grid collapses" in str(exc)
        return
    with np.errstate(all="raise", under="ignore"):
        table = plan_table(params, plan, cfg.base_temperature, cfg.transition_width,
                           cfg.normal_resistance)
        for kind in KINDS:
            for index, t_star in enumerate(table.t_stars[kind]):
                r = measure_profile(cfg, table.setpoints, t_star,
                                    table.profiles[kind][index], noise_stream(1, index))
                assert np.isfinite(r).all()
