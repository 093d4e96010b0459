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
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cavityshift.cli import main
from cavityshift.config import default_run_config, run_config_from_dict
from cavityshift.errors import InputError
from cavityshift.protocol import MAX_PLAN_SAMPLES

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

#: Fields whose squares underflow to 0: the closed-form kappa once
#: divided by the zero determinant of the film Tc regression (the large
#: alpha keeps delta_v = alpha*h_v**2 at 1e-300, above 0).
UNDERFLOWING_FIELDS = {"model": {"alpha": 1e100, "h_v": 1e-200},
                       "plan": {"fields": [1e-200, 2e-200, 3e-200]}}

#: delta_v = 1e-310 squares to 0: every model_contrast was once NaN, with
#: a divide-by-zero warning.
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
#: other bound (delta_inf's 1e150 mK, the seed's 64 bits).
POSITIVE = (0, -1, 0.0, -1.0, math.inf, math.nan)
NONNEGATIVE = (-5e-324, -1.0, math.inf, math.nan)
OUTSIDE = {
    **dict.fromkeys(("t_c", "alpha", "h_v", "cond_scale", "base_temperature",
                     "normal_resistance", "transition_width", "t_span"), POSITIVE),
    **dict.fromkeys(("resistance_noise", "temperature_jitter"), NONNEGATIVE),
    "delta_inf": (*NONNEGATIVE, 1.0000000000000002e150),
    "seed": (-1, 2 ** 64),
    "t_center_guess": (math.inf, -math.inf, math.nan),
    "n_points": (19, 0, -1),
    "repetitions": (0, -1)}

#: JSON values that no number setting holds, a 400-digit integer among them.
WRONG_TYPED = [True, False, None, "1.5", [1.0], {}, 10 ** 400]


def log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def or_zero(values: st.SearchStrategy[float]) -> st.SearchStrategy[float]:
    return st.one_of(st.just(0.0), values)


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
}, optional={"seed": st.integers(0, 2 ** 64 - 1)})


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
    # the default fields put the film depression at 6e144 mK, so the
    # derived centre is -3.1e141 K; it was once checked in a plan of its
    # own before the given 1.0 K replaced it, and the config exited 2
    # naming t_center_guess
    config = run_config_from_dict({"model": {"alpha": 1e140},
                                   "plan": {"t_center_guess": 1.0}})
    assert config.plan.t_center_guess == 1.0
    assert config.plan.t_span == default_run_config().plan.t_span


def test_a_sweep_derivation_error_names_the_plan():
    # a malformed field list met while deriving the centre once lost the
    # section's name
    with pytest.raises(InputError, match=r"^invalid 'plan' section: fields must be a "
                                         r"list of numbers, got 'abc'$"):
        run_config_from_dict({"plan": {"fields": "abc"}})


def test_a_refused_derived_centre_names_the_deepest_field():
    # 1e40 G is admitted, but its film depression of 2.7e75 mK puts the
    # derived centre where 200 temperatures 0.4 K apart cannot be told apart
    with pytest.raises(InputError, match=r"^invalid 'plan' section: the temperature grid "
                                         r"collapses: .+ \(t_center_guess was derived from "
                                         r"fields, whose deepest is 1e\+40 G\)$"):
        run_config_from_dict({"plan": {"fields": [1.0, 1e40]}})


def test_a_refused_derived_span_names_the_transition_width():
    # eight widths of 1e308 mK overflow to an infinite span; the config
    # never gave t_span, and the refusal once named it alone
    with pytest.raises(InputError, match=r"^invalid 'plan' section: t_span must be finite "
                                         r"and > 0, got inf \(t_span was derived from "
                                         r"transition_width = 1e\+308 mK\)$"):
        run_config_from_dict({"instrument": {"transition_width": 1e308}})


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(config=configs, n_fields=st.integers(1, 40),
       repetitions=st.one_of(st.integers(1, 10), st.integers(1, 10 ** 12)),
       n_points=st.one_of(st.integers(20, 10 ** 4),
                          st.integers(MAX_PLAN_SAMPLES // 2 + 1, 10 ** 300)))
def test_plan_size_rule(config, n_fields, repetitions, n_points):
    # constructed only, never run: a plan within the limit holds at most
    # 10^4 temperatures, and one past it must be refused before its grid
    config["plan"].update(fields=[10.0 * (i + 1) for i in range(n_fields)],
                          repetitions=repetitions, n_points=n_points)
    if n_fields * 2 * repetitions * n_points <= MAX_PLAN_SAMPLES:
        assert run_config_from_dict(config).plan.repetitions == repetitions
        return
    with pytest.raises(InputError, match=r"^invalid 'plan' section: the plan asks for "
                                         r"more than 1e\+08 samples: "):
        run_config_from_dict(config)
