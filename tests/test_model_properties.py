"""Property tests of the closed-form cavity root over random parameters,
on one field and on arrays of fields."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from cavityshift import (InputError, ModelParams, cavity_delta, critical_field,
                         delta_derivative, delta_difference, film_delta)
from cavityshift.config import run_config_from_dict
from cavityshift.model import MAX_T_C, MIN_DELTA_V, _balance_residual, slope_contrast

# t_c only shifts absolute temperatures; at its largest every drawn field
# below is admitted (alpha*H**2 <= 5e5 mK of the 1e6 mK bound)
model_params = st.builds(
    ModelParams,
    t_c=st.just(MAX_T_C),
    alpha=st.floats(1e-8, 5e-3),
    delta_inf=st.floats(0.0, 10.0),
    h_v=st.floats(1.0, 1e3),
)
# above 1e-6 G the products in the balance stay clear of subnormal floats
fields = st.one_of(st.just(0.0), st.floats(1e-6, 1e4))
field_arrays = st.lists(fields, min_size=1, max_size=20).map(np.array)
# one field, or an array of them
field_inputs = st.one_of(fields, field_arrays)
#: Every form of the model that takes a field.
FORMS = (film_delta, cavity_delta, delta_difference,
         lambda p, x: delta_derivative(p, x, "film"),
         lambda p, x: delta_derivative(p, x, "cavity"), slope_contrast)


@settings(deadline=None)
@given(alpha=st.floats(math.log(1e-320), math.log(1e100)).map(math.exp),
       h_v=st.floats(math.log(1e-200), math.log(1e200)).map(math.exp))
# delta_v = 0: the vacuum term was 0/0, so every cavity slope and every
# slope contrast was NaN
@example(alpha=1e-300, h_v=1e-300)
@example(alpha=1e-300, h_v=1e-5)  # delta_v = 1e-310, subnormal: once valid
# delta_v = inf: delta_v/g was inf/inf, and cavity_delta NaN
@example(alpha=1.0, h_v=1e200)
# delta_v = 1e308, finite: cavity_delta was NaN at every field above 0
@example(alpha=1.0, h_v=1e154)
@example(alpha=1.0, h_v=1e77)  # delta_v = 1e154, where such a NaN began
@example(alpha=1.0, h_v=1e75)  # delta_v = 1e150, the float-range bound once
@example(alpha=1e-300, h_v=3e-12)  # delta_v = 1e-323: once valid
@example(alpha=1e-9, h_v=1.0)  # delta_v = 1e-9 mK, the 1 pK floor: valid
@example(alpha=1.5e3, h_v=1.0)  # delta_v = 1000*t_c: valid
def test_model_holds_a_positive_crossover_depression(alpha, h_v):
    # 1000*t_c = 1500 mK at the default t_c of 1.5 K
    if MIN_DELTA_V <= alpha * h_v * h_v <= 1.5e3:
        assert MIN_DELTA_V <= ModelParams(alpha=alpha, h_v=h_v).delta_v <= 1.5e3
    else:
        with pytest.raises(InputError, match=r"alpha\*h_v\*\*2 must lie in \[1e-09, "
                                             r"1000\*t_c = 1500\.0\] mK, "
                                             r"got alpha=.+ and h_v=.+$"):
            ModelParams(alpha=alpha, h_v=h_v)


def test_model_refuses_an_asymptotic_shift_past_the_bound():
    # delta_v = 1e8 with delta_inf = 1e304 once made cavity_delta NaN, silently;
    # the bound is 1000*t_c mK now
    with pytest.raises(InputError, match=r"^delta_inf must be finite and >= 0 and "
                                         r"<= 1500\.0, got 1e\+304$"):
        ModelParams(alpha=1.0, h_v=1e4, delta_inf=1e304)


def log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def or_ends(lo: float, hi: float) -> st.SearchStrategy[float]:
    """lo, hi, or a value log-uniform between them."""
    return st.one_of(st.sampled_from([lo, hi]), log_uniform(lo, hi))


@st.composite
def domain_models(draw, max_delta_v: float = math.inf) -> ModelParams:
    """A model anywhere in the domain: t_c up to 1e3 K (below 1e-12 K no
    delta_v fits between its bounds), delta_v (at most ``max_delta_v``)
    and delta_inf anywhere in their ranges, and alpha anywhere in the
    float range, subnormal values among them."""
    t_c = draw(or_ends(1e-12, MAX_T_C))
    top = 1e3 * t_c
    delta_v = draw(or_ends(MIN_DELTA_V, max(MIN_DELTA_V, min(top, max_delta_v))))
    alpha = draw(or_ends(5e-324, 1.7e308))
    delta_inf = draw(st.one_of(st.just(0.0), or_ends(5e-324, top)))
    try:
        return ModelParams(t_c=t_c, alpha=alpha, h_v=math.sqrt(delta_v) / math.sqrt(alpha),
                           delta_inf=delta_inf)
    except InputError:
        reject()  # alpha*h_v**2 rounded past an end of its range


@st.composite
def admitted_fields(draw, models=domain_models()) -> tuple[ModelParams, np.ndarray]:
    """A model and an array of its admitted fields: 0, the largest and
    fractions of it down to the float range's smallest."""
    params = draw(models)
    fractions = draw(st.lists(st.one_of(st.just(0.0), or_ends(5e-324, 1.0)),
                              min_size=1, max_size=20))
    return params, np.array(fractions) * params.max_field  # a fraction <= 1 rounds to <= 1


#: The corners of the domain, each with fields that reach its largest.
LARGEST = ModelParams(t_c=MAX_T_C, alpha=1.0, h_v=1e3, delta_inf=1e6)
TOP_ALPHA = ModelParams(alpha=1e308, h_v=1e-153, delta_inf=0.2)
SUBNORMAL_ALPHA = ModelParams(alpha=5e-324, h_v=1e162, delta_inf=0.2)
FLOOR = ModelParams(alpha=MIN_DELTA_V, h_v=1.0, delta_inf=1.5e3)


# Under the domain every delta_v is >= 1e-9 mK and every depression
# <= 1e6 mK, so no form overflows, divides by 0 or forms 0/0: the
# errstate that s/g once needed in delta_derivative, and the guard of
# cavity_delta's discarded branch against root_d == b, are gone.  An
# underflow is a rounding toward 0, within the range of every form, and
# passes.
@settings(deadline=None, max_examples=300)
@given(case=admitted_fields())
# the largest model at its largest field: b*b and 4*alpha*H**2*delta_v
# come nearest the float range, and b nearest root_d
@example(case=(LARGEST, np.array([0.0, 1.0, 1e3, LARGEST.max_field])))
# 2*alpha overflows: the slope 2*alpha*H was inf*0 = NaN at H = 0
@example(case=(TOP_ALPHA, np.array([0.0, 1e-160, TOP_ALPHA.max_field])))
# 1000*t_c/alpha is inf, so max_field takes delta_v's root instead
@example(case=(SUBNORMAL_ALPHA, np.array([0.0, 1.0, SUBNORMAL_ALPHA.max_field])))
# the smallest delta_v against the largest delta_inf: s/g reaches 1.5e12
@example(case=(FLOOR, np.array([0.0, 1e-5, 1.0, FLOOR.max_field])))
def test_no_admitted_model_gives_nan(case):
    params, h = case
    with np.errstate(all="raise", under="ignore"):
        for form in FORMS:
            assert np.isfinite(form(params, h)).all()


@settings(deadline=None, max_examples=300)
@given(params=domain_models(), kind=st.sampled_from(["film", "cavity"]),
       fraction=st.one_of(st.just(0.0), or_ends(5e-324, 1.0)))
@example(params=SUBNORMAL_ALPHA, kind="film", fraction=0.5)  # sqrt(delta/alpha) was inf
@example(params=LARGEST, kind="cavity", fraction=1.0)
# delta_v at its floor and alpha*H**2 near delta_inf: the cavity law is so
# flat there that one ulp of H moves its depression by 2e-9 relative
@example(params=ModelParams(t_c=1000.0, alpha=4.816756236372461e+31, delta_inf=1e6,
                            h_v=4.55640863073365e-21), kind="cavity", fraction=1.0)
def test_critical_field_returns_only_admitted_fields(params, kind, fraction):
    # checked in field space, where the inverse is well conditioned: the
    # depression delta lies between those 1e-12 below and above h
    forward = film_delta if kind == "film" else cavity_delta
    with np.errstate(all="raise", under="ignore"):
        delta = fraction * forward(params, params.max_field)
        h = critical_field(params, delta, kind)
        assert 0.0 <= h <= params.max_field
        below = forward(params, h * (1.0 - 1e-12))
        above = forward(params, min(h * (1.0 + 1e-12), params.max_field))
        assert below - 1e-300 <= delta <= above + 1e-300


@settings(deadline=None, max_examples=300)
@given(params=domain_models(), width=or_ends(MIN_DELTA_V, 1e6))
def test_every_derived_plan_builds_or_names_its_source(params, width):
    # the derived centre t_c - deepest/2 lies in [t_c/2, t_c] and the
    # derived span, max(8 w, 1.25 deepest + 2 w), within 8e3 K, so only the
    # derived fields (past the bound above delta_v = 40*t_c) and a derived
    # span too narrow for its grid can be refused
    config = {"model": {"t_c": params.t_c, "alpha": params.alpha, "h_v": params.h_v,
                        "delta_inf": params.delta_inf},
              "instrument": {"transition_width": width}}
    with np.errstate(all="raise", under="ignore"):
        try:
            plan = run_config_from_dict(config).plan
        except InputError as exc:
            assert str(exc).endswith((f"(fields were derived from h_v = {params.h_v!r} G)",
                                      f"(t_span was derived from transition_width = "
                                      f"{width!r} mK)"))
            return
    assert plan.t_center_guess >= 0.5 * params.t_c * (1.0 - 1e-15)
    deepest = film_delta(params, plan.fields[-1])
    assert plan.t_span == max(8.0 * width, 1.25 * deepest + 2.0 * width) * 1e-3


@settings(deadline=None)
@given(alpha=st.floats(math.log(5e-324), math.log(1.7e308)).map(math.exp))
@example(alpha=5e-324)
@example(alpha=1e-300)  # max_field is 3.9e151 G
@example(alpha=1.0)  # max_field is 38.7 G
@example(alpha=1.7e308)
def test_the_largest_admitted_field_holds_the_film_depression_at_the_bound(alpha):
    params = ModelParams(alpha=alpha, h_v=1.0 / math.sqrt(alpha))  # delta_v ~ 1 mK
    top = params.max_field
    above = math.nextafter(top, math.inf)
    # 1000*t_c to rounding: no bound in the domain needs to be exact to the ulp
    assert film_delta(params, top) == pytest.approx(1e3 * params.t_c, rel=1e-14)
    for form in FORMS:
        assert math.isfinite(form(params, top))
        with pytest.raises(InputError, match=f"got {re.escape(repr(above))}$"):
            form(params, above)


@settings(deadline=None)
@given(params=model_params, h=field_inputs)
@example(params=ModelParams(delta_inf=1e-300), h=100.0)  # unclamped root rounds above A
def test_root_lies_between_zero_and_film(params, h):
    delta = cavity_delta(params, h)
    assert np.all(0.0 <= delta) and np.all(delta <= film_delta(params, h))


@settings(deadline=None)
@given(params=model_params, h=field_inputs)
def test_root_solves_the_balance(params, h):
    delta = cavity_delta(params, h)
    scale = params.alpha * h * h * delta
    assert np.all(np.abs(_balance_residual(params, h, delta)) <= 1e-12 * scale)


@settings(deadline=None)
@given(params=model_params, h=field_inputs)
def test_critical_field_round_trip(params, h):
    back = [critical_field(params, delta, "cavity")
            for delta in np.atleast_1d(cavity_delta(params, h)).tolist()]
    assert back == pytest.approx(np.atleast_1d(h).tolist(), rel=1e-9, abs=1e-9)


@settings(deadline=None)
@given(params=model_params, h=field_arrays)
# at 1e12 G root_d == b > 0, so the unused branch once divided by 0;
# the domain now ends at the largest field, 7500 G
@example(params=ModelParams(), h=np.array([0.0, 50.0, ModelParams().max_field]))
# delta_v = 1e-310 squared to 0: q = inf, which once raised
# ZeroDivisionError for one field and warned for an array; delta_v now
# ends at its 1e-9 mK floor
@example(params=FLOOR, h=np.array([0.0, 1e-5, 5e-5]))
def test_array_equals_elementwise_scalars(params, h):
    for form in FORMS:
        values = form(params, h)
        assert isinstance(values, np.ndarray) and values.shape == h.shape
        scalars = [form(params, x) for x in h.tolist()]
        assert all(type(x) is float for x in scalars)
        assert values.tolist() == scalars  # bit for bit


@settings(deadline=None)
@given(case=admitted_fields(domain_models(max_delta_v=1e-6)))
# delta_v = 1e-323: delta_inf*delta_v and (delta_c + delta_v)**2 both
# underflowed to 0, and with delta_inf = 0 the square of delta_v = 1e-310
# did, so every cavity slope and contrast was 0/0 = NaN; such models are
# refused now, and delta_v ends at its floor
@example(case=(ModelParams(alpha=MIN_DELTA_V, h_v=1.0, delta_inf=0.2),
               np.array([0.0, 1.0, 250.0])))
@example(case=(ModelParams(alpha=MIN_DELTA_V, h_v=1.0, delta_inf=0.0),
               np.array([0.0, 1.0, 250.0])))
def test_tiny_models_keep_slopes_and_contrast_in_range(case):
    params, h = case
    film = delta_derivative(params, h, "film")
    cavity = delta_derivative(params, h, "cavity")
    contrast = slope_contrast(params, h)
    assert np.all(np.isfinite(cavity)) and np.all((0.0 <= cavity) & (cavity <= film))
    assert np.all((0.0 <= contrast) & (contrast <= 1.0))


@settings(deadline=None)
@given(params=model_params, h=field_arrays,
       bad=st.sampled_from([-1e-300, -2.0, math.nan, "above", 1e200, math.inf]),
       index=st.integers(0, 19))
# alpha*H**2 overflowed to inf at 1e200 G, silently as for a Python float
@example(params=ModelParams(), h=np.array([0.0, 50.0, 1e3, 1e200]), bad=1e200, index=3)
def test_any_negative_or_nan_field_raises(params, h, bad, index):
    if bad == "above":  # the next float above the largest admitted field
        bad = math.nextafter(params.max_field, math.inf)
    h[index % h.size] = bad
    for form in (film_delta, cavity_delta, delta_difference, delta_derivative,
                 slope_contrast):
        with pytest.raises(InputError, match=f"got {re.escape(repr(bad))}$"):
            form(params, h)
