"""Property tests of the closed-form cavity root over random parameters,
on one field and on arrays of fields."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cavityshift import (InputError, ModelParams, cavity_delta, critical_field,
                         delta_derivative, delta_difference, film_delta)
from cavityshift.model import MAX_DEPRESSION, _balance_residual, slope_contrast

model_params = st.builds(
    ModelParams,
    alpha=st.floats(1e-8, 1e-2),
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
@example(alpha=1e-300, h_v=1e-5)  # delta_v = 1e-310, subnormal: valid
# delta_v = inf: delta_v/g was inf/inf, and cavity_delta NaN
@example(alpha=1.0, h_v=1e200)
# delta_v = 1e308, finite: cavity_delta was NaN at every field above 0
@example(alpha=1.0, h_v=1e154)
@example(alpha=1.0, h_v=1e77)  # delta_v = 1e154, where such a NaN began
@example(alpha=1.0, h_v=1e75)  # delta_v = MAX_DEPRESSION: valid
def test_model_holds_a_positive_crossover_depression(alpha, h_v):
    if 0.0 < alpha * h_v * h_v <= MAX_DEPRESSION:
        assert 0.0 < ModelParams(alpha=alpha, h_v=h_v).delta_v <= MAX_DEPRESSION
    else:
        with pytest.raises(InputError, match=r"alpha\*h_v\*\*2 must lie in \(0, 1e\+150\] mK, "
                                             r"got alpha=.+ and h_v=.+$"):
            ModelParams(alpha=alpha, h_v=h_v)


def test_model_refuses_an_asymptotic_shift_past_the_bound():
    # delta_v = 1e8 with delta_inf = 1e304 once made cavity_delta NaN, silently
    with pytest.raises(InputError, match=r"^delta_inf must be at most 1e\+150 mK, got 1e\+304$"):
        ModelParams(alpha=1.0, h_v=1e4, delta_inf=1e304)


@settings(deadline=None)
@given(alpha=st.floats(math.log(5e-324), math.log(1.7e308)).map(math.exp),
       h_v=st.floats(math.log(1e-160), math.log(1e160)).map(math.exp),
       delta_inf=st.one_of(st.just(0.0), st.just(MAX_DEPRESSION),
                           st.floats(math.log(1e-320), math.log(1e150)).map(math.exp)),
       h=st.lists(st.one_of(st.just(0.0), st.floats(math.log(1e-160), math.log(1e160))
                            .map(math.exp)), min_size=1, max_size=20).map(np.array))
# the largest model at its largest field, 1e75 G: b = -1e150, where b*b and
# 4*alpha*H**2*delta_v come nearest the float range
@example(alpha=1.0, h_v=1e75, delta_inf=MAX_DEPRESSION,
         h=np.array([0.0, 1.0, 1e74, 5e74, 1e75]))
# 2*alpha overflows: the slope 2*alpha*H was inf*0 = NaN at H = 0
@example(alpha=1e308, h_v=1e-80, delta_inf=0.2, h=np.array([0.0, 1e-160, 1.0]))
# MAX_DEPRESSION/alpha is inf, and (alpha*H)*H reaches 1e150 mK at the largest field
@example(alpha=1e-300, h_v=50.0, delta_inf=0.2, h=np.array([0.0, 1.0, 1e225]))
def test_no_admitted_model_gives_nan(alpha, h_v, delta_inf, h):
    try:
        params = ModelParams(alpha=alpha, h_v=h_v, delta_inf=delta_inf)
    except InputError:
        assume(False)
    h = h[h <= params.max_field]  # the admitted fields
    assume(h.size)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for form in FORMS:
            assert np.isfinite(form(params, h)).all()


@settings(deadline=None)
@given(alpha=st.floats(math.log(5e-324), math.log(1.7e308)).map(math.exp))
@example(alpha=5e-324)
@example(alpha=1e-300)  # max_field is 1e225 G
@example(alpha=1.0)  # max_field is 1e75 G
@example(alpha=1.7e308)
def test_the_largest_admitted_field_holds_the_film_depression_at_the_bound(alpha):
    params = ModelParams(alpha=alpha, h_v=1.0 / math.sqrt(alpha))  # delta_v ~ 1 mK
    top = params.max_field
    above = math.nextafter(top, math.inf)
    assert film_delta(params, top) <= MAX_DEPRESSION < alpha * above * above
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
# at 1e12 G root_d == b > 0, so the unused branch would divide by 0
@example(params=ModelParams(), h=np.array([0.0, 50.0, 1e12]))
# delta_v = 1e-310 of a valid model squares to 0: q = inf, which once
# raised ZeroDivisionError for one field and warned for an array
@example(params=ModelParams(alpha=1e-300, h_v=1e-5), h=np.array([0.0, 1e-5, 5e-5]))
def test_array_equals_elementwise_scalars(params, h):
    for form in FORMS:
        values = form(params, h)
        assert isinstance(values, np.ndarray) and values.shape == h.shape
        scalars = [form(params, x) for x in h.tolist()]
        assert all(type(x) is float for x in scalars)
        assert values.tolist() == scalars  # bit for bit


@settings(deadline=None)
@given(alpha=st.floats(math.log(1e-300), math.log(1e-2)).map(math.exp),
       h_v=st.floats(math.log(1e-12), math.log(1e3)).map(math.exp),
       delta_inf=st.one_of(st.just(0.0),
                           st.floats(math.log(1e-320), math.log(10.0)).map(math.exp)),
       h=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=20).map(np.array))
# delta_v = 1e-323: delta_inf*delta_v and (delta_c + delta_v)**2 both
# underflowed to 0, and with delta_inf = 0 the square of delta_v = 1e-310
# did, so every cavity slope and contrast was 0/0 = NaN
@example(alpha=1e-300, h_v=3e-12, delta_inf=0.2, h=np.array([0.0, 1.0, 250.0]))
@example(alpha=1e-300, h_v=1e-5, delta_inf=0.0, h=np.array([0.0, 1.0, 250.0]))
def test_tiny_models_keep_slopes_and_contrast_in_range(alpha, h_v, delta_inf, h):
    assume(alpha * h_v * h_v > 0.0)
    params = ModelParams(alpha=alpha, h_v=h_v, delta_inf=delta_inf)
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
@example(params=ModelParams(), h=np.array([0.0, 50.0, 1e12, 1e200]), bad=1e200, index=3)
def test_any_negative_or_nan_field_raises(params, h, bad, index):
    if bad == "above":  # the next float above the largest admitted field
        bad = math.nextafter(params.max_field, math.inf)
    h[index % h.size] = bad
    for form in (film_delta, cavity_delta, delta_difference, delta_derivative,
                 slope_contrast):
        with pytest.raises(InputError, match=f"got {re.escape(repr(bad))}$"):
            form(params, h)
