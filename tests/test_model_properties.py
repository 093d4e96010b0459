"""Property tests of the closed-form cavity root over random parameters,
on one field and on arrays of fields."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cavityshift import (InputError, ModelParams, cavity_delta, critical_field,
                         delta_derivative, film_delta)
from cavityshift.model import _balance_residual, slope_contrast

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


@settings(deadline=None)
@given(alpha=st.floats(math.log(1e-320), math.log(1e-2)).map(math.exp),
       h_v=st.floats(math.log(1e-200), math.log(1e3)).map(math.exp))
# delta_v = 0: the vacuum term was 0/0, so every cavity slope and every
# slope contrast was NaN
@example(alpha=1e-300, h_v=1e-300)
@example(alpha=1e-300, h_v=1e-5)  # delta_v = 1e-310, subnormal: valid
# delta_v = inf: delta_v/g was inf/inf, and cavity_delta NaN
@example(alpha=1.0, h_v=1e200)
def test_model_holds_a_positive_crossover_depression(alpha, h_v):
    if 0.0 < alpha * h_v * h_v < math.inf:
        assert 0.0 < ModelParams(alpha=alpha, h_v=h_v).delta_v < math.inf
    else:
        with pytest.raises(InputError, match=r"alpha\*h_v\*\*2 must be finite and > 0, "
                                             r"got alpha=.+ and h_v=.+$"):
            ModelParams(alpha=alpha, h_v=h_v)


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
# at 1e12 G root_d == b > 0, so the unused branch would divide by 0; at
# 1e200 G alpha*H**2 overflows to inf, silently as for a Python float
@example(params=ModelParams(), h=np.array([0.0, 50.0, 1e12, 1e200]))
# delta_v = 1e-310 of a valid model squares to 0: q = inf, which once
# raised ZeroDivisionError for one field and warned for an array
@example(params=ModelParams(alpha=1e-300, h_v=1e-5), h=np.array([0.0, 1e-5, 5e-5]))
def test_array_equals_elementwise_scalars(params, h):
    forms = [film_delta, cavity_delta,
             lambda p, x: delta_derivative(p, x, "film"),
             lambda p, x: delta_derivative(p, x, "cavity"), slope_contrast]
    for form in forms:
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
@given(params=model_params, h=field_arrays, bad=st.sampled_from([-1e-300, -2.0, math.nan]),
       data=st.data())
def test_any_negative_or_nan_field_raises(params, h, bad, data):
    h[data.draw(st.integers(0, h.size - 1))] = bad
    for form in (film_delta, cavity_delta, delta_derivative, slope_contrast):
        with pytest.raises(InputError):
            form(params, h)
