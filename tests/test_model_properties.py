"""Property tests of the closed-form cavity root over random parameters."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from cavityshift import ModelParams, cavity_delta, critical_field, film_delta
from cavityshift.model import _balance_residual

model_params = st.builds(
    ModelParams,
    alpha=st.floats(1e-8, 1e-2),
    delta_inf=st.floats(0.0, 10.0),
    h_v=st.floats(1.0, 1e3),
)
# above 1e-6 G the products in the balance stay clear of subnormal floats
fields = st.one_of(st.just(0.0), st.floats(1e-6, 1e4))


@settings(deadline=None)
@given(params=model_params, h=fields)
@example(params=ModelParams(delta_inf=1e-300), h=100.0)  # unclamped root rounds above A
def test_root_lies_between_zero_and_film(params, h):
    assert 0.0 <= cavity_delta(params, h) <= film_delta(params, h)


@settings(deadline=None)
@given(params=model_params, h=fields)
def test_root_solves_the_balance(params, h):
    delta = cavity_delta(params, h)
    scale = params.alpha * h * h * delta
    assert abs(_balance_residual(params, h, delta)) <= 1e-12 * scale


@settings(deadline=None)
@given(params=model_params, h=fields)
def test_critical_field_round_trip(params, h):
    delta = cavity_delta(params, h)
    assert critical_field(params, delta, "cavity") == pytest.approx(h, rel=1e-9, abs=1e-9)

