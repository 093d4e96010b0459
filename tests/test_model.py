"""Model-layer tests.

The cavity root is checked against an independent brute-force oracle:
a sign-change scan of the balance residual on a delta grid followed by
plain bisection, never touching the production solver.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cavityshift import (InputError, ModelParams, cavity_delta, critical_field,
                         delta_derivative, delta_difference, film_delta)
from cavityshift.model import _balance_residual, slope_contrast


def oracle_cavity_delta(params, h, n_grid=20000, tol=1e-13):
    """Grid scan of the balance residual plus bisection.

    The residual is positive between zero and the physical root and
    negative beyond it, so the first sign change brackets the answer.
    """
    if h == 0.0:
        return 0.0
    upper = params.alpha * h * h + params.delta_inf
    grid = np.linspace(0.0, upper, n_grid)
    res = np.array([_balance_residual(params, h, d) for d in grid])
    neg = np.nonzero(res[1:] < 0)[0]
    if neg.size == 0:
        return upper
    lo, hi = grid[neg[0]], grid[neg[0] + 1]
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if _balance_residual(params, h, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def params():
    return ModelParams()


class TestCalibration:
    def test_alpha_from_anchor(self, params):
        assert params.alpha == pytest.approx(0.6 / 22500, rel=1e-15)

    def test_film_anchor_exact(self, params):
        assert film_delta(params, 150.0) == pytest.approx(0.6, rel=1e-13)

    def test_delta_v(self, params):
        assert params.delta_v == pytest.approx(params.alpha * 2500, rel=1e-15)
        assert params.delta_v == pytest.approx(0.0666667, rel=1e-5)

    def test_other_defaults(self, params):
        assert params.delta_inf == 0.2
        assert params.h_v == 50.0
        assert params.t_c == 1.5
        assert params.cond_scale == 1.0

    def test_invalid_params_rejected(self):
        with pytest.raises(InputError):
            ModelParams(alpha=-1.0)
        with pytest.raises(InputError):
            ModelParams(t_c=0.0)
        with pytest.raises(InputError):
            ModelParams(h_v=-5.0)
        with pytest.raises(InputError):
            ModelParams(cond_scale=0.0)
        with pytest.raises(InputError):
            ModelParams(delta_inf=-0.1)
        for name in ("t_c", "alpha", "delta_inf", "h_v", "cond_scale"):
            for value in (math.inf, math.nan):
                with pytest.raises(InputError, match=name):
                    ModelParams(**{name: value})


class TestFilmDelta:
    def test_zero_field(self, params):
        assert film_delta(params, 0.0) == 0.0

    def test_crossover_value(self, params):
        assert film_delta(params, 50.0) == pytest.approx(0.0666667, rel=1e-5)

    def test_quadratic_ratio(self, params):
        rng = np.random.default_rng(7)
        h = rng.uniform(1.0, 500.0, size=(50, 2))
        for h1, h2 in h:
            ratio = film_delta(params, h2) / film_delta(params, h1)
            assert ratio == pytest.approx((h2 / h1) ** 2, rel=1e-12)

    def test_negative_field_rejected(self, params):
        with pytest.raises(InputError):
            film_delta(params, -1.0)


class TestCavityDelta:
    def test_zero_field(self, params):
        assert cavity_delta(params, 0.0) == 0.0

    def test_reference_point(self, params):
        value = cavity_delta(params, 150.0)
        assert value == pytest.approx(0.4, rel=0.10)
        # frozen from the grid-scan oracle
        assert value == pytest.approx(0.4270083225302218, rel=1e-12)
        assert value == pytest.approx(oracle_cavity_delta(params, 150.0), abs=1e-9)

    def test_high_field_shift_from_fine_grid_oracle(self, params):
        # residual scanned on a 1e-6 mK grid, then the bracket bisected
        h = 500.0
        upper = params.alpha * h * h + params.delta_inf
        n = int(upper / 1e-6) + 2
        grid = np.linspace(0.0, upper, n)
        res = params.alpha * h * h * grid - grid ** 2 \
            - params.delta_inf * grid ** 2 / (grid + params.delta_v)
        first_neg = int(np.nonzero(res[1:] < 0)[0][0])
        lo, hi = grid[first_neg], grid[first_neg + 1]
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            if _balance_residual(params, h, mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert cavity_delta(params, h) == pytest.approx(oracle, abs=1e-9)
        shift = film_delta(params, h) - cavity_delta(params, h)
        assert shift == pytest.approx(params.delta_inf, rel=0.05)

    def test_oracle_agreement_on_random_fields(self, params):
        rng = np.random.default_rng(42)
        for h in rng.uniform(0.0, 10.0 * params.h_v, 50):
            assert cavity_delta(params, h) == pytest.approx(
                oracle_cavity_delta(params, h), abs=1e-9)

    def test_ordering_and_monotonicity(self, params):
        grid = np.linspace(0.0, 10.0 * params.h_v, 1000)
        film = np.array([film_delta(params, h) for h in grid])
        cavity = np.array([cavity_delta(params, h) for h in grid])
        assert np.all(cavity >= 0.0)
        assert np.all(cavity <= film)
        assert np.all(np.diff(film) >= 0.0)
        assert np.all(np.diff(cavity) >= 0.0)
        assert np.all(np.diff(film - cavity) >= -1e-15)

    def test_residual_below_tolerance(self, params):
        for h in (5.0, 50.0, 150.0, 333.0, 500.0):
            delta = cavity_delta(params, h)
            assert abs(_balance_residual(params, h, delta)) <= 1e-12

    def test_scale_invariance(self, params):
        reference = cavity_delta(params, 137.0)
        for scale in (1e-3, 1e-1, 1e1, 1e3):
            scaled = ModelParams(t_c=params.t_c, alpha=params.alpha,
                                 delta_inf=params.delta_inf, h_v=params.h_v,
                                 cond_scale=scale)
            assert cavity_delta(scaled, 137.0) == pytest.approx(reference, rel=1e-12)

    def test_degenerate_cavity_equals_film(self, params):
        plain = ModelParams(alpha=params.alpha, delta_inf=0.0, h_v=params.h_v)
        for h in (10.0, 50.0, 250.0):
            assert cavity_delta(plain, h) == film_delta(plain, h)

    def test_negative_field_rejected(self, params):
        with pytest.raises(InputError):
            cavity_delta(params, -2.0)


class TestDeltaDifference:
    def test_zero_field(self, params):
        assert delta_difference(params, 0.0) == 0.0

    def test_constant_regime(self, params):
        for h in np.linspace(5.0 * params.h_v, 10.0 * params.h_v, 20):
            assert delta_difference(params, h) == pytest.approx(
                params.delta_inf, rel=0.05)

    def test_reference_field_near_nominal(self, params):
        # under the interpolated energy form the shift at 3 h_v is still
        # approaching its asymptote: 0.173 mK against the 0.2 mK plateau
        value = delta_difference(params, 150.0)
        assert value == pytest.approx(0.17299167746977817, rel=1e-9)
        assert abs(value - 0.2) < 0.03

    def test_bounded_by_asymptote(self, params):
        for h in np.linspace(1.0, 10.0 * params.h_v, 200):
            diff = delta_difference(params, h)
            assert 0.0 <= diff <= params.delta_inf * (1.0 + 1e-9)


class TestDerivative:
    def test_film_value(self, params):
        assert delta_derivative(params, 100.0, "film") == pytest.approx(
            2.0 * params.alpha * 100.0, rel=1e-15)
        assert delta_derivative(params, 100.0, "film") == pytest.approx(
            5.3333e-3, rel=1e-4)

    def test_film_linearity(self, params):
        for h in (13.0, 77.0, 240.0):
            assert delta_derivative(params, 2 * h, "film") == pytest.approx(
                2.0 * delta_derivative(params, h, "film"), rel=1e-14)

    def test_analytic_matches_central_difference(self, params):
        for h in np.geomspace(1.0, 500.0, 40):
            analytic = delta_derivative(params, h, "cavity")
            numeric = (cavity_delta(params, h + 1e-3)
                       - cavity_delta(params, h - 1e-3)) / 2e-3
            assert analytic == pytest.approx(numeric, rel=1e-6)

    def test_low_field_cavity_linear(self, params):
        h = np.linspace(5.0, 15.0, 60)
        slopes = np.array([(cavity_delta(params, x + 1e-3)
                            - cavity_delta(params, x - 1e-3)) / 2e-3 for x in h])
        xbar, ybar = h.mean(), slopes.mean()
        fit_slope = np.sum((h - xbar) * (slopes - ybar)) / np.sum((h - xbar) ** 2)
        ssr = np.sum((slopes - ybar - fit_slope * (h - xbar)) ** 2)
        sst = np.sum((slopes - ybar) ** 2)
        assert 1.0 - ssr / sst > 0.999

    def test_low_field_slope_limit(self, params):
        # d(delta_c)/dH -> 2 alpha H / (1 + delta_inf/delta_v) for H << h_v
        expected = 2.0 * params.alpha * 1.0 / (1.0 + params.delta_inf / params.delta_v)
        assert delta_derivative(params, 1.0, "cavity") == pytest.approx(expected, rel=1e-3)

    def test_convergence_above_crossover(self, params):
        for h in np.linspace(5.0 * params.h_v, 10.0 * params.h_v, 20):
            film = delta_derivative(params, h, "film")
            cavity = delta_derivative(params, h, "cavity")
            assert abs(film - cavity) / film < 0.02

    def test_bad_kind_rejected(self, params):
        with pytest.raises(InputError):
            delta_derivative(params, 10.0, "wire")

    def test_slope_contrast_is_the_relative_slope_difference(self, params):
        fields = np.array([1e-6, 1.0, 10.0, 50.0, 250.0])
        film = delta_derivative(params, fields, "film")
        cavity = delta_derivative(params, fields, "cavity")
        np.testing.assert_allclose(slope_contrast(params, fields),
                                   (film - cavity) / film, rtol=0, atol=2e-16)


class TestCriticalField:
    def test_zero_delta(self, params):
        assert critical_field(params, 0.0, "film") == 0.0
        assert critical_field(params, 0.0, "cavity") == 0.0

    def test_film_anchor(self, params):
        assert critical_field(params, 0.6, "film") == pytest.approx(150.0, rel=1e-12)

    def test_cavity_reference(self, params):
        assert critical_field(params, 0.4, "cavity") == pytest.approx(150.0, rel=0.10)

    def test_round_trip(self, params):
        rng = np.random.default_rng(3)
        for delta in rng.uniform(1e-4, 5.0, 50):
            h_film = critical_field(params, delta, "film")
            assert film_delta(params, h_film) == pytest.approx(delta, rel=1e-9)
            h_cavity = critical_field(params, delta, "cavity")
            assert cavity_delta(params, h_cavity) == pytest.approx(delta, rel=1e-9)

    @pytest.mark.parametrize("kind", ["film", "cavity"])
    @pytest.mark.parametrize("delta", [-0.5, math.nan, math.inf, 1e308, "past-the-bound"])
    def test_delta_outside_the_admitted_depressions_rejected(self, params, kind, delta):
        # inf once gave nan for the cavity, and 1e308 an infinite field,
        # which the forward forms refuse; "past-the-bound" is the next
        # float above the depression at the largest admitted field
        deepest = {"film": film_delta, "cavity": cavity_delta}[kind](params,
                                                                   params.max_field)
        if delta == "past-the-bound":
            delta = math.nextafter(deepest, math.inf)
        with pytest.raises(InputError, match=r"^delta must"):
            critical_field(params, delta, kind)

    @pytest.mark.parametrize("kind", ["film", "cavity"])
    def test_the_deepest_admitted_depression_gives_the_largest_field(self, params, kind):
        deepest = {"film": film_delta, "cavity": cavity_delta}[kind](params,
                                                                   params.max_field)
        assert critical_field(params, deepest, kind) == params.max_field
