"""The closed form against the Monte Carlo on a table of plans: a study's
delta_n agrees with hypot(kappa_R sigma_R, kappa_T sigma_T) within 4 of
its standard errors.

Criterion 5 checks a study on the reference plan alone, with wide
bounds.  A Monte Carlo delta_n away from the closed form flags a bias in
the fit, the repeat weights, the Tc regression or the difference, and
the plan it shows on.  Each plan runs 200 trials at seed 1.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from cavityshift import delta_n_per_ohm, run_sensitivity
from cavityshift.config import run_config_from_dict

#: Each plan by name: its config, as changed from the reference, and the
#: delta_n target (mK) whose sigma_R the closed form gives, or None for the
#: config's own sigma_R.
PLANS = {
    "width-2mK": ({"instrument": {"transition_width": 2.0}}, 0.1),
    "fields-60-240G": ({"plan": {"fields": [60.0, 120.0, 180.0, 240.0]}}, 0.1),
    "40-points": ({"plan": {"n_points": 40}}, 0.1),
    "3-repetitions": ({"plan": {"repetitions": 3}}, 0.1),
    "h_v-20G-delta_inf-1mK": ({"model": {"h_v": 20.0, "delta_inf": 1.0}}, 0.1),
    # twice the noise-free floor of 0.1127 mK that the jitter sets
    "jitter-0.5mK": ({"instrument": {"temperature_jitter": 0.5}}, 0.2253),
    # the 0.3 K cryostat floor clamps the lower part of every sweep
    "t_c-0.32K": ({"model": {"t_c": 0.32}}, 0.1),
    # narrow transitions at 0.0751 ohm, the derived 0.25 mK span covering
    # the fields' spread rather than eight widths
    "width-1mK": ({"instrument": {"transition_width": 1.0}}, None),
    "width-0.5mK": ({"instrument": {"transition_width": 0.5}}, None),
    "width-0.25mK": ({"instrument": {"transition_width": 0.25}}, None),
    # just above the 0.1239 mK floor, where kappa_T, first order in the
    # jitter, reads delta_n furthest below the Monte Carlo
    "fields-50-200G-jitter-0.5mK": ({"plan": {"fields": [50.0, 100.0, 150.0, 200.0]},
                                     "instrument": {"temperature_jitter": 0.5}}, 0.127),
}


@pytest.mark.parametrize("data, target", PLANS.values(), ids=PLANS.keys())
def test_monte_carlo_delta_n_matches_the_closed_form(data, target):
    config = run_config_from_dict(data)
    cfg = config.instrument
    if target is not None:  # calibrate_noise's sigma_R, without its study
        kappa_r, kappa_t = delta_n_per_ohm(config.model, cfg, config.plan)
        floor = kappa_t * cfg.temperature_jitter
        cfg = replace(cfg, resistance_noise=math.sqrt(target ** 2 - floor ** 2) / kappa_r)
    report = run_sensitivity(config.model, cfg, config.plan, 200)
    forecast = math.hypot(report.delta_n_per_ohm * cfg.resistance_noise,
                          report.delta_n_floor)
    assert report.failed_trials == 0
    assert abs(report.delta_n - forecast) <= 4 * report.delta_n_se
