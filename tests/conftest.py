"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from cavityshift.protocol import plan_table


@pytest.fixture
def table_of():
    """The plan table ``acquire_curve`` reads for (params, cfg, plan): a
    simulated curve's true midpoint is ``t_stars[kind][field index]``, its
    noiseless readout ``profiles[kind][field index]``."""
    def table(params, cfg, plan):
        return plan_table(params, plan, cfg.base_temperature, cfg.transition_width,
                          cfg.normal_resistance)
    return table
