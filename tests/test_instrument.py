from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfinv

from cavityshift import (InputError, InstrumentConfig, ModelParams,
                         acquire_curve, cavity_delta, film_delta,
                         measure_profile, noise_stream, plan_sweep)
from cavityshift.instrument import ERF_WIDTH_FACTOR, resistive_transition
from cavityshift.protocol import KIND_CODES, temperature_grid


@pytest.fixture
def cfg():
    return InstrumentConfig()


@pytest.fixture
def quiet():
    return InstrumentConfig(resistance_noise=0.0, temperature_jitter=0.0)


def noiseless_resistance(cfg, t, t_star):
    """Noiseless resistance of the transition ``cfg`` describes."""
    return resistive_transition(t, t_star, cfg.transition_width, cfg.normal_resistance)


def readout(cfg, t_setpoints, t_star, rng):
    """:func:`measure_profile` given the noiseless profile a plan table
    holds: the transition read at the setpoints clamped to the floor."""
    t = np.asarray(t_setpoints, dtype=float)
    profile = noiseless_resistance(cfg, np.maximum(t, cfg.base_temperature), t_star)
    return measure_profile(cfg, t, t_star, profile, rng)


class TestConfig:
    def test_defaults_match_apparatus(self, cfg):
        assert cfg.base_temperature == 0.300
        assert cfg.normal_resistance == 10.0
        assert cfg.transition_width == 50.0

    def test_invalid_values_rejected(self):
        with pytest.raises(InputError):
            InstrumentConfig(base_temperature=-1.0)
        with pytest.raises(InputError):
            InstrumentConfig(transition_width=0.0)
        with pytest.raises(InputError):
            InstrumentConfig(resistance_noise=-0.1)
        with pytest.raises(InputError):
            InstrumentConfig(seed=-1)
        with pytest.raises(InputError):
            InstrumentConfig(seed=2 ** 64)
        for name in ("base_temperature", "normal_resistance", "transition_width",
                     "resistance_noise", "temperature_jitter", "seed"):
            for value in (math.inf, math.nan):
                with pytest.raises(InputError, match=name):
                    InstrumentConfig(**{name: value})


class TestTransitionShape:
    def test_width_factor_definition(self):
        assert ERF_WIDTH_FACTOR == pytest.approx(2 * float(erfinv(0.8)), rel=1e-15)

    def test_midpoint_exact(self, cfg):
        assert noiseless_resistance(cfg, 1.5, 1.5) == 5.0

    def test_ten_ninety_width(self, cfg):
        w = cfg.transition_width * 1e-3
        assert noiseless_resistance(cfg, 1.5 - w / 2, 1.5) == pytest.approx(1.0, rel=1e-12)
        assert noiseless_resistance(cfg, 1.5 + w / 2, 1.5) == pytest.approx(9.0, rel=1e-12)

    def test_deep_superconducting_tail(self, cfg):
        w = cfg.transition_width * 1e-3
        assert noiseless_resistance(cfg, 1.5 - 5 * w, 1.5) < 1e-3 * cfg.normal_resistance

    def test_above_ninety_percent_band(self, cfg):
        w = cfg.transition_width * 1e-3
        r = noiseless_resistance(cfg, 1.5 + w, 1.5)
        assert 0.9 * cfg.normal_resistance <= r <= cfg.normal_resistance

    def test_monotone(self, cfg):
        t = np.linspace(1.2, 1.8, 500)
        r = noiseless_resistance(cfg, t, 1.5)
        assert np.all(np.diff(r) >= 0.0)

    def test_jittered_temperature_never_reads_below_the_floor(self):
        # setpoints and transition midpoint at the floor: a draw below it
        # reads the midpoint, r_n / 2, exactly; a draw below 0 K (10 K of
        # jitter) once raised DomainError, which ended a whole study
        for jitter in (50.0, 1e4):
            cfg = InstrumentConfig(resistance_noise=0.0, temperature_jitter=jitter,
                                   seed=3)
            floor, midpoint = cfg.base_temperature, 0.5 * cfg.normal_resistance
            z = noise_stream(cfg.seed, 0).standard_normal(200)[:100]
            r = readout(cfg, np.full(100, floor), floor, noise_stream(cfg.seed, 0))
            assert 0 < (z < 0).sum() < 100
            assert np.array_equal(r == midpoint, z <= 0)
            assert r.min() == midpoint


# key elements of one, two and three 32-bit words, with 0 and the word edges
key_elements = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
                         st.integers(0, 2**64 - 1), st.integers(0, 2**80))


@settings(deadline=None)
@given(seed=st.integers(0, 2**64 - 1), path=st.lists(key_elements, max_size=5))
@example(seed=0, path=[])
@example(seed=123456789012345, path=[0, 2**32, 0])
def test_noise_stream_state_matches_seed_sequence(seed, path):
    expected = np.random.SeedSequence([seed, *path]).generate_state(4)
    generator = noise_stream(seed, *path).bit_generator
    assert np.array_equal(generator.seed_seq.generate_state(4), expected)
    reference = np.random.default_rng(np.random.SeedSequence([seed, *path]))
    assert generator.state == reference.bit_generator.state


@pytest.mark.parametrize("seed, path", [(-1, ()), (1, (3, -1)), (1, (-(2**40),))])
def test_noise_stream_rejects_negative_key(seed, path):
    with pytest.raises(InputError):
        noise_stream(seed, *path)


class TestNoise:
    def test_noiseless_reduces_to_transition(self, quiet):
        rng = noise_stream(quiet.seed, 0)
        value = readout(quiet, np.array([1.5]), 1.5, rng)
        assert value[0] == noiseless_resistance(quiet, 1.5, 1.5)

    def test_same_substream_bit_identical(self, cfg):
        t = np.linspace(1.4, 1.6, 20)
        first = readout(cfg, t, 1.5, noise_stream(cfg.seed, 3, 1, 0))
        second = readout(cfg, t, 1.5, noise_stream(cfg.seed, 3, 1, 0))
        assert np.array_equal(first, second)

    def test_distinct_paths_differ(self, cfg):
        t = np.array([1.5])
        a = readout(cfg, t, 1.5, noise_stream(cfg.seed, 0))
        b = readout(cfg, t, 1.5, noise_stream(cfg.seed, 1))
        assert a[0] != b[0]

    def test_noise_standard_deviation(self):
        cfg = InstrumentConfig(resistance_noise=0.05, temperature_jitter=0.0, seed=9)
        readings = readout(cfg, np.full(10_000, 1.5), 1.5,
                           noise_stream(cfg.seed, 0))
        assert readings.std(ddof=1) == pytest.approx(0.05, rel=0.03)

    def test_profile_matches_shape_when_quiet(self, quiet):
        t = np.linspace(1.3, 1.7, 100)
        rng = noise_stream(quiet.seed, 0)
        profile = readout(quiet, t, 1.5, rng)
        assert np.array_equal(profile, noiseless_resistance(quiet, t, 1.5))

    def test_profile_deterministic(self, cfg):
        t = np.linspace(1.3, 1.7, 100)
        a = readout(cfg, t, 1.5, noise_stream(cfg.seed, 5))
        b = readout(cfg, t, 1.5, noise_stream(cfg.seed, 5))
        assert np.array_equal(a, b)

    def test_setpoint_clamped_to_base(self, quiet):
        low = readout(quiet, np.array([0.1]), 0.30, noise_stream(quiet.seed, 0))
        at_base = readout(quiet, np.array([quiet.base_temperature]), 0.30,
                          noise_stream(quiet.seed, 0))
        assert low[0] == at_base[0]


def two_draw_measure_profile(cfg, t_setpoints, t_star, rng):
    """The readout as it was before the single draw and the profile cache:
    one ``normal`` call per noise block, the erf evaluated every call; a
    jittered temperature below the floor is raised to it."""
    t = np.maximum(np.asarray(t_setpoints, dtype=float), cfg.base_temperature)
    jitter_k = rng.normal(0.0, cfg.temperature_jitter, t.shape) * 1e-3
    noise = rng.normal(0.0, cfg.resistance_noise, t.shape)
    t += jitter_k
    t = np.maximum(t, cfg.base_temperature)
    r = resistive_transition(t, t_star, cfg.transition_width, cfg.normal_resistance)
    r += noise
    return r


def assert_bit_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


# a plan-like grid, one reaching below the 0.3 K floor, and a 2-D grid
READOUT_GRIDS = {
    "plan": np.linspace(1.3, 1.7, 200),
    "below-floor": np.linspace(0.1, 0.5, 50),
    "2-D": np.linspace(1.4, 1.6, 60).reshape(3, 20),
}


class TestSingleDrawReadout:
    @pytest.mark.parametrize("grid", READOUT_GRIDS.values(), ids=READOUT_GRIDS.keys())
    @pytest.mark.parametrize("jitter", [0.0, 2.0, 0.7])
    @pytest.mark.parametrize("sigma_r", [0.0, 0.0751])
    @pytest.mark.parametrize("t_star", [0.32, 1.5, math.nan, math.inf, -math.inf])
    def test_bit_identical_to_two_draws(self, grid, jitter, sigma_r, t_star):
        cfg = InstrumentConfig(resistance_noise=sigma_r, temperature_jitter=jitter)
        for setpoints, path in ((grid, 0), (grid + 1e-3, 0), (grid, 1)):
            expected = two_draw_measure_profile(cfg, setpoints, t_star,
                                                noise_stream(cfg.seed, path))
            actual = readout(cfg, setpoints, t_star, noise_stream(cfg.seed, path))
            assert_bit_identical(actual, expected)

    def test_returned_array_is_fresh(self, quiet):
        t = np.linspace(1.3, 1.7, 200)
        profile = noiseless_resistance(quiet, t, 1.5)
        profile.flags.writeable = False
        first = measure_profile(quiet, t, 1.5, profile, noise_stream(quiet.seed, 0))
        assert first.flags.writeable
        first[:] = -1.0
        second = measure_profile(quiet, t, 1.5, profile, noise_stream(quiet.seed, 0))
        assert_bit_identical(second, noiseless_resistance(quiet, t, 1.5))


class TestPlanReadout:
    """acquire_curve reads the noiseless profile from its plan table."""

    @pytest.mark.parametrize("jitter", [0.0, 2.0])
    @pytest.mark.parametrize("kind", ["film", "cavity"])
    def test_acquire_curve_bit_identical_to_two_draws(self, kind, jitter):
        params = ModelParams()
        # the floor clamps the grid's first setpoints, inside the transition
        # tail, so a profile read off the unclamped grid would differ
        cfg = InstrumentConfig(base_temperature=1.45, temperature_jitter=jitter, seed=7)
        plan = plan_sweep(params, cfg, np.linspace(10.0, 250.0, 13))
        grid = temperature_grid(plan)
        assert grid[0] < cfg.base_temperature
        delta = {"film": film_delta, "cavity": cavity_delta}[kind]
        t_stars = params.t_c - delta(params, np.array(plan.fields)) * 1e-3
        for index, (field, t_star) in enumerate(zip(plan.fields, t_stars.tolist())):
            curve = acquire_curve(params, cfg, plan, field, kind, substream_prefix=(3,))
            assert curve.oracle_t_star == t_star
            rng = noise_stream(cfg.seed, 3, index, KIND_CODES[kind], 0)
            assert_bit_identical(curve.resistances,
                                 two_draw_measure_profile(cfg, grid, t_star, rng))
