from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfinv

from cavityshift import (DomainError, InputError, InstrumentConfig,
                         measure_profile, noise_stream, transition_resistance)
from cavityshift.instrument import ERF_WIDTH_FACTOR


@pytest.fixture
def cfg():
    return InstrumentConfig()


@pytest.fixture
def quiet():
    return InstrumentConfig(resistance_noise=0.0, temperature_jitter=0.0)


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
        assert transition_resistance(cfg, 1.5, 1.5) == 5.0

    def test_ten_ninety_width(self, cfg):
        w = cfg.transition_width * 1e-3
        assert transition_resistance(cfg, 1.5 - w / 2, 1.5) == pytest.approx(1.0, rel=1e-12)
        assert transition_resistance(cfg, 1.5 + w / 2, 1.5) == pytest.approx(9.0, rel=1e-12)

    def test_deep_superconducting_tail(self, cfg):
        w = cfg.transition_width * 1e-3
        assert transition_resistance(cfg, 1.5 - 5 * w, 1.5) < 1e-3 * cfg.normal_resistance

    def test_above_ninety_percent_band(self, cfg):
        w = cfg.transition_width * 1e-3
        r = transition_resistance(cfg, 1.5 + w, 1.5)
        assert 0.9 * cfg.normal_resistance <= r <= cfg.normal_resistance

    def test_monotone(self, cfg):
        t = np.linspace(1.2, 1.8, 500)
        r = transition_resistance(cfg, t, 1.5)
        assert np.all(np.diff(r) >= 0.0)

    def test_nonpositive_temperature_rejected(self, cfg):
        with pytest.raises(DomainError):
            transition_resistance(cfg, 0.0, 1.5)


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
    with pytest.raises(ValueError):
        noise_stream(seed, *path)


class TestNoise:
    def test_noiseless_reduces_to_transition(self, quiet):
        rng = noise_stream(quiet.seed, 0)
        value = measure_profile(quiet, np.array([1.5]), 1.5, rng)
        assert value[0] == transition_resistance(quiet, 1.5, 1.5)

    def test_same_substream_bit_identical(self, cfg):
        t = np.linspace(1.4, 1.6, 20)
        first = measure_profile(cfg, t, 1.5, noise_stream(cfg.seed, 3, 1, 0))
        second = measure_profile(cfg, t, 1.5, noise_stream(cfg.seed, 3, 1, 0))
        assert np.array_equal(first, second)

    def test_distinct_paths_differ(self, cfg):
        t = np.array([1.5])
        a = measure_profile(cfg, t, 1.5, noise_stream(cfg.seed, 0))
        b = measure_profile(cfg, t, 1.5, noise_stream(cfg.seed, 1))
        assert a[0] != b[0]

    def test_noise_standard_deviation(self):
        cfg = InstrumentConfig(resistance_noise=0.05, temperature_jitter=0.0, seed=9)
        readings = measure_profile(cfg, np.full(10_000, 1.5), 1.5,
                                   noise_stream(cfg.seed, 0))
        assert readings.std(ddof=1) == pytest.approx(0.05, rel=0.03)

    def test_profile_matches_shape_when_quiet(self, quiet):
        t = np.linspace(1.3, 1.7, 100)
        rng = noise_stream(quiet.seed, 0)
        profile = measure_profile(quiet, t, 1.5, rng)
        assert np.array_equal(profile, transition_resistance(quiet, t, 1.5))

    def test_profile_deterministic(self, cfg):
        t = np.linspace(1.3, 1.7, 100)
        a = measure_profile(cfg, t, 1.5, noise_stream(cfg.seed, 5))
        b = measure_profile(cfg, t, 1.5, noise_stream(cfg.seed, 5))
        assert np.array_equal(a, b)

    def test_setpoint_clamped_to_base(self, quiet):
        low = measure_profile(quiet, np.array([0.1]), 0.30, noise_stream(quiet.seed, 0))
        at_base = measure_profile(quiet, np.array([quiet.base_temperature]), 0.30,
                                  noise_stream(quiet.seed, 0))
        assert low[0] == at_base[0]
