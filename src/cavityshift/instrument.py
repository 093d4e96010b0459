"""Deterministic emulation of the measurement hardware.

Covers the four-wire resistive transition of the sample, the cryostat
floor, and Gaussian instrument noise.  The coil is taken to apply each
planned field exactly.  All randomness flows from one master seed
through :func:`noise_stream`, so any curve is reproducible from (seed,
trial, field index, kind, repetition) alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfinv

from .errors import InputError, check_number, is_number
from .model import MAX_T_C, MIN_DELTA_V

#: Converts a 10%-90% resistive width into the erf length scale:
#: R/R_n = (1+erf(x/s))/2 crosses 0.1 and 0.9 at x = -+ s*erfinv(0.8),
#: so s = width / ERF_WIDTH_FACTOR.
ERF_WIDTH_FACTOR = 2.0 * float(erfinv(0.8))

#: Highest normal resistance and resistance noise (ohm), 1 Tohm: past any
#: film or cavity sample and any readout's noise, and far inside the float
#: range, so the noise drawn at it and every square a fit forms are finite
#: (1e308 ohm of noise once overflowed in the readout).
MAX_RESISTANCE = 1e12

#: Lowest normal resistance (ohm), 1 pohm: below any film or cavity sample;
#: kappa's normal equations scale as r_n^2, and underflowed near 1e-155 ohm.
MIN_RESISTANCE = 1e-12

#: Resistance noise (ohm) that reproduces a single-measurement
#: sensitivity of ~0.1 mK with the default plan, within 5%.
DEFAULT_RESISTANCE_NOISE = 0.0751


@dataclass(frozen=True)
class InstrumentConfig:
    """Hardware constants and noise levels of the measurement chain."""

    base_temperature: float = 0.300     # K, cryostat floor
    normal_resistance: float = 10.0     # ohm
    transition_width: float = 50.0      # mK, 10%-90% resistive width
    resistance_noise: float = DEFAULT_RESISTANCE_NOISE  # ohm, sigma per sample
    temperature_jitter: float = 0.0     # mK, sigma on the setpoint
    seed: int = 1                       # master seed, 64-bit unsigned

    def __post_init__(self):
        check_number("base_temperature", self.base_temperature, above=0, at_most=MAX_T_C)
        check_number("normal_resistance", self.normal_resistance,
                     at_least=MIN_RESISTANCE, at_most=MAX_RESISTANCE)
        # widths from the 1 pK floor to the highest Tc, and jitter no larger,
        # keep every erf argument of a plan within about 1e17
        check_number("transition_width", self.transition_width, at_least=MIN_DELTA_V,
                     at_most=MAX_T_C * 1e3)
        check_number("resistance_noise", self.resistance_noise, at_least=0,
                     at_most=MAX_RESISTANCE)
        check_number("temperature_jitter", self.temperature_jitter, at_least=0,
                     at_most=MAX_T_C * 1e3)
        if not (is_number(self.seed, integer=True) and 0 <= self.seed < 2 ** 64):
            raise InputError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")


def resistive_transition(t, t_star: float, width_mk: float, r_n: float):
    """Noiseless erf transition shape; t may be a float or an array.

    R(t) = r_n/2 * (1 + erf((t - t_star)/s)) with s sized so the
    resistance climbs from 10% to 90% of r_n over ``width_mk``.
    """
    s = (width_mk * 1e-3) / ERF_WIDTH_FACTOR
    return 0.5 * r_n * (1.0 + erf((np.asarray(t, dtype=float) - t_star) / s))


def noise_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent substream for one acquisition unit.

    Substreams are keyed by the integer tuple ``(seed, *path)`` fed to
    a SeedSequence, e.g. ``(seed, trial, field_index, kind_code,
    repetition)``.  Equal keys give bit-identical streams regardless of
    creation order, which makes datasets order-insensitive.
    """
    # SeedSequence's own coercion of the key, without its per-element cost:
    # each integer becomes its little-endian 32-bit words, 0 becomes [0];
    # like SeedSequence it refuses a float (2.9 once drew the stream of 2)
    words = []
    for value in (seed, *path):
        try:
            value = operator.index(value)
        except TypeError:
            raise InputError(f"substream key elements must be integers, "
                             f"got {value!r}") from None
        if value < 0:
            raise InputError(f"substream key elements must be nonnegative, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def measure_profile(cfg: InstrumentConfig, t_setpoints: np.ndarray, t_star: float,
                    profile: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized sweep readout over a setpoint grid (K).

    ``profile`` is the noiseless readout of the transition at ``t_star``
    on the setpoints read at the cryostat floor, which the caller keeps
    (see :func:`protocol.plan_table`); without jitter only the noise is
    added to it.  One generator call draws 2n standard normals: the
    jitter block first, then the resistance-noise block, so a curve stays
    deterministic per substream.  With jitter the readout is evaluated at
    the jittered temperatures, each raised to the cryostat floor if the
    jitter takes it below: the sample cannot be colder than the floor.
    """
    t = np.asarray(t_setpoints, dtype=float)
    z = rng.standard_normal(2 * t.size).reshape((2, *t.shape))
    if cfg.temperature_jitter == 0:
        # a zero jitter adds +0.0 to every setpoint, which changes none
        return profile + cfg.resistance_noise * z[1]
    t = np.maximum(t, cfg.base_temperature)
    t += cfg.temperature_jitter * z[0] * 1e-3
    np.maximum(t, cfg.base_temperature, out=t)
    r = resistive_transition(t, t_star, cfg.transition_width, cfg.normal_resistance)
    r += cfg.resistance_noise * z[1]
    return r
