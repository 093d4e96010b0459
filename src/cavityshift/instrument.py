"""Deterministic emulation of the measurement hardware.

Covers the four-wire resistive transition of the sample, the cryostat
floor, and Gaussian instrument noise.  The coil is taken to apply each
planned field exactly.  All randomness flows from one master seed
through :func:`noise_stream`, so any curve is reproducible from its
substream path alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfinv

from .errors import DomainError, InputError

#: Converts a 10%-90% resistive width into the erf length scale:
#: R/R_n = (1+erf(x/s))/2 crosses 0.1 and 0.9 at x = -+ s*erfinv(0.8),
#: so s = width / ERF_WIDTH_FACTOR.
ERF_WIDTH_FACTOR = 2.0 * float(erfinv(0.8))

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
        # every check also rejects NaN and infinity
        for name in ("base_temperature", "normal_resistance", "transition_width"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise InputError(f"{name} must be finite and > 0, got {value}")
        for name in ("resistance_noise", "temperature_jitter"):
            value = getattr(self, name)
            if not (0 <= value < math.inf):
                raise InputError(f"{name} must be finite and >= 0, got {value}")
        if not (0 <= self.seed < 2 ** 64 and self.seed == int(self.seed)):
            raise InputError(f"seed must be a 64-bit unsigned int, got {self.seed}")


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
    # each int becomes its little-endian 32-bit words, 0 becomes [0]
    words = []
    for value in (seed, *path):
        value = int(value)
        if value < 0:
            raise ValueError(f"substream key elements must be nonnegative, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


#: Values a grid's cached noiseless profiles may hold, 2 MiB of float64:
#: 1310 transitions on a 200-point grid.  Past it a profile is computed
#: afresh, so a caller sweeping t* across a grid cannot grow the cache.
_PROFILE_VALUES_PER_GRID = 2 ** 18


@functools.lru_cache(maxsize=64)
def _grid_profiles(grid: bytes, shape: tuple[int, ...], base_temperature: float,
                   width_mk: float, r_n: float) -> dict[float, np.ndarray]:
    """Read-only noiseless profiles on one float64 setpoint grid, by t*.

    Keyed by the grid's content, so every curve of a plan shares one
    dict, whose entries :func:`measure_profile` adds and never evicts.
    """
    return {}


def _noiseless_profile(cfg: InstrumentConfig, t: np.ndarray, t_star: float) -> np.ndarray:
    """The noiseless profile of ``t`` read at the floor, cached per finite t*."""
    profiles = _grid_profiles(t.tobytes(), t.shape, cfg.base_temperature,
                              cfg.transition_width, cfg.normal_resistance)
    profile = profiles.get(t_star)
    if profile is None:
        profile = resistive_transition(np.maximum(t, cfg.base_temperature), t_star,
                                       cfg.transition_width, cfg.normal_resistance)
        profile.flags.writeable = False
        if (math.isfinite(t_star)
                and (len(profiles) + 1) * t.size <= _PROFILE_VALUES_PER_GRID):
            profiles[t_star] = profile
    return profile


def measure_profile(cfg: InstrumentConfig, t_setpoints: np.ndarray, t_star: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Vectorized sweep readout over a setpoint grid (K).

    One generator call draws 2n standard normals: the jitter block
    first, then the resistance-noise block, so a curve stays
    deterministic per substream.  Setpoints below the cryostat floor
    read at the floor; a jittered temperature at or below 0 K raises
    :class:`DomainError`.  Without jitter the noiseless profile comes
    from a cache shared by every curve on the same grid and transition,
    and only the noise is added to it.
    """
    t = np.asarray(t_setpoints, dtype=float)
    z = rng.standard_normal(2 * t.size).reshape((2, *t.shape))
    if cfg.temperature_jitter == 0:
        # a zero jitter adds +0.0 to every setpoint, which changes none
        return _noiseless_profile(cfg, t, t_star) + cfg.resistance_noise * z[1]
    t = np.maximum(t, cfg.base_temperature)
    t += cfg.temperature_jitter * z[0] * 1e-3
    if (t <= 0).any():
        raise DomainError("temperature must be > 0")
    r = resistive_transition(t, t_star, cfg.transition_width, cfg.normal_resistance)
    r += cfg.resistance_noise * z[1]
    return r
