"""Free-energy balance for the in-plane critical field of a thin
superconducting film, bare or built in as one mirror of a vacuum cavity.

Units are fixed throughout this layer: applied field H in gauss,
transition-temperature depression ``delta = Tc - T`` in millikelvin,
energies in multiples of the condensation-energy scale ``cond_scale``.

The bare film obeys the quadratic law ``delta_f = alpha * H**2``.  For
the cavity mirror the applied field must additionally pay the
vacuum-energy cost of driving the layer normal, which suppresses the
depression.  That cost uses a phenomenological interpolation

    E_vac(delta) = cond_scale * delta_inf * delta**2 / (delta + delta_v)

with ``delta_v = alpha * h_v**2``.  The form is quadratic for
``delta << delta_v`` (keeping the low-field derivative linear in H) and
linear for ``delta >> delta_v`` (so the film/cavity difference
saturates at ``delta_inf``).  All outputs derived from it should be
read as phenomenological, not microscopic.

Every function here is pure; concurrent use needs no locking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, InputError

#: Tag attached to files derived from the cavity energy term.
CAVITY_FORM_NOTE = ("phenomenological interpolation "
                    "E_vac = cond_scale*delta_inf*delta^2/(delta+delta_v)")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of one paired film/cavity system.

    Defaults reproduce the reference calibration: ``delta_f = 0.6 mK``
    at H = 150 G, asymptotic shift 0.2 mK, crossover field 50 G.
    """

    t_c: float = 1.5                  # K, zero-field transition temperature
    alpha: float = 0.6 / 150.0**2     # mK/G^2, quadratic film coefficient
    delta_inf: float = 0.2            # mK, asymptotic film-cavity shift
    h_v: float = 50.0                 # G, crossover field
    cond_scale: float = 1.0           # overall energy normalisation

    def __post_init__(self):
        # every check also rejects NaN and infinity
        for name in ("t_c", "alpha", "h_v", "cond_scale"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise InputError(f"{name} must be finite and > 0, got {value}")
        if not (0 <= self.delta_inf < math.inf):
            raise InputError(f"delta_inf must be finite and >= 0, got {self.delta_inf}")

    @property
    def delta_v(self) -> float:
        """Crossover depression alpha*h_v**2 in mK."""
        return self.alpha * self.h_v * self.h_v


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy terms of the balance at one solved transition point.

    All values are in ``cond_scale`` units; ``residual`` is
    magnetic - condensation - casimir and vanishes (to rounding) at a
    transition point.
    """

    condensation: float
    casimir: float
    magnetic: float
    residual: float

    @property
    def casimir_to_condensation(self) -> float:
        """Ratio of the vacuum term to the condensation term.

        Reported so users can compare energy-accounting conventions;
        see the cavity-energy note in the package README.
        """
        if self.condensation == 0.0:
            return math.nan
        return self.casimir / self.condensation


def calibrate_defaults() -> ModelParams:
    """Reference parameters pinned to the design anchors.

    alpha is fixed by delta_f(150 G) = 0.6 mK, giving
    alpha = 0.6/150**2 mK/G^2; delta_inf = 0.2 mK; h_v = 50 G.
    t_c = 1.5 K is a configurable placeholder (it only shifts absolute
    temperatures, never any delta), cond_scale = 1.
    """
    return ModelParams()


def _check_nonneg(value: float, name: str) -> float:
    value = float(value)
    if not (value >= 0.0):  # also rejects NaN
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value


def film_delta(params: ModelParams, h: float) -> float:
    """Depression of the bare-film transition, alpha*H**2, in mK."""
    h = _check_nonneg(h, "field")
    return params.alpha * h * h


def condensation_energy(params: ModelParams, delta: float) -> float:
    """Condensation energy cond_scale*delta**2 at depression delta (mK)."""
    delta = _check_nonneg(delta, "delta")
    return params.cond_scale * delta * delta


def casimir_shift(params: ModelParams, delta: float) -> float:
    """Vacuum-energy cost of driving the cavity mirror normal.

    cond_scale*delta_inf*delta**2/(delta + delta_v): quadratic well
    below delta_v, linear (slope cond_scale*delta_inf) well above.
    """
    delta = _check_nonneg(delta, "delta")
    if delta == 0.0:
        return 0.0
    return params.cond_scale * params.delta_inf * delta * delta / (delta + params.delta_v)


def magnetic_energy(params: ModelParams, h: float, delta: float) -> float:
    """Field-penetration work cond_scale*alpha*H**2*delta.

    Chosen so that the vacuum-free balance magnetic == condensation
    returns exactly delta = alpha*H**2.
    """
    h = _check_nonneg(h, "field")
    delta = _check_nonneg(delta, "delta")
    return params.cond_scale * params.alpha * h * h * delta


def _balance_residual(params: ModelParams, h: float, delta: float) -> float:
    # magnetic - condensation - casimir, in cond_scale units (scale cancels)
    cas = params.delta_inf * delta * delta / (delta + params.delta_v) if delta > 0 else 0.0
    return params.alpha * h * h * delta - delta * delta - cas


def cavity_delta(params: ModelParams, h: float) -> float:
    """Depression of the cavity-mirror transition at field h (mK).

    The reduced balance alpha*H**2 = d + delta_inf*d/(d + delta_v) is
    the quadratic d**2 - b*d - A*delta_v = 0 with A = alpha*H**2 and
    b = A - delta_v - delta_inf.  Its one nonnegative root always
    satisfies 0 <= delta_c <= film_delta(h); the branch is chosen by
    the sign of b so that neither form subtracts nearly equal numbers.
    """
    h = _check_nonneg(h, "field")
    a = params.alpha * h * h
    if params.delta_inf == 0.0:
        return a  # no vacuum term: exactly the film law
    dv = params.delta_v
    b = a - dv - params.delta_inf
    root_d = math.sqrt(b * b + 4.0 * a * dv)
    if b >= 0.0:
        root = 0.5 * (b + root_d)
    else:
        root = 2.0 * a * dv / (root_d - b)  # root_d - b >= 2*|b| > 0
    # for a tiny delta_inf, rounding alone could lift the root above A
    return min(root, a)


def delta_difference(params: ModelParams, h: float) -> float:
    """Film minus cavity depression, in mK.

    Zero at h = 0, monotonically approaching ``delta_inf`` from below
    as the field grows.
    """
    h = _check_nonneg(h, "field")
    return film_delta(params, h) - cavity_delta(params, h)


def _balance_slope(params: ModelParams, delta: float) -> float:
    # d/d(delta) of the reduced balance alpha*H^2 = delta + dinf*delta/(delta+dv)
    dv = params.delta_v
    return 1.0 + params.delta_inf * dv / (delta + dv) ** 2


def delta_derivative(params: ModelParams, h: float, kind: str = "film", *,
                     method: str = "analytic", step: float = 1e-3) -> float:
    """d(delta)/dH at field h, in mK per gauss.

    Film: exactly 2*alpha*H.  Cavity: implicit differentiation of the
    solved balance; ``method="numeric"`` switches to a central
    difference of the given step, falling back to a one-sided
    difference (with a RuntimeWarning) when h < step.
    """
    h = _check_nonneg(h, "field")
    if kind not in ("film", "cavity"):
        raise InputError(f"kind must be 'film' or 'cavity', got {kind!r}")
    if method not in ("analytic", "numeric"):
        raise InputError(f"method must be 'analytic' or 'numeric', got {method!r}")

    if kind == "film":
        return 2.0 * params.alpha * h

    if method == "analytic":
        delta = cavity_delta(params, h)
        return 2.0 * params.alpha * h / _balance_slope(params, delta)

    if h < step:
        warnings.warn("field below difference step; using one-sided derivative",
                      RuntimeWarning, stacklevel=2)
        return (cavity_delta(params, h + step) - cavity_delta(params, h)) / step
    return (cavity_delta(params, h + step) - cavity_delta(params, h - step)) / (2.0 * step)


def critical_field(params: ModelParams, delta: float, kind: str = "film") -> float:
    """Field (gauss) at which the transition sits ``delta`` mK below Tc.

    Inverts the monotone balance in closed form, so the round trip
    through :func:`film_delta` / :func:`cavity_delta` is exact to
    rounding.
    """
    delta = _check_nonneg(delta, "delta")
    if kind not in ("film", "cavity"):
        raise InputError(f"kind must be 'film' or 'cavity', got {kind!r}")
    if delta == 0.0:
        return 0.0
    if kind == "film":
        return math.sqrt(delta / params.alpha)
    reduced = delta + params.delta_inf * delta / (delta + params.delta_v)
    return math.sqrt(reduced / params.alpha)


def energy_breakdown(params: ModelParams, h: float, kind: str = "cavity") -> EnergyBreakdown:
    """Energy terms of the balance at the solved transition for field h."""
    h = _check_nonneg(h, "field")
    if kind not in ("film", "cavity"):
        raise InputError(f"kind must be 'film' or 'cavity', got {kind!r}")
    if kind == "film":
        delta = film_delta(params, h)
        cas = 0.0
    else:
        delta = cavity_delta(params, h)
        cas = casimir_shift(params, delta)
    cond = condensation_energy(params, delta)
    mag = magnetic_energy(params, h, delta)
    return EnergyBreakdown(condensation=cond, casimir=cas, magnetic=mag,
                           residual=mag - cond - cas)
