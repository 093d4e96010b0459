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

``film_delta``, ``cavity_delta``, ``delta_difference``,
``delta_derivative`` and ``slope_contrast`` take one field or an array
of fields: a float in gives a float out, an array an array of the
elementwise values.  Every function here is pure; concurrent use needs
no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_number

#: The two sample kinds: the bare film and the cavity mirror.
KINDS = ("film", "cavity")

#: Largest crossover depression alpha*h_v**2 and asymptotic shift delta_inf
#: of a model (mK): below it, where b < 0 in :func:`cavity_delta`, b*b and
#: 4*alpha*H**2*delta_v stay finite, so the lower root is never inf/inf.
MAX_DEPRESSION = 1e150

#: Tag attached to files derived from the cavity energy term.
CAVITY_FORM_NOTE = ("phenomenological interpolation "
                    "E_vac = cond_scale*delta_inf*delta^2/(delta+delta_v)")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of one paired film/cavity system.

    Defaults reproduce the reference calibration: ``delta_f = 0.6 mK``
    at H = 150 G, asymptotic shift 0.2 mK, crossover field 50 G.
    ``t_c`` only shifts absolute temperatures, never any delta.
    """

    t_c: float = 1.5                  # K, zero-field transition temperature
    alpha: float = 0.6 / 150.0**2     # mK/G^2, quadratic film coefficient
    delta_inf: float = 0.2            # mK, asymptotic film-cavity shift
    h_v: float = 50.0                 # G, crossover field
    cond_scale: float = 1.0           # overall energy normalisation

    def __post_init__(self):
        for name in ("t_c", "alpha", "h_v", "cond_scale"):
            check_number(name, getattr(self, name), above=0)
        check_number("delta_inf", self.delta_inf, at_least=0)
        if self.delta_inf > MAX_DEPRESSION:
            raise InputError(f"delta_inf must be at most {MAX_DEPRESSION:g} mK, "
                             f"got {self.delta_inf}")
        if not (0 < self.delta_v <= MAX_DEPRESSION):  # at 0 the vacuum share is 0/0
            raise InputError(f"the crossover depression alpha*h_v**2 must lie in "
                             f"(0, {MAX_DEPRESSION:g}] mK, "
                             f"got alpha={self.alpha!r} and h_v={self.h_v!r}")

    @property
    def delta_v(self) -> float:
        """Crossover depression alpha*h_v**2 in mK."""
        return self.alpha * self.h_v * self.h_v


def check_kind(kind: str) -> None:
    """Raise :class:`InputError` unless ``kind`` is one of :data:`KINDS`."""
    if kind not in KINDS:
        raise InputError(f"kind must be 'film' or 'cavity', got {kind!r}")


def _nonneg(value, name: str) -> np.ndarray:
    """``value`` as a float array; :class:`InputError` if any element is
    negative or NaN."""
    value = np.asarray(value, dtype=float)
    bad = ~(value >= 0.0)  # also catches NaN
    if bad.any():
        raise InputError(f"{name} must be >= 0, got {value[bad].flat[0]}")
    return value


def _like_input(result):
    # a scalar field gives a float, an array of fields an array
    return float(result) if np.ndim(result) == 0 else result


def film_delta(params: ModelParams, h):
    """Depression of the bare-film transition, alpha*H**2, in mK."""
    h = _nonneg(h, "field")
    with np.errstate(over="ignore"):
        return _like_input(params.alpha * h * h)


def _balance_residual(params: ModelParams, h, delta):
    # magnetic - condensation - casimir, in cond_scale units (scale cancels)
    cas = params.delta_inf * delta * delta / (delta + params.delta_v)
    return params.alpha * h * h * delta - delta * delta - cas


def cavity_delta(params: ModelParams, h):
    """Depression of the cavity-mirror transition at field h (mK).

    The reduced balance alpha*H**2 = d + delta_inf*d/(d + delta_v) is
    the quadratic d**2 - b*d - A*delta_v = 0 with A = alpha*H**2 and
    b = A - delta_v - delta_inf.  Its one nonnegative root always
    satisfies 0 <= delta_c <= film_delta(h); the branch is chosen per
    field by the sign of b so that neither form subtracts nearly equal
    numbers.
    """
    h = _nonneg(h, "field")
    # as with Python floats, an overflow gives inf and inf - inf gives NaN
    # without a warning (a field whose alpha*H**2 is beyond the range)
    with np.errstate(over="ignore", invalid="ignore"):
        a = params.alpha * h * h
        if params.delta_inf == 0.0:
            return _like_input(a)  # no vacuum term: exactly the film law
        dv = params.delta_v
        b = a - dv - params.delta_inf
        root_d = np.sqrt(b * b + 4.0 * a * dv)
        upper = b >= 0.0
        # root_d - b >= 2*|b| > 0 where b < 0; where b >= 0 that branch is
        # discarded and divides by 1 instead of a possible 0
        lower = 2.0 * a * dv / np.where(upper, 1.0, root_d - b)
        root = np.where(upper, 0.5 * (b + root_d), lower)
        # for a tiny delta_inf, rounding alone could lift the root above A
        return _like_input(np.minimum(root, a))


def delta_difference(params: ModelParams, h):
    """Film minus cavity depression, in mK.

    Zero at h = 0, monotonically approaching ``delta_inf`` from below
    as the field grows.
    """
    return film_delta(params, h) - cavity_delta(params, h)


def delta_derivative(params: ModelParams, h, kind: str = "film"):
    """d(delta)/dH at field h, in mK per gauss.

    Film: exactly 2*alpha*H.  Cavity: implicit differentiation of the
    solved balance, 2*alpha*H / (1 + s/g) (see :func:`_vacuum_share`).
    """
    h = _nonneg(h, "field")
    check_kind(kind)
    with np.errstate(over="ignore"):
        slope = 2.0 * h * params.alpha  # 2*alpha alone may overflow, and inf*0 is NaN
        if kind == "cavity":
            g, s = _vacuum_share(params, h)
            slope = slope / (1.0 + s / g)
    return _like_input(slope)


def _vacuum_share(params: ModelParams, h):
    # g = delta_c + delta_v > 0 and s = delta_inf*delta_v/g, so that
    # s/g = delta_inf*delta_v/(delta_c + delta_v)**2 and no form here is 0/0
    g = cavity_delta(params, h) + params.delta_v
    return g, params.delta_inf * (params.delta_v / g)


def slope_contrast(params: ModelParams, h):
    """(film' - cavity') / film' = s / (g + s) at field h; at H = 0, where
    both slopes vanish, their limit delta_inf / (delta_v + delta_inf)."""
    h = _nonneg(h, "field")
    with np.errstate(over="ignore"):
        g, s = _vacuum_share(params, h)
        return _like_input(s / (g + s))


def critical_field(params: ModelParams, delta: float, kind: str = "film") -> float:
    """Field (gauss) at which the transition sits ``delta`` mK below Tc.

    Inverts the monotone balance in closed form, so the round trip
    through :func:`film_delta` / :func:`cavity_delta` is exact to
    rounding.
    """
    delta = float(_nonneg(delta, "delta"))
    check_kind(kind)
    if delta == 0.0:
        return 0.0
    if kind == "film":
        return math.sqrt(delta / params.alpha)
    reduced = delta + params.delta_inf * delta / (delta + params.delta_v)
    return math.sqrt(reduced / params.alpha)
