"""Curve analysis: transition-temperature extraction, delta(H) curves,
film-cavity differences and field derivatives, all with uncertainties.

The transition estimator is a full-curve least-squares fit of the erf
shape (midpoint, 10-90 width, normal resistance); against a 50 mK wide
transition that is what makes a ~0.1 mK single-curve sensitivity
possible.  Tc is taken from the H^2 -> 0 intercept of the film
regression and shared with the cavity curve of the same dataset (the
paired-sample assumption); every report records that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import FitError, InputError
from .instrument import ERF_WIDTH_FACTOR
from .protocol import TransitionCurve

MK_PER_K = 1000.0

#: Reported sigmas below this (in K) are treated as "no noise" and the
#: affected regression falls back to equal weights.
_SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Erf-fit output for one transition curve."""

    t_star: float          # K
    sigma_t_star: float    # K
    width: float           # mK, 10%-90%
    r_n: float             # ohm
    residual_norm: float   # RMS residual / r_n
    converged: bool
    iterations: int


@dataclass(frozen=True)
class DeltaCurve:
    """delta(H) = Tc_est - T*(H) for one sample kind, with sigmas in mK."""

    kind: str
    fields: np.ndarray          # gauss, strictly increasing
    deltas: np.ndarray          # mK
    sigmas: np.ndarray          # mK
    t_c_estimate: float         # K
    t_c_sigma: float            # K
    t_c_source: str             # 'film-intercept' | 'cavity-intercept'

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.fields.tolist(), self.deltas.tolist(),
                        self.sigmas.tolist()))


@dataclass(frozen=True)
class DifferenceCurve:
    """Pointwise film minus cavity depression, quadrature sigmas."""

    fields: np.ndarray
    values: np.ndarray          # mK
    sigmas: np.ndarray          # mK

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.fields.tolist(), self.values.tolist(),
                        self.sigmas.tolist()))


@dataclass(frozen=True)
class DerivativeCurve:
    """Windowed local-linear-regression derivative of a DeltaCurve."""

    kind: str
    fields: np.ndarray
    slopes: np.ndarray          # mK / gauss
    sigmas: np.ndarray
    window: int
    one_sided: np.ndarray       # bool; True where the window is off-center


@dataclass(frozen=True)
class ConvergenceReport:
    """Low-field linearity and high-field convergence of the derivatives."""

    fields: np.ndarray
    relative_difference: np.ndarray   # (film - cavity) / film
    r2_film: float
    r2_cavity: float
    convergence_field: float | None   # first field past which |rel diff| < threshold
    threshold: float
    low_field_max: float | None


# --- erf fit ----------------------------------------------------------------

_SQRT_PI = math.sqrt(math.pi)


def _fit_design(t: np.ndarray, p: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Model values and the (3, n) transposed Jacobian, one row per
    parameter of p = (t_star K, width mK, r_n ohm)."""
    t_star, width, r_n = p
    s = width * 1e-3 / ERF_WIDTH_FACTOR
    u = (t - t_star) / s
    shape = 0.5 * (1.0 + erf(u))
    dmodel_du = np.exp(-u * u) * (-r_n / _SQRT_PI)
    jac_t = np.empty((3, t.size))
    jac_t[0] = dmodel_du / s
    jac_t[1] = dmodel_du * u / width
    jac_t[2] = shape
    return r_n * shape, jac_t


def _damped_step(jtj: list[list[float]], grad: list[float],
                 lam: float) -> tuple[float, float, float] | None:
    """Solve (JtJ with its diagonal scaled by 1+lam) x = -grad.

    Closed-form 3x3 Cholesky; None when a pivot is not positive and
    finite (the damped normal matrix is singular or broken).
    """
    a = 1.0 + lam
    d0 = jtj[0][0] * a
    if not 0.0 < d0 < math.inf:
        return None
    l00 = math.sqrt(d0)
    l10 = jtj[1][0] / l00
    l20 = jtj[2][0] / l00
    d1 = jtj[1][1] * a - l10 * l10
    if not 0.0 < d1 < math.inf:
        return None
    l11 = math.sqrt(d1)
    l21 = (jtj[2][1] - l20 * l10) / l11
    d2 = jtj[2][2] * a - l20 * l20 - l21 * l21
    if not 0.0 < d2 < math.inf:
        return None
    l22 = math.sqrt(d2)
    y0 = -grad[0] / l00
    y1 = (-grad[1] - l10 * y0) / l11
    y2 = (-grad[2] - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    return x0, x1, x2


def _initial_guess(t: np.ndarray, r: np.ndarray, r_top: float,
                   step_mk: float) -> list[float]:
    i_mid = int(np.argmin(np.abs(r - 0.5 * r_top)))
    i_lo = int(np.argmin(np.abs(r - 0.1 * r_top)))
    i_hi = int(np.argmin(np.abs(r - 0.9 * r_top)))
    width = max(abs(t[i_hi] - t[i_lo]) * MK_PER_K, 2.0 * step_mk)
    return [float(t[i_mid]), float(width), r_top]


def fit_transition(curve: TransitionCurve, *, max_iter: int = 100,
                   xtol: float = 1e-10) -> FitResult:
    """Least-squares erf fit of one curve (Levenberg-Marquardt).

    Requires both plateaus to be sampled (at least 10% of the points
    below 0.2 r_n and above 0.8 r_n), otherwise :class:`InputError`.
    The fit converges when a proposed step changes no parameter by more
    than ``xtol`` relative, whether or not that step would lower the
    cost; the current point is then kept.  ``max_iter`` bounds the
    passes of the loop.  :class:`FitError`, with the iterations (accepted
    steps), residual norm and last parameters attached, is raised when
    the loop ends without converging (pass limit, damping above 1e12, or
    damped normal equations that are not positive definite), when the
    fitted 10-90 width is below the largest temperature step (a step
    function: the transition is not resolved), or when the covariance
    at the fitted parameters is singular.  ``sigma_t_star`` comes from
    the fit covariance scaled by the reduced chi-square, so it is
    meaningful without knowing the noise level beforehand.
    """
    t = curve.temperatures
    r = curve.resistances
    n = t.size
    if n < 20:
        raise InputError(f"need at least 20 samples, got {n}")
    r_top = float(np.mean(np.sort(r)[-max(2, n // 10):]))
    if not (r_top > 0):
        raise InputError("no resistive plateau found")
    if float(np.mean(r < 0.2 * r_top)) < 0.1 or float(np.mean(r > 0.8 * r_top)) < 0.1:
        raise InputError("curve does not span both resistance plateaus")

    step_mk = float(np.max(np.diff(t))) * MK_PER_K
    min_width = 0.2 * step_mk
    p = _initial_guess(t, r, r_top, step_mk)
    model_vals, jac_t = _fit_design(t, p)
    resid = model_vals - r
    cost = float(resid @ resid)
    jtj = (jac_t @ jac_t.T).tolist()
    grad = (jac_t @ resid).tolist()
    lam = 1e-3
    iterations = 0
    converged = False

    def fit_error(message: str) -> FitError:
        return FitError(message, iterations=iterations,
                        residual_norm=math.sqrt(cost / n), params=tuple(p))

    for _ in range(max_iter):
        step = _damped_step(jtj, grad, lam)
        if step is None:
            break
        p_new = [p[0] + step[0], max(p[1] + step[1], min_width), p[2] + step[2]]
        if p_new[2] <= 0:
            p_new[2] = p[2]
        if max(abs(a - b) / max(abs(b), 1e-30) for a, b in zip(p_new, p)) <= xtol:
            converged = True
            break
        model_new, jac_t = _fit_design(t, p_new)
        resid_new = model_new - r
        cost_new = float(resid_new @ resid_new)
        if cost_new <= cost:
            p, resid, cost = p_new, resid_new, cost_new
            jtj = (jac_t @ jac_t.T).tolist()
            grad = (jac_t @ resid).tolist()
            lam = max(lam * 0.1, 1e-14)
            iterations += 1
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    if not converged:
        raise fit_error("transition fit did not converge")
    if p[1] < step_mk:
        raise fit_error("fitted width below the temperature step; "
                        "transition not resolved")

    dof = max(n - 3, 1)
    s2 = cost / dof
    try:
        cov = np.linalg.inv(np.array(jtj)) * s2
    except np.linalg.LinAlgError:
        raise fit_error("singular covariance at the fitted parameters") from None
    return FitResult(
        t_star=p[0],
        sigma_t_star=float(math.sqrt(max(cov[0, 0], 0.0))),
        width=abs(p[1]),
        r_n=p[2],
        residual_norm=float(math.sqrt(cost / n) / p[2]),
        converged=True,
        iterations=iterations)


# --- delta curves -----------------------------------------------------------

def _weighted_line_fit(x: np.ndarray, y: np.ndarray,
                       sigma: np.ndarray) -> tuple[float, float, float, float]:
    """Weighted LS of y = a + b x; returns (a, b, sigma_a, sigma_b).

    Uses 1/sigma^2 weights with absolute covariance when every sigma is
    meaningful, otherwise equal weights with residual-scaled covariance
    (which degrades gracefully to zero sigma on exact data).
    """
    weighted = bool(np.all(sigma > _SIGMA_FLOOR))
    w = 1.0 / sigma ** 2 if weighted else np.ones_like(x)
    sw = float(np.sum(w))
    swx = float(np.sum(w * x))
    swxx = float(np.sum(w * x * x))
    swy = float(np.sum(w * y))
    swxy = float(np.sum(w * x * y))
    det = sw * swxx - swx * swx
    if not (det > 0) or det <= 1e-12 * sw * swxx:
        raise InputError("regression is rank deficient (degenerate field grid)")
    a = (swxx * swy - swx * swxy) / det
    b = (sw * swxy - swx * swy) / det
    var_a = swxx / det
    var_b = sw / det
    if not weighted:
        resid = y - a - b * x
        dof = max(x.size - 2, 1)
        s2 = float(resid @ resid) / dof
        var_a *= s2
        var_b *= s2
    return a, b, math.sqrt(max(var_a, 0.0)), math.sqrt(max(var_b, 0.0))


def _aggregate_repeats(fits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Combine repeated fits per field into one (t_star, sigma) each."""
    by_field: dict[float, list[FitResult]] = {}
    for field, fit in fits:
        by_field.setdefault(float(field), []).append(fit)
    fields = np.array(sorted(by_field))
    t_star = np.empty(fields.size)
    sigma = np.empty(fields.size)
    for i, f in enumerate(fields):
        group = by_field[float(f)]
        ts = np.array([g.t_star for g in group])
        sg = np.array([g.sigma_t_star for g in group])
        if np.all(sg > _SIGMA_FLOOR):
            w = 1.0 / sg ** 2
            t_star[i] = float(np.sum(w * ts) / np.sum(w))
            sigma[i] = float(1.0 / math.sqrt(np.sum(w)))
        else:
            t_star[i] = float(np.mean(ts))
            sigma[i] = float(math.sqrt(np.mean(sg ** 2) / len(group)))
    return fields, t_star, sigma


def build_delta_curve(fits, kind: str,
                      t_c: tuple[float, float] | None = None) -> DeltaCurve:
    """Turn per-field fits into delta(H) = Tc_est - T*(H).

    ``fits`` is an iterable of (field_gauss, FitResult); repeated fields
    are combined by precision-weighted mean first.  When ``t_c`` is
    None, Tc comes from the weighted regression of T* against H^2 (the
    film law); pass the film estimate as ``t_c=(value, sigma)`` to share
    it with the cavity curve.
    """
    if kind not in ("film", "cavity"):
        raise InputError(f"kind must be 'film' or 'cavity', got {kind!r}")
    fields, t_star, sigma = _aggregate_repeats(fits)
    if fields.size < 3:
        raise InputError(f"need fits at >= 3 distinct fields, got {fields.size}")
    if t_c is None:
        tc_value, _, tc_sigma, _ = _weighted_line_fit(fields ** 2, t_star, sigma)
        source = f"{kind}-intercept"
    else:
        tc_value, tc_sigma = float(t_c[0]), float(t_c[1])
        source = "film-intercept"
    deltas = (tc_value - t_star) * MK_PER_K
    sigmas = np.hypot(sigma, tc_sigma) * MK_PER_K
    return DeltaCurve(kind=kind, fields=fields, deltas=deltas, sigmas=sigmas,
                      t_c_estimate=tc_value, t_c_sigma=tc_sigma, t_c_source=source)


def difference_curve(film: DeltaCurve, cavity: DeltaCurve) -> DifferenceCurve:
    """Pointwise film minus cavity delta; fields must match exactly."""
    if film.fields.shape != cavity.fields.shape or np.any(film.fields != cavity.fields):
        raise InputError("film and cavity curves are on different field grids")
    return DifferenceCurve(fields=film.fields.copy(),
                           values=film.deltas - cavity.deltas,
                           sigmas=np.hypot(film.sigmas, cavity.sigmas))


def weighted_mean_difference(diff: DifferenceCurve,
                             min_field: float = 0.0) -> tuple[float, float]:
    """Inverse-variance-weighted mean shift over fields >= min_field.

    Returns (mean_mK, standard_error_mK); the standard error is zero
    on noise-free input (equal weights are used there instead).
    """
    mask = diff.fields >= min_field
    if not np.any(mask):
        raise InputError("no fields at or above the requested minimum")
    values = diff.values[mask]
    sigmas = diff.sigmas[mask]
    if np.all(sigmas > _SIGMA_FLOOR * MK_PER_K):
        w = 1.0 / sigmas ** 2
        return (float(np.sum(w * values) / np.sum(w)),
                float(1.0 / math.sqrt(np.sum(w))))
    return float(np.mean(values)), 0.0


# --- derivatives ------------------------------------------------------------

def derivative_curve(curve: DeltaCurve, window: int = 5) -> DerivativeCurve:
    """Local linear regression d(delta)/dH over a sliding window.

    The window is a point count (odd, >= 3).  Edge points fall back to
    one-sided windows of the same size and are flagged.  Sigmas come
    from propagating the per-point sigmas through the regression
    coefficients.
    """
    n = curve.fields.size
    if window % 2 == 0 or window < 3:
        raise InputError(f"window must be odd and >= 3, got {window}")
    if window > n:
        raise InputError(f"window {window} exceeds the {n} available points")
    half = window // 2
    slopes = np.empty(n)
    sigmas = np.empty(n)
    one_sided = np.zeros(n, dtype=bool)
    for i in range(n):
        lo = min(max(i - half, 0), n - window)
        sl = slice(lo, lo + window)
        one_sided[i] = lo != i - half
        x = curve.fields[sl]
        y = curve.deltas[sl]
        xbar = float(np.mean(x))
        dx = x - xbar
        sxx = float(dx @ dx)
        slopes[i] = float(dx @ (y - float(np.mean(y)))) / sxx
        coeff = dx / sxx
        sigmas[i] = float(math.sqrt(np.sum((coeff * curve.sigmas[sl]) ** 2)))
    return DerivativeCurve(kind=curve.kind, fields=curve.fields.copy(),
                           slopes=slopes, sigmas=sigmas, window=window,
                           one_sided=one_sided)


def _r_squared(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 3:
        return math.nan
    xbar = float(np.mean(x))
    ybar = float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    sst = float(np.sum((y - ybar) ** 2))
    if sst == 0.0:
        return 1.0
    slope = float(np.sum((x - xbar) * (y - ybar))) / sxx
    ssr = float(np.sum((y - ybar - slope * (x - xbar)) ** 2))
    return 1.0 - ssr / sst


def linearity_and_convergence_report(film: DerivativeCurve, cavity: DerivativeCurve,
                                     low_field_max: float | None = None,
                                     threshold: float = 0.05) -> ConvergenceReport:
    """Linearity and film/cavity convergence of measured derivatives.

    R^2 of a straight line is evaluated per kind over centered-window
    points with field <= ``low_field_max`` (all centered points when
    None).  The convergence field is the smallest grid field from which
    onward the relative film-cavity difference stays below
    ``threshold``.
    """
    if film.fields.shape != cavity.fields.shape or np.any(film.fields != cavity.fields):
        raise InputError("film and cavity derivatives are on different field grids")

    rel = np.empty(film.fields.size)
    for i, (f_slope, c_slope) in enumerate(zip(film.slopes, cavity.slopes)):
        if f_slope == c_slope:
            rel[i] = 0.0
        elif f_slope != 0.0:
            rel[i] = (f_slope - c_slope) / f_slope
        else:
            rel[i] = math.nan

    centered = ~(film.one_sided | cavity.one_sided)
    region = centered.copy()
    if low_field_max is not None:
        region &= film.fields <= low_field_max
    r2_film = _r_squared(film.fields[region], film.slopes[region])
    r2_cavity = _r_squared(cavity.fields[region], cavity.slopes[region])

    convergence_field = None
    ok = np.abs(rel) < threshold  # NaN compares False: never converged
    for i in range(film.fields.size):
        if np.all(ok[i:]):
            convergence_field = float(film.fields[i])
            break
    return ConvergenceReport(fields=film.fields.copy(), relative_difference=rel,
                             r2_film=r2_film, r2_cavity=r2_cavity,
                             convergence_field=convergence_field,
                             threshold=threshold, low_field_max=low_field_max)


# --- dataset-level pipeline ---------------------------------------------------

@dataclass
class AnalysisResult:
    """Everything the analysis stage extracts from one dataset."""

    fits: list[tuple[float, str, int, FitResult]]
    film: DeltaCurve | None
    cavity: DeltaCurve | None
    difference: DifferenceCurve | None
    film_derivative: DerivativeCurve | None
    cavity_derivative: DerivativeCurve | None
    convergence: ConvergenceReport | None
    mean_difference: float | None       # mK
    mean_difference_sigma: float | None  # mK
    failed_fits: int
    notes: list[str]


def analyze_dataset(curves: list[TransitionCurve], window: int = 5) -> AnalysisResult:
    """Run the full extraction pipeline on a list of curves.

    Fits every curve, builds per-kind delta curves (cavity shares the
    film Tc when both kinds are present), then difference and
    derivative views where the grids allow it.  A curve whose fit fails
    (no convergence, or a resistance plateau missing) is counted, not
    fatal; when the failures leave film and cavity on different fields,
    the difference and the derivative contrast are skipped with a note.
    """
    if not curves:
        raise InputError("dataset contains no curves")
    fits: list[tuple[float, str, int, FitResult]] = []
    failed = 0
    notes: list[str] = []
    for curve in curves:
        try:
            fits.append((curve.field, curve.kind, curve.repetition,
                         fit_transition(curve)))
        except (FitError, InputError):
            failed += 1
    by_kind: dict[str, list[tuple[float, FitResult]]] = {"film": [], "cavity": []}
    for field, kind, _, fit in fits:
        by_kind[kind].append((field, fit))

    def distinct_fields(kind: str) -> int:
        return len({f for f, _ in by_kind[kind]})

    film = cavity = None
    if distinct_fields("film") >= 3:
        film = build_delta_curve(by_kind["film"], "film")
    if distinct_fields("cavity") >= 3:
        if film is not None:
            cavity = build_delta_curve(by_kind["cavity"], "cavity",
                                       t_c=(film.t_c_estimate, film.t_c_sigma))
        else:
            cavity = build_delta_curve(by_kind["cavity"], "cavity")
            notes.append("cavity Tc self-regressed against the film law; "
                         "biased if the cavity term is significant")
    if film is not None:
        notes.append("Tc taken from the film H^2->0 intercept and shared "
                     "with the cavity curve (paired-sample assumption)")

    difference = None
    if film is not None and cavity is not None:
        if np.array_equal(film.fields, cavity.fields):
            difference = difference_curve(film, cavity)
        else:
            notes.append("film and cavity fits cover different fields; "
                         "difference and derivative contrast skipped")

    film_deriv = cavity_deriv = convergence = None
    if film is not None and film.fields.size >= window:
        film_deriv = derivative_curve(film, window)
    if cavity is not None and cavity.fields.size >= window:
        cavity_deriv = derivative_curve(cavity, window)
    if difference is not None and film_deriv is not None and cavity_deriv is not None:
        convergence = linearity_and_convergence_report(film_deriv, cavity_deriv)

    mean_diff = mean_sigma = None
    if difference is not None:
        mean_diff, mean_sigma = weighted_mean_difference(difference)

    return AnalysisResult(fits=fits, film=film, cavity=cavity,
                          difference=difference, film_derivative=film_deriv,
                          cavity_derivative=cavity_deriv, convergence=convergence,
                          mean_difference=mean_diff,
                          mean_difference_sigma=mean_sigma,
                          failed_fits=failed, notes=notes)
