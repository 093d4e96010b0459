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

#: Resistance fractions of r_top whose nearest samples seed the fit:
#: the midpoint and the 10% and 90% points.
_GUESS_LEVELS = np.array([[0.5], [0.1], [0.9]])


def _damped_step(jtj: list[list[float]], grad: list[float],
                 lam: float) -> tuple[float, float, float] | None:
    """Solve (JtJ with its diagonal scaled by 1+lam) x = -grad.

    Closed-form 3x3 Cholesky that reads only the lower triangle of
    ``jtj``; None when a pivot is not positive and finite (the damped
    normal matrix is singular or broken).
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
    i_mid, i_lo, i_hi = np.abs(r - _GUESS_LEVELS * r_top).argmin(axis=1).tolist()
    width = max(abs(t[i_hi] - t[i_lo]) * MK_PER_K, 2.0 * step_mk)
    return [float(t[i_mid]), float(width), r_top]


def _xtol_scales(p: list[float]) -> tuple[float, float, float]:
    """Denominators of the relative step-size test at the point p."""
    return max(abs(p[0]), 1e-30), max(abs(p[1]), 1e-30), max(abs(p[2]), 1e-30)


#: Relative step size, on the measure of the ``xtol`` test, at or below
#: which an accepted step makes the next steps solve with the full
#: Hessian J^T J + S instead of the Gauss-Newton J^T J.
_NEWTON_SWITCH = 1e-3


def _normal_matrices(gram: list[list[float]], width: float, r_n: float
                     ) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """J^T J, J^T res and J^T J + S (lower triangles) of the erf fit.

    ``gram`` is the Gram matrix of the unscaled rows g, u g, 1 + erf(u),
    res, u res and u^2 res, with g = exp(-u^2), u = (t - t_star) k and
    k = ERF_WIDTH_FACTOR / (width * 1e-3).  J^T J and J^T res are its
    first four rows scaled by the row factors
    c = (-r_n k / sqrt(pi), -r_n / (sqrt(pi) width), 1/2).
    S = sum_i res_i Hess(f_i) is the second-order term Gauss-Newton
    leaves out; with b0 = sum g res, b1 = sum u g res, a3 = sum u^2 g res
    and a4 = sum u^3 g res its entries are
    S00 = -2 r_n k^2 b1 / sqrt(pi), S10 = r_n k (b0 - 2 a3) / (sqrt(pi) width),
    S11 = 2 r_n (b1 - a4) / (sqrt(pi) width^2), S20 = -k b0 / sqrt(pi),
    S21 = -b1 / (sqrt(pi) width) and S22 = 0, so J^T J + S is the Hessian
    of cost / 2.
    """
    (m00, m01, m02, b0, _, _), (_, m11, m12, b1, a3, a4), (_, _, m22, b2, _, _) = gram[:3]
    k = ERF_WIDTH_FACTOR / (width * 1e-3)
    c0 = -r_n / _SQRT_PI * k
    c1 = -r_n / (_SQRT_PI * width)
    jtj = [[m00 * c0 * c0],
           [m01 * c0 * c1, m11 * c1 * c1],
           [m02 * c0 * 0.5, m12 * c1 * 0.5, m22 * 0.25]]
    # the S entries above, written with c0 and c1
    hess = [[jtj[0][0] + 2.0 * c0 * k * b1],
            [jtj[1][0] - c0 * (b0 - 2.0 * a3) / width,
             jtj[1][1] - 2.0 * c1 * (b1 - a4) / width],
            [jtj[2][0] + c0 * b0 / r_n, jtj[2][1] + c1 * b1 / r_n, jtj[2][2]]]
    return jtj, [b0 * c0, b1 * c1, b2 * 0.5], hess


def fit_transition(curve: TransitionCurve, *, max_iter: int = 100,
                   xtol: float = 1e-10) -> FitResult:
    """Least-squares erf fit of one curve (Levenberg-Marquardt).

    Requires finite resistances and both plateaus to be sampled (at
    least 10% of the points below 0.2 r_n and above 0.8 r_n), otherwise
    :class:`InputError`.
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

    The damped steps are Gauss-Newton steps on J^T J until an accepted
    step has changed every parameter by at most ``_NEWTON_SWITCH``
    (1e-3) relative, measured as in the ``xtol`` test.  The steps after
    it solve the damped full Hessian J^T J + S of cost / 2 instead (see
    :func:`_normal_matrices`), which turns the linear Gauss-Newton tail
    of a noisy curve into a quadratic one.  They return to J^T J after
    an accepted step longer than that, which keeps a point far from the
    minimum (a small step only because the damping is large) on
    Gauss-Newton steps, and for any step whose damped J^T J + S is not
    positive definite.  The covariance always comes from the undamped
    J^T J: ``cov[0, 0]`` is read from its Cholesky factor, and no
    matrix is inverted.

    Each accepted step forms the Jacobian rows without their constant
    factors, exp(-u^2), u exp(-u^2) and 1 + erf(u), and with the
    residuals and their products with u and u^2 takes all their
    products in one Gram matrix.
    """
    t = curve.temperatures
    r = curve.resistances
    n = t.size
    if n < 20:
        raise InputError(f"need at least 20 samples, got {n}")
    r_sorted = np.sort(r)
    if not (-math.inf < r_sorted[0] and r_sorted[-1] < math.inf):  # NaN sorts last
        raise InputError("resistances must be finite")
    k = max(2, n // 10)
    r_top = float(r_sorted[-k:].sum()) / k  # bit-equal to .mean()
    if not (r_top > 0):
        raise InputError("no resistive plateau found")
    below = int(r_sorted.searchsorted(0.2 * r_top))                # r < 0.2 r_top
    above = n - int(r_sorted.searchsorted(0.8 * r_top, "right"))  # r > 0.8 r_top
    if below / n < 0.1 or above / n < 0.1:
        raise InputError("curve does not span both resistance plateaus")

    step_mk = float((t[1:] - t[:-1]).max()) * MK_PER_K
    min_width = 0.2 * step_mk
    p = _initial_guess(t, r, r_top, step_mk)

    # one set of buffers per fit: the scaled offsets u, and for the
    # current point and the trial point a stack of the Jacobian rows
    # (d/dt_star, d/dwidth, d/dr_n) without their constant factors,
    # exp(-u^2), u exp(-u^2) and 1 + erf(u), the residuals, and the
    # residuals times u and u^2
    u = np.empty(n)
    stack, trial = np.empty((6, n)), np.empty((6, n))

    def evaluate(q: list[float], out: np.ndarray) -> float:
        """Rows 2 and 3 of the stack ``out``: 1 + erf(u) and the residuals
        at q = (t_star K, width mK, r_n ohm); leaves u behind.  Returns
        the cost."""
        np.subtract(t, q[0], out=u)
        np.multiply(u, ERF_WIDTH_FACTOR / (q[1] * 1e-3), out=u)
        shape, res = out[2], out[3]
        erf(u, out=shape)
        np.add(shape, 1.0, out=shape)
        np.multiply(shape, 0.5 * q[2], out=res)
        np.subtract(res, r, out=res)
        return float(res.dot(res))

    def normal_equations(q: list[float], out: np.ndarray):
        """J^T J, J^T res and J^T J + S at q, after evaluate(q, out): fills
        rows 0, 1, 4 and 5 of ``out`` from u and the residuals and takes
        every product of the rows in one Gram matrix."""
        gauss, res = out[0], out[3]
        np.multiply(u, u, out=gauss)
        np.negative(gauss, out=gauss)
        np.exp(gauss, out=gauss)
        np.multiply(gauss, u, out=out[1])
        np.multiply(res, u, out=out[4])
        np.multiply(out[4], u, out=out[5])
        return _normal_matrices(out.dot(out.T).tolist(), q[1], q[2])

    cost = evaluate(p, stack)
    jtj, grad, hess = normal_equations(p, stack)
    s0, s1, s2 = _xtol_scales(p)
    lam = 1e-3
    newton = False
    iterations = 0
    converged = False

    def fit_error(message: str) -> FitError:
        return FitError(message, iterations=iterations,
                        residual_norm=math.sqrt(cost / n), params=tuple(p))

    for _ in range(max_iter):
        step = _damped_step(hess, grad, lam) if newton else None
        if step is None:
            step = _damped_step(jtj, grad, lam)
            if step is None:
                break
        p_new = [p[0] + step[0], max(p[1] + step[1], min_width), p[2] + step[2]]
        if p_new[2] <= 0:
            p_new[2] = p[2]
        d0 = abs(p_new[0] - p[0]) / s0
        d1 = abs(p_new[1] - p[1]) / s1
        d2 = abs(p_new[2] - p[2]) / s2
        if d0 <= xtol and d1 <= xtol and d2 <= xtol:
            converged = True
            break
        cost_new = evaluate(p_new, trial)
        if cost_new <= cost:
            # the Jacobian is formed only here, since a rejected
            # evaluation's Jacobian would be thrown away
            newton = (d0 <= _NEWTON_SWITCH and d1 <= _NEWTON_SWITCH
                      and d2 <= _NEWTON_SWITCH)
            p, cost = p_new, cost_new
            stack, trial = trial, stack
            jtj, grad, hess = normal_equations(p, stack)
            lam = max(lam * 0.1, 1e-14)
            s0, s1, s2 = _xtol_scales(p)
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

    # cov[0, 0] = (J^T J)^-1[0, 0] s^2; the undamped solve against the
    # unit vector e_0 gives the first column of (J^T J)^-1
    column = _damped_step(jtj, (-1.0, 0.0, 0.0), 0.0)
    if column is None:
        raise fit_error("singular covariance at the fitted parameters")
    var_t_star = column[0] * (cost / max(n - 3, 1))
    return FitResult(
        t_star=p[0],
        sigma_t_star=math.sqrt(max(var_t_star, 0.0)),
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
    """Combine repeated fits per field into one (t_star, sigma) each.

    A field whose sigmas all exceed the floor gets the precision-weighted
    mean; any sigma at or below it gives that field equal weights.
    """
    fits = list(fits)
    fields, group, counts = np.unique([float(field) for field, _ in fits],
                                      return_inverse=True, return_counts=True)
    ts = np.array([fit.t_star for _, fit in fits])
    sg = np.array([fit.sigma_t_star for _, fit in fits])
    weighted = np.bincount(group, ~(sg > _SIGMA_FLOOR), fields.size) == 0
    # a sigma at the floor divides by zero below; np.where then takes that
    # field's equal-weight values
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / sg ** 2
        sw = np.bincount(group, w, fields.size)
        t_star = np.where(weighted, np.bincount(group, w * ts, fields.size) / sw,
                          np.bincount(group, ts, fields.size) / counts)
        sigma = np.where(weighted, 1.0 / np.sqrt(sw),
                         np.sqrt(np.bincount(group, sg ** 2, fields.size) / counts / counts))
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
    one-sided windows of the same size and are flagged.  The slopes are
    one fixed linear operator on the deltas: row i holds the regression
    coefficients (x - xbar) / sxx of its window, which on a uniform grid
    is the first-derivative Savitzky-Golay filter (Savitzky & Golay,
    Anal. Chem. 36, 1627, 1964).  Sigmas propagate the per-point sigmas
    through the same coefficients.
    """
    n = curve.fields.size
    if window % 2 == 0 or window < 3:
        raise InputError(f"window must be odd and >= 3, got {window}")
    if window > n:
        raise InputError(f"window {window} exceeds the {n} available points")
    half = window // 2
    centre = np.arange(n)
    lo = np.clip(centre - half, 0, n - window)
    rows = lo[:, None] + np.arange(window)
    dx = curve.fields[rows]
    dx -= dx.mean(axis=1, keepdims=True)
    coeff = dx / (dx * dx).sum(axis=1, keepdims=True)
    y = curve.deltas[rows]
    slopes = (coeff * (y - y.mean(axis=1, keepdims=True))).sum(axis=1)
    sigmas = np.sqrt(((coeff * curve.sigmas[rows]) ** 2).sum(axis=1))
    one_sided = lo != centre - half
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

    f_slope, c_slope = film.slopes, cavity.slopes
    with np.errstate(all="ignore"):  # the 0 and NaN cases are picked by np.where
        rel = np.where(f_slope == c_slope, 0.0,
                       np.where(f_slope != 0.0, (f_slope - c_slope) / f_slope, math.nan))

    centered = ~(film.one_sided | cavity.one_sided)
    region = centered.copy()
    if low_field_max is not None:
        region &= film.fields <= low_field_max
    r2_film = _r_squared(film.fields[region], film.slopes[region])
    r2_cavity = _r_squared(cavity.fields[region], cavity.slopes[region])

    ok = np.abs(rel) < threshold  # NaN compares False: never converged
    ok_onward = np.logical_and.accumulate(ok[::-1])[::-1]  # from each field on
    convergence_field = (float(film.fields[np.argmax(ok_onward)]) if ok_onward.any()
                         else None)
    return ConvergenceReport(fields=film.fields.copy(), relative_difference=rel,
                             r2_film=r2_film, r2_cavity=r2_cavity,
                             convergence_field=convergence_field,
                             threshold=threshold, low_field_max=low_field_max)


# --- dataset-level pipeline ---------------------------------------------------

@dataclass(frozen=True)
class FitFailure:
    """One curve whose fit failed, and why.

    ``iterations`` (accepted LM steps) and ``residual_norm`` (RMS
    residual in ohm at the last parameters) come from the
    :class:`FitError`; they are None when the curve was rejected before
    fitting (:class:`InputError`, e.g. a missing plateau).
    """

    field: float
    kind: str
    repetition: int
    reason: str
    iterations: int | None
    residual_norm: float | None


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
    failures: list[FitFailure]
    notes: list[str]

    @property
    def failed_fits(self) -> int:
        return len(self.failures)


def analyze_dataset(curves: list[TransitionCurve], window: int = 5) -> AnalysisResult:
    """Run the full extraction pipeline on a list of curves.

    Fits every curve, builds per-kind delta curves (cavity shares the
    film Tc when both kinds are present), then difference and
    derivative views where the grids allow it.  A curve whose fit fails
    (no convergence, or a resistance plateau missing) is recorded in
    ``failures``, not fatal; when the failures leave film and cavity on
    different fields, the difference and the derivative contrast are
    skipped with a note.
    """
    if not curves:
        raise InputError("dataset contains no curves")
    fits: list[tuple[float, str, int, FitResult]] = []
    failures: list[FitFailure] = []
    notes: list[str] = []
    for curve in curves:
        try:
            fits.append((curve.field, curve.kind, curve.repetition,
                         fit_transition(curve)))
        except FitError as exc:
            failures.append(FitFailure(curve.field, curve.kind, curve.repetition,
                                       str(exc), exc.iterations, exc.residual_norm))
        except InputError as exc:
            failures.append(FitFailure(curve.field, curve.kind, curve.repetition,
                                       str(exc), None, None))
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
                          failures=failures, notes=notes)
