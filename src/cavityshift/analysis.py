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

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import FitError, InputError
from .instrument import ERF_WIDTH_FACTOR, resistive_transition
from .protocol import TransitionCurve

MK_PER_K = 1000.0

#: Largest fraction of the fits of a dataset or the trials of a study that may fail.
MAX_FAILED_FRACTION = 0.01

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
    iterations: int


@dataclass(frozen=True)
class DeltaCurve:
    """delta(H) = Tc_est - T*(H) for one sample kind, with sigmas in mK.

    ``sigmas`` include the Tc sigma; ``fit_sigmas`` are those of T*(H)
    alone, for the views in which Tc cancels (the film-cavity difference
    on a shared Tc, and the slopes).
    """

    kind: str
    fields: np.ndarray          # gauss, strictly increasing
    deltas: np.ndarray          # mK
    sigmas: np.ndarray          # mK
    fit_sigmas: np.ndarray      # mK
    t_c_estimate: float         # K
    t_c_sigma: float            # K
    t_c_source: str             # 'film-intercept' | 'cavity-intercept'


@dataclass(frozen=True)
class DifferenceCurve:
    """Pointwise film minus cavity depression, quadrature sigmas."""

    fields: np.ndarray
    values: np.ndarray          # mK
    sigmas: np.ndarray          # mK


@dataclass(frozen=True)
class DerivativeCurve:
    """Windowed local-linear-regression derivative of a DeltaCurve."""

    kind: str
    fields: np.ndarray
    slopes: np.ndarray          # mK / gauss
    sigmas: np.ndarray
    one_sided: np.ndarray       # bool; True where the window is off-center


@dataclass(frozen=True)
class ConvergenceReport:
    """Low-field linearity and high-field convergence of the derivatives."""

    fields: np.ndarray
    relative_difference: np.ndarray   # (film - cavity) / film
    r2_film: float
    r2_cavity: float
    convergence_field: float | None   # from here on |rel diff| < CONVERGENCE_THRESHOLD


# --- erf fit ----------------------------------------------------------------

_SQRT_PI = math.sqrt(math.pi)

#: Resistance fractions of r_top whose nearest samples seed the fit:
#: the midpoint and the 10% and 90% points.
_GUESS_LEVELS = np.array([[0.5], [0.1], [0.9]])


def _damped_step(jtj: tuple[float, ...], grad: tuple[float, float, float],
                 lam: float) -> tuple[float, float, float] | None:
    """Solve (A with its diagonal scaled by 1+lam) x = -grad.

    ``jtj`` is the lower triangle of the symmetric 3x3 matrix A, row by
    row: (A00, A10, A11, A20, A21, A22).  Closed-form 3x3 Cholesky; None
    when a pivot is not positive and finite (the damped normal matrix is
    singular or broken).
    """
    a00, a10, a11, a20, a21, a22 = jtj
    a = 1.0 + lam
    d0 = a00 * a
    if not 0.0 < d0 < math.inf:
        return None
    l00 = math.sqrt(d0)
    l10 = a10 / l00
    l20 = a20 / l00
    d1 = a11 * a - l10 * l10
    if not 0.0 < d1 < math.inf:
        return None
    l11 = math.sqrt(d1)
    l21 = (a21 - l20 * l10) / l11
    d2 = a22 * a - l20 * l20 - l21 * l21
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


#: The fit converges when a proposed step moves no parameter by more
#: than this, relative (MINPACK's step-size test).
_XTOL = 1e-10

#: Most passes of the fit loop, accepted and rejected steps together.
_MAX_ITER = 100

#: Relative step size, on the measure of the ``_XTOL`` test, at or below
#: which an accepted step makes the next steps solve with the full
#: Hessian J^T J + S instead of the Gauss-Newton J^T J.
_NEWTON_SWITCH = 1e-3

#: A step moves the width w within [w / this, w * this]: a bounded step
#: (More, LNM 630, 1978) against run-off to a step-function width
#: (Transtrum & Sethna, arXiv:1201.5885).
_WIDTH_STEP_FACTOR = 4.0


def _normal_matrices(gram: list[list[float]], width: float, r_n: float
                     ) -> tuple[tuple[float, ...], tuple[float, float, float],
                                tuple[float, ...] | None]:
    """J^T J, J^T res and J^T J + S of the erf fit; the matrices as lower
    triangles row by row (see :func:`_damped_step`).

    ``gram`` is the Gram matrix of the unscaled rows g, u g, 1 + erf(u),
    res and, for J^T J + S, u res and u^2 res, with g = exp(-u^2),
    u = (t - t_star) k and k = ERF_WIDTH_FACTOR / (width * 1e-3).  J^T J
    and J^T res are the first four entries of its first three rows,
    scaled by the row factors
    c = (-r_n k / sqrt(pi), -r_n / (sqrt(pi) width), 1/2); a 4-row
    ``gram`` gives None for J^T J + S.
    S = sum_i res_i Hess(f_i) is the second-order term Gauss-Newton
    leaves out; with b0 = sum g res, b1 = sum u g res, a3 = sum u^2 g res
    and a4 = sum u^3 g res its entries are
    S00 = -2 r_n k^2 b1 / sqrt(pi), S10 = r_n k (b0 - 2 a3) / (sqrt(pi) width),
    S11 = 2 r_n (b1 - a4) / (sqrt(pi) width^2), S20 = -k b0 / sqrt(pi),
    S21 = -b1 / (sqrt(pi) width) and S22 = 0, so J^T J + S is the Hessian
    of cost / 2.
    """
    g0, g1, g2 = gram[0], gram[1], gram[2]
    k = ERF_WIDTH_FACTOR / (width * 1e-3)
    c0 = -r_n / _SQRT_PI * k
    c1 = -r_n / (_SQRT_PI * width)
    jtj = (g0[0] * c0 * c0,
           g0[1] * c0 * c1, g1[1] * c1 * c1,
           g0[2] * c0 * 0.5, g1[2] * c1 * 0.5, g2[2] * 0.25)
    b0, b1 = g0[3], g1[3]
    grad = (b0 * c0, b1 * c1, g2[3] * 0.5)
    if len(g0) == 4:
        return jtj, grad, None
    a3, a4 = g1[4], g1[5]
    # the S entries above, written with c0 and c1
    hess = (jtj[0] + 2.0 * c0 * k * b1,
            jtj[1] - c0 * (b0 - 2.0 * a3) / width,
            jtj[2] - 2.0 * c1 * (b1 - a4) / width,
            jtj[3] + c0 * b0 / r_n, jtj[4] + c1 * b1 / r_n, jtj[5])
    return jtj, grad, hess


def _row_stack(n: int) -> tuple[np.ndarray, ...]:
    """Views, made once per fit, of a (6, n) stack of rows for
    :func:`_evaluate`: its six rows, then the stack and its first four
    rows."""
    stack = np.empty((6, n))
    return (*stack, stack, stack[:4])


def _evaluate(t: np.ndarray, r: np.ndarray, q: list[float], u: np.ndarray,
              rows: tuple[np.ndarray, ...]) -> float:
    """Cost of the erf model at q = (t_star K, width mK, r_n ohm) against
    the curve (t, r).

    ``rows`` is a :func:`_row_stack`: the Jacobian rows without their
    constant factors, exp(-u^2), u exp(-u^2) and 1 + erf(u) (d/dt_star,
    d/dwidth, d/dr_n), the residuals, and the residuals times u and u^2.
    This fills rows 2 and 3 and leaves the scaled offsets u behind in
    ``u``; :func:`_normal_equations` fills the rest.
    """
    shape, res = rows[2], rows[3]
    np.subtract(t, q[0], u)
    np.multiply(u, ERF_WIDTH_FACTOR / (q[1] * 1e-3), u)
    erf(u, shape)
    np.add(shape, 1.0, shape)
    np.multiply(shape, 0.5 * q[2], res)
    np.subtract(res, r, res)
    return float(res.dot(res))


def _normal_equations(q: list[float], u: np.ndarray, rows: tuple[np.ndarray, ...],
                      newton: bool):
    """J^T J, J^T res and, when ``newton``, J^T J + S at q, after
    _evaluate(..., q, u, rows).

    A Gauss-Newton point fills rows 0 and 1 and takes the Gram matrix of
    rows 0-3; a Newton point also fills rows 4 and 5 from u and the
    residuals and takes the Gram matrix of all six.
    """
    gauss, ugauss, _, res, ures, u2res, stack, top = rows
    np.multiply(u, u, gauss)
    np.negative(gauss, gauss)
    np.exp(gauss, gauss)
    np.multiply(gauss, u, ugauss)
    if newton:
        np.multiply(res, u, ures)
        np.multiply(ures, u, u2res)
    else:
        stack = top
    return _normal_matrices(stack.dot(stack.T).tolist(), q[1], q[2])


def t_star_variance(temperatures: np.ndarray, t_star: float, width: float,
                    r_n: float) -> float:
    """Variance of the fitted t_star (K^2) per unit resistance noise
    (ohm^2) for the erf curve (t_star K, width mK, r_n ohm) sampled at
    ``temperatures``.

    This is (J^T J)^-1[0, 0] of :func:`fit_transition`'s normal
    equations at the true parameters on the noise-free curve, i.e. the
    covariance the fit reports there at unit noise; math.inf when J^T J
    is singular (the samples do not resolve the transition).
    """
    n = temperatures.size
    u, rows = np.empty(n), _row_stack(n)
    q = [t_star, width, r_n]
    _evaluate(temperatures, resistive_transition(temperatures, t_star, width, r_n),
              q, u, rows)
    column = _damped_step(_normal_equations(q, u, rows, False)[0], (-1.0, 0.0, 0.0), 0.0)
    return math.inf if column is None else column[0]


def fit_transition(curve: TransitionCurve) -> FitResult:
    """Least-squares erf fit of one curve (Levenberg-Marquardt).

    Requires more than one distinct temperature, finite resistances and
    both plateaus to be sampled (at least 10% of the points below 0.2 r_n
    and above 0.8 r_n), otherwise :class:`InputError`.
    The fit converges when a proposed step changes no parameter by more
    than ``_XTOL`` (1e-10) relative, whether or not that step would lower
    the cost; the current point is then kept.  ``_MAX_ITER`` (100) bounds
    the passes of the loop; a step changes the width by at most a factor
    ``_WIDTH_STEP_FACTOR`` (4), and keeps t_star within the sweep widened
    by its span on each side, [t[0] - span, t[-1] + span] with
    span = t[-1] - t[0].  :class:`FitError`, with the iterations
    (accepted steps), residual norm and last parameters attached, is raised when
    the loop ends without converging (pass limit, damping above 1e12, or
    damped normal equations that are not positive definite), when the
    fitted 10-90 width is below the largest temperature step (a step
    function: the transition is not resolved), or when the covariance
    at the fitted parameters is singular.  ``sigma_t_star`` comes from
    the fit covariance scaled by the reduced chi-square, so it is
    meaningful without knowing the noise level beforehand.

    The damped steps are Gauss-Newton steps on J^T J until an accepted
    step has changed every parameter by at most ``_NEWTON_SWITCH``
    (1e-3) relative, measured as in the ``_XTOL`` test.  The steps after
    it solve the damped full Hessian J^T J + S of cost / 2 instead (see
    :func:`_normal_matrices`), which turns the linear Gauss-Newton tail
    of a noisy curve into a quadratic one.  They return to J^T J after
    an accepted step longer than that, which keeps a point far from the
    minimum (a small step only because the damping is large) on
    Gauss-Newton steps, and for any step whose damped J^T J + S is not
    positive definite.  The covariance always comes from the undamped
    J^T J: ``cov[0, 0]`` is read from its Cholesky factor, and no
    matrix is inverted.

    Each accepted point forms the Jacobian rows without their constant
    factors, exp(-u^2), u exp(-u^2) and 1 + erf(u), and takes their
    products with each other and with the residuals in one Gram matrix.
    Only a point whose next step may solve J^T J + S also forms the
    residuals times u and u^2 and takes their products, which S needs.
    """
    t = curve.temperatures
    r = curve.resistances
    n = t.size
    if n < 20:
        raise InputError(f"need at least 20 samples, got {n}")
    step_mk = float((t[1:] - t[:-1]).max()) * MK_PER_K
    if step_mk == 0:  # e.g. a sweep whose setpoints all clamp to the floor
        raise InputError(f"every temperature is {float(t[0])!r} K; the curve has "
                         "no transition to fit")
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

    min_width = 0.2 * step_mk
    span = float(t[-1] - t[0])
    t_lo, t_hi = float(t[0]) - span, float(t[-1]) + span
    p = _initial_guess(t, r, r_top, step_mk)

    # one set of buffers per fit: the scaled offsets u, and a stack of
    # rows (see _evaluate) for the current point and for the trial point
    u = np.empty(n)
    rows, trial = _row_stack(n), _row_stack(n)

    cost = _evaluate(t, r, p, u, rows)
    jtj, grad, hess = _normal_equations(p, u, rows, False)
    s0, s1, s2 = _xtol_scales(p)
    lam = 1e-3
    newton = False
    iterations = 0
    converged = False

    def fit_error(message: str) -> FitError:
        return FitError(message, iterations=iterations,
                        residual_norm=math.sqrt(cost / n), params=tuple(p))

    for _ in range(_MAX_ITER):
        step = _damped_step(hess, grad, lam) if newton else None
        if step is None:
            step = _damped_step(jtj, grad, lam)
            if step is None:
                break
        width = min(max(p[1] + step[1], p[1] / _WIDTH_STEP_FACTOR),
                    p[1] * _WIDTH_STEP_FACTOR)
        p_new = [min(max(p[0] + step[0], t_lo), t_hi), max(width, min_width),
                 p[2] + step[2]]
        if p_new[2] <= 0:
            p_new[2] = p[2]
        d0 = abs(p_new[0] - p[0]) / s0
        d1 = abs(p_new[1] - p[1]) / s1
        d2 = abs(p_new[2] - p[2]) / s2
        if d0 <= _XTOL and d1 <= _XTOL and d2 <= _XTOL:
            converged = True
            break
        cost_new = _evaluate(t, r, p_new, u, trial)
        if cost_new <= cost:
            # the Jacobian is formed only here, since a rejected
            # evaluation's Jacobian would be thrown away
            newton = (d0 <= _NEWTON_SWITCH and d1 <= _NEWTON_SWITCH
                      and d2 <= _NEWTON_SWITCH)
            p, cost = p_new, cost_new
            rows, trial = trial, rows
            jtj, grad, hess = _normal_equations(p, u, rows, newton)
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
        iterations=iterations)


# --- delta curves -----------------------------------------------------------

def line_fit_sums(x: np.ndarray, w: np.ndarray,
                  kind: str = "film") -> tuple[float, float, float, float]:
    """Sums w, w x and w x^2 of the weighted line fit against x = H^2 that
    gives the ``kind`` Tc, and the determinant of its normal equations.

    Raises :class:`InputError` when that regression is rank deficient,
    e.g. on fields whose squares are equal or underflow to 0.
    """
    add = np.add.reduce
    sw = float(add(w))
    swx = float(add(w * x))
    swxx = float(add(w * x * x))
    det = sw * swxx - swx * swx
    if not (det > 0) or det <= 1e-12 * sw * swxx:
        raise InputError(f"{kind} Tc regression is rank deficient "
                         "(degenerate field grid)")
    return sw, swx, swxx, det


def _weighted_line_fit(x: np.ndarray, y: np.ndarray, sigma: np.ndarray,
                       kind: str = "film") -> tuple[float, float]:
    """Weighted LS of y = a + b x; returns the intercept a and sigma_a.

    Uses 1/sigma^2 weights with absolute covariance when every sigma is
    meaningful, otherwise equal weights with residual-scaled covariance
    (which degrades gracefully to zero sigma on exact data).
    """
    weighted = bool((sigma > _SIGMA_FLOOR).all())
    w = 1.0 / sigma ** 2 if weighted else np.ones_like(x)
    sw, swx, swxx, det = line_fit_sums(x, w, kind)
    swy = float(np.add.reduce(w * y))
    swxy = float(np.add.reduce(w * x * y))
    a = (swxx * swy - swx * swxy) / det
    b = (sw * swxy - swx * swy) / det
    var_a = swxx / det
    if not weighted:
        resid = y - a - b * x
        var_a *= float(resid @ resid) / max(x.size - 2, 1)
    return a, math.sqrt(max(var_a, 0.0))


def _aggregate_repeats(fits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Combine repeated fits per field into one (t_star, sigma) each.

    A field whose sigmas all exceed the floor gets the precision-weighted
    mean; any sigma at or below it gives that field equal weights.
    """
    fits = list(fits)
    per_fit = np.array([float(field) for field, _ in fits])
    fields = np.unique(per_fit)
    group = fields.searchsorted(per_fit)
    counts = np.bincount(group, minlength=fields.size)
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
        raise InputError(f"{kind} fits cover {fields.size} distinct field(s); "
                         "a delta curve needs 3")
    if t_c is None:
        tc_value, tc_sigma = _weighted_line_fit(fields ** 2, t_star, sigma, kind)
        source = f"{kind}-intercept"
    else:
        tc_value, tc_sigma = float(t_c[0]), float(t_c[1])
        source = "film-intercept"
    deltas = (tc_value - t_star) * MK_PER_K
    sigmas = np.hypot(sigma, tc_sigma) * MK_PER_K
    return DeltaCurve(kind=kind, fields=fields, deltas=deltas, sigmas=sigmas,
                      fit_sigmas=sigma * MK_PER_K, t_c_estimate=tc_value,
                      t_c_sigma=tc_sigma, t_c_source=source)


def difference_curve(film: DeltaCurve, cavity: DeltaCurve) -> DifferenceCurve:
    """Pointwise film minus cavity delta; fields must match exactly.

    The two curves share one Tc (see :func:`analyze_dataset`), which
    cancels in the difference, so the sigmas combine the T* sigmas only.
    """
    if film.fields.shape != cavity.fields.shape or (film.fields != cavity.fields).any():
        raise InputError("film and cavity fits cover different fields")
    return DifferenceCurve(fields=film.fields.copy(),
                           values=film.deltas - cavity.deltas,
                           sigmas=np.hypot(film.fit_sigmas, cavity.fit_sigmas))


def weighted_mean_difference(diff: DifferenceCurve,
                             min_field: float = 0.0) -> tuple[float, float]:
    """Inverse-variance-weighted mean shift over fields >= min_field.

    Returns (mean_mK, standard_error_mK); the standard error is zero
    on noise-free input (equal weights are used there instead).
    """
    mask = diff.fields >= min_field
    if not mask.any():
        raise InputError("no fields at or above the requested minimum")
    values = diff.values[mask]
    sigmas = diff.sigmas[mask]
    if (sigmas > _SIGMA_FLOOR * MK_PER_K).all():
        w = 1.0 / sigmas ** 2
        sw = np.add.reduce(w)
        return float(np.add.reduce(w * values) / sw), float(1.0 / math.sqrt(sw))
    return float(np.add.reduce(values) / values.size), 0.0


# --- derivatives ------------------------------------------------------------

#: Points per window of the delta-curve derivative: the 5-point
#: first-derivative Savitzky-Golay filter.
DERIVATIVE_WINDOW = 5


def derivative_curve(curve: DeltaCurve) -> DerivativeCurve:
    """Local linear regression d(delta)/dH over a sliding window of
    :data:`DERIVATIVE_WINDOW` points.

    Edge points fall back to one-sided windows of the same size and are
    flagged.  The slopes are one fixed linear operator on the deltas:
    row i holds the regression coefficients (x - xbar) / sxx of its
    window, which on a uniform grid is the first-derivative
    Savitzky-Golay filter (Savitzky & Golay, Anal. Chem. 36, 1627,
    1964).  The coefficients of a row sum to zero, so Tc drops out of
    every slope; the sigmas propagate the T* sigmas (``fit_sigmas``)
    through the same coefficients.  That operator depends only on the
    field grid, so it is built once per grid
    (:func:`_derivative_operator`); the returned ``one_sided`` is its
    read-only flag array.
    """
    n, window = curve.fields.size, DERIVATIVE_WINDOW
    if window > n:
        raise InputError(f"window {window} exceeds the {n} available points "
                         f"of the {curve.kind} delta curve")
    rows, coeff, one_sided = _derivative_operator(
        np.asarray(curve.fields, dtype=float).tobytes())
    y = curve.deltas[rows]
    ybar = np.add.reduce(y, 1, keepdims=True) / window  # bit-equal to .mean
    slopes = np.add.reduce(coeff * (y - ybar), 1)
    sigmas = np.sqrt(np.add.reduce((coeff * curve.fit_sigmas[rows]) ** 2, 1))
    return DerivativeCurve(kind=curve.kind, fields=curve.fields.copy(),
                           slopes=slopes, sigmas=sigmas, one_sided=one_sided)


@functools.lru_cache(maxsize=64)
def _derivative_operator(fields: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, window) rows of each point's window, their regression
    coefficients (x - xbar) / sxx and the one-sided flags on the float64
    field grid ``fields``; read-only, keyed by the grid's bytes."""
    x = np.frombuffer(fields)
    n, window = x.size, DERIVATIVE_WINDOW
    half = window // 2
    centre = np.arange(n)
    lo = np.clip(centre - half, 0, n - window)
    rows = lo[:, None] + np.arange(window)
    dx = x[rows]
    dx -= dx.mean(axis=1, keepdims=True)
    coeff = dx / (dx * dx).sum(axis=1, keepdims=True)
    one_sided = lo != centre - half
    for array in (rows, coeff, one_sided):
        array.flags.writeable = False
    return rows, coeff, one_sided


def _r_squared(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 3:
        return math.nan
    add = np.add.reduce
    dx = x - float(add(x) / x.size)  # bit-equal to np.mean
    dy = y - float(add(y) / y.size)
    sxx = float(add(dx * dx))
    sst = float(add(dy * dy))
    if sst == 0.0:
        return 1.0
    slope = float(add(dx * dy)) / sxx
    ssr = float(add((dy - slope * dx) ** 2))
    return 1.0 - ssr / sst


#: Relative film-cavity slope difference below which the derivatives
#: count as converged.
CONVERGENCE_THRESHOLD = 0.05


def relative_slope_difference(film: np.ndarray, cavity: np.ndarray) -> np.ndarray:
    """(film - cavity) / film per field: 0 where the slopes are equal, NaN
    where only the film slope is 0."""
    with np.errstate(all="ignore"):  # the 0 and NaN cases are picked by np.where
        return np.where(film == cavity, 0.0,
                        np.where(film != 0.0, (film - cavity) / film, math.nan))


def linearity_and_convergence_report(film: DerivativeCurve,
                                     cavity: DerivativeCurve) -> ConvergenceReport:
    """Linearity and film/cavity convergence of measured derivatives.

    R^2 of a straight line is evaluated per kind over the points whose
    window is centered.  The convergence field is the smallest grid
    field from which onward the relative film-cavity difference stays
    below :data:`CONVERGENCE_THRESHOLD`.
    """
    if film.fields.shape != cavity.fields.shape or (film.fields != cavity.fields).any():
        raise InputError("film and cavity derivatives are on different field grids")

    rel = relative_slope_difference(film.slopes, cavity.slopes)

    region = ~(film.one_sided | cavity.one_sided)
    r2_film = _r_squared(film.fields[region], film.slopes[region])
    r2_cavity = _r_squared(cavity.fields[region], cavity.slopes[region])

    ok = np.abs(rel) < CONVERGENCE_THRESHOLD  # NaN compares False: never converged
    ok_onward = np.logical_and.accumulate(ok[::-1])[::-1]  # from each field on
    convergence_field = (float(film.fields[ok_onward.argmax()]) if ok_onward.any()
                         else None)
    return ConvergenceReport(fields=film.fields.copy(), relative_difference=rel,
                             r2_film=r2_film, r2_cavity=r2_cavity,
                             convergence_field=convergence_field)


# --- dataset-level pipeline ---------------------------------------------------

@dataclass(frozen=True)
class FitFailure:
    """One curve whose fit failed, and why.

    ``iterations`` (accepted LM steps), ``residual_norm`` (RMS residual
    in ohm at the last parameters) and ``params`` (those last parameters,
    t* in K, width in mK, r_n in ohm) come from the :class:`FitError`;
    they are None when the curve was rejected before fitting
    (:class:`InputError`, e.g. a missing plateau).
    """

    field: float
    kind: str
    repetition: int
    reason: str
    iterations: int | None
    residual_norm: float | None
    params: tuple[float, float, float] | None = None


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


def analyze_dataset(curves: list[TransitionCurve]) -> AnalysisResult:
    """Run the full extraction pipeline on a list of curves.

    Fits every curve, then builds each view in turn: the film delta
    curve, the cavity delta curve (sharing the film Tc when there is
    one), their difference, and the derivative of each delta curve
    (:data:`DERIVATIVE_WINDOW` points per window).  A curve whose fit
    fails (no convergence, or a resistance plateau missing) is recorded
    in ``failures``, not fatal.  A view its builder rejects (a kind whose
    fits cover < 3 fields or whose Tc regression is rank deficient,
    film and cavity fits on different fields, a delta curve shorter than
    the window) is skipped with the builder's message as a note, and so
    is every view built on it; ``notes`` then ends with the provenance
    of Tc.
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
                                       str(exc), exc.iterations, exc.residual_norm,
                                       exc.params))
        except InputError as exc:
            failures.append(FitFailure(curve.field, curve.kind, curve.repetition,
                                       str(exc), None, None))
    by_kind: dict[str, list[tuple[float, FitResult]]] = {"film": [], "cavity": []}
    for field, kind, _, fit in fits:
        by_kind[kind].append((field, fit))

    def view(build, *args, **kwargs):
        """``build(*args, **kwargs)``; None when a view it needs is
        missing, or with the builder's :class:`InputError` as a note."""
        if any(arg is None for arg in args):
            return None
        try:
            return build(*args, **kwargs)
        except InputError as exc:
            notes.append(str(exc))
            return None

    film = view(build_delta_curve, by_kind["film"], "film")
    cavity = view(build_delta_curve, by_kind["cavity"], "cavity",
                  t_c=None if film is None else (film.t_c_estimate, film.t_c_sigma))
    difference = view(difference_curve, film, cavity)
    film_deriv = view(derivative_curve, film)
    cavity_deriv = view(derivative_curve, cavity)
    convergence = mean_diff = mean_sigma = None
    if difference is not None:
        mean_diff, mean_sigma = weighted_mean_difference(difference)
        if film_deriv is not None and cavity_deriv is not None:
            convergence = linearity_and_convergence_report(film_deriv, cavity_deriv)
    if film is not None:
        notes.append("Tc taken from the film H^2->0 intercept and shared "
                     "with the cavity curve (paired-sample assumption)")
    elif cavity is not None:
        notes.append("cavity Tc self-regressed against the film law; "
                     "biased if the cavity term is significant")

    return AnalysisResult(fits=fits, film=film, cavity=cavity,
                          difference=difference, film_derivative=film_deriv,
                          cavity_derivative=cavity_deriv, convergence=convergence,
                          mean_difference=mean_diff,
                          mean_difference_sigma=mean_sigma,
                          failures=failures, notes=notes)
