"""Curve analysis: transition-temperature extraction, delta(H) curves,
film-cavity differences and field derivatives, all with uncertainties.

The transition estimator is a full-curve least-squares fit of the erf
shape (midpoint, 10-90 width, normal resistance); against a 50 mK wide
transition that is what makes a ~0.1 mK single-curve sensitivity
possible.  A dataset has one Tc, the H^2 -> 0 intercept of the film
regression, which the cavity curve of the same dataset shares (paired
film and cavity samples).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.special import erf

from .errors import FitError, InputError
from .instrument import (ERF_WIDTH_FACTOR, MAX_RESISTANCE, MIN_RESISTANCE,
                         resistive_transition)
from .model import KINDS, MIN_DELTA_V
from .protocol import TransitionCurve

MK_PER_K = 1000.0

#: Largest fraction of the fits of a dataset or the trials of a study that may fail.
MAX_FAILED_FRACTION = 0.01

#: The noise floor in K, the 1 pK of ``model.MIN_DELTA_V``: every
#: inverse-variance weight takes a sigma below it as this sigma, so
#: noise-free input gets equal weights and no standard error is 0.
_SIGMA_FLOOR = MIN_DELTA_V / MK_PER_K


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

    Tc_est is the film's H^2 intercept for both kinds.  ``sigmas`` are
    those of the deltas, with Tc's share: for the film they include Tc's
    covariance with that field's own T* (see :func:`build_delta_curve`).
    ``fit_sigmas`` are those of T*(H) alone, for the views in which Tc
    cancels (the film-cavity difference on a shared Tc, and the slopes).
    """

    kind: str
    fields: np.ndarray          # gauss, strictly increasing
    deltas: np.ndarray          # mK
    sigmas: np.ndarray          # mK
    fit_sigmas: np.ndarray      # mK
    t_c_estimate: float         # K
    t_c_sigma: float            # K


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


#: The fit converges when a proposed step moves no parameter by more
#: than this, relative (MINPACK's step-size test).
_XTOL = 1e-10

#: Most passes of the fit loop, accepted and rejected steps together.
_MAX_ITER = 100

#: A step moves the width w within [w / this, w * this]: a bounded step
#: (More, LNM 630, 1978) against run-off to a step-function width
#: (Transtrum & Sethna, arXiv:1201.5885).
_WIDTH_STEP_FACTOR = 4.0


def _row_stack(n: int) -> tuple[np.ndarray, ...]:
    """Buffers, made once per fit, for :func:`_evaluate` and
    :func:`_normal_equations`: the scaled offsets u, the six rows of a
    (6, n) stack, then the stack; zeros until they are filled."""
    block = np.zeros((7, n))
    return (*block, block[1:])


def _evaluate(t: np.ndarray, r: np.ndarray, t_star: float, width: float, r_n: float,
              rows: tuple[np.ndarray, ...]) -> float:
    """Cost of the erf model at (t_star K, width mK, r_n ohm) against
    the curve (t, r).

    ``rows`` is a :func:`_row_stack`; its stack holds the Jacobian rows
    without their constant factors, exp(-u^2), u exp(-u^2) and
    1 + erf(u) (d/dt_star, d/dwidth, d/dr_n), the residuals, and the
    residuals times u and u^2.  This fills the scaled offsets u and
    rows 2 and 3, 1 + erf(u) and the residuals;
    :func:`_normal_equations` fills the rest.
    """
    u, shape, res = rows[0], rows[3], rows[4]
    np.subtract(t, t_star, u)
    np.multiply(u, ERF_WIDTH_FACTOR / (width * 1e-3), u)
    erf(u, shape)
    np.add(shape, 1.0, shape)
    np.multiply(shape, 0.5 * r_n, res)
    np.subtract(res, r, res)
    return float(res.dot(res))


def _normal_equations(width: float, r_n: float, rows: tuple[np.ndarray, ...],
                      second_order: bool = True
                      ) -> tuple[tuple[float, ...], tuple[float, float, float],
                                 tuple[float, ...] | None]:
    """J^T J, J^T res and J^T J + S of the erf fit at (width, r_n), after
    :func:`_evaluate` there; the matrices as lower triangles row by row
    (see :func:`_damped_step`).  Without ``second_order``, J^T J + S is
    None.

    Fills rows 0 and 1, g = exp(-u^2) and u g, and with ``second_order``
    4 and 5, u res and u^2 res, then takes the Gram matrix of all six
    rows, with u = (t - t_star) k and k = ERF_WIDTH_FACTOR / (width * 1e-3);
    rows 4 and 5 enter only entries that J^T J and J^T res do not read, so
    before any second-order call they may be the zeros of
    :func:`_row_stack`.
    J^T J and J^T res are the first four entries of its first three
    rows, scaled by the row factors c = (-r_n k / sqrt(pi),
    -r_n / (sqrt(pi) width), 1/2).
    S = sum_i res_i Hess(f_i) is the second-order term Gauss-Newton
    leaves out; with b0 = sum g res, b1 = sum u g res, a3 = sum u^2 g res
    and a4 = sum u^3 g res its entries are
    S00 = -2 r_n k^2 b1 / sqrt(pi), S10 = r_n k (b0 - 2 a3) / (sqrt(pi) width),
    S11 = 2 r_n (b1 - a4) / (sqrt(pi) width^2), S20 = -k b0 / sqrt(pi),
    S21 = -b1 / (sqrt(pi) width) and S22 = 0, so J^T J + S is the Hessian
    of cost / 2.
    """
    u, gauss, ugauss, _, res, ures, u2res, stack = rows
    np.multiply(u, u, gauss)
    np.negative(gauss, gauss)
    np.exp(gauss, gauss)
    np.multiply(gauss, u, ugauss)
    if second_order:
        np.multiply(res, u, ures)
        np.multiply(ures, u, u2res)
    # the upper entries of the Gram matrix's first three rows
    (g00, g01, g02, b0, _, _, _, g11, g12, b1, a3, a4,
     _, _, g22, g23, *_) = stack.dot(stack.T).ravel().tolist()
    k = ERF_WIDTH_FACTOR / (width * 1e-3)
    c0 = -r_n / _SQRT_PI * k
    c1 = -r_n / (_SQRT_PI * width)
    j00, j10, j11 = g00 * c0 * c0, g01 * c0 * c1, g11 * c1 * c1
    j20, j21, j22 = g02 * c0 * 0.5, g12 * c1 * 0.5, g22 * 0.25
    jtj, grad = (j00, j10, j11, j20, j21, j22), (b0 * c0, b1 * c1, g23 * 0.5)
    if not second_order:
        return jtj, grad, None
    # the S entries above, written with c0 and c1
    return (jtj, grad,
            (j00 + 2.0 * c0 * k * b1, j10 - c0 * (b0 - 2.0 * a3) / width,
             j11 - 2.0 * c1 * (b1 - a4) / width,
             j20 + c0 * b0 / r_n, j21 + c1 * b1 / r_n, j22))


def t_star_variance(temperatures: np.ndarray, t_star: float, width: float,
                    r_n: float) -> tuple[float, float]:
    """Variances of the fitted t_star for the erf curve (t_star K, width
    mK, r_n ohm) sampled at ``temperatures``: (K^2 per ohm^2 of resistance
    noise, K^2 per mK^2 of temperature jitter).

    With J the Jacobian of :func:`fit_transition`'s normal equations at
    the true parameters on the noise-free curve and A = J^T J, the first
    is A^-1[0, 0], the covariance the fit reports there at unit noise.
    A jitter dT moves a sample's resistance by R'(T) dT = -J_0 dT, J_0
    the t_star column, so to first order the second is
    [A^-1 J^T diag(J_0^2) J A^-1][0, 0] (times 1e-6 K^2 per mK^2).  Both
    are math.inf when A is singular (the samples do not resolve the
    transition).
    """
    rows = _row_stack(temperatures.size)
    _evaluate(temperatures, resistive_transition(temperatures, t_star, width, r_n),
              t_star, width, r_n, rows)
    jtj = _normal_equations(width, r_n, rows, second_order=False)[0]
    column = _damped_step(jtj, (-1.0, 0.0, 0.0), 0.0)
    if column is None:
        return math.inf, math.inf
    gauss, ugauss, shape = rows[1:4]
    # the row factors c0 and c1 of _normal_equations
    c0 = -r_n / _SQRT_PI * (ERF_WIDTH_FACTOR / (width * 1e-3))
    c1 = -r_n / (_SQRT_PI * width)
    # per sample, (J A^-1)[i, 0] J_0: its share of t*'s shift per unit jitter
    shift = (c0 * column[0]) * gauss + (c1 * column[1]) * ugauss
    shift += (0.5 * column[2]) * shape
    shift *= c0 * gauss
    return column[0], float(shift.dot(shift)) * 1e-6


#: The fit's resistance domain (ohm): each |R| at most 1e3 MAX_RESISTANCE,
#: past every curve ``simulate`` writes (r_n and noise at most MAX_RESISTANCE,
#: normal draws far below 1e3), and a plateau of at least 1e-3 MIN_RESISTANCE,
#: below that of a noise-free curve at the lowest normal resistance.
_MAX_ABS_RESISTANCE, _MIN_PLATEAU = 1e3 * MAX_RESISTANCE, 1e-3 * MIN_RESISTANCE


def _fit_error(message: str, iterations: int, cost: float, n: int,
               t_star: float, width: float, r_n: float) -> FitError:
    """The :class:`FitError` of a fit at its last point."""
    return FitError(message, iterations=iterations,
                    residual_norm=math.sqrt(cost / n), params=(t_star, width, r_n))


def fit_transition(curve: TransitionCurve) -> FitResult:
    """Least-squares erf fit of one curve (Levenberg-Marquardt).

    Requires more than one distinct temperature, resistances within
    +-1e15 ohm, a resistive plateau of at least 1e-15 ohm and both
    plateaus to be sampled (at least 10% of the points below 0.2 r_n and
    above 0.8 r_n), otherwise :class:`InputError`.
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

    Until a step is accepted, the damped steps are Gauss-Newton steps on
    J^T J (full-Hessian steps from the initial guess make noisy fits
    slower).  Every later step solves the damped full Hessian J^T J + S of
    cost / 2 instead (see :func:`_normal_equations`), which turns the
    linear Gauss-Newton tail of a noisy curve into a quadratic one, and
    falls back to J^T J when its damped J^T J + S is not positive
    definite.  The covariance always comes from the undamped J^T J:
    ``cov[0, 0]`` is read from its Cholesky factor, and no matrix is
    inverted.

    Each accepted point forms the Jacobian rows without their constant
    factors, exp(-u^2), u exp(-u^2) and 1 + erf(u), the residuals, and
    the residuals times u and u^2, which S needs, and takes all their
    products in one Gram matrix; the initial guess, whose step reads no
    S, leaves the last two rows at zero.
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
    # NaN sorts last, and fails the comparison
    if not (-_MAX_ABS_RESISTANCE <= r_sorted[0] and r_sorted[-1] <= _MAX_ABS_RESISTANCE):
        raise InputError(f"resistances must be finite and within "
                         f"+-{_MAX_ABS_RESISTANCE:g} ohm")
    k = max(2, n // 10)
    r_top = float(r_sorted[-k:].sum()) / k  # bit-equal to .mean()
    # The fit runs on R as given.  In its domain an accepted cost is below
    # n (2e15 ohm)^2 < 1e39 ohm^2 (n <= MAX_PLAN_SAMPLES) and the t* and
    # width bounds of a step hold |u| below 20 n, so every square and Gram
    # entry is finite, and only the exp(-u^2) rows reach the subnormals, at
    # any scale of R: scaling R by a power of two moves no bit of the fit.
    if not (r_top >= _MIN_PLATEAU):
        raise InputError("no resistive plateau found")
    below = int(r_sorted.searchsorted(0.2 * r_top))                # r < 0.2 r_top
    above = n - int(r_sorted.searchsorted(0.8 * r_top, "right"))  # r > 0.8 r_top
    if below / n < 0.1 or above / n < 0.1:
        raise InputError("curve does not span both resistance plateaus")

    min_width = 0.2 * step_mk
    span = float(t[-1] - t[0])
    t_lo, t_hi = float(t[0]) - span, float(t[-1]) + span
    # one set of buffers per fit, which every evaluation overwrites (see
    # _row_stack); the current point lives on only in its cost and normal
    # matrices.  The initial guess takes the samples nearest the
    # _GUESS_LEVELS, the distances to them held in the first three rows.
    rows = _row_stack(n)
    distances = rows[-1][:3]
    np.subtract(r, _GUESS_LEVELS * r_top, distances)
    np.abs(distances, distances)
    i_mid, i_lo, i_hi = distances.argmin(axis=1).tolist()
    p0, p1, p2 = float(t[i_mid]), float(max(abs(t[i_hi] - t[i_lo]) * MK_PER_K,
                                            2.0 * step_mk)), r_top

    cost = _evaluate(t, r, p0, p1, p2, rows)
    # the first step solves J^T J, so the initial point needs no S
    jtj, grad, hess = _normal_equations(p1, p2, rows, second_order=False)
    lam = 1e-3
    iterations = 0
    converged = False
    for _ in range(_MAX_ITER):
        step = _damped_step(hess, grad, lam) if iterations else None
        if step is None:
            step = _damped_step(jtj, grad, lam)
            if step is None:
                break
        x0, x1, x2 = step
        # the step's point (q0, q1, q2), each bound applied as max(value,
        # lower) then min(value, upper) would apply it
        q0 = p0 + x0
        if t_lo > q0:
            q0 = t_lo
        if t_hi < q0:
            q0 = t_hi
        q1 = p1 + x1
        if p1 / _WIDTH_STEP_FACTOR > q1:
            q1 = p1 / _WIDTH_STEP_FACTOR
        if p1 * _WIDTH_STEP_FACTOR < q1:
            q1 = p1 * _WIDTH_STEP_FACTOR
        if min_width > q1:
            q1 = min_width
        q2 = p2 + x2
        if q2 <= 0:
            q2 = p2
        # the relative step-size test, on max(|p_i|, 1e-30)
        if (abs(q0 - p0) / max(abs(p0), 1e-30) <= _XTOL
                and abs(q1 - p1) / max(abs(p1), 1e-30) <= _XTOL
                and abs(q2 - p2) / max(abs(p2), 1e-30) <= _XTOL):
            converged = True
            break
        cost_new = _evaluate(t, r, q0, q1, q2, rows)
        if cost_new <= cost:
            # the Jacobian is formed only here, since a rejected
            # evaluation's Jacobian would be thrown away
            p0, p1, p2, cost = q0, q1, q2, cost_new
            jtj, grad, hess = _normal_equations(p1, p2, rows)
            lam *= 0.1
            if 1e-14 > lam:
                lam = 1e-14
            iterations += 1
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    if not converged:
        raise _fit_error("transition fit did not converge",
                         iterations, cost, n, p0, p1, p2)
    if p1 < step_mk:
        raise _fit_error("fitted width below the temperature step; "
                         "transition not resolved", iterations, cost, n, p0, p1, p2)

    # cov[0, 0] = (J^T J)^-1[0, 0] s^2; the undamped solve against the
    # unit vector e_0 gives the first column of (J^T J)^-1
    column = _damped_step(jtj, (-1.0, 0.0, 0.0), 0.0)
    if column is None:
        raise _fit_error("singular covariance at the fitted parameters",
                         iterations, cost, n, p0, p1, p2)
    var_t_star = column[0] * (cost / max(n - 3, 1))
    return FitResult(
        t_star=p0,
        sigma_t_star=math.sqrt(max(var_t_star, 0.0)),
        width=abs(p1),
        r_n=p2,
        residual_norm=math.sqrt(cost / n) / p2,
        iterations=iterations)


# --- delta curves -----------------------------------------------------------

#: float64's machine epsilon, the relative rounding of x in the rank test
#: of :func:`_weighted_line_fit`.
_EPS = np.finfo(float).eps


def _weighted_line_fit(x: np.ndarray, y: np.ndarray,
                       sigma: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Weighted LS of y = a + b x; returns the intercept a, sigma_a and
    the intercept's row r, a = sum_j r_j y_j.

    Uses 1/sigma^2 weights, each sigma raised to the noise floor, with
    absolute covariance, and sums centred on the weighted mean of x, so
    uneven weights cost no precision.  Raises :class:`InputError` when
    the regression is rank deficient: the weighted spread of x is at most
    the rounding of x, e.g. on fields whose squares are equal or underflow
    to 0.
    """
    w = 1.0 / np.maximum(sigma, _SIGMA_FLOOR) ** 2
    add = np.add.reduce
    sw = float(add(w))
    x_mean = float(add(w * x)) / sw
    dx = x - x_mean
    wdx = w * dx
    sxx = float(add(wdx * dx))
    if not sxx > sw * (_EPS * float(np.maximum.reduce(np.abs(x), None))) ** 2:
        raise InputError("film Tc regression is rank deficient "
                         "(degenerate field grid)")
    y_mean = float(add(w * y)) / sw
    slope = float(add(wdx * (y - y_mean))) / sxx
    return (y_mean - slope * x_mean, math.sqrt(1.0 / sw + x_mean * x_mean / sxx),
            w / sw - x_mean * wdx / sxx)


def _aggregate_repeats(fits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Combine repeated fits per field into one (t_star, sigma) each: the
    precision-weighted mean, each sigma raised to the noise floor."""
    fits = list(fits)
    per_fit = [float(field) for field, _ in fits]
    if all(a < b for a, b in zip(per_fit, per_fit[1:])):
        # one fit per field, in field order: np.unique would return them as given
        fields, group = np.array(per_fit), np.arange(len(per_fit))
    else:
        fields = np.unique(per_fit)
        group = fields.searchsorted(per_fit)
    ts = np.array([fit.t_star for _, fit in fits])
    w = 1.0 / np.maximum([fit.sigma_t_star for _, fit in fits], _SIGMA_FLOOR) ** 2
    sw = np.bincount(group, w, fields.size)
    return fields, np.bincount(group, w * ts, fields.size) / sw, 1.0 / np.sqrt(sw)


def build_delta_curve(fits, film: DeltaCurve | None = None) -> DeltaCurve:
    """Turn per-field fits into delta(H) = Tc_est - T*(H).

    ``fits`` is an iterable of (field_gauss, FitResult); repeated fields
    are combined by precision-weighted mean first.  Without ``film`` the
    fits are the film's, and its Tc comes from the weighted regression of
    its T* against H^2 (the film law).  Given the film's delta curve, the
    fits are the cavity's, and its curve takes the film's Tc estimate and
    sigma.

    A film delta is sum_j (r_j - [i = j]) t*_j, with r the intercept's
    row, so its sigma is sqrt(sum_j ((r_j - [i = j]) sigma_j)^2), each
    sigma raised to the noise floor as in the weights: Tc's covariance
    with that field's own T* enters it.  A cavity delta's T* is
    independent of Tc, so its sigma is hypot(sigma, sigma_Tc).
    """
    kind = "film" if film is None else "cavity"
    fields, t_star, sigma = _aggregate_repeats(fits)
    if fields.size < 3:
        raise InputError(f"{kind} fits cover {fields.size} distinct field(s); "
                         "a delta curve needs 3")
    if film is None:
        tc_value, tc_sigma, row = _weighted_line_fit(fields ** 2, t_star, sigma)
        coeff = (row - np.eye(fields.size)) * np.maximum(sigma, _SIGMA_FLOOR)
        sigmas = np.sqrt(np.add.reduce(coeff * coeff, 1))
    else:
        tc_value, tc_sigma = film.t_c_estimate, film.t_c_sigma
        sigmas = np.hypot(sigma, tc_sigma)
    return DeltaCurve(kind=kind, fields=fields, deltas=(tc_value - t_star) * MK_PER_K,
                      sigmas=sigmas * MK_PER_K, fit_sigmas=sigma * MK_PER_K,
                      t_c_estimate=tc_value, t_c_sigma=tc_sigma)


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

    Returns (mean_mK, standard_error_mK), each sigma raised to the noise
    floor, so on noise-free input the mean has equal weights and the
    standard error is 1e-9 / sqrt(n) mK.
    """
    mask = diff.fields >= min_field
    if not mask.any():
        raise InputError("no fields at or above the requested minimum")
    w = 1.0 / np.maximum(diff.sigmas[mask], MIN_DELTA_V) ** 2
    sw = np.add.reduce(w)
    return float(np.add.reduce(w * diff.values[mask]) / sw), float(1.0 / math.sqrt(sw))


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


def relative_slope_difference(film: np.ndarray, cavity: np.ndarray) -> np.ndarray:
    """(film - cavity) / film per field of measured slopes: 0 where the
    slopes are equal, NaN where only the film slope is 0."""
    with np.errstate(all="ignore"):  # the 0 and NaN cases are picked by np.where
        return np.where(film == cavity, 0.0,
                        np.where(film != 0.0, (film - cavity) / film, math.nan))


# --- dataset-level pipeline ---------------------------------------------------

@dataclass(frozen=True)
class FitFailure:
    """One curve whose fit failed, and why.

    ``iterations`` (accepted LM steps), ``residual_norm`` (RMS residual
    in ohm at the last parameters) and ``params`` (those last parameters,
    t* in K, width in mK, r_n in ohm) come from the :class:`FitError`;
    they are None when the curve was rejected before fitting
    (:class:`InputError`, e.g. a missing plateau).  Two failures compare
    equal without their curves, whose arrays have no truth value.
    """

    curve: TransitionCurve = dataclass_field(compare=False)
    reason: str
    iterations: int | None
    residual_norm: float | None
    params: tuple[float, float, float] | None = None


@dataclass
class AnalysisResult:
    """Everything the analysis stage extracts from one dataset."""

    fits: list[tuple[TransitionCurve, FitResult]]  # each curve with its fit
    film: DeltaCurve | None
    cavity: DeltaCurve | None
    difference: DifferenceCurve | None
    film_derivative: DerivativeCurve | None
    cavity_derivative: DerivativeCurve | None
    relative_slope_difference: np.ndarray | None  # per film-derivative field
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
    curve and its Tc, the cavity delta curve on that Tc, their
    difference, the derivative of each delta curve
    (:data:`DERIVATIVE_WINDOW` points per window), and, with the
    difference, their :func:`relative_slope_difference`.  A curve whose fit
    fails (no convergence, or a resistance plateau missing) is kept in
    ``failures``, not fatal.  A view its builder rejects (a kind whose
    fits cover < 3 fields, a rank-deficient film Tc regression, film and
    cavity fits on different fields, a delta curve shorter than the
    window) is skipped with the builder's message as a note, and so is
    every view built on it, without a note of its own: ``notes`` holds
    one entry per rejected view.
    """
    if not curves:
        raise InputError("dataset contains no curves")
    fits: list[tuple[TransitionCurve, FitResult]] = []
    failures: list[FitFailure] = []
    notes: list[str] = []
    for curve in curves:
        try:
            fits.append((curve, fit_transition(curve)))
        except FitError as exc:
            failures.append(FitFailure(curve, str(exc), exc.iterations,
                                       exc.residual_norm, exc.params))
        except InputError as exc:
            failures.append(FitFailure(curve, str(exc), None, None))
    by_kind = {kind: [(c.field, fit) for c, fit in fits if c.kind == kind]
               for kind in KINDS}

    def view(build, *args):
        """``build(*args)``; None when a view it needs is missing, or
        with the builder's :class:`InputError` as a note."""
        if None in args:
            return None
        try:
            return build(*args)
        except InputError as exc:
            notes.append(str(exc))
            return None

    film = view(build_delta_curve, by_kind["film"])
    cavity = view(build_delta_curve, by_kind["cavity"], film)
    difference = view(difference_curve, film, cavity)
    film_deriv = view(derivative_curve, film)
    cavity_deriv = view(derivative_curve, cavity)
    rel_slope_diff = mean_diff = mean_sigma = None
    if difference is not None:
        mean_diff, mean_sigma = weighted_mean_difference(difference)
        if film_deriv is not None and cavity_deriv is not None:
            rel_slope_diff = relative_slope_difference(film_deriv.slopes,
                                                       cavity_deriv.slopes)

    return AnalysisResult(fits=fits, film=film, cavity=cavity,
                          difference=difference, film_derivative=film_deriv,
                          cavity_derivative=cavity_deriv,
                          relative_slope_difference=rel_slope_diff,
                          mean_difference=mean_diff,
                          mean_difference_sigma=mean_sigma,
                          failures=failures, notes=notes)
