"""Exception types shared across the package, and the one rule for
which values a number setting may hold."""

from __future__ import annotations

import math
import numbers


class CavityShiftError(Exception):
    """Base class for every package-specific error."""


class InputError(CavityShiftError, ValueError):
    """Invalid input: a bad plan, a malformed curve, a grid mismatch, or an
    argument outside the physical domain of an operation."""


def is_number(value, integer: bool = False) -> bool:
    """Whether ``value`` may stand for a number setting.

    Every number setting holds a number that a float can hold (a
    400-digit int is none).  A real setting holds an int, a float or a
    numpy real scalar; an integer setting holds an int.  Neither holds a
    ``bool`` (which Python counts as an int), a string, ``None`` or a
    list.  The value is checked, not converted.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:  # an int beyond the float range
        return False
    return True


def check_number(name: str, value, integer: bool = False, *,
                 above: float | None = None, at_least: float | None = None) -> None:
    """Raise :class:`InputError` naming ``name`` unless ``value`` passes
    :func:`is_number`, is finite, and is ``> above`` or ``>= at_least``
    where that bound is given (no comparison holds for NaN)."""
    if not is_number(value, integer):
        if isinstance(value, int) and not isinstance(value, bool):
            # its repr may exceed Python's digit limit
            raise InputError(f"{name} must lie within the float range, "
                             f"got a {value.bit_length()}-bit integer")
        raise InputError(f"{name} must be {'an integer' if integer else 'a real number'}, "
                         f"got {value!r}")
    rules = [] if integer else ["finite"]  # an int always is
    if above is not None:
        rules.append(f"> {above}")
    if at_least is not None:
        rules.append(f">= {at_least}")
    if not (math.isfinite(value) and (above is None or value > above)
            and (at_least is None or value >= at_least)):
        raise InputError(f"{name} must be {' and '.join(rules)}, got {value}")


class FitError(CavityShiftError, RuntimeError):
    """Nonlinear fit did not converge.  Carries iteration diagnostics."""

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual_norm: float | None = None,
                 params: tuple | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.params = params


class CalibrationError(CavityShiftError, RuntimeError):
    """Noise calibration could not reach its target."""
