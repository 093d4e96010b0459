"""Exception types shared across the package."""

from __future__ import annotations


class CavityShiftError(Exception):
    """Base class for every package-specific error."""


class InputError(CavityShiftError, ValueError):
    """Invalid input: a bad plan, a malformed curve, a grid mismatch, or an
    argument outside the physical domain of an operation."""


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
