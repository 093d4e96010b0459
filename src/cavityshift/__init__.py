"""Simulator and analysis toolkit for the critical-field shift of a thin
superconducting film that forms one mirror of a vacuum cavity.

The package models the in-plane critical field of the paired
film/cavity system, synthesizes the fixed-field R(T) measurement
protocol with realistic instrument noise, recovers transition
temperatures and delta(H) curves, and runs the Monte Carlo study that
decides whether the predicted sub-millikelvin shift is detectable.
"""

from .analysis import (AnalysisResult, DeltaCurve, DerivativeCurve, DifferenceCurve,
                       FitFailure, FitResult, analyze_dataset, build_delta_curve,
                       derivative_curve, difference_curve, fit_transition,
                       weighted_mean_difference)
from .config import RunConfig, default_run_config, load_run_config
from .errors import CalibrationError, CavityShiftError, FitError, InputError
from .instrument import InstrumentConfig, measure_profile, noise_stream
from .model import (ModelParams, cavity_delta, critical_field, delta_derivative,
                    delta_difference, film_delta)
from .protocol import (SweepPlan, TransitionCurve, acquire_curve, plan_sweep,
                       read_run, run_paired_experiment, write_run)
from .sensitivity import (SensitivityReport, calibrate_noise, delta_n_per_ohm,
                          run_sensitivity)

__version__ = "0.1.0"
