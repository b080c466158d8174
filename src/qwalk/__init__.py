"""Quantum walk on the integer line with a single coin swap.

A 2-state coined walk evolves with coin ``U(theta)``; at one chosen
step tau the coin is replaced by ``H(theta1)`` and then reverts.  This
single defect localizes the walker: measurement probabilities at fixed
positions converge to strictly positive point masses, and the rescaled
position ``X_t/t`` converges weakly to an atom at 0 plus an absolutely
continuous density.  The package simulates the walk exactly, evaluates
the limit laws in closed form, and cross-checks both against an
independent Fourier-space evolution.

The public API is the names below: the walk (``WalkParams``,
``Schedule``), position-space stepping (``evolve``, ``step``), the
momentum-space route (``spectral_evolve``, ``Propagator``,
``eigensystem``), the two limit theorems (``theorem1_limit``,
``delta_mass``, ``LimitDensity``) and the diagnostics that compare them
(``tau_sweep``, ``trace_masses``, ``trace_moments``,
``rescaled_cdf_distance``, ``localized_mass``, ``moment``).  ``qwalk.cli`` is the command line.
"""

from .analysis import (localized_mass, moment, rescaled_cdf_distance, tau_sweep,
                       trace_masses, trace_moments)
from .coin import ExcludedAngleError, NormalizationError, Schedule, ScheduleKind, WalkParams
from .dynamics import Distribution, StateVector, distribution, evolve, initial_state, step
from .limits import LimitDensity, delta_mass, theorem1_limit
from .spectral import FourierState, Propagator, SpectralPair, eigensystem, spectral_evolve

__all__ = [
    "Distribution",
    "ExcludedAngleError",
    "FourierState",
    "LimitDensity",
    "NormalizationError",
    "Propagator",
    "Schedule",
    "ScheduleKind",
    "SpectralPair",
    "StateVector",
    "WalkParams",
    "delta_mass",
    "distribution",
    "eigensystem",
    "evolve",
    "initial_state",
    "localized_mass",
    "moment",
    "rescaled_cdf_distance",
    "spectral_evolve",
    "step",
    "tau_sweep",
    "theorem1_limit",
    "trace_masses",
    "trace_moments",
]

__version__ = "0.1.0"
