"""Quantum walk on the integer line with a single coin swap.

A 2-state coined walk evolves with coin ``U(theta)``; at one chosen
step tau the coin is replaced by ``H(theta1)`` and then reverts.  This
single defect localizes the walker: measurement probabilities at fixed
positions converge to strictly positive point masses, and the rescaled
position ``X_t/t`` converges weakly to an atom at 0 plus an absolutely
continuous density.  The package simulates the walk exactly, evaluates
the limit laws in closed form, and cross-checks both against an
independent Fourier-space evolution.
"""

from .analysis import (
    ConvergenceTrace,
    localized_mass,
    mass_trace,
    moment,
    rescaled_cdf_distance,
    tau_sweep,
)
from .coin import (
    CoinSet,
    ExcludedAngleError,
    NormalizationError,
    Schedule,
    ScheduleKind,
    WalkParams,
    build_coins,
    fourier_coin,
)
from .dynamics import (
    Distribution,
    StateVector,
    distribution,
    evolve,
    initial_state,
    step,
)
from .limits import (
    LimitDensity,
    delta_mass,
    limit_mass_total,
    limit_masses,
    theorem1_limit,
)
from .spectral import (
    FourierState,
    Propagator,
    SpectralPair,
    asymptotic_amplitude,
    eigensystem,
    spectral_evolve,
)

__all__ = [
    "ConvergenceTrace",
    "CoinSet",
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
    "asymptotic_amplitude",
    "build_coins",
    "delta_mass",
    "distribution",
    "eigensystem",
    "evolve",
    "fourier_coin",
    "initial_state",
    "limit_mass_total",
    "limit_masses",
    "localized_mass",
    "mass_trace",
    "moment",
    "rescaled_cdf_distance",
    "spectral_evolve",
    "step",
    "tau_sweep",
    "theorem1_limit",
]

__version__ = "0.1.0"
