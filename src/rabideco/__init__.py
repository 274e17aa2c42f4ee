"""Decoherence of Rabi oscillations from passively measured ensembles.

Analytic predictors for ensembles whose members are occasionally collapsed
by their environment (distinguishable and indistinguishable bookkeeping),
a seeded Monte Carlo oracle for the distinguishable one, the on-resonance
master-equation baseline, and the damped-sinusoid / power-law fits used to
compare them. Every quantity is a ground-state series over a grid of times.
"""

from .core import (LAMB_DICKE, FrequencyLadder, InitialState, ProbabilitySeries, RabiSystem,
                   rabi_frequency_ladder)
from .distinguishable import (DistinguishableEnv, PiecewisePredictor, build_predictor,
                              sample_series)
from .indistinguishable import (IndistinguishableEnv, NestedTable, approx_closed_form,
                                approx_gamma, build_nested_table, sample_rescaled_series)
from .montecarlo import EnsembleConfig, simulate_distinguishable
from .fitting import (DampedSinusoidFit, FitConvergenceError, MasterEqParams, PowerLawFit,
                      fit_damped_sinusoid, fit_power_law, master_eq_series)

__all__ = [
    "LAMB_DICKE", "FrequencyLadder", "InitialState", "ProbabilitySeries", "RabiSystem",
    "rabi_frequency_ladder",
    "DistinguishableEnv", "PiecewisePredictor", "build_predictor", "sample_series",
    "IndistinguishableEnv", "NestedTable", "approx_closed_form", "approx_gamma",
    "build_nested_table", "sample_rescaled_series",
    "EnsembleConfig", "simulate_distinguishable",
    "DampedSinusoidFit", "FitConvergenceError", "MasterEqParams", "PowerLawFit",
    "fit_damped_sinusoid", "fit_power_law", "master_eq_series",
]

__version__ = "0.1.0"
