"""Numerical Skorokhod embedding for Gaussian processes with drift.

The pipeline: represent the target law and the process coefficients, solve
the Markovian decoupling field of the associated forward-backward system on
a grid, simulate decoupled paths, and construct (and statistically verify)
both the weak embedding time and the strong stopping time via the
time-change system.
"""

from .coeffs import ProcessCoefficients, TimeFunction
from .embed import (EmbeddingResult, coupled_round_trip, strong_embed_on_W,
                    weak_embed, weak_embed_ensemble)
from .fbsde import (FbsdePath, backward_residual, martingale_check,
                    simulate_block, simulate_ensemble)
from .field import (DecouplingField, SolverConfig, derivative_fields,
                    eval_field, field_diagnostics, load_field, save_field,
                    solve_field)
from .measure import TargetMeasure, make_g, phi, phi_inv
from .verify import OracleField, ks_statistic, law_report, wasserstein1

__version__ = "0.1.0"

__all__ = [
    "TargetMeasure", "make_g", "phi", "phi_inv",
    "ProcessCoefficients", "TimeFunction",
    "SolverConfig", "DecouplingField", "solve_field", "derivative_fields",
    "eval_field", "field_diagnostics", "save_field", "load_field",
    "FbsdePath", "simulate_block", "simulate_ensemble", "backward_residual",
    "martingale_check",
    "weak_embed", "weak_embed_ensemble", "strong_embed_on_W",
    "coupled_round_trip", "EmbeddingResult",
    "ks_statistic", "wasserstein1", "law_report", "OracleField",
    "__version__",
]
