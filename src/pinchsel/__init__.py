"""Antenna-subset activation for waveguide-fed pinching-antenna arrays.

Builds effective channels for uniformly pinched waveguides, evaluates the
worst-user activation objective, and solves the subset-selection problem with
a phase-quantised trellis search, an exhaustive oracle and a greedy baseline,
plus a seeded Monte Carlo harness and a CLI for experiment reproduction.
"""

from .baselines import best_singleton, brute_force_select, greedy_pgga_select
from .channel import (
    ChannelMatrix,
    build_channel_matrix,
    pa_positions,
    sample_users,
)
from .config import SystemConfig, dbm_to_watts, watts_to_dbm
from .harness import (
    AggregateResult,
    ExperimentSpec,
    TrialRecord,
    derive_seed,
    run_convergence,
    run_sweep,
    run_trial,
)
from .metric import (
    ActivationVector,
    InvariantError,
    SolverResult,
    accumulated_signal,
    maxmin_metric,
    rate_from_metric,
)
from .vss import Stage, VssTrace, quantize_phase, stage_expand, vss_select

__all__ = [
    "ActivationVector",
    "AggregateResult",
    "ChannelMatrix",
    "ExperimentSpec",
    "InvariantError",
    "SolverResult",
    "Stage",
    "SystemConfig",
    "TrialRecord",
    "VssTrace",
    "accumulated_signal",
    "best_singleton",
    "brute_force_select",
    "build_channel_matrix",
    "dbm_to_watts",
    "derive_seed",
    "greedy_pgga_select",
    "maxmin_metric",
    "pa_positions",
    "quantize_phase",
    "rate_from_metric",
    "run_convergence",
    "run_sweep",
    "run_trial",
    "sample_users",
    "stage_expand",
    "vss_select",
    "watts_to_dbm",
]
