"""Seeded Monte Carlo driver for rate-vs-array-size and convergence runs.

Per-trial seeds are derived by mixing (master seed, antenna count, trial
index) through splitmix64, so a trial's user placement never depends on which
solvers are requested or on the order the antenna counts are swept.
The seed ignores the user count, so runs that differ only in M share user 0's
placement and are paired comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .baselines import (
    best_singleton,
    brute_force_select,
    check_brute_force_size,
    greedy_pgga_select,
)
from .channel import ChannelMatrix, build_channel_matrix, sample_users
from .config import SystemConfig
from .metric import InvariantError, SolverResult, rate_from_metric
from .vss import check_block_size, vss_select

# Every solver by canonical name. Each entry resolves its function through
# this module's globals at call time, so rebinding e.g. ``harness.vss_select``
# (tracing, fault injection) reaches the trials.
SOLVERS: dict[str, Callable[[ChannelMatrix], SolverResult]] = {
    "vss": lambda B: vss_select(B, B.config_snapshot.phase_bins),
    "brute_force": lambda B: brute_force_select(B),
    "pgga": lambda B: greedy_pgga_select(B),
    "best_singleton": lambda B: best_singleton(B),
}

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, n_antennas: int, trial_index: int) -> int:
    """Stable per-(N, trial) child seed, independent of sweep ordering."""
    s = _splitmix64(master_seed & _MASK64)
    s = _splitmix64(s ^ (n_antennas & _MASK64))
    return _splitmix64(s ^ (trial_index & _MASK64))


@dataclass(frozen=True)
class ExperimentSpec:
    base_config: SystemConfig
    n_values: tuple[int, ...]
    solvers: tuple[str, ...]
    n_trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if any(n < 1 for n in self.n_values):
            raise ValueError(f"antenna counts must be >= 1, got {self.n_values}")
        unknown = [s for s in self.solvers if s not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown solvers {unknown}; choose from {tuple(SOLVERS)}")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        if "brute_force" in self.solvers:
            check_brute_force_size(max(self.n_values), self.base_config.n_users)
        if "vss" in self.solvers:
            config = self.base_config
            check_block_size(max(self.n_values), config.phase_bins, config.n_users)
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "solvers", tuple(self.solvers))


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    n_antennas: int
    seed: int
    results: dict[str, SolverResult] = field(default_factory=dict)


def run_trial(
    config: SystemConfig,
    seed: int,
    solvers: tuple[str, ...],
    trial_index: int = 0,
) -> TrialRecord:
    """Sample one placement, build the channel once, run every solver on it."""
    users = sample_users(seed, config)
    B = build_channel_matrix(config, users)
    results = {solver: SOLVERS[solver](B) for solver in solvers}
    _check_invariants(config, results)
    return TrialRecord(
        trial_index=trial_index, n_antennas=config.n_antennas, seed=seed, results=results
    )


# Exact orderings between solvers run on the same channel: a lower rank never
# beats a higher one. Every metric is the canonical maxmin_metric, the oracle is
# exhaustive, and the trellis and the greedy baseline (which starts from the
# best singleton) accept only strict improvements.
_RANKS = {"best_singleton": 0, "vss": 1, "pgga": 1, "brute_force": 2}
_LABELS = {
    "best_singleton": "singleton metric",
    "vss": "trellis metric",
    "pgga": "greedy metric",
    "brute_force": "exhaustive optimum",
}


def _check_invariants(config: SystemConfig, results: dict[str, SolverResult]) -> None:
    vss = results.get("vss")
    if vss:
        bound = (config.phase_bins**config.n_users) * config.n_antennas**2
        if vss.evaluations > bound:
            raise InvariantError(
                f"trellis evaluations {vss.evaluations} exceed the Q^M N^2 bound {bound}"
            )
    for low, high in itertools.permutations(results, 2):
        a, b = results[low].metric, results[high].metric
        if _RANKS[low] < _RANKS[high] and a > b:
            raise InvariantError(f"{_LABELS[low]} {a} exceeds {_LABELS[high]} {b}")


@dataclass(frozen=True)
class SolverAggregate:
    n_antennas: int
    solver: str
    mean_min_rate: float
    mean_evaluations: float
    mean_active_count: float
    mean_termination_stage: float | None = None
    stage_rates: tuple[float, ...] | None = None


@dataclass(frozen=True)
class AggregateResult:
    entries: tuple[SolverAggregate, ...]

    def get(self, n_antennas: int, solver: str) -> SolverAggregate:
        for e in self.entries:
            if e.n_antennas == n_antennas and e.solver == solver:
                return e
        raise KeyError(f"no aggregate for N={n_antennas}, solver={solver}")


def mean_stage_curve(curves: list[tuple[float, ...]]) -> tuple[float, ...]:
    """Average running-best traces, carrying each final value forward so all
    trials align on the longest termination stage."""
    if not curves:
        return ()
    depth = max(len(c) for c in curves)
    padded = [c + (c[-1],) * (depth - len(c)) for c in curves]
    return tuple(
        sum(c[s] for c in padded) / len(padded) for s in range(depth)
    )


def run_sweep(spec: ExperimentSpec) -> AggregateResult:
    """Run ``n_trials`` trials per antenna count and aggregate per solver."""
    entries: list[SolverAggregate] = []
    for n in spec.n_values:
        config = spec.base_config.with_antennas(n)
        records = [
            run_trial(config, derive_seed(spec.seed, n, t), spec.solvers, trial_index=t)
            for t in range(spec.n_trials)
        ]
        for solver in spec.solvers:
            trials = [r.results[solver] for r in records]
            rates = [rate_from_metric(config, t.metric) for t in trials]
            k = len(trials)
            term = None
            curve = None
            if trials[0].trace is not None:
                traces = [t.trace for t in trials]
                term = sum(t.termination_stage for t in traces) / k
                # stage curve: mean running-best metric per stage, converted
                # to a rate (the curve the convergence plots report)
                mean_metrics = mean_stage_curve([t.running_best for t in traces])
                curve = tuple(rate_from_metric(config, m) for m in mean_metrics)
            entries.append(
                SolverAggregate(
                    n_antennas=n,
                    solver=solver,
                    mean_min_rate=sum(rates) / k,
                    mean_evaluations=sum(t.evaluations for t in trials) / k,
                    mean_active_count=sum(t.activation.active_count for t in trials) / k,
                    mean_termination_stage=term,
                    stage_rates=curve,
                )
            )
    return AggregateResult(entries=tuple(entries))


def run_convergence(
    config: SystemConfig, n_trials: int, seed: int
) -> tuple[float, ...]:
    """Mean running-best rate per trellis stage over seeded trials."""
    spec = ExperimentSpec(
        base_config=config,
        n_values=(config.n_antennas,),
        solvers=("vss",),
        n_trials=n_trials,
        seed=seed,
    )
    agg = run_sweep(spec)
    return agg.get(config.n_antennas, "vss").stage_rates
