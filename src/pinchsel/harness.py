"""Seeded Monte Carlo driver for rate-vs-array-size and convergence runs.

Per-trial seeds are derived by mixing (master seed, antenna count, trial
index) through splitmix64, so a trial's user placement never depends on which
solvers are requested or on the order the antenna counts are swept.
The seed ignores the user count, so runs that differ only in M share user 0's
placement and are paired comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .baselines import (
    best_singleton,
    brute_force_select,
    check_brute_force_size,
    greedy_pgga_select,
)
from .channel import ChannelMatrix, build_channel_matrix, sample_users
from .config import SystemConfig
from .metric import InvariantError, SolverResult, rate_from_metric
from .vss import MAX_BLOCK_ENTRIES, check_block_size, vss_select


class Solver(NamedTuple):
    """One solver's row. On one channel a lower ``rank`` never beats a higher
    one: every metric is the canonical maxmin_metric, the oracle is exhaustive,
    and the trellis and greedy (from the best singleton) accept only strict
    improvements. ``refuse(config)`` raises ``ValueError`` at a size the
    solver cannot run; it is applied at the largest N before any trial."""

    run: Callable[[ChannelMatrix], SolverResult]
    rank: int
    label: str
    cli_name: str
    refuse: Callable[[SystemConfig], None] = lambda config: None


# Every solver by canonical name. Each ``run`` resolves its function through
# this module's globals at call time, so rebinding e.g. ``harness.vss_select``
# (tracing, fault injection) reaches the trials.
SOLVERS: dict[str, Solver] = {
    "vss": Solver(
        lambda B: vss_select(B, B.config_snapshot.phase_bins), 1, "trellis metric", "vss",
        lambda c: check_block_size(c.n_antennas, c.phase_bins, c.n_users),
    ),
    "brute_force": Solver(
        lambda B: brute_force_select(B), 2, "exhaustive optimum", "brute",
        lambda c: check_brute_force_size(c.n_antennas, c.n_users),
    ),
    "pgga": Solver(lambda B: greedy_pgga_select(B), 1, "greedy metric", "pgga"),
    "best_singleton": Solver(lambda B: best_singleton(B), 0, "singleton metric", "singleton"),
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
        largest = self.base_config.with_antennas(max(self.n_values))
        if largest.n_users * largest.n_antennas > MAX_BLOCK_ENTRIES:
            raise ValueError(
                f"a channel of M={largest.n_users} users by N={largest.n_antennas} "
                f"antennas exceeds the limit of {MAX_BLOCK_ENTRIES} entries"
            )
        for solver in self.solvers:
            SOLVERS[solver].refuse(largest)
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "solvers", tuple(self.solvers))


# Gains (trials x users x antennas) built by one stacked channel call: bounds
# the (T, M, N) arrays of one build, whatever the trial count or array size.
# At their default trial counts, every benchmark workload and script builds
# each antenna count in one call.
_BUILD_ENTRIES = 1 << 16


def trial_channels(config: SystemConfig, seed: int, n_trials: int) -> Iterator[ChannelMatrix]:
    """Channels of trials ``0 .. n_trials - 1`` at ``config``'s antenna count,
    in trial order. Each trial's placement is drawn from its own derived seed;
    as many placements as fit ``_BUILD_ENTRIES`` gains (at least one) are
    stacked and built in one call, so a too-close placement is refused before
    any trial of its chunk is used."""
    n = config.n_antennas
    rows = max(1, _BUILD_ENTRIES // (config.n_users * n))
    for start in range(0, n_trials, rows):
        trials = range(start, min(start + rows, n_trials))
        users = [sample_users(derive_seed(seed, n, t), config) for t in trials]
        yield from build_channel_matrix(config, users)


def run_trial(B: ChannelMatrix, solvers: tuple[str, ...]) -> dict[str, SolverResult]:
    """Run every solver once on one channel and check their orderings at the
    channel's config; return each solver's result by name."""
    results = {solver: SOLVERS[solver].run(B) for solver in solvers}
    check_invariants(B.config_snapshot, results)
    return results


def evaluation_bound(config: SystemConfig) -> int:
    """The trellis's Q^M N^2 bound on candidate evaluations at ``config``."""
    return config.phase_bins**config.n_users * config.n_antennas**2


def check_invariants(config: SystemConfig, results: dict[str, SolverResult]) -> None:
    """Raise ``InvariantError`` when the trellis exceeds its Q^M N^2
    evaluation bound or a solver breaks its row's ``rank`` ordering."""
    vss = results.get("vss")
    if vss:
        bound = evaluation_bound(config)
        if vss.evaluations > bound:
            raise InvariantError(
                f"trellis evaluations {vss.evaluations} exceed the Q^M N^2 bound {bound}"
            )
    for low, high in itertools.permutations(results, 2):
        a, b = results[low].metric, results[high].metric
        lo, hi = SOLVERS[low], SOLVERS[high]
        if lo.rank < hi.rank and a > b:
            raise InvariantError(f"{lo.label} {a} exceeds {hi.label} {b}")


@dataclass(frozen=True)
class SolverAggregate:
    mean_min_rate: float
    mean_evaluations: float
    mean_active_count: float
    stage_rates: tuple[float, ...] | None = None


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


def run_sweep(spec: ExperimentSpec) -> dict[tuple[int, str], SolverAggregate]:
    """Run ``n_trials`` trials per antenna count and aggregate per solver,
    keyed by (antenna count, solver). Each antenna count's channels come from
    ``trial_channels`` in stacked chunks; ``run_trial`` then solves them one
    trial at a time."""
    entries: dict[tuple[int, str], SolverAggregate] = {}
    for n in spec.n_values:
        config = spec.base_config.with_antennas(n)
        records = [
            run_trial(B, spec.solvers)
            for B in trial_channels(config, spec.seed, spec.n_trials)
        ]
        for solver in spec.solvers:
            trials = [r[solver] for r in records]
            rates = [rate_from_metric(config, t.metric) for t in trials]
            k = len(trials)
            curve = None
            if trials[0].trace is not None:
                # stage curve: mean running-best metric per stage, converted
                # to a rate (the curve the convergence plots report)
                mean_metrics = mean_stage_curve([t.trace.running_best for t in trials])
                curve = tuple(rate_from_metric(config, m) for m in mean_metrics)
            entries[n, solver] = SolverAggregate(
                mean_min_rate=sum(rates) / k,
                mean_evaluations=sum(t.evaluations for t in trials) / k,
                mean_active_count=sum(t.activation.active_count for t in trials) / k,
                stage_rates=curve,
            )
    return entries


def run_convergence(spec: ExperimentSpec) -> dict[int, tuple[float, ...]]:
    """Mean running-best rate per trellis stage for each antenna count of a
    trellis-only spec, from one sweep."""
    agg = run_sweep(spec)
    return {n: agg[n, "vss"].stage_rates for n in spec.n_values}
