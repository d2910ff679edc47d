"""Phase-quantised trellis search over antenna activation patterns.

Stage ``tau`` of the trellis holds activations with exactly ``tau`` active
antennas. Each activation is bucketed by the quantised phases of its per-user
accumulated signals (one bin index per user, ``n_bins ** n_users`` buckets),
and only the best-metric activation per bucket survives a stage. Candidates
are generated by switching on one additional antenna of a survivor, with the
accumulated signal updated incrementally; a candidate is kept only if it
strictly improves on the survivor it extends, so metrics increase strictly
along every path and the search stops at the first stage with no accepted
candidate. The answer is the best survivor across all explored stages.

Numerical note: accepted survivors have their accumulated signal and metric
rebuilt in canonical (ascending antenna index) order at install time, so a
stored metric is bit-identical to ``maxmin_metric`` of its activation and
cross-solver comparisons against the exhaustive oracle are drift-free. The
incremental values are used only to screen candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelMatrix, as_gains
from .metric import (
    ActivationVector,
    InvariantError,
    SolverResult,
    accumulated_signal,
    metric_from_accumulated,
)


def quantize_phase(phi: float, n_bins: int) -> int:
    """Map an angle to one of ``n_bins`` uniform bins over [-pi, pi).

    The interval is half-open on the left of each bin; +pi wraps to -pi and
    therefore lands in bin 0.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    frac = ((phi + math.pi) % math.tau) / math.tau
    k = int(frac * n_bins)
    return min(k, n_bins - 1)  # guard against frac*n_bins rounding up to n_bins


@dataclass(frozen=True, order=True)
class TrellisStateId:
    """Per-user phase-bin indices identifying one trellis bucket."""

    bins: tuple[int, ...]


def state_of(accumulated: Sequence[complex], n_bins: int) -> TrellisStateId:
    """Bucket an accumulated-signal vector; a zero signal counts as phase 0."""
    return TrellisStateId(
        tuple(quantize_phase(math.atan2(z.imag, z.real), n_bins) for z in accumulated)
    )


@dataclass(frozen=True)
class Survivor:
    """Best activation found for one (stage, state) slot."""

    activation: ActivationVector
    accumulated: tuple[complex, ...]
    metric: float
    stage: int
    parent: tuple[int, TrellisStateId] | None


@dataclass(frozen=True)
class VssTrace:
    """Per-run diagnostics: convergence curve, termination, work counters."""

    running_best: tuple[float, ...]
    termination_stage: int
    best_stage: int
    metric_evaluations: int
    survivors_per_stage: tuple[int, ...]


SurvivorTable = dict[TrellisStateId, Survivor]


@dataclass(frozen=True)
class _Context:
    gains: np.ndarray
    cols: tuple[tuple[complex, ...], ...]  # per antenna, per user
    n_bins: int
    verify_incremental: bool


def _make_context(
    B: "ChannelMatrix | np.ndarray", n_bins: int, verify_incremental: bool
) -> _Context:
    gains = as_gains(B)
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    cols = tuple(tuple(gains[:, j].tolist()) for j in range(gains.shape[1]))
    return _Context(gains, cols, n_bins, verify_incremental)


def _expand(table: SurvivorTable, ctx: _Context) -> tuple[SurvivorTable, int]:
    """One transition round; returns the next stage's table and the number of
    candidate metric evaluations performed (accepted or not)."""
    parents = sorted(table.items())
    evaluations = 0
    # state -> (incremental metric, parent key, parent, antenna, incremental Z)
    pending: dict[
        TrellisStateId,
        tuple[float, TrellisStateId, Survivor, int, list[complex]],
    ] = {}
    quant = quantize_phase  # looked up per call, so a rebinding takes effect
    n_bins = ctx.n_bins
    for antenna, col in enumerate(ctx.cols):
        for parent_key, parent in parents:
            if parent.activation.mask[antenna]:
                continue
            stage = parent.stage + 1
            z_new: list[complex] = []
            worst = math.inf
            for z_old, b in zip(parent.accumulated, col):
                z = z_old + b
                z_new.append(z)
                p = z.real * z.real + z.imag * z.imag
                if p < worst:
                    worst = p
            evaluations += 1
            cand_metric = worst / stage
            if cand_metric <= parent.metric:  # strict improvement gate
                continue
            key = TrellisStateId(
                tuple(quant(math.atan2(z.imag, z.real), n_bins) for z in z_new)
            )
            incumbent = pending.get(key)
            if incumbent is None or cand_metric > incumbent[0]:
                pending[key] = (cand_metric, parent_key, parent, antenna, z_new)

    new_table: SurvivorTable = {}
    for key in sorted(pending):
        _, parent_key, parent, antenna, z_inc = pending[key]
        activation = parent.activation.with_added(antenna)
        z_canon = accumulated_signal(ctx.gains, activation)
        metric = metric_from_accumulated(z_canon.tolist(), activation.active_count)
        if metric <= parent.metric:  # re-check the gate on the canonical value
            continue
        if ctx.verify_incremental:
            for zi, zc in zip(z_inc, z_canon.tolist()):
                if abs(zi - zc) > 1e-10 * (1.0 + abs(zc)):
                    raise InvariantError(
                        f"incremental/canonical accumulated-signal mismatch: {zi} vs {zc}"
                    )
        survivor = Survivor(
            activation=activation,
            accumulated=tuple(z_canon.tolist()),
            metric=metric,
            stage=parent.stage + 1,
            parent=(parent.stage, parent_key),
        )
        slot = state_of(survivor.accumulated, n_bins)
        incumbent_s = new_table.get(slot)
        if incumbent_s is None or survivor.metric > incumbent_s.metric:
            new_table[slot] = survivor
    return new_table, evaluations


def root_table(n_antennas: int, n_users: int, n_bins: int) -> SurvivorTable:
    """Stage-0 table: the empty activation as a pure phase reference."""
    root = Survivor(
        activation=ActivationVector((0,) * n_antennas),
        accumulated=(0j,) * n_users,
        metric=0.0,
        stage=0,
        parent=None,
    )
    return {TrellisStateId((quantize_phase(0.0, n_bins),) * n_users): root}


def stage_expand(
    survivors: SurvivorTable,
    B: "ChannelMatrix | np.ndarray",
    n_bins: int,
    verify_incremental: bool = False,
) -> SurvivorTable:
    """Expand one stage's survivor table into the next stage's (test hook)."""
    if not survivors:
        raise ValueError("survivor table must be non-empty")
    ctx = _make_context(B, n_bins, verify_incremental)
    table, _ = _expand(survivors, ctx)
    return table


def vss_select(
    B: "ChannelMatrix | np.ndarray",
    n_bins: int | None = None,
    verify_incremental: bool = False,
) -> SolverResult:
    """Run the trellis search and return the best survivor across all stages.

    ``n_bins`` defaults to the channel's configured phase-bin count when a
    ChannelMatrix is given; it must be passed explicitly for bare arrays.
    """
    if n_bins is None:
        if isinstance(B, ChannelMatrix):
            n_bins = B.config_snapshot.phase_bins
        else:
            raise ValueError("n_bins is required when B is a bare gain array")
    ctx = _make_context(B, n_bins, verify_incremental)
    n_users, n_antennas = ctx.gains.shape

    table = root_table(n_antennas, n_users, n_bins)
    evaluations = 0
    running_best: list[float] = []
    survivors_per_stage: list[int] = []
    best: Survivor | None = None
    last_stage = 0
    for _ in range(1, n_antennas + 1):
        table, stage_evals = _expand(table, ctx)
        evaluations += stage_evals
        if not table:
            break
        last_stage += 1
        for key in sorted(table):
            survivor = table[key]
            if best is None or survivor.metric > best.metric:
                best = survivor
        running_best.append(best.metric)
        survivors_per_stage.append(len(table))
    if best is None:
        raise ValueError(
            "no single-antenna activation has positive worst-user power; "
            "the gain matrix violates the nonzero-entry contract"
        )
    trace = VssTrace(
        running_best=tuple(running_best),
        termination_stage=last_stage,
        best_stage=best.stage,
        metric_evaluations=evaluations,
        survivors_per_stage=tuple(survivors_per_stage),
    )
    return SolverResult(best.activation, best.metric, evaluations, trace)
