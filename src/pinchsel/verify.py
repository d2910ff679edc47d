"""Self-check battery behind the ``verify`` CLI subcommand.

Each check returns a pass/fail result with a one-line detail string; the CLI
prints them and exits nonzero if any check fails. A solver invariant broken
inside a check fails that check and the battery goes on. The trellis solver
is exercised against the exhaustive oracle, against structural invariants of
its stages, and against its own evaluation-count bound.

The full battery (``quick=False``) runs at acceptance sizes and is the only
home of acceptance criteria 1, 2, 3 and 7; ``tests/test_acceptance.py`` runs
each check from ``_CHECKS`` at seed 7. ``quick=True`` runs smaller batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import vss as vss_mod
from .baselines import best_singleton, brute_force_select
from .config import SystemConfig
from .harness import check_invariants, evaluation_bound, run_trial, trial_channels
from .metric import (
    ActivationVector,
    InvariantError,
    SolverResult,
    accumulated_signal,
    maxmin_metric,
    rate_from_metric,
)
from .vss import Stage, VssTrace, Walk, root_stage, stage_expand, vss_select


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _interval_bin_oracle(phi: float, n_bins: int) -> int:
    """Direct interval search over the uniform bins (independent of the
    production quantizer's modular arithmetic)."""
    x = phi
    while x >= math.pi:
        x -= math.tau
    while x < -math.pi:
        x += math.tau
    edges = [-math.pi + k * math.tau / n_bins for k in range(n_bins + 1)]
    for k in range(n_bins):
        if edges[k] <= x < edges[k + 1]:
            return k
    return n_bins - 1


def check_quantizer_edges(quick: bool, seed: int) -> tuple[bool, str]:
    """Bin probe angles with the scalar quantizer and with the trellis's array
    binning: mid-bin probes take the array path, edge + eps probes its scalar
    edge fallback."""
    quant = vss_mod.quantize_phase
    eps = 1e-9
    failures = 0
    cases = 0
    for n_bins in (1, 2, 3, 4, 8, 16):
        probes = [0.0, 1.0, -1.0, math.pi / 2, -math.pi / 2, math.pi - eps]
        for k in range(n_bins):
            edge = -math.pi + math.tau * k / n_bins
            probes.extend([edge + eps, edge + math.tau / (2 * n_bins)])
        for offset in (0.0, math.tau, -math.tau):
            for phi in probes:
                cases += 1
                got = quant(phi + offset, n_bins)
                want = _interval_bin_oracle(phi + offset, n_bins)
                if got != want or not 0 <= got < n_bins:
                    failures += 1
        wants = [_interval_bin_oracle(phi, n_bins) for phi in probes]
        gots = vss_mod.bucket_codes(np.exp(1j * np.array(probes))[:, None], n_bins)
        cases += len(probes)
        failures += sum(got != want for got, want in zip(gots.tolist(), wants))
    return failures == 0, f"{cases - failures}/{cases} probe angles binned correctly"


def _oracle_batch(
    n_antennas: int, n_users: int, n_trials: int, seed: int
) -> tuple[int, float, float]:
    """Return (exact matches: the same antenna selection, mean rate gap, max
    relative gap) over a seeded batch; ``run_trial`` raises if the trellis
    ever beats the oracle."""
    config = SystemConfig(n_antennas=n_antennas, n_users=n_users)
    matches = 0
    gap_sum = 0.0
    max_rel_gap = 0.0
    for B in trial_channels(config, seed, n_trials):
        results = run_trial(B, ("vss", "brute_force"))
        v, b = results["vss"], results["brute_force"]
        matches += v.activation == b.activation
        b_rate, v_rate = (rate_from_metric(config, r.metric) for r in (b, v))
        gap_sum += b_rate - v_rate
        if b.metric > 0:
            max_rel_gap = max(max_rel_gap, (b.metric - v.metric) / b.metric)
    return matches, gap_sum / n_trials, max_rel_gap


def check_oracle_single_user(quick: bool, seed: int) -> tuple[bool, str]:
    trials = 40 if quick else 200
    matches, mean_gap, max_rel = _oracle_batch(12, 1, trials, seed)
    frac = matches / trials
    return frac >= 0.95 and mean_gap <= 0.01, (
        f"N=12 M=1: exact-match fraction {frac:.3f} (need >= 0.95), "
        f"mean rate gap {mean_gap:.3e} bps/Hz (need <= 0.01), "
        f"max relative metric gap {max_rel:.2e}"
    )


def check_oracle_multi_user(quick: bool, seed: int) -> tuple[bool, str]:
    trials = 20 if quick else 100
    matches, mean_gap, max_rel = _oracle_batch(10, 2, trials, seed)
    return mean_gap <= 0.02, (
        f"N=10 M=2: mean worst-user rate gap {mean_gap:.3e} bps/Hz "
        f"(need <= 0.02), exact matches {matches}/{trials}, "
        f"max relative gap {max_rel:.2e}"
    )


def _random_gains(rng: np.random.Generator, n_users: int, n_antennas: int) -> np.ndarray:
    return rng.standard_normal((n_users, n_antennas)) + 1j * rng.standard_normal(
        (n_users, n_antennas)
    )


def stage_problems(prev: Stage, nxt: Stage, gains: np.ndarray, n_bins: int) -> list[str]:
    """Every per-stage invariant that ``nxt``, expanded from ``prev``, breaks:
    buckets unique, ascending and in [0, Q^M); metrics strictly above the
    parent row's; each mask its parent's plus one antenna, with a stored
    signal within 1e-10 (relative) of the parent's signal plus that antenna's
    gains; each bucket that of the canonical signal of its mask; each metric
    bit-identical to ``maxmin_metric``. The canonical bucket comes from the
    scalar ``quantize_phase``, not from the ``bucket_codes`` under check."""
    n_buckets = n_bins ** gains.shape[0]
    quant = vss_mod.quantize_phase
    problems: list[str] = []
    if len(nxt) > n_buckets:
        problems.append(f"{len(nxt)} survivors for {n_buckets} buckets")
    if np.any(np.diff(nxt.buckets) <= 0):
        problems.append(f"buckets not strictly ascending: {nxt.buckets.tolist()}")
    for mask, signal, metric, bucket, parent in zip(
        nxt.masks, nxt.signals, nxt.metrics.tolist(), nxt.buckets.tolist(),
        nxt.parents.tolist(),
    ):
        if not 0 <= bucket < n_buckets:
            problems.append(f"bucket {bucket} outside [0, {n_buckets})")
        if not (0 <= parent < len(prev) and metric > prev.metrics[parent]):
            problems.append("non-increasing metric along a path")
        else:
            added = np.flatnonzero(mask != prev.masks[parent])
            if len(added) != 1 or not mask[added[0]]:
                problems.append("mask is not its parent's plus one antenna")
            else:
                z_inc = prev.signals[parent] + gains[:, added[0]]
                bad = np.abs(z_inc - signal) > 1e-10 * (1.0 + np.abs(signal))
                if bad.any():
                    problems.append(
                        "incremental/canonical accumulated-signal mismatch: "
                        f"{complex(z_inc[bad][0])} vs {complex(signal[bad][0])}"
                    )
        canonical = 0
        for z in accumulated_signal(gains, mask).tolist():
            canonical = canonical * n_bins + quant(math.atan2(z.imag, z.real), n_bins)
        if bucket != canonical:
            problems.append(f"bucket {bucket} differs from its signal's {canonical}")
        if metric != maxmin_metric(gains, mask):
            problems.append(f"metric {metric!r} differs from maxmin_metric")
    return problems


def check_trellis_invariants(quick: bool, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed % 2**64)  # any int seed, as sample_users takes it
    instances = 30 if quick else 500
    problems: list[str] = []
    for _ in range(instances):
        n_antennas = int(rng.integers(2, 11))
        n_users = int(rng.integers(1, 3))
        n_bins = int(rng.choice([1, 2, 4, 8]))
        gains = _random_gains(rng, n_users, n_antennas)

        # walk the trellis manually, validate each stage, and rebuild the
        # result vss_select must return: two independent expansions agree
        walk = Walk(gains, n_bins)
        stage = root_stage(walk)
        evaluations, running_best, survivors = 0, [], []
        best_metric, best_mask = -math.inf, None
        while len(stage):
            evaluations += int(np.count_nonzero(~stage.masks))
            nxt = stage_expand(stage, walk)
            problems.extend(stage_problems(stage, nxt, gains, n_bins))
            if len(nxt):
                row = int(np.argmax(nxt.metrics))
                if nxt.metrics[row] > best_metric:
                    best_metric, best_mask = float(nxt.metrics[row]), nxt.masks[row]
                running_best.append(best_metric)
                survivors.append(len(nxt))
            stage = nxt
        trace = VssTrace(tuple(running_best), evaluations, tuple(survivors))
        activation = ActivationVector(tuple(best_mask.tolist()))
        res = vss_select(gains, n_bins)
        if res != SolverResult(activation, best_metric, evaluations, trace):
            problems.append("vss_select differs from the independent stage walk")
        # the harness's orderings and Q^M N^2 bound; a breach raises
        config = SystemConfig(n_antennas=n_antennas, n_users=n_users, phase_bins=n_bins)
        brute, single = brute_force_select(gains), best_singleton(gains)
        check_invariants(config, {"vss": res, "brute_force": brute, "best_singleton": single})
        if problems:
            break
    if problems:
        return False, f"violation: {problems[0]}"
    return True, f"{instances} random instances clean"


def check_complexity_bound(quick: bool, seed: int) -> tuple[bool, str]:
    evals: dict[int, list[int]] = {}
    worst_ratio = 0.0
    for n_antennas, trials in ((50, 10 if quick else 50), (20, 5 if quick else 50)):
        config = SystemConfig(n_antennas=n_antennas, n_users=1)
        bound = evaluation_bound(config)
        evals[n_antennas] = [
            run_trial(B, ("vss",))["vss"].evaluations
            for B in trial_channels(config, seed, trials)
        ]
        # run_trial raises above 1, here and in the oracle checks
        worst_ratio = max(worst_ratio, max(evals[n_antennas]) / bound)
    # the N=20 trellis workload versus the 2^20 exhaustive enumeration
    share = max(evals[20]) / 2**20
    return share < 0.01, (
        f"{sum(map(len, evals.values()))} runs within Q^M N^2 "
        f"(worst fill {worst_ratio:.1%}); "
        f"N=20 trellis work is {share:.3%} of 2^20 (need < 1%)"
    )


_CHECKS: dict[str, Callable[[bool, int], tuple[bool, str]]] = {
    "quantizer-edge-sweep": check_quantizer_edges,
    "oracle-equivalence-single-user": check_oracle_single_user,
    "oracle-equivalence-multi-user": check_oracle_multi_user,
    "trellis-invariants": check_trellis_invariants,
    "complexity-bound": check_complexity_bound,
}


def run_checks(quick: bool, seed: int) -> list[CheckResult]:
    """Run every check; an ``InvariantError`` raised inside one fails it."""
    results = []
    for name, check in _CHECKS.items():
        try:
            passed, detail = check(quick, seed)
        except InvariantError as exc:
            passed, detail = False, f"invariant violated: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results
