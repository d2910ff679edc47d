"""Self-check battery behind the ``verify`` CLI subcommand.

Each check returns a pass/fail result with a one-line detail string; the CLI
prints them and exits nonzero if any check fails. The trellis solver is
exercised against the exhaustive oracle, against structural invariants of the
survivor tables, and against its own evaluation-count bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vss as vss_mod
from .baselines import best_singleton, brute_force_select
from .config import SystemConfig
from .harness import derive_seed, run_trial
from .metric import rate_from_metric
from .vss import root_table, stage_expand, vss_select


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


def check_quantizer_edges() -> CheckResult:
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
    return CheckResult(
        name="quantizer-edge-sweep",
        passed=failures == 0,
        detail=f"{cases - failures}/{cases} probe angles binned correctly",
    )


def _oracle_batch(
    n_antennas: int, n_users: int, n_trials: int, seed: int
) -> tuple[int, float, float, bool, list[int]]:
    """Return (exact matches, mean rate gap, max relative gap,
    never_exceeds, vss evaluation counts) over a seeded batch."""
    config = SystemConfig(n_antennas=n_antennas, n_users=n_users)
    matches = 0
    gap_sum = 0.0
    max_rel_gap = 0.0
    never_exceeds = True
    evals: list[int] = []
    for t in range(n_trials):
        rec = run_trial(
            config, derive_seed(seed, n_antennas, t), ("vss", "brute_force"), t
        )
        v, b = rec.results["vss"], rec.results["brute_force"]
        if v.metric > b.metric:
            never_exceeds = False
        if math.isclose(v.metric, b.metric, rel_tol=1e-9):
            matches += 1
        b_rate, v_rate = (rate_from_metric(config, r.metric) for r in (b, v))
        gap_sum += b_rate - v_rate
        if b.metric > 0:
            max_rel_gap = max(max_rel_gap, (b.metric - v.metric) / b.metric)
        evals.append(v.evaluations)
    return matches, gap_sum / n_trials, max_rel_gap, never_exceeds, evals


def check_oracle_single_user(quick: bool, seed: int) -> CheckResult:
    trials = 40 if quick else 200
    matches, mean_gap, max_rel, never_exceeds, _ = _oracle_batch(12, 1, trials, seed)
    frac = matches / trials
    ok = frac >= 0.95 and mean_gap <= 0.01 and never_exceeds
    return CheckResult(
        name="oracle-equivalence-single-user",
        passed=ok,
        detail=(
            f"N=12 M=1: exact-match fraction {frac:.3f} (need >= 0.95), "
            f"mean rate gap {mean_gap:.3e} bps/Hz (need <= 0.01), "
            f"max relative metric gap {max_rel:.2e}"
        ),
    )


def check_oracle_multi_user(quick: bool, seed: int) -> CheckResult:
    trials = 20 if quick else 100
    matches, mean_gap, max_rel, never_exceeds, _ = _oracle_batch(10, 2, trials, seed)
    ok = mean_gap <= 0.02 and never_exceeds
    return CheckResult(
        name="oracle-equivalence-multi-user",
        passed=ok,
        detail=(
            f"N=10 M=2: mean worst-user rate gap {mean_gap:.3e} bps/Hz "
            f"(need <= 0.02), never exceeds oracle: {never_exceeds}, "
            f"exact matches {matches}/{trials}, max relative gap {max_rel:.2e}"
        ),
    )


def _random_gains(rng: np.random.Generator, n_users: int, n_antennas: int) -> np.ndarray:
    return rng.standard_normal((n_users, n_antennas)) + 1j * rng.standard_normal(
        (n_users, n_antennas)
    )


def check_trellis_invariants(quick: bool, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    instances = 30 if quick else 120
    problems: list[str] = []
    for _ in range(instances):
        n_antennas = int(rng.integers(2, 11))
        n_users = int(rng.integers(1, 3))
        n_bins = int(rng.choice([1, 2, 4, 8]))
        gains = _random_gains(rng, n_users, n_antennas)

        # walk the trellis manually and validate table structure
        table = root_table(n_antennas, n_users, n_bins)
        while table:
            nxt = stage_expand(table, gains, n_bins, verify_incremental=True)
            for key, surv in nxt.items():
                if not all(0 <= b < n_bins for b in key.bins):
                    problems.append(f"state {key.bins} outside [0, {n_bins})")
                parent = surv.parent
                if parent is not None:
                    parent_surv = table[parent[1]]
                    if not surv.metric > parent_surv.metric:
                        problems.append("non-increasing metric along a path")
            if len(nxt) > n_bins**n_users:
                problems.append("more survivors than states")
            table = nxt

        res1 = vss_select(gains, n_bins)
        res2 = vss_select(gains, n_bins)
        if res1 != res2:
            problems.append("non-deterministic trellis result")
        brute = brute_force_select(gains)
        single = best_singleton(gains)
        if not (brute.metric >= res1.metric >= single.metric):
            problems.append(
                f"ordering violated: brute {brute.metric}, "
                f"vss {res1.metric}, singleton {single.metric}"
            )
        if list(res1.trace.running_best) != sorted(res1.trace.running_best):
            problems.append("running best not non-decreasing")
        if res1.metric != res1.trace.running_best[-1]:
            problems.append("best metric differs from final running best")
        if problems:
            break
    return CheckResult(
        name="trellis-invariants",
        passed=not problems,
        detail=(
            f"{instances} random instances clean"
            if not problems
            else f"violation: {problems[0]}"
        ),
    )


def check_complexity_bound(quick: bool, seed: int) -> CheckResult:
    violations = 0
    runs = 0
    worst_ratio = 0.0
    for n_antennas, n_users, trials in ((12, 1, 10 if quick else 50),
                                        (50, 1, 10 if quick else 50),
                                        (20, 1, 5 if quick else 20)):
        config = SystemConfig(n_antennas=n_antennas, n_users=n_users)
        bound = config.phase_bins**n_users * n_antennas**2
        for t in range(trials):
            rec = run_trial(config, derive_seed(seed, n_antennas, t), ("vss",), t)
            evals = rec.results["vss"].evaluations
            runs += 1
            worst_ratio = max(worst_ratio, evals / bound)
            if evals > bound:
                violations += 1
    # the N=20 trellis workload versus the 2^20 exhaustive enumeration
    config = SystemConfig(n_antennas=20, n_users=1)
    n20_evals = [
        run_trial(config, derive_seed(seed, 20, t), ("vss",), t)
        .results["vss"]
        .evaluations
        for t in range(5 if quick else 20)
    ]
    share = max(n20_evals) / 2**20
    ok = violations == 0 and share < 0.01
    return CheckResult(
        name="complexity-bound",
        passed=ok,
        detail=(
            f"{runs} runs within Q^M N^2 (worst fill {worst_ratio:.1%}); "
            f"N=20 trellis work is {share:.3%} of 2^20 (need < 1%)"
        ),
    )


def run_checks(quick: bool = False, seed: int = 7) -> list[CheckResult]:
    return [
        check_quantizer_edges(),
        check_oracle_single_user(quick, seed),
        check_oracle_multi_user(quick, seed),
        check_trellis_invariants(quick, seed),
        check_complexity_bound(quick, seed),
    ]
