"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or in the captured output of a failing run) and then asserts. Batches shared
between criteria are computed once and cached at module scope. Master seed 7
throughout (the CLI default).
"""

import math

import numpy as np
import pytest

from pinchsel.baselines import best_singleton, brute_force_select
from pinchsel.channel import build_channel_matrix, sample_users
from pinchsel.config import SystemConfig
from pinchsel.harness import ExperimentSpec, derive_seed, run_sweep, run_trial
from pinchsel.metric import rate_from_metric
from pinchsel.verify import stage_problems
from pinchsel.vss import quantize_phase, root_stage, stage_expand, vss_select

SEED = 7


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


_batch_cache: dict = {}


def _oracle_batch(n_antennas: int, n_users: int, n_trials: int):
    """(vss, brute) trial pairs at the default system parameters."""
    key = (n_antennas, n_users, n_trials)
    if key not in _batch_cache:
        config = SystemConfig(n_antennas=n_antennas, n_users=n_users)
        records = [
            run_trial(config, derive_seed(SEED, n_antennas, t), ("vss", "brute_force"), t)
            for t in range(n_trials)
        ]
        _batch_cache[key] = records
    return _batch_cache[key]


def test_criterion_1_oracle_equivalence_single_user():
    records = _oracle_batch(12, 1, 200)
    config = SystemConfig(n_antennas=12, n_users=1)
    matches = 0
    gap = 0.0
    for rec in records:
        v, b = rec.results["vss"], rec.results["brute_force"]
        if math.isclose(v.metric, b.metric, rel_tol=1e-9):
            matches += 1
        gap += rate_from_metric(config, b.metric) - rate_from_metric(config, v.metric)
    frac = matches / len(records)
    mean_gap = gap / len(records)
    ok = frac >= 0.95 and mean_gap <= 0.01
    _report(
        "criterion 1 (single-user oracle equivalence)",
        ok,
        f"match fraction {frac:.3f} (>= 0.95), mean rate gap {mean_gap:.5f} (<= 0.01)",
    )
    assert frac >= 0.95
    assert mean_gap <= 0.01


def test_criterion_2_oracle_equivalence_multi_user():
    records = _oracle_batch(10, 2, 100)
    config = SystemConfig(n_antennas=10, n_users=2)
    gap = 0.0
    exceeds = 0
    for rec in records:
        v, b = rec.results["vss"], rec.results["brute_force"]
        if v.metric > b.metric:
            exceeds += 1
        gap += rate_from_metric(config, b.metric) - rate_from_metric(config, v.metric)
    mean_gap = gap / len(records)
    ok = mean_gap <= 0.02 and exceeds == 0
    _report(
        "criterion 2 (multi-user oracle equivalence)",
        ok,
        f"mean rate gap {mean_gap:.5f} (<= 0.02), trellis exceeded oracle in "
        f"{exceeds}/100 trials (must be 0)",
    )
    assert mean_gap <= 0.02
    assert exceeds == 0


def test_criterion_3_complexity_bound():
    checked = 0
    for n_antennas, n_users, trials in ((12, 1, 200), (10, 2, 100)):
        bound = 4**n_users * n_antennas**2
        for rec in _oracle_batch(n_antennas, n_users, trials):
            assert rec.results["vss"].evaluations <= bound
            checked += 1
    cfg50 = SystemConfig(n_antennas=50, n_users=1)
    for t in range(50):
        rec = run_trial(cfg50, derive_seed(SEED, 50, t), ("vss",), t)
        assert rec.results["vss"].evaluations <= 4 * 50**2
        checked += 1
    cfg20 = SystemConfig(n_antennas=20, n_users=1)
    n20 = [
        run_trial(cfg20, derive_seed(SEED, 20, t), ("vss",), t).results["vss"].evaluations
        for t in range(50)
    ]
    share = max(n20) / 2**20
    ok = share < 0.01
    _report(
        "criterion 3 (complexity bound)",
        ok,
        f"{checked} runs within Q^M N^2; worst N=20 trellis work {share:.4%} of 2^20 (< 1%)",
    )
    assert ok


def test_criterion_4_trellis_dominates_greedy():
    spec = ExperimentSpec(
        base_config=SystemConfig(n_users=2),
        n_values=(10, 20, 30),
        solvers=("vss", "pgga"),
        n_trials=150,
        seed=SEED,
    )
    agg = run_sweep(spec)
    pairs = {n: (agg.get(n, "vss").mean_min_rate, agg.get(n, "pgga").mean_min_rate)
             for n in (10, 20, 30)}
    ok = all(v >= p for v, p in pairs.values())
    _report(
        "criterion 4 (trellis >= greedy baseline)",
        ok,
        ", ".join(f"N={n}: {v:.3f} vs {p:.3f}" for n, (v, p) in pairs.items()),
    )
    assert ok


def test_criterion_5_convergence_shape():
    spec = ExperimentSpec(
        base_config=SystemConfig(n_antennas=100, n_users=1),
        n_values=(100,),
        solvers=("vss",),
        n_trials=150,
        seed=SEED,
    )
    entry = run_sweep(spec).get(100, "vss")  # the sweep run_convergence performs
    curve = entry.stage_rates
    mean_term = entry.mean_termination_stage
    non_decreasing = list(curve) == sorted(curve)
    ratio_25 = curve[24] / curve[-1]
    ok = non_decreasing and ratio_25 >= 0.99 and mean_term < 100
    _report(
        "criterion 5 (convergence shape, N=100)",
        ok,
        f"non-decreasing: {non_decreasing}, stage-25 at {ratio_25:.4%} of final "
        f"(>= 99%), mean termination stage {mean_term:.1f} (< 100)",
    )
    assert non_decreasing
    assert ratio_25 >= 0.99
    assert mean_term < 100


def test_criterion_6_rate_vs_antenna_trend():
    single = run_sweep(
        ExperimentSpec(
            base_config=SystemConfig(n_users=1),
            n_values=(5, 50),
            solvers=("vss",),
            n_trials=200,
            seed=SEED,
        )
    )
    multi = run_sweep(
        ExperimentSpec(
            base_config=SystemConfig(n_users=2),
            n_values=(5, 50),
            solvers=("vss",),
            n_trials=200,
            seed=SEED,
        )
    )
    r1 = {n: single.get(n, "vss").mean_min_rate for n in (5, 50)}
    r2 = {n: multi.get(n, "vss").mean_min_rate for n in (5, 50)}
    rising = r1[50] > r1[5]
    multi_below = all(r2[n] <= r1[n] for n in (5, 50))
    ok = rising and multi_below
    _report(
        "criterion 6 (rate-vs-N trend)",
        ok,
        f"M=1: {r1[5]:.3f} -> {r1[50]:.3f} (rising), "
        f"M=2 worst-user {r2[5]:.3f}/{r2[50]:.3f} <= M=1 at each N: {multi_below}",
    )
    assert rising
    assert multi_below


def test_criterion_7_property_suite():
    rng = np.random.default_rng(SEED)
    edge_probe_failures = 0
    for n_bins in (1, 2, 4, 8):
        for k in range(n_bins):
            edge = -math.pi + 2.0 * math.pi * k / n_bins
            if quantize_phase(edge + 1e-9, n_bins) != k:
                edge_probe_failures += 1
    assert edge_probe_failures == 0

    for i in range(500):
        n_antennas = int(rng.integers(2, 11))
        n_users = int(rng.integers(1, 3))
        n_bins = int(rng.choice([1, 2, 4, 8]))
        gains = rng.standard_normal((n_users, n_antennas)) + 1j * rng.standard_normal(
            (n_users, n_antennas)
        )

        res = vss_select(gains, n_bins, verify_incremental=True)  # Z consistency at 1e-10
        assert res == vss_select(gains, n_bins)  # determinism
        brute = brute_force_select(gains)
        single = best_singleton(gains)
        assert brute.metric >= res.metric >= single.metric  # exact ordering

        stage = root_stage(n_antennas, n_users, n_bins)
        while len(stage):
            nxt = stage_expand(stage, gains, n_bins)
            # one survivor per bucket, strict paths, canonical buckets and metrics
            assert stage_problems(stage, nxt, gains, n_bins) == []
            stage = nxt
    _report(
        "criterion 7 (property suite)",
        True,
        "500 random instances: ordering, strict paths, survivor uniqueness, "
        "determinism, quantiser edges, incremental-Z consistency all exact",
    )


def test_criterion_8_single_bin_degeneracy():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        n_antennas = int(rng.integers(1, 13))
        gains = rng.standard_normal((1, n_antennas)) + 1j * rng.standard_normal(
            (1, n_antennas)
        )
        res = vss_select(gains, 1)
        assert all(count <= 1 for count in res.trace.survivors_per_stage)
    _report(
        "criterion 8 (single-bin degeneracy)",
        True,
        "100 random instances hold exactly one survivor per stage at Q=1",
    )
