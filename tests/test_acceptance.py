"""Acceptance suite: every criterion at its stated tolerance.

Criteria 1 (single-user oracle equivalence), 2 (multi-user oracle
equivalence), 3 (complexity bound) and 7 (property suite) are the checks of
``pinchsel verify`` at full size; ``test_verify_check`` runs each one. The
other criteria are tests of their own. Each test prints one
``[PASS]``/``[FAIL]`` line (visible with ``pytest -s`` or in the captured
output of a failing run) and then asserts. Master seed 7 throughout (the CLI
default).
"""

import numpy as np
import pytest

from pinchsel.config import SystemConfig
from pinchsel.harness import ExperimentSpec, run_sweep
from pinchsel.verify import _CHECKS
from pinchsel.vss import vss_select

SEED = 7


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.mark.parametrize("name", list(_CHECKS))
def test_verify_check(name):
    passed, detail = _CHECKS[name](quick=False, seed=SEED)
    _report(name, passed, detail)
    assert passed, detail


def test_criterion_4_trellis_dominates_greedy():
    spec = ExperimentSpec(
        base_config=SystemConfig(n_users=2),
        n_values=(10, 20, 30),
        solvers=("vss", "pgga"),
        n_trials=150,
        seed=SEED,
    )
    agg = run_sweep(spec)
    pairs = {n: (agg[n, "vss"].mean_min_rate, agg[n, "pgga"].mean_min_rate)
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
    entry = run_sweep(spec)[100, "vss"]  # the sweep run_convergence performs
    curve = entry.stage_rates
    # the curve runs to the deepest termination stage, which bounds the mean
    max_term = len(curve)
    non_decreasing = list(curve) == sorted(curve)
    ratio_25 = curve[24] / curve[-1]
    ok = non_decreasing and ratio_25 >= 0.99 and max_term < 100
    _report(
        "criterion 5 (convergence shape, N=100)",
        ok,
        f"non-decreasing: {non_decreasing}, stage-25 at {ratio_25:.4%} of final "
        f"(>= 99%), deepest termination stage {max_term} (< 100)",
    )
    assert non_decreasing
    assert ratio_25 >= 0.99
    assert max_term < 100


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
    r1 = {n: single[n, "vss"].mean_min_rate for n in (5, 50)}
    r2 = {n: multi[n, "vss"].mean_min_rate for n in (5, 50)}
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
