"""Monte Carlo harness tests: seeding, trials, sweeps, convergence."""

import pytest

from pinchsel.channel import sample_users
from pinchsel.config import SystemConfig
from pinchsel.harness import (
    ExperimentSpec,
    derive_seed,
    mean_stage_curve,
    run_convergence,
    run_sweep,
    run_trial,
)
from pinchsel.metric import rate_from_metric


def test_derive_seed_mixes_all_inputs():
    base = derive_seed(7, 10, 0)
    assert derive_seed(7, 10, 0) == base
    assert derive_seed(8, 10, 0) != base
    assert derive_seed(7, 11, 0) != base
    assert derive_seed(7, 10, 1) != base
    assert 0 <= base < 2**64


def test_user_count_runs_share_user_zero():
    # derive_seed ignores n_users, so M=1 and M=2 runs of one (seed, N, trial)
    # are paired: user 0 sits at the same point in both
    seed = derive_seed(7, 50, 3)
    one = sample_users(seed, SystemConfig(n_antennas=50, n_users=1))
    two = sample_users(seed, SystemConfig(n_antennas=50, n_users=2))
    assert two[0].tolist() == one[0].tolist()


def test_run_trial_deterministic():
    cfg = SystemConfig(n_antennas=8, n_users=2)
    a = run_trial(cfg, 12345, ("vss", "pgga"))
    b = run_trial(cfg, 12345, ("vss", "pgga"))
    assert a == b


def test_run_trial_orderings_hold():
    cfg = SystemConfig(n_antennas=10, n_users=1)
    results = run_trial(cfg, 99, ("vss", "brute_force", "best_singleton"))
    v = results["vss"]
    b = results["brute_force"]
    s = results["best_singleton"]
    assert s.metric <= v.metric <= b.metric
    assert v.evaluations <= 4 * 10**2
    assert v.trace is not None
    assert b.trace is None and s.trace is None


def test_trial_placements_independent_of_solver_set():
    cfg = SystemConfig(n_antennas=9, n_users=1)
    seed = derive_seed(7, 9, 4)
    only_vss = run_trial(cfg, seed, ("vss",))
    both = run_trial(cfg, seed, ("vss", "pgga"))
    assert only_vss["vss"] == both["vss"]


def test_sweep_reordering_does_not_change_trials():
    base = SystemConfig(n_users=1)
    fwd = run_sweep(
        ExperimentSpec(base, n_values=(6, 9), solvers=("vss",), n_trials=5, seed=3)
    )
    rev = run_sweep(
        ExperimentSpec(base, n_values=(9, 6), solvers=("vss",), n_trials=5, seed=3)
    )
    for n in (6, 9):
        assert fwd[n, "vss"] == rev[n, "vss"]


def test_single_trial_aggregate_equals_trial():
    base = SystemConfig(n_users=1)
    spec = ExperimentSpec(base, n_values=(5,), solvers=("vss",), n_trials=1, seed=11)
    agg = run_sweep(spec)
    res = run_trial(base.with_antennas(5), derive_seed(11, 5, 0), ("vss",))["vss"]
    entry = agg[5, "vss"]
    assert entry.mean_min_rate == rate_from_metric(base.with_antennas(5), res.metric)
    assert entry.mean_evaluations == res.evaluations
    assert entry.mean_active_count == res.activation.active_count


def test_sweep_vss_dominates_pgga():
    spec = ExperimentSpec(
        SystemConfig(n_users=2),
        n_values=(10, 20),
        solvers=("vss", "pgga"),
        n_trials=30,
        seed=7,
    )
    agg = run_sweep(spec)
    for n in (10, 20):
        assert agg[n, "vss"].mean_min_rate >= agg[n, "pgga"].mean_min_rate


def test_sweep_reproducible():
    spec = ExperimentSpec(
        SystemConfig(n_users=1), n_values=(7,), solvers=("vss", "pgga"), n_trials=4, seed=1
    )
    assert run_sweep(spec) == run_sweep(spec)


def test_mean_termination_below_n_at_fifty_antennas():
    spec = ExperimentSpec(
        SystemConfig(n_users=1), n_values=(50,), solvers=("vss",), n_trials=40, seed=7
    )
    agg = run_sweep(spec)
    assert agg[50, "vss"].mean_termination_stage < 50


def test_mean_stage_curve_padding():
    curves = [(1.0, 2.0, 3.0), (2.0,)]
    assert mean_stage_curve(curves) == (1.5, 2.0, 2.5)
    assert mean_stage_curve([]) == ()


def _convergence_spec(n_values, n_trials, seed):
    return ExperimentSpec(SystemConfig(n_users=1), n_values, ("vss",), n_trials, seed)


def test_convergence_single_point():
    (curve,) = run_convergence(_convergence_spec((1,), 1, 5)).values()
    assert len(curve) == 1
    assert curve[0] > 0


def test_convergence_curve_non_decreasing():
    (curve,) = run_convergence(_convergence_spec((50,), 30, 7)).values()
    assert list(curve) == sorted(curve)
    assert len(curve) <= 50


def test_experiment_spec_validation():
    base = SystemConfig(n_users=1)
    with pytest.raises(ValueError):
        ExperimentSpec(base, n_values=(), solvers=("vss",), n_trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentSpec(base, n_values=(5,), solvers=("vss",), n_trials=0, seed=0)
    with pytest.raises(ValueError):
        ExperimentSpec(base, n_values=(5,), solvers=("magic",), n_trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentSpec(base, n_values=(30,), solvers=("brute_force",), n_trials=1, seed=0)
    # brute force below the cap is fine
    ExperimentSpec(base, n_values=(12,), solvers=("brute_force",), n_trials=1, seed=0)
