"""Monte Carlo harness tests: seeding, trials, sweeps, convergence."""

from collections import Counter

import pytest

from pinchsel import harness
from pinchsel.channel import build_channel_matrix, sample_users
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
    a = run_trial(cfg, build_channel_matrix(cfg, sample_users(12345, cfg)), ("vss", "pgga"))
    b = run_trial(cfg, build_channel_matrix(cfg, sample_users(12345, cfg)), ("vss", "pgga"))
    assert a == b


def test_run_trial_orderings_hold():
    cfg = SystemConfig(n_antennas=10, n_users=1)
    B = build_channel_matrix(cfg, sample_users(99, cfg))
    results = run_trial(cfg, B, ("vss", "brute_force", "best_singleton"))
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
    B = build_channel_matrix(cfg, sample_users(seed, cfg))
    only_vss = run_trial(cfg, B, ("vss",))
    both = run_trial(cfg, B, ("vss", "pgga"))
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
    cfg = base.with_antennas(5)
    B = build_channel_matrix(cfg, sample_users(derive_seed(11, 5, 0), cfg))
    res = run_trial(cfg, B, ("vss",))["vss"]
    entry = agg[5, "vss"]
    assert entry.mean_min_rate == rate_from_metric(base.with_antennas(5), res.metric)
    assert entry.mean_evaluations == res.evaluations
    assert entry.mean_active_count == res.activation.active_count


_COUNTED = (
    "sample_users",
    "build_channel_matrix",
    "run_trial",
    "vss_select",
    "brute_force_select",
    "greedy_pgga_select",
    "best_singleton",
)


def _count_calls(monkeypatch) -> Counter:
    calls = Counter()
    for name in _COUNTED:
        real = getattr(harness, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    return calls


def test_sweep_builds_each_chunk_once_and_solves_each_trial_once(monkeypatch):
    spec = ExperimentSpec(
        SystemConfig(n_users=2),
        n_values=(5, 7),
        solvers=("vss", "brute_force", "pgga", "best_singleton"),
        n_trials=10,
        seed=7,
    )
    whole = run_sweep(spec)  # 10 trials fit one chunk
    monkeypatch.setattr(harness, "_BUILD_ENTRIES", 4 * 2 * 7)
    calls = _count_calls(monkeypatch)
    chunked = run_sweep(spec)
    assert chunked == whole
    trials = 2 * 10
    assert calls == {
        "sample_users": trials,
        # chunks of 5 and 5 trials at N=5, of 4, 4 and 2 at N=7
        "build_channel_matrix": 2 + 3,
        "run_trial": trials,
        "vss_select": trials,
        "brute_force_select": trials,
        "greedy_pgga_select": trials,
        "best_singleton": trials,
    }


def test_large_array_stack_is_split(monkeypatch):
    # 2^14 antennas for one user fill a quarter of the entry budget: chunks of
    # 4, 4 and 2 placements, each channel bit for bit its lone build
    config = SystemConfig(n_users=1).with_antennas(1 << 14)
    calls = _count_calls(monkeypatch)
    channels = list(harness.trial_channels(config, 7, 10))
    assert calls["build_channel_matrix"] == 3
    assert calls["sample_users"] == 10
    for t, B in enumerate(channels):
        lone = build_channel_matrix(config, sample_users(derive_seed(7, 1 << 14, t), config))
        assert B.gains.tobytes() == lone.gains.tobytes()


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


@pytest.mark.parametrize("solvers", [("pgga",), ("best_singleton",), ("vss", "pgga")])
def test_experiment_spec_bounds_every_channel(solvers):
    # M x N gains at the largest N, whatever the solvers; 2^24 is the limit
    base = SystemConfig(n_users=100)
    ExperimentSpec(base, (5, 2**24 // 100), ("pgga",), n_trials=1, seed=0)
    message = f"M=100 users by N=10000000 antennas exceeds the limit of {2**24} entries"
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(base, (10**7, 5), solvers, n_trials=1, seed=0)


def test_experiment_spec_refuses_in_the_requested_order():
    # N=30 is past both the oracle's cap and, at M=6 and Q=8, the trellis block
    base = SystemConfig(n_users=6, phase_bins=8)
    for solvers, named in (
        (("vss", "brute_force"), "trellis"), (("brute_force", "vss"), "exhaustive"),
    ):
        with pytest.raises(ValueError, match=named):
            ExperimentSpec(base, (30,), solvers, n_trials=1, seed=0)


@pytest.mark.parametrize(
    "n_values,solvers,message",
    [
        ((0,), ("vss",), r"antenna counts must be >= 1, got \(0,\)"),
        ((5,), (), "at least one solver is required"),
    ],
)
def test_experiment_spec_refusal_names_the_rule(n_values, solvers, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(SystemConfig(n_users=1), n_values, solvers, n_trials=1, seed=0)
