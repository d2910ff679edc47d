"""Trellis solver tests: quantiser, states, expansion, end-to-end invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsel.baselines import best_singleton, brute_force_select
from pinchsel.channel import build_channel_matrix, sample_users
from pinchsel.config import SystemConfig
from pinchsel.metric import ActivationVector, accumulated_signal, maxmin_metric, metric_from_accumulated
from pinchsel.vss import (
    TrellisStateId,
    quantize_phase,
    root_table,
    stage_expand,
    state_of,
    vss_select,
)


def _random_gains(seed, n_users, n_antennas):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_users, n_antennas)) + 1j * rng.standard_normal(
        (n_users, n_antennas)
    )


class TestQuantizePhase:
    def test_zero_phase_q4(self):
        assert quantize_phase(0.0, 4) == 2

    def test_left_edge(self):
        assert quantize_phase(-math.pi, 4) == 0

    def test_pi_wraps_to_bin_zero(self):
        assert quantize_phase(math.pi, 4) == 0

    def test_single_bin(self):
        for phi in (-3.0, 0.0, 1.5, math.pi):
            assert quantize_phase(phi, 1) == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            quantize_phase(math.nan, 4)
        with pytest.raises(ValueError):
            quantize_phase(math.inf, 4)

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 4, 8, 16])
    def test_edge_sweep_against_interval_search(self, n_bins):
        eps = 1e-9
        for k in range(n_bins):
            edge = -math.pi + 2.0 * math.pi * k / n_bins
            assert quantize_phase(edge + eps, n_bins) == k
            # bin centre lands in the same bin
            assert quantize_phase(edge + math.pi / n_bins, n_bins) == k

    @given(
        phi=st.floats(-50.0, 50.0, allow_nan=False),
        n_bins=st.sampled_from([1, 2, 3, 4, 5, 8, 16]),
    )
    @settings(deadline=None, max_examples=300)
    def test_matches_direct_interval_membership(self, phi, n_bins):
        k = quantize_phase(phi, n_bins)
        assert 0 <= k < n_bins
        # wrap by explicit shifting, then check interval membership
        x = phi
        while x >= math.pi:
            x -= 2.0 * math.pi
        while x < -math.pi:
            x += 2.0 * math.pi
        lo = -math.pi + 2.0 * math.pi * k / n_bins
        hi = -math.pi + 2.0 * math.pi * (k + 1) / n_bins
        # allow one-ulp slop at bin edges from the two wrapping routes
        assert lo - 1e-12 <= x < hi + 1e-12


class TestStateOf:
    def test_single_user_phase_zero(self):
        assert state_of([1 + 0j], 4) == TrellisStateId((2,))

    def test_two_users_with_wrap(self):
        assert state_of([1 + 0j, -1 + 0j], 4) == TrellisStateId((2, 0))

    def test_zero_signal_convention(self):
        assert state_of([0j], 4) == TrellisStateId((2,))


class TestVssSelect:
    def test_single_antenna(self):
        B = np.array([[0.4 + 0.3j]])
        res = vss_select(B, 4)
        assert res.activation.mask == (1,)
        assert res.metric == pytest.approx(0.25, rel=1e-12)
        assert res.trace.termination_stage == 1
        assert res.trace.best_stage == 1

    def test_opposite_pair_keeps_singleton(self):
        res = vss_select(np.array([[1.0 + 0j, -1.0 + 0j]]), 4)
        assert res.metric == 1.0
        assert res.activation.active_count == 1

    def test_seeded_single_user_matches_brute_force(self):
        cfg = SystemConfig(n_antennas=10, n_users=1)
        B = build_channel_matrix(cfg, sample_users(314, cfg))
        res = vss_select(B, 4)
        assert res.metric == brute_force_select(B).metric

    def test_seeded_two_user_bounded_by_brute_force(self):
        cfg = SystemConfig(n_antennas=8, n_users=2)
        B = build_channel_matrix(cfg, sample_users(2718, cfg))
        res = vss_select(B, 4)
        assert res.metric <= brute_force_select(B).metric

    def test_n_bins_from_config(self):
        cfg = SystemConfig(n_antennas=6, n_users=1, phase_bins=2)
        B = build_channel_matrix(cfg, sample_users(1, cfg))
        assert vss_select(B) == vss_select(B, 2)

    def test_bare_array_requires_n_bins(self):
        with pytest.raises(ValueError):
            vss_select(np.array([[1.0 + 0j]]))

    def test_degenerate_all_zero_matrix(self):
        with pytest.raises(ValueError):
            vss_select(np.zeros((1, 3), dtype=complex), 4)

    def test_deterministic(self):
        B = _random_gains(9, 2, 9)
        assert vss_select(B, 4) == vss_select(B, 4)

    def test_incremental_consistency_flag(self):
        B = _random_gains(10, 2, 10)
        res = vss_select(B, 4, verify_incremental=True)
        assert res.metric > 0


class TestStageExpand:
    def test_empty_improvement_round(self):
        B = np.array([[1.0 + 0j, -1.0 + 0j]])
        stage1 = stage_expand(root_table(2, 1, 4), B, 4)
        assert len(stage1) == 2  # phases 0 and pi land in different bins
        assert stage_expand(stage1, B, 4) == {}

    def test_single_improving_extension(self):
        B = np.array([[1.0 + 0j, 1.0 + 0j]])
        stage1 = stage_expand(root_table(2, 1, 4), B, 4)
        # the two singletons tie and share a state; the incumbent (antenna 0) stays
        assert len(stage1) == 1
        (survivor,) = stage1.values()
        assert survivor.activation.mask == (1, 0)
        stage2 = stage_expand(stage1, B, 4)
        assert len(stage2) == 1
        (pair,) = stage2.values()
        assert pair.activation.mask == (1, 1)
        assert pair.metric == 2.0
        assert pair.parent == (1, state_of([1 + 0j], 4))

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            stage_expand({}, np.array([[1.0 + 0j]]), 4)

    def test_matches_naive_reenumeration(self):
        cfg = SystemConfig(n_antennas=12, n_users=2)
        B = build_channel_matrix(cfg, sample_users(555, cfg))
        n_bins = 4
        table = root_table(12, 2, n_bins)
        for _ in range(12):
            expanded = stage_expand(table, B, n_bins)
            oracle = self._naive_expand(table, B.gains, n_bins)
            assert set(expanded) == set(oracle)
            for key, survivor in expanded.items():
                o_metric, o_mask = oracle[key]
                assert survivor.activation.mask == o_mask
                assert survivor.metric == o_metric
            if not expanded:
                break
            table = expanded

    @staticmethod
    def _naive_expand(table, gains, n_bins):
        """All (parent, extension) pairs, gate-filtered, grouped by state."""
        best = {}
        for parent in table.values():
            for n in range(gains.shape[1]):
                if parent.activation.mask[n]:
                    continue
                act = parent.activation.with_added(n)
                z = accumulated_signal(gains, act)
                metric = metric_from_accumulated(z.tolist(), act.active_count)
                if metric <= parent.metric:
                    continue
                key = state_of(z.tolist(), n_bins)
                if key not in best or metric > best[key][0]:
                    best[key] = (metric, act.mask)
        return best


class TestTrellisInvariants:
    def test_path_monotonicity_and_uniqueness(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n_antennas = int(rng.integers(2, 10))
            n_users = int(rng.integers(1, 3))
            n_bins = int(rng.choice([1, 2, 4, 8]))
            gains = _random_gains(int(rng.integers(0, 2**31)), n_users, n_antennas)
            table = root_table(n_antennas, n_users, n_bins)
            while table:
                nxt = stage_expand(table, gains, n_bins, verify_incremental=True)
                assert len(nxt) <= n_bins**n_users
                for key, survivor in nxt.items():
                    assert all(0 <= b < n_bins for b in key.bins)
                    assert survivor.metric > table[survivor.parent[1]].metric
                    assert state_of(survivor.accumulated, n_bins) == key
                    assert survivor.metric == maxmin_metric(gains, survivor.activation)
                table = nxt

    def test_bounds_against_reference_solvers(self):
        for seed in range(15):
            gains = _random_gains(1000 + seed, 2, 9)
            res = vss_select(gains, 4)
            assert res.metric >= best_singleton(gains).metric
            assert res.metric <= brute_force_select(gains).metric

    def test_trace_contract(self):
        cfg = SystemConfig(n_antennas=14, n_users=1)
        B = build_channel_matrix(cfg, sample_users(31337, cfg))
        res = vss_select(B, 4)
        trace = res.trace
        assert list(trace.running_best) == sorted(trace.running_best)
        assert trace.running_best[-1] == res.metric
        assert trace.best_stage <= trace.termination_stage <= 14
        assert trace.best_stage == res.activation.active_count
        assert len(trace.running_best) == trace.termination_stage
        assert len(trace.survivors_per_stage) == trace.termination_stage
        assert trace.metric_evaluations <= 4 * 14**2

    def test_evaluation_count_per_stage_bound(self):
        gains = _random_gains(4242, 1, 10)
        n_bins = 4
        res = vss_select(gains, n_bins)
        # total candidate evaluations can never exceed the per-stage sum bound
        bound = sum(n_bins * (10 - tau + 1) for tau in range(1, 12))
        assert res.trace.metric_evaluations <= bound

    def test_single_bin_single_survivor_per_stage(self):
        for seed in range(10):
            gains = _random_gains(9000 + seed, 1, 8)
            res = vss_select(gains, 1)
            assert all(s == 1 for s in res.trace.survivors_per_stage)

    def test_more_bins_not_worse_on_average(self):
        cfg = SystemConfig(n_antennas=12, n_users=1)
        totals = {1: 0.0, 4: 0.0}
        for t in range(200):
            B = build_channel_matrix(cfg, sample_users(60000 + t, cfg))
            for q in totals:
                totals[q] += vss_select(B, q).metric
        assert totals[4] >= totals[1]
