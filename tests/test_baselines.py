"""Exhaustive-oracle and greedy-baseline tests."""

import numpy as np
import pytest

from pinchsel.baselines import (
    _mask_to_activation,
    _tie_key,
    best_singleton,
    brute_force_select,
    greedy_pgga_select,
)
from pinchsel.channel import build_channel_matrix, sample_users
from pinchsel.config import SystemConfig
from pinchsel.metric import ActivationVector, SolverResult, maxmin_metric
from pinchsel.vss import vss_select


def _brute_force_naive(gains):
    """Reference oracle: rescore every subset from scratch, same tie rule."""
    n_antennas = gains.shape[1]
    best = None
    for mask in range(1, 1 << n_antennas):
        activation = _mask_to_activation(mask, n_antennas)
        metric = maxmin_metric(gains, activation)
        key = _tie_key(metric, activation)
        if best is None or key < best[0]:
            best = (key, metric, activation)
    return SolverResult(best[2], best[1], (1 << n_antennas) - 1)


def _random_gains(seed, n_users, n_antennas):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_users, n_antennas)) + 1j * rng.standard_normal(
        (n_users, n_antennas)
    )


class TestBruteForce:
    def test_coherent_pair(self):
        res = brute_force_select(np.array([[1.0 + 0j, 1.0 + 0j]]))
        assert res.metric == 2.0
        assert res.activation.mask == (1, 1)
        assert res.evaluations == 3

    def test_cancellation_avoided(self):
        res = brute_force_select(np.array([[1.0 + 0j, -1.0 + 0j]]))
        assert res.metric == 1.0
        assert res.activation.active_count == 1

    def test_two_user_single_antenna_optimum(self):
        B = np.array([[1.0 + 0j, 1.0 + 0j], [1.0 + 0j, -1.0 + 0j]])
        res = brute_force_select(B)
        assert res.metric == 1.0
        assert res.activation.active_count == 1

    def test_evaluations_count(self):
        res = brute_force_select(_random_gains(3, 1, 7))
        assert res.evaluations == 2**7 - 1

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            brute_force_select(_random_gains(0, 1, 23))

    @pytest.mark.parametrize("n_antennas", [1, 2, 5, 8, 10, 12])
    def test_gray_matches_naive(self, n_antennas):
        for seed in (0, 1, 2):
            B = _random_gains(100 * n_antennas + seed, 2, n_antennas)
            fast = brute_force_select(B)
            slow = _brute_force_naive(B)
            assert fast.metric == slow.metric
            assert fast.activation == slow.activation

    def test_gray_matches_naive_on_exact_ties(self):
        B = np.array([[1.0 + 0j, -1.0 + 0j, 1.0 + 0j]])
        fast = brute_force_select(B)
        slow = _brute_force_naive(B)
        assert fast.activation == slow.activation
        assert fast.metric == slow.metric == 2.0

    def test_single_user_literal_objective(self):
        # direct re-implementation of the single-user fractional objective
        for seed in range(5):
            B = _random_gains(7000 + seed, 1, 10)
            res = brute_force_select(B)
            literal_best = max(
                abs(sum(B[0, n] for n in range(10) if (mask >> n) & 1)) ** 2
                / bin(mask).count("1")
                for mask in range(1, 1 << 10)
            )
            assert res.metric == pytest.approx(literal_best, rel=1e-12)


class TestBestSingleton:
    def test_picks_strongest_column(self):
        res = best_singleton(np.array([[1.0 + 0j, 2.0 + 0j]]))
        assert res.activation.mask == (0, 1)
        assert res.metric == 4.0
        assert res.evaluations == 2

    def test_equal_columns_prefer_lowest_index(self):
        res = best_singleton(np.array([[1.0 + 0j, 1.0 + 0j, 1.0 + 0j]]))
        assert res.activation.mask == (1, 0, 0)

    def test_matches_linear_scan(self):
        B = _random_gains(15, 2, 15)
        res = best_singleton(B)
        expected = max(
            maxmin_metric(B, ActivationVector.singleton(15, n)) for n in range(15)
        )
        assert res.metric == expected


class TestGreedyPgga:
    def test_coherent_pair_accepted(self):
        res = greedy_pgga_select(np.array([[1.0 + 0j, 1.0 + 0j]]))
        assert res.metric == 2.0
        assert res.activation.mask == (1, 1)

    def test_negative_projection_rejected(self):
        res = greedy_pgga_select(np.array([[1.0 + 0j, -1.0 + 0j]]))
        assert res.metric == 1.0
        assert res.activation.active_count == 1

    def test_never_beats_brute_force(self):
        for seed in range(10):
            B = _random_gains(500 + seed, 2, 9)
            assert greedy_pgga_select(B).metric <= brute_force_select(B).metric

    def test_trails_trellis_on_average(self):
        cfg = SystemConfig(n_antennas=20, n_users=2)
        vss_total = 0.0
        pgga_total = 0.0
        for t in range(60):
            B = build_channel_matrix(cfg, sample_users(40_000 + t, cfg))
            vss_total += vss_select(B, 4).metric
            pgga_total += greedy_pgga_select(B).metric
        assert pgga_total <= vss_total

    def test_deterministic(self):
        B = _random_gains(8, 2, 12)
        assert greedy_pgga_select(B) == greedy_pgga_select(B)


def test_cross_solver_ordering_random_batch():
    for seed in range(20):
        B = _random_gains(3000 + seed, 2, 8)
        brute = brute_force_select(B).metric
        vss = vss_select(B, 4).metric
        single = best_singleton(B).metric
        pgga = greedy_pgga_select(B).metric
        assert brute >= vss >= single
        assert brute >= pgga >= single
