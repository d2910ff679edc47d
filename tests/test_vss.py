"""Trellis solver tests: quantiser, buckets, expansion, end-to-end invariants."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsel.baselines import best_singleton, brute_force_select, greedy_pgga_select
from pinchsel.channel import build_channel_matrix, sample_users
from pinchsel.config import SystemConfig
from pinchsel.harness import derive_seed
from pinchsel.metric import accumulated_signal, mask_signals, metric_from_accumulated
from pinchsel import vss
from pinchsel.verify import stage_problems
from pinchsel.vss import (
    MAX_BLOCK_ENTRIES,
    Stage,
    Walk,
    bucket_codes,
    check_block_size,
    quantize_phase,
    root_stage,
    stage_expand,
    vss_select,
)


def _indices(res):
    return tuple(np.flatnonzero(res.activation.mask).tolist())


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
        assert bucket_codes(np.array([[1 + 0j]]), 4).tolist() == [2]

    def test_two_users_with_wrap(self):
        # bins (2, 0) read as base-4 digits, user 0 most significant
        assert bucket_codes(np.array([[1 + 0j, -1 + 0j]]), 4).tolist() == [8]

    def test_zero_signal_convention(self):
        assert bucket_codes(np.array([[0j]]), 4).tolist() == [2]

    @pytest.mark.parametrize("n_users", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_bins", [1, 2, 3, 4, 8, 16])
    def test_root_code_is_the_zero_signal_bucket(self, n_bins, n_users):
        root = root_stage(4, n_users, n_bins)
        assert root.buckets[0] == bucket_codes(np.zeros((1, n_users), complex), n_bins)[0]


def _scalar_bucket_codes(signals, n_bins):
    """Reference binning: one scalar quantize_phase(math.atan2(...)) per entry."""
    codes = []
    for row in signals.tolist():
        code = 0
        for z in row:
            code = code * n_bins + quantize_phase(math.atan2(z.imag, z.real), n_bins)
        codes.append(code)
    return codes


def _special_signals(n_bins):
    """Exact bin edges and their one-ulp neighbours, axis and diagonal angles,
    and signed-zero components."""
    angles = [-math.pi + 2.0 * math.pi * k / n_bins for k in range(n_bins + 1)]
    angles += [math.nextafter(a, d) for a in angles for d in (-math.inf, math.inf)]
    angles += [k * math.pi / 4 for k in range(-4, 5)]
    values = [complex(r * math.cos(a), r * math.sin(a)) for a in angles for r in (1e-3, 1.0, 7.5)]
    values += [complex(re, im) for re in (0.0, -0.0, 1.0, -1.0) for im in (0.0, -0.0, 2.0, -2.0)]
    return np.array(values)


class TestBucketCodes:
    @pytest.mark.parametrize("n_bins", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("n_users", [1, 2, 3])
    def test_matches_scalar_quantizer(self, n_bins, n_users):
        rng = np.random.default_rng(100 * n_bins + n_users)
        special = _special_signals(n_bins)
        blocks = [
            rng.standard_normal((2000, n_users)) + 1j * rng.standard_normal((2000, n_users)),
            special[rng.integers(0, len(special), (2000, n_users))],
        ]
        blocks.append(blocks[1].T.copy().T)  # Fortran order
        blocks.append(blocks[0][::3])  # strided rows
        for signals in blocks:
            assert bucket_codes(signals, n_bins).tolist() == _scalar_bucket_codes(
                signals, n_bins
            )

    @pytest.mark.parametrize("shift", [-1e-12, 1e-12])
    def test_edges_do_not_trust_array_arctan2(self, shift, monkeypatch):
        # np.arctan2 may differ from libm's atan2 in the last bits; a small
        # error must not move an edge value, because the scalar path bins it
        special = _special_signals(16)[:, None]
        want = {n_bins: _scalar_bucket_codes(special, n_bins) for n_bins in (2, 3, 4, 8, 16)}
        real = np.arctan2
        monkeypatch.setattr(np, "arctan2", lambda y, x: real(y, x) + shift)
        for n_bins, codes in want.items():
            assert bucket_codes(special, n_bins).tolist() == codes

    def test_nonfinite_signal_rejected(self):
        with pytest.raises(ValueError):
            bucket_codes(np.array([[complex(math.nan, 1.0)]]), 4)


@pytest.mark.parametrize("n_users", [1, 2, 3])
@pytest.mark.parametrize("active", [1, 3, 4, 5, 8, 63, 64, 65, 130])
def test_rebuild_matches_per_row_sum(active, n_users):
    # stage_expand's one-gather canonical rebuild against the per-row sum it
    # replaced, at lengths around numpy's pairwise-summation blocks
    rng = np.random.default_rng(active * 10 + n_users)
    n_antennas = active + 7
    gains = rng.standard_normal((n_users, n_antennas)) * 10.0 ** rng.uniform(
        -6, 6, (n_users, n_antennas)
    ) + 1j * rng.standard_normal((n_users, n_antennas))
    masks = np.zeros((9, n_antennas), dtype=bool)
    for mask in masks:
        mask[rng.choice(n_antennas, active - 1, replace=False)] = True
    signals = np.array([gains[:, np.flatnonzero(mask)].sum(axis=1) for mask in masks])
    # zero parent metrics let every extension through the gate
    stage = Stage(
        masks, signals, np.zeros(len(masks)), np.arange(len(masks)), np.full(9, -1), active - 1
    )
    nxt = stage_expand(stage, Walk(gains, 16))
    assert len(nxt) > 1
    assert np.count_nonzero(nxt.masks, axis=1).tolist() == [active] * len(nxt)
    for mask, signal in zip(nxt.masks, nxt.signals):
        assert signal.tobytes() == gains[:, np.flatnonzero(mask)].sum(axis=1).tobytes()


def test_canonical_gate_drops_a_screened_winner():
    # a stored signal above the canonical one lets two extensions of a
    # stage-2 parent through the screen; antenna 2's canonical metric only
    # ties its parent's, so the strict gate re-checked on canonical values
    # drops it and keeps antenna 3 (stages 1 and 2 install screened values)
    gains = np.array([[0.5 + 0j, 0.5 + 0j, 1.0 + 0j, 3j]])
    stage = Stage(
        np.array([[True, True, False, False]]), np.array([[1.5 + 0j]]),
        np.array([4.0 / 3]), np.array([4]), np.array([-1]), 2,
    )
    nxt = stage_expand(stage, Walk(gains, 8))
    assert nxt.masks.tolist() == [[True, True, False, True]]
    assert nxt.signals.tolist() == [[1 + 3j]]
    assert nxt.metrics.tolist() == [10.0 / 3]
    assert nxt.buckets.tolist() == [5]
    assert nxt.parents.tolist() == [0]


class TestVssSelect:
    def test_single_antenna(self):
        B = np.array([[0.4 + 0.3j]])
        res = vss_select(B, 4)
        assert res.activation.mask == (1,)
        assert res.metric == pytest.approx(0.25, rel=1e-12)
        assert res.trace.termination_stage == 1
        assert res.activation.active_count == 1

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

    @pytest.mark.parametrize(
        "call",
        [lambda: quantize_phase(0.0, 0), lambda: vss_select(np.ones((1, 3)), 0)],
        ids=["quantize_phase", "vss_select"],
    )
    def test_zero_bins_refused(self, call):
        with pytest.raises(ValueError, match="n_bins must be >= 1, got 0"):
            call()

    @pytest.mark.parametrize(
        "n_bins,n_users,refused",
        # verdicts of the exact N*Q^M*M comparison at N=1
        [(2, 19, False), (2, 20, True), (2, 24, True), (1, 2**24, False), (1, 2**24 + 1, True)],
    )
    def test_block_size_boundary(self, n_bins, n_users, refused):
        if not refused:
            check_block_size(1, n_bins, n_users)
            return
        limit = f"Q={n_bins}, M={n_users} exceeds the limit of {MAX_BLOCK_ENTRIES} entries"
        with pytest.raises(ValueError, match=limit):
            check_block_size(1, n_bins, n_users)

    def test_huge_block_refused_without_its_power(self):
        # (10^9)^(10^6) has 9 million digits; the refusal never computes it
        with pytest.raises(ValueError, match="N=5, Q=1000000000, M=1000000 exceeds"):
            check_block_size(5, 10**9, 10**6)

    def test_degenerate_all_zero_matrix(self):
        with pytest.raises(ValueError):
            vss_select(np.zeros((1, 3), dtype=complex), 4)

    def test_no_positive_singleton_is_refused_by_name(self):
        # a bare array may hold zeros: each singleton leaves one user at zero
        # power, so the strict gate admits no first stage, while the pair
        # scores 0.5; the oracle and the greedy baseline both find it
        B = np.array([[1.0, 0.0], [0.0, 1.0]])
        for res in (brute_force_select(B), greedy_pgga_select(B)):
            assert (res.metric, res.activation.mask) == (0.5, (1, 1))
        with pytest.raises(ValueError, match="the strict improvement gate admits no first stage"):
            vss_select(B, 4)

    def test_deterministic(self):
        B = _random_gains(9, 2, 9)
        assert vss_select(B, 4) == vss_select(B, 4)


class TestStageExpand:
    def test_empty_improvement_round(self):
        walk = Walk(np.array([[1.0 + 0j, -1.0 + 0j]]), 4)
        stage1 = stage_expand(root_stage(2, 1, 4), walk)
        assert len(stage1) == 2  # phases 0 and pi land in different bins
        assert len(stage_expand(stage1, walk)) == 0

    def test_single_improving_extension(self):
        walk = Walk(np.array([[1.0 + 0j, 1.0 + 0j]]), 4)
        stage1 = stage_expand(root_stage(2, 1, 4), walk)
        # the two singletons tie and share a bucket; the incumbent (antenna 0) stays
        assert len(stage1) == 1
        assert stage1.masks.tolist() == [[True, False]]
        stage2 = stage_expand(stage1, walk)
        assert len(stage2) == 1
        assert stage2.masks.tolist() == [[True, True]]
        assert stage2.metrics.tolist() == [2.0]
        assert stage2.parents.tolist() == [0]

    def test_rejects_empty_table(self):
        walk = Walk(np.array([[1.0 + 0j, -1.0 + 0j]]), 4)
        terminal = stage_expand(stage_expand(root_stage(2, 1, 4), walk), walk)
        with pytest.raises(ValueError):
            stage_expand(terminal, walk)

    def test_matches_naive_reenumeration(self):
        cfg = SystemConfig(n_antennas=12, n_users=2)
        B = build_channel_matrix(cfg, sample_users(555, cfg))
        n_bins = 4
        stage = root_stage(12, 2, n_bins)
        walk = Walk(B.gains, n_bins)
        for _ in range(12):
            expanded = stage_expand(stage, walk)
            oracle = self._naive_expand(stage, B.gains, n_bins)
            assert expanded.buckets.tolist() == sorted(oracle)
            for bucket, mask, metric in zip(
                expanded.buckets.tolist(), expanded.masks, expanded.metrics.tolist()
            ):
                o_metric, o_mask = oracle[bucket]
                assert tuple(mask.astype(int).tolist()) == o_mask
                assert metric == o_metric
            if not len(expanded):
                break
            stage = expanded

    @staticmethod
    def _naive_expand(stage, gains, n_bins):
        """All (parent, extension) pairs, gate-filtered, grouped by bucket."""
        best = {}
        for mask, parent_metric in zip(stage.masks, stage.metrics.tolist()):
            parent = mask.tolist()
            for n in range(gains.shape[1]):
                if parent[n]:
                    continue
                child = tuple(map(int, parent[:n] + [True] + parent[n + 1 :]))
                z = accumulated_signal(gains, child)
                metric = metric_from_accumulated(z.tolist(), sum(child))
                if metric <= parent_metric:
                    continue
                key = int(bucket_codes(z[None, :], n_bins)[0])
                if key not in best or metric > best[key][0]:
                    best[key] = (metric, child)
        return best


class TestTrellisInvariants:
    def test_path_monotonicity_and_uniqueness(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n_antennas = int(rng.integers(2, 10))
            n_users = int(rng.integers(1, 3))
            n_bins = int(rng.choice([1, 2, 4, 8]))
            gains = _random_gains(int(rng.integers(0, 2**31)), n_users, n_antennas)
            stage = root_stage(n_antennas, n_users, n_bins)
            walk = Walk(gains, n_bins)
            while len(stage):
                nxt = stage_expand(stage, walk)
                assert stage_problems(stage, nxt, gains, n_bins) == []
                stage = nxt

    def test_nudged_stored_signal_is_reported(self):
        gains = _random_gains(5, 2, 8)
        walk = Walk(gains, 4)
        stage = stage_expand(root_stage(8, 2, 4), walk)
        nxt = stage_expand(stage, walk)
        assert stage_problems(stage, nxt, gains, 4) == []
        # a relative 1e-6 on one stored signal; its metric and bucket stay
        signals = nxt.signals.copy()
        signals[0] *= 1 + 1e-6
        nudged = dataclasses.replace(nxt, signals=signals)
        problems = stage_problems(stage, nudged, gains, 4)
        assert len(problems) == 1
        assert problems[0].startswith("incremental/canonical accumulated-signal mismatch")

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
        assert res.activation.active_count <= trace.termination_stage <= 14
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


# vss_select fingerprints recorded from the scalar-loop trellis this array
# implementation replaced: (N, M, Q, trial, metric hex, active indices,
# evaluations, termination stage, best stage (the stage the answer was
# found at, which is its active count), survivors per stage, running best
# hex), on seed-7 paper channels.
PARITY = [
    (12, 1, 4, 0, '0x1.8c47a021a2964p-6', (0, 2, 3), 169, 6, 3, (4, 4, 4, 3, 1, 1),
     ('0x1.8e299ac3b73f2p-7', '0x1.34e6d58b0584fp-6', '0x1.8c47a021a2964p-6',
      '0x1.8c47a021a2964p-6', '0x1.8c47a021a2964p-6', '0x1.8c47a021a2964p-6')),
    (12, 1, 4, 1, '0x1.29df5976cc475p-7', (0, 3, 6, 8, 9, 10, 11), 158, 8, 7,
     (3, 3, 3, 2, 2, 2, 2, 1),
     ('0x1.36840d8c28c7dp-9', '0x1.2bf51d821db68p-8', '0x1.b0f9cc3b3ee78p-8',
      '0x1.fdde3b9784aa6p-8', '0x1.17f6638f419ffp-7', '0x1.2943d6c7ad51dp-7',
      '0x1.29df5976cc475p-7', '0x1.29df5976cc475p-7')),
    (12, 1, 4, 2, '0x1.11386327520d0p-4', (2, 3, 4, 6), 122, 4, 4, (4, 4, 2, 1),
     ('0x1.b5a67c2c85c00p-5', '0x1.e18e3f7590addp-5', '0x1.07e4738ba80b4p-4',
      '0x1.11386327520d0p-4')),
    (30, 2, 8, 0, '0x1.1cdecf5dcec41p-6',
     (0, 3, 4, 5, 6, 7, 10, 13, 17, 19, 21, 24, 27), 9792, 16, 13,
     (26, 56, 57, 54, 46, 40, 33, 26, 18, 11, 10, 6, 4, 3, 2, 1),
     ('0x1.20650976a0c9cp-8', '0x1.09fe9a0f60da2p-7', '0x1.52f2536c7e3b5p-7',
      '0x1.8ff983b826ad8p-7', '0x1.c923ade276230p-7', '0x1.db29fa5732c8fp-7',
      '0x1.fb338dc548377p-7', '0x1.03111ac6bc5c3p-6', '0x1.18713cfab21c9p-6',
      '0x1.18713cfab21c9p-6', '0x1.18713cfab21c9p-6', '0x1.18b52f0483105p-6',
      '0x1.1cdecf5dcec41p-6', '0x1.1cdecf5dcec41p-6', '0x1.1cdecf5dcec41p-6',
      '0x1.1cdecf5dcec41p-6')),
    (30, 2, 8, 1, '0x1.e352379c90095p-6',
     (2, 11, 12, 14, 15, 17, 18, 19, 20, 21, 23, 27, 28, 29), 11962, 23, 14,
     (21, 51, 56, 50, 50, 44, 43, 41, 33, 27, 24, 17, 16, 11, 8, 6, 6, 4, 3, 3, 3, 2,
      1),
     ('0x1.db53cc68b47d7p-9', '0x1.bce9384af739cp-8', '0x1.43303dcfcbb99p-7',
      '0x1.a1f62fef0c92dp-7', '0x1.0a566e96b275ap-6', '0x1.3922641559d6bp-6',
      '0x1.6148703b90677p-6', '0x1.8a197ff112245p-6', '0x1.a54a4f49a4b21p-6',
      '0x1.bc23ea1602c63p-6', '0x1.c21fdded34100p-6', '0x1.d300b1fae7c81p-6',
      '0x1.e23e780d13420p-6', '0x1.e352379c90095p-6', '0x1.e352379c90095p-6',
      '0x1.e352379c90095p-6', '0x1.e352379c90095p-6', '0x1.e352379c90095p-6',
      '0x1.e352379c90095p-6', '0x1.e352379c90095p-6', '0x1.e352379c90095p-6',
      '0x1.e352379c90095p-6', '0x1.e352379c90095p-6')),
    (30, 2, 8, 2, '0x1.0f9ba277a8769p-6', (4, 5, 7, 13, 15, 17, 19, 20, 22, 24, 26, 29),
     13503, 19, 12,
     (22, 52, 57, 59, 57, 58, 58, 45, 42, 35, 28, 22, 16, 11, 6, 4, 2, 2, 1),
     ('0x1.7d3f5452cfcd1p-9', '0x1.66a7e1c67ad42p-8', '0x1.f9fe3054f903bp-8',
      '0x1.4fc910c287248p-7', '0x1.60ac499dd1e2bp-7', '0x1.9c8ab9a34d108p-7',
      '0x1.c8c6aa3593502p-7', '0x1.efdf6ebb37615p-7', '0x1.03fe39c22e5e9p-6',
      '0x1.040e20e196988p-6', '0x1.0ccc6e8a57e2ap-6', '0x1.0f9ba277a8769p-6',
      '0x1.0f9ba277a8769p-6', '0x1.0f9ba277a8769p-6', '0x1.0f9ba277a8769p-6',
      '0x1.0f9ba277a8769p-6', '0x1.0f9ba277a8769p-6', '0x1.0f9ba277a8769p-6',
      '0x1.0f9ba277a8769p-6')),
    (50, 1, 4, 0, '0x1.85cdc1af12b01p-5', (0, 1, 2, 5, 6, 7, 9, 12, 17, 18, 19, 21),
     1985, 21, 12, (4, 4, 4, 4, 4, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1),
     ('0x1.f4cb39ca23aefp-8', '0x1.d9152e634109ap-7', '0x1.5158e18d98237p-6',
      '0x1.ab619fedb7b92p-6', '0x1.03b02e60bfbbdp-5', '0x1.2368dbf0c0e71p-5',
      '0x1.3782d4ee39285p-5', '0x1.4ec1b5f864f32p-5', '0x1.64492b6d2f512p-5',
      '0x1.74df0d242c9b0p-5', '0x1.826f8a6cec5e7p-5', '0x1.85cdc1af12b01p-5',
      '0x1.85cdc1af12b01p-5', '0x1.85cdc1af12b01p-5', '0x1.85cdc1af12b01p-5',
      '0x1.85cdc1af12b01p-5', '0x1.85cdc1af12b01p-5', '0x1.85cdc1af12b01p-5',
      '0x1.85cdc1af12b01p-5', '0x1.85cdc1af12b01p-5', '0x1.85cdc1af12b01p-5')),
    (50, 1, 4, 1, '0x1.e4c11e2be6631p-7',
     (2, 3, 5, 11, 14, 16, 17, 18, 19, 20, 22, 24, 29, 30, 33, 35, 36, 40, 42, 44, 47),
     2683, 22, 21, (4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1),
     ('0x1.e93423afa8e82p-10', '0x1.c8c22ddb39cf3p-9', '0x1.49b3a5be36659p-8',
      '0x1.93b49740a8608p-8', '0x1.d2462af5ddc1bp-8', '0x1.fef3aa9ca4863p-8',
      '0x1.1adb425995a46p-7', '0x1.39fb5de381b2dp-7', '0x1.5457ccdb09da2p-7',
      '0x1.6d166daa24948p-7', '0x1.7fca3c2585883p-7', '0x1.8fe4bc4d720fdp-7',
      '0x1.9e75fa468f51cp-7', '0x1.aa55833a12945p-7', '0x1.b327ce6b14473p-7',
      '0x1.bc0ed8daaee35p-7', '0x1.c4e79e1171c09p-7', '0x1.cd2c44d4c1fa5p-7',
      '0x1.d6040ded3a86dp-7', '0x1.e0731d2dfb4f8p-7', '0x1.e4c11e2be6631p-7',
      '0x1.e4c11e2be6631p-7')),
    (50, 1, 4, 2, '0x1.6538efafc2abbp-6',
     (2, 7, 8, 9, 10, 12, 13, 20, 21, 22, 24, 25, 26, 27, 28, 34, 35, 36, 37, 39, 40,
      41, 46, 47, 49),
     2974, 25, 25,
     (4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1),
     ('0x1.b8b28bba8421bp-10', '0x1.b808a574fc1d1p-9', '0x1.4414f72ec3056p-8',
      '0x1.a6ba11b1ddb7cp-8', '0x1.0108f3bcd4b0ap-7', '0x1.2e96e7da341a4p-7',
      '0x1.5c1cbc7f4d701p-7', '0x1.89777efe2b176p-7', '0x1.b3582930d0801p-7',
      '0x1.d9bfc5ea97546p-7', '0x1.f5301ffd45563p-7', '0x1.0894063b461bbp-6',
      '0x1.16788a6774189p-6', '0x1.239f1f70488ccp-6', '0x1.2eb65ac03b62ap-6',
      '0x1.39737155206b6p-6', '0x1.4380395e7c47ap-6', '0x1.4e250a2281decp-6',
      '0x1.553b20d81a776p-6', '0x1.58c520843891ep-6', '0x1.5db3584aeba84p-6',
      '0x1.605bc3438e5d4p-6', '0x1.62d6e8be6f026p-6', '0x1.64524a0192923p-6',
      '0x1.6538efafc2abbp-6')),
    (100, 2, 4, 0, '0x1.5801d1f9bc91ap-6',
     (4, 7, 11, 14, 20, 29, 32, 41, 44, 45, 47, 52, 57, 62, 70, 74, 75, 76, 77, 86, 91,
      95),
     24067, 29, 22,
     (16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 13, 12, 10, 10, 8, 8, 7, 4, 3, 2, 2,
      1, 1, 1, 2, 2, 2, 1),
     ('0x1.dc0b037c3f6c4p-10', '0x1.d4dda7b8ca549p-9', '0x1.4896bd46407d3p-8',
      '0x1.b699904fd6575p-8', '0x1.076f85c715d5ap-7', '0x1.33c9f8937c247p-7',
      '0x1.634b1c84555b3p-7', '0x1.85e24b9f399c7p-7', '0x1.a7b4937a973b7p-7',
      '0x1.d3df738be00bap-7', '0x1.f48c704792249p-7', '0x1.0744a8ecab5f8p-6',
      '0x1.15331df419316p-6', '0x1.1fc40679d7122p-6', '0x1.2acf74ce3d480p-6',
      '0x1.30d03d611288cp-6', '0x1.3a0e31d054efep-6', '0x1.3afd562a481f1p-6',
      '0x1.471337a286ee6p-6', '0x1.50b9813c73bf1p-6', '0x1.54445805ad8d1p-6',
      '0x1.5801d1f9bc91ap-6', '0x1.5801d1f9bc91ap-6', '0x1.5801d1f9bc91ap-6',
      '0x1.5801d1f9bc91ap-6', '0x1.5801d1f9bc91ap-6', '0x1.5801d1f9bc91ap-6',
      '0x1.5801d1f9bc91ap-6', '0x1.5801d1f9bc91ap-6')),
    (100, 2, 4, 1, '0x1.2890fb72dcb8cp-4',
     (9, 14, 17, 28, 29, 32, 33, 39, 40, 42, 46, 48, 49, 50, 52, 55, 58, 59, 63, 69, 71,
      76, 82, 85, 87, 90),
     28777, 26, 26,
     (16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 15, 15, 15, 14, 11, 12, 9, 8, 9, 8, 8,
      8, 7, 6, 2),
     ('0x1.01a22b70dac7dp-7', '0x1.e0526a5a1a7c4p-7', '0x1.5f1a781c5656fp-6',
      '0x1.caec29dadfaa0p-6', '0x1.110a7293539bdp-5', '0x1.2f4dbb7e50770p-5',
      '0x1.4679eb2a35605p-5', '0x1.616f7e7945be2p-5', '0x1.6a21fc8d02f18p-5',
      '0x1.89e152ce17586p-5', '0x1.a135fef8b98d9p-5', '0x1.b84940dee3850p-5',
      '0x1.d162bf3c0668cp-5', '0x1.df193d7cf08c7p-5', '0x1.eb8dead180077p-5',
      '0x1.f77efec464d7cp-5', '0x1.06f482e6a5533p-4', '0x1.0a05f325514dap-4',
      '0x1.0f6fc3a3aa986p-4', '0x1.0faed076d1615p-4', '0x1.102a6d65da65bp-4',
      '0x1.1424ee0dc6ee4p-4', '0x1.1c775a9ffc7c2p-4', '0x1.223988da96f53p-4',
      '0x1.2727f0656fed3p-4', '0x1.2890fb72dcb8cp-4')),
    (100, 2, 4, 2, '0x1.57ce1325feeb0p-6',
     (10, 13, 19, 21, 23, 25, 28, 36, 37, 38, 44, 45, 46, 50, 51, 54, 59, 65, 88),
     27371, 33, 19,
     (16, 16, 16, 16, 16, 16, 15, 15, 14, 14, 14, 14, 14, 14, 14, 13, 13, 10, 9, 7, 6,
      5, 4, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1),
     ('0x1.cdfef33e215d6p-10', '0x1.cd4073f412dadp-9', '0x1.522c056eabda8p-8',
      '0x1.b888ab22b371ep-8', '0x1.0715005c51360p-7', '0x1.3246c4eccb0dbp-7',
      '0x1.5aadc57a7c1a9p-7', '0x1.806e9c122841fp-7', '0x1.a14826e98bf3cp-7',
      '0x1.bf5ab0b6d6e68p-7', '0x1.de3c1d88a671cp-7', '0x1.03b390ad367dcp-6',
      '0x1.1b55c64bffab9p-6', '0x1.2444d34f18f66p-6', '0x1.29958e10691adp-6',
      '0x1.3e0f55fa959eap-6', '0x1.43fc6269f358ap-6', '0x1.51ebda91aadedp-6',
      '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6',
      '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6',
      '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6',
      '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6',
      '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6', '0x1.57ce1325feeb0p-6')),
    (40, 3, 2, 0, '0x1.4c8ba4794bf68p-7', (3, 10, 11, 20, 21, 28, 30, 35, 36, 39), 2296,
     11, 10, (8, 8, 8, 8, 8, 6, 6, 6, 3, 2, 1),
     ('0x1.c70d34554c82cp-10', '0x1.a8d5d9cf344dbp-9', '0x1.25d07743a4627p-8',
      '0x1.7555f2609cf18p-8', '0x1.ba90977164a80p-8', '0x1.eaca5e980324cp-8',
      '0x1.13dfca551211fp-7', '0x1.27c6cbd48c607p-7', '0x1.3a31ff85da55bp-7',
      '0x1.4c8ba4794bf68p-7', '0x1.4c8ba4794bf68p-7')),
    (40, 3, 2, 1, '0x1.dd5b8c85a2310p-7', (4, 5, 11, 12, 25, 28, 34, 36, 37, 38), 2332,
     10, 10, (8, 8, 8, 8, 8, 7, 7, 5, 3, 3),
     ('0x1.d7ad8f98b5f50p-9', '0x1.a409d4d251aedp-8', '0x1.1dd6d63a0727bp-7',
      '0x1.4bcd1991e473ap-7', '0x1.97098c282eb7dp-7', '0x1.97098c282eb7dp-7',
      '0x1.abb19c6251622p-7', '0x1.c22a4935c8145p-7', '0x1.d929168c9a3aep-7',
      '0x1.dd5b8c85a2310p-7')),
    (40, 3, 2, 2, '0x1.2c512889e335bp-7', (1, 5, 6, 10, 12, 17, 18, 35, 38), 1670, 9, 9,
     (8, 7, 7, 7, 6, 4, 4, 1, 1),
     ('0x1.2bf7a908aa5e9p-9', '0x1.cef68d2e31586p-9', '0x1.3389ea626f484p-8',
      '0x1.69e9dfde7fe7bp-8', '0x1.a1bc1b41888f3p-8', '0x1.dee922a1045b5p-8',
      '0x1.1dc12c6817142p-7', '0x1.1e682bd82bf34p-7', '0x1.2c512889e335bp-7')),

]


@pytest.mark.parametrize("n_antennas,n_users,n_bins", sorted({row[:3] for row in PARITY}))
def test_parity_with_recorded_fingerprints(n_antennas, n_users, n_bins):
    cfg = SystemConfig(n_antennas=n_antennas, n_users=n_users, phase_bins=n_bins)
    rows = [row for row in PARITY if row[:3] == (n_antennas, n_users, n_bins)]
    for _, _, _, t, metric, indices, evals, term, best, survivors, running in rows:
        B = build_channel_matrix(cfg, sample_users(derive_seed(7, n_antennas, t), cfg))
        res = vss_select(B, n_bins)
        trace = res.trace
        assert res.metric.hex() == metric
        assert _indices(res) == indices
        assert res.evaluations == trace.metric_evaluations == evals
        assert (trace.termination_stage, res.activation.active_count) == (term, best)
        assert trace.survivors_per_stage == survivors
        assert tuple(x.hex() for x in trace.running_best) == running


def _fingerprint_digest(results):
    """sha256 over each result's full fingerprint: active indices, metric hex,
    evaluations, running-best hex and survivors per stage."""
    h = hashlib.sha256()
    for res in results:
        trace = res.trace
        h.update(repr((
            _indices(res), res.metric.hex(), res.evaluations,
            tuple(x.hex() for x in trace.running_best), trace.survivors_per_stage,
        )).encode())
    return h.hexdigest()


def _lattice_instances(count, seed):
    """Seeded small instances whose gains sit on a phase lattice: Gaussian
    integers (exact sums, many exact ties, phases on axes and diagonals),
    unit phasors at multiples of pi / Q (on or next to a bin edge or centre),
    and repeated columns (identical candidates)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_users, n_antennas = int(rng.integers(1, 4)), int(rng.integers(2, 13))
        n_bins = int(rng.choice([1, 2, 3, 4, 8]))
        kind = int(rng.integers(3))
        if kind == 0:
            re, im = rng.integers(-2, 3, (2, n_users, n_antennas))
            re[(re == 0) & (im == 0)] = 1
            gains = re + 1j * im
        elif kind == 1:
            k = rng.integers(0, 2 * n_bins, (n_users, n_antennas))
            gains = rng.integers(1, 3, (n_users, n_antennas)) * np.exp(1j * np.pi * k / n_bins)
        else:
            distinct = rng.integers(-2, 3, (n_users, 3)) + 1j * rng.integers(1, 3, (n_users, 3))
            gains = distinct[:, rng.integers(0, 3, n_antennas)]
        yield gains.astype(complex), n_bins


# sha256 of _fingerprint_digest, recorded from the trellis before its stage
# kernel carried the screened buckets into the canonical rebuild
CONV_LARGE_DIGEST = "25b65dc6eeed54fd44062028dff9d1388b7310a04b4c9f3e437eb3c51c56e9c2"
LATTICE_DIGEST = "1d42fe4575fd3121b681cfb886d1be1bccb4156dfb1c1d3fdbb88515eb6e8db6"
# recorded from the trellis before its per-stage constants were hoisted into
# the walk
RATE_SWEEP_DIGEST = "7cbb25216f99e2522b904398fe168b5a5e4a5b027e7f5b92fe801f31db72a741"


def test_conv_large_fingerprints():
    # the benchmark's convergence shapes: N in {50, 80, 100}, M=2, Q=4
    results = []
    for n_antennas in (50, 80, 100):
        cfg = SystemConfig(n_antennas=n_antennas, n_users=2)
        for t in range(4):
            B = build_channel_matrix(cfg, sample_users(derive_seed(7, n_antennas, t), cfg))
            results.append(vss_select(B, 4))
    assert _fingerprint_digest(results) == CONV_LARGE_DIGEST


def test_rate_sweep_fingerprints():
    # the benchmark's rate-sweep shapes: N in 5..50:5, M=1, Q=4
    results = []
    for n_antennas in range(5, 51, 5):
        cfg = SystemConfig(n_antennas=n_antennas, n_users=1)
        for t in range(4):
            B = build_channel_matrix(cfg, sample_users(derive_seed(7, n_antennas, t), cfg))
            results.append(vss_select(B, 4))
    assert _fingerprint_digest(results) == RATE_SWEEP_DIGEST


def test_lattice_fingerprints():
    results = [vss_select(gains, n_bins) for gains, n_bins in _lattice_instances(300, 15)]
    assert _fingerprint_digest(results) == LATTICE_DIGEST


class TestCanonicalBucketFallback:
    """stage_expand's second per-bucket selection, for when a canonical
    bucket differs from the screened one (the benchmark channels never take
    it). It runs from stage 3 on, in an uncertified walk or after a screened
    entry fell in the edge band."""

    @staticmethod
    def _merge_canonical(monkeypatch, merge):
        # stage_expand screens through vss._binned and bins the canonical
        # rebuild through vss.bucket_codes
        real = vss.bucket_codes

        def patched(signals, n_bins, weights):
            return merge(real(signals, n_bins, weights))

        monkeypatch.setattr(vss, "bucket_codes", patched)

    def test_merged_bucket_keeps_its_best_row(self, monkeypatch):
        gains = _random_gains(21, 2, 9)
        walk = Walk(gains, 4)
        walk.certified = False
        stage = stage_expand(stage_expand(root_stage(9, 2, 4), walk), walk)
        plain = stage_expand(stage, walk)
        assert len(plain) > 4
        self._merge_canonical(monkeypatch, lambda codes: codes // 3)
        merged = stage_expand(stage, walk)
        groups = plain.buckets // 3
        want = [
            int(np.flatnonzero(groups == g)[np.argmax(plain.metrics[groups == g])])
            for g in np.unique(groups)
        ]
        assert len(want) < len(plain)
        assert merged.buckets.tolist() == np.unique(groups).tolist()
        assert merged.masks.tolist() == plain.masks[want].tolist()
        assert merged.metrics.tolist() == plain.metrics[want].tolist()
        assert merged.signals.tobytes() == plain.signals[want].tobytes()
        assert merged.parents.tolist() == plain.parents[want].tolist()

    @pytest.mark.parametrize("second,kept", [(1j, 0), (2j, 1), (-1j, 1)])
    def test_tie_goes_to_the_earlier_row(self, second, kept, monkeypatch):
        # a stage-2 parent whose two antennas cancel exactly; winners reach
        # the rebuild in ascending screened bucket: antenna 2 (phase 0, bin 2)
        # comes before 1j (bin 3) and after -1j (bin 1)
        gains = np.array([[1.0 + 0j, -1.0 + 0j, 1.0 + 0j, second]])
        parent = Stage(
            np.array([[True, True, False, False]]), np.zeros((1, 1), complex),
            np.zeros(1), np.array([2]), np.array([-1]), 2,
        )
        walk = Walk(gains, 4)
        walk.certified = False
        self._merge_canonical(monkeypatch, lambda codes: np.zeros_like(codes))
        stage = stage_expand(parent, walk)
        assert stage.masks.tolist() == [[True, True, kept == 0, kept == 1]]
        assert stage.metrics.tolist() == [abs(gains[0, 2 + kept]) ** 2 / 3]
        assert stage.buckets.tolist() == [0]


def _signed_zero_instances(count, seed):
    """Seeded small instances whose gain components come from {+-0, +-1, +-2},
    so sums meet signed zeros and exact cancellations."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])
    for _ in range(count):
        n_users, n_antennas = int(rng.integers(1, 4)), int(rng.integers(2, 11))
        gains = np.empty((n_users, n_antennas), complex)
        gains.real = values[rng.integers(0, 6, (n_users, n_antennas))]
        gains.imag = values[rng.integers(0, 6, (n_users, n_antennas))]
        yield gains, int(rng.choice([1, 2, 3, 4, 8]))


def _walk_stages(walk):
    """Every stage after the root of a full walk, as vss_select takes them."""
    n_users, n_antennas = walk.gains.shape
    stage = stage_expand(root_stage(n_antennas, n_users, walk.n_bins), walk)
    while len(stage):
        yield stage
        stage = stage_expand(stage, walk)


class TestScreenedStages:
    """Stages 1 and 2 install their screened values, and a certified walk
    keeps its screened buckets while no screened entry is in the edge band."""

    @pytest.mark.parametrize(
        "instances",
        [lambda: _lattice_instances(300, 15), lambda: _signed_zero_instances(200, 99)],
        ids=["lattice", "signed-zero"],
    )
    def test_stored_signals_are_the_canonical_bytes(self, instances):
        for gains, n_bins in instances():
            for stage in _walk_stages(Walk(gains, n_bins)):
                want = mask_signals(gains, stage.masks, stage.active)
                assert stage.signals.tobytes() == want.tobytes()

    @staticmethod
    def _canonical_binning_stages(monkeypatch, walk):
        """The index of each stage whose rebuild went through bucket_codes."""
        binned = []
        monkeypatch.setattr(vss, "bucket_codes", lambda *a: binned.append(None) or bucket_codes(*a))
        stages = []
        for stage in _walk_stages(walk):
            if binned:
                stages.append(stage.active)
            binned.clear()
        return stages

    def test_refused_walk_bins_canonically_from_stage_3(self, monkeypatch):
        # unit-modulus gains spread over a quarter turn, so the walk goes deep
        unit = np.exp(1j * np.linspace(0.1, 1.6, 7))[None, :]
        walk = Walk(unit, 4)
        assert walk.certified
        assert self._canonical_binning_stages(monkeypatch, walk) == []
        # one antenna whose worst-user power is 1e-300 voids the certificate
        weak = Walk(np.hstack([unit, [[1e-150]]]), 4)
        assert not weak.certified
        stages = self._canonical_binning_stages(monkeypatch, weak)
        assert len(stages) >= 3
        assert stages == list(range(3, 3 + len(stages)))

    def test_screened_entry_in_the_edge_band_bins_canonically(self, monkeypatch):
        # a band a fifth of a turn wide catches a screened entry at every stage
        monkeypatch.setattr(vss, "EDGE_TOL", 0.2)
        gains = _random_gains(21, 2, 9)
        walk = Walk(gains, 4)
        assert walk.certified
        stages = self._canonical_binning_stages(monkeypatch, walk)
        assert len(stages) >= 3
        assert stages == list(range(3, 3 + len(stages)))
