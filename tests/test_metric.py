"""Objective, kernel and rate tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsel.channel import build_channel_matrix, sample_users
from pinchsel.config import SystemConfig
from pinchsel.metric import (
    ActivationVector,
    accumulated_signal,
    mask_signals,
    maxmin_metric,
    rate_from_metric,
    worst_user_metric,
)


def _random_gains(seed, n_users, n_antennas):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_users, n_antennas)) + 1j * rng.standard_normal(
        (n_users, n_antennas)
    )


class TestActivationVector:
    def test_count_cached(self):
        a = ActivationVector(np.array([True, False, True, True]).tolist())
        assert a.mask == (1, 0, 1, 1)
        assert all(type(b) is int for b in a.mask)
        assert a.active_count == 3

    def test_rejects_bad_entries(self):
        # the record keeps what it is given; the one mask check refuses a bad
        # record's mask when it is scored
        B = _random_gains(1, 1, 3)
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            maxmin_metric(B, ActivationVector((0, 2, 1)).mask)
        with pytest.raises(ValueError, match="does not match 3 antennas"):
            maxmin_metric(B, ActivationVector(()).mask)


class TestAccumulatedSignal:
    def test_singleton_selects_column(self):
        B = _random_gains(3, 2, 5)
        for n in range(5):
            z = accumulated_signal(B, np.arange(5) == n)
            assert np.array_equal(z, B[:, n])

    def test_full_cancellation(self):
        B = np.array([[1.0 + 0j, -1.0 + 0j]])
        z = accumulated_signal(B, (1, 1))
        assert z[0] == 0j

    def test_matches_naive_summation(self):
        B = _random_gains(8, 2, 8)
        rng = np.random.default_rng(12)
        for _ in range(20):
            mask = tuple(int(b) for b in rng.integers(0, 2, size=8))
            if sum(mask) == 0:
                continue
            z = accumulated_signal(B, mask)
            for m in range(2):
                naive = 0j
                for n in range(8):
                    if mask[n]:
                        naive += B[m, n]
                assert abs(z[m] - naive) <= 1e-12 * (1 + abs(naive))

    def test_errors(self):
        # one check refuses a wrong length, an entry other than 0 or 1 and a
        # mask with nothing on, for both scalar references
        B = _random_gains(1, 1, 4)
        cases = [
            ((1, 0), "does not match 4 antennas"),
            ((), "does not match 4 antennas"),
            (((1, 0, 1, 0),), "does not match 4 antennas"),
            ((0, 2, 1, 0), "entries must be 0 or 1"),
            ((1, 0, -1, 0), "entries must be 0 or 1"),
            ((0.5, 1, 0, 0), "entries must be 0 or 1"),
            (("1", "0", "0", "0"), "entries must be 0 or 1"),
            ((float("nan"), 1, 0, 0), "entries must be 0 or 1"),
            ((None, 1, 0, 0), "entries must be 0 or 1"),
            ((0, 0, 0, 0), "at least one active antenna"),
            (np.zeros(4, dtype=bool), "at least one active antenna"),
        ]
        for reference in (accumulated_signal, maxmin_metric):
            for mask, message in cases:
                with pytest.raises(ValueError, match=message):
                    reference(B, mask)


class TestMaxminMetric:
    def test_single_user_singleton(self):
        B = np.array([[0.5 - 1.5j, 2.0 + 0j]])
        assert maxmin_metric(B, (1, 0)) == pytest.approx(abs(B[0, 0]) ** 2, rel=1e-15)

    def test_cophased_pair_beats_singleton(self):
        B = np.array([[1.0 + 0j, 1.0 + 0j]])
        assert maxmin_metric(B, (1, 1)) == 2.0
        assert maxmin_metric(B, (1, 0)) == 1.0

    def test_worst_user_dominates(self):
        B = np.array([[1.0 + 0j, 1.0 + 0j], [1.0 + 0j, -1.0 + 0j]])
        assert maxmin_metric(B, (1, 1)) == 0.0

    def test_zero_iff_cancelled_user(self):
        B = np.array([[1.0 + 0j, -1.0 + 0j], [1.0 + 0j, 1.0 + 0j]])
        assert maxmin_metric(B, (1, 1)) == 0.0
        assert maxmin_metric(B, (1, 0)) > 0.0


class TestWorstUserMetric:
    def test_bit_identical_to_scalar_reference(self):
        B = _random_gains(31, 3, 9)
        rng = np.random.default_rng(32)
        for k in range(1, 10):
            masks = [rng.permutation(9) < k for _ in range(5)]
            signals = np.array([B[:, mask].sum(axis=1) for mask in masks])
            want = [maxmin_metric(B, m) for m in masks]
            assert worst_user_metric(signals, k).tolist() == want

    def test_singletons_are_columns(self):
        B = _random_gains(33, 2, 6)
        metrics = worst_user_metric(B.T, 1)
        for n in range(6):
            assert metrics[n] == maxmin_metric(B, np.arange(6) == n)


class TestMaskSignals:
    def test_rows_bit_identical_to_accumulated_signal(self):
        # k = 8, 9 and 16 cross numpy's unrolled summation blocks
        B = _random_gains(34, 3, 20)
        rng = np.random.default_rng(35)
        for k in (1, 2, 7, 8, 9, 16, 20):
            masks = np.array([rng.permutation(20) < k for _ in range(6)])
            signals = mask_signals(B, masks, k)
            assert signals.shape == (6, 3)
            for signal, mask in zip(signals, masks):
                assert signal.tolist() == accumulated_signal(B, mask).tolist()

    def test_empty_block(self):
        # every trellis ends on a stage with no rows
        signals = mask_signals(_random_gains(36, 2, 5), np.zeros((0, 5), dtype=bool), 3)
        assert signals.shape == (0, 2)


def _literal_min_rate(cfg, B, mask):
    """Worst-user rate from per-user SNRs with the power split equally."""
    z = accumulated_signal(B, mask)
    snr = cfg.snr_scale * (z.real**2 + z.imag**2) / sum(mask)
    return float(np.log2(1.0 + snr).min())


class TestRateReport:
    """Worst-user rates reported through rate_from_metric."""

    def test_cancelled_user_gets_zero_rate(self):
        cfg = SystemConfig(n_antennas=2, n_users=2)
        B = np.array([[1.0 + 0j, 1.0 + 0j], [1.0 + 0j, -1.0 + 0j]])
        metric = maxmin_metric(B, (1, 1))
        assert metric == 0.0
        assert rate_from_metric(cfg, metric) == 0.0

    def test_doubling_power_doubles_snr_not_metric(self):
        cfg = SystemConfig(n_antennas=6, n_users=2)
        doubled = replace(cfg, tx_power=2 * cfg.tx_power)
        assert doubled.snr_scale == pytest.approx(2 * cfg.snr_scale, rel=1e-12)
        metric = maxmin_metric(_random_gains(5, 2, 6), (1, 0, 1, 1, 0, 1))
        assert rate_from_metric(doubled, metric) == pytest.approx(
            math.log2(1.0 + 2 * cfg.snr_scale * metric), rel=1e-12
        )

    def test_min_rate_consistent_with_metric_path(self):
        cfg = SystemConfig(n_antennas=10, n_users=1)
        B = build_channel_matrix(cfg, sample_users(77, cfg))
        mask = (1, 1, 0, 0, 1, 0, 1, 0, 0, 1)
        rate = rate_from_metric(cfg, maxmin_metric(B, mask))
        assert rate == pytest.approx(
            math.log2(1.0 + cfg.snr_scale * maxmin_metric(B, mask)), rel=1e-15
        )
        assert rate == pytest.approx(_literal_min_rate(cfg, B, mask), rel=1e-12)


def test_metric_orders_like_min_rate():
    # the scale-free core induces the same ordering as the worst-user rate
    cfg = SystemConfig(n_antennas=8, n_users=2)
    B = _random_gains(21, 2, 8)
    rng = np.random.default_rng(22)
    for _ in range(100):
        masks = []
        while len(masks) < 2:
            mask = tuple(int(b) for b in rng.integers(0, 2, size=8))
            if sum(mask):
                masks.append(mask)
        a1, a2 = masks
        dm = maxmin_metric(B, a1) - maxmin_metric(B, a2)
        dr = _literal_min_rate(cfg, B, a1) - _literal_min_rate(cfg, B, a2)
        assert math.copysign(1, dm) == math.copysign(1, dr) or dm == dr == 0.0


def test_cophased_duplicate_closed_form():
    # M=1: duplicating the only active antenna doubles the metric
    b = 0.3 - 0.7j
    B = np.array([[b, b]])
    single = maxmin_metric(B, (1, 0))
    both = maxmin_metric(B, (1, 1))
    assert both == pytest.approx(2 * single, rel=1e-12)
    # and never decreases any user's |Z|^2 in a larger synthetic instance
    B2 = np.array([[0.2 + 0.1j, 0.2 + 0.1j, -0.4 + 0.9j]])
    base = (1, 0, 1)
    dup = (1, 1, 1)
    z_base = accumulated_signal(B2, base)
    z_dup = accumulated_signal(B2, dup)
    assert abs(z_dup[0]) >= abs(z_base[0])


@given(
    st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
        ),
        min_size=1,
        max_size=6,
    ),
    st.data(),
)
@settings(deadline=None, max_examples=200)
def test_metric_nonnegative_and_scale_free(entries, data):
    B = np.array([[complex(re, im) for re, im in entries]])
    if np.any(B == 0):
        return
    n = len(entries)
    mask = data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda m: sum(m) > 0)
    )
    value = maxmin_metric(B, mask)
    assert value >= 0.0
    # scaling every gain by 2 scales the metric by 4
    assert maxmin_metric(2 * B, mask) == pytest.approx(4 * value, rel=1e-9, abs=1e-12)
