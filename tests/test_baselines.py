"""Exhaustive-oracle and greedy-baseline tests."""

import itertools
import tracemalloc

import numpy as np
import pytest

from pinchsel import baselines
from pinchsel.baselines import (
    _working_bytes,
    best_singleton,
    brute_force_select,
    check_brute_force_size,
    greedy_pgga_select,
)
from pinchsel.channel import build_channel_matrix, sample_users
from pinchsel.config import SystemConfig
from pinchsel.harness import ExperimentSpec, derive_seed
from pinchsel.metric import (
    ActivationVector,
    SolverResult,
    mask_signals,
    maxmin_metric,
    worst_user_metric,
)
from pinchsel.vss import vss_select


def _mask_to_activation(mask, n_antennas):
    return ActivationVector(tuple((mask >> i) & 1 for i in range(n_antennas)))


def _indices(res):
    return tuple(np.flatnonzero(res.activation.mask).tolist())


def _tie_key(metric, activation):
    # maximise metric; break ties by fewer active antennas, then by the
    # lexicographically smallest mask sequence
    return (-metric, activation.active_count, activation.mask)


def _per_mask_scan(gains):
    """``maxmin_metric`` of every non-empty mask, keyed by the mask as an
    integer (bit j = antenna j): the scan ``_brute_force_naive`` is pinned
    to."""
    n_antennas = gains.shape[1]
    return {
        mask: maxmin_metric(gains, _mask_to_activation(mask, n_antennas).mask)
        for mask in range(1, 1 << n_antennas)
    }


def _naive_scores(gains):
    """Every non-empty subset's metric, one active count at a time: yields
    (count, index rows, metrics) with one ``itertools.combinations`` row per
    subset. The gather is summed along its last axis, the reduction
    ``maxmin_metric`` makes row by row, and the worst user's
    re*re + im*im over the count follows, so each metric is scored from
    scratch, with no split table and no ``mask_signals``."""
    n_antennas = gains.shape[1]
    for count in range(1, n_antennas + 1):
        rows = np.array(list(itertools.combinations(range(n_antennas), count)))
        z = np.add.reduce(gains[:, rows], axis=2)
        yield count, rows, (z.real * z.real + z.imag * z.imag).min(axis=0) / count


def _brute_force_naive(gains):
    """Reference oracle: score every subset from scratch with
    ``_naive_scores``; same ``(-metric, count, mask)`` tie key."""
    n_antennas = gains.shape[1]
    keys = []
    for count, rows, metrics in _naive_scores(gains):
        metric = metrics.max()
        tied = rows[metrics == metric]
        masks = np.zeros((len(tied), n_antennas), dtype=int)
        np.put_along_axis(masks, tied, 1, axis=1)
        keys.append((-float(metric), count, min(map(tuple, masks.tolist()))))
    neg_metric, _, mask = min(keys)
    return SolverResult(ActivationVector(mask), -neg_metric, (1 << n_antennas) - 1)


def _random_gains(seed, n_users, n_antennas):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_users, n_antennas)) + 1j * rng.standard_normal(
        (n_users, n_antennas)
    )


# (M, base columns, seed) of N=14 lattice instances: exact optima tied at 8, 9
# and 5 antennas in screening rows 1 and 2, where the fewest antennas win over
# the smallest mask; at 9 and 5 antennas in rows 1, 2 and 3; at 4 and 8
# antennas in rows 0, 1 and 2, where the smallest mask wins across rows
TIE_LATTICES = [(2, 4, 131), (3, 6, 230), (3, 4, 6)]


def _tie_lattice(n_users, n_base, seed):
    """N=14 repeats of a few lattice columns: every partial sum is exact."""
    rng = np.random.default_rng([14, n_users, n_base, seed])
    levels = np.array([-1.0, 1.0])
    shape = (n_users, n_base)
    base = levels[rng.integers(0, 2, shape)] + 1j * levels[rng.integers(0, 2, shape)]
    return base[:, rng.integers(0, n_base, 14)]


def _cancelling_gains(seed, n_users, n_antennas, scale):
    """Rows of +-scale plus unit complex noise: many subset sums cancel to
    the noise level, far below the column sums that bound the screen's
    rounding."""
    rng = np.random.default_rng([seed, n_users, n_antennas])
    shape = (n_users, n_antennas)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return scale * rng.choice([-1.0, 1.0], shape) + noise


class TestNaiveReference:
    """``_brute_force_naive`` pinned to the per-mask ``maxmin_metric`` scan:
    every mask's metric, bit for bit, and the answer."""

    @staticmethod
    def _assert_pinned(B):
        n_antennas = B.shape[1]
        scores = {}
        for _, rows, metrics in _naive_scores(B):
            for row, metric in zip(rows.tolist(), metrics.tolist()):
                scores[sum(1 << j for j in row)] = metric.hex()
        scan = _per_mask_scan(B)
        assert scores == {mask: metric.hex() for mask, metric in scan.items()}
        activations = {mask: _mask_to_activation(mask, n_antennas) for mask in scan}
        best = min(scan, key=lambda mask: _tie_key(scan[mask], activations[mask]))
        assert _brute_force_naive(B) == SolverResult(activations[best], scan[best], len(scan))

    @pytest.mark.parametrize("n_users", [1, 2, 3])
    @pytest.mark.parametrize("n_antennas", range(1, 11))
    def test_every_mask_at_small_n(self, n_antennas, n_users):
        self._assert_pinned(_random_gains(900 * n_antennas + n_users, n_users, n_antennas))

    @pytest.mark.parametrize("n_users,n_base,seed", TIE_LATTICES)
    def test_every_mask_on_the_tie_lattices(self, n_users, n_base, seed):
        self._assert_pinned(_tie_lattice(n_users, n_base, seed))

    @pytest.mark.parametrize(
        "B",
        [
            np.array([[1.0 + 0j, -1.0 + 0j, 1.0 + 0j]]),
            np.vstack([np.eye(13), [1.0, -1.0] + [0.0] * 11]).astype(complex),
        ],
        ids=["gray-tie", "all-tied"],
    )
    def test_every_mask_on_exact_ties(self, B):
        self._assert_pinned(B)

    @pytest.mark.parametrize("n_users", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e3, 1e9])
    def test_every_mask_on_cancelling_gains(self, scale, n_users):
        self._assert_pinned(_cancelling_gains(8, n_users, 9, scale))


# brute_force_select fingerprints recorded from the Gray-code walk the split
# table replaced: (kind, N, M, trial, metric hex, active indices, evaluations).
# The paper rows are seed-7 channels, as in _parity_gains.
BRUTE_PARITY = [
    ('paper', 14, 1, 0, '0x1.f416a0c4cacb9p-7', (0, 1, 3, 5, 6, 8, 11), 16383),
    ('paper', 14, 1, 1, '0x1.e73f083674ff3p-7', (4, 5, 7, 8), 16383),
    ('paper', 14, 2, 0, '0x1.f416a0c4cacb9p-7', (0, 1, 3, 5, 6, 8, 11), 16383),
    ('paper', 14, 2, 1, '0x1.1d2c665d1a786p-7', (1, 3, 6, 7, 8, 9, 12), 16383),
    ('paper', 14, 3, 0, '0x1.f416a0c4cacb9p-7', (0, 1, 3, 5, 6, 8, 11), 16383),
    ('paper', 14, 3, 1, '0x1.73cdda7dfbcbdp-8', (7, 8, 9), 16383),
    ('paper', 18, 1, 0, '0x1.733fb2fafd2cap-5', (11, 12, 13, 14, 16), 262143),
    ('paper', 18, 1, 1, '0x1.e26515c905e0ep-4', (0, 1), 262143),
    ('paper', 18, 2, 0, '0x1.c38368bb1772fp-7', (3, 5, 9, 10, 12, 14, 16), 262143),
    ('paper', 18, 2, 1, '0x1.1856eb70a923ep-7', (0, 5, 10, 12, 13, 14), 262143),
    ('paper', 18, 3, 0, '0x1.779a15785145dp-7', (3, 5, 9, 12, 14, 16), 262143),
    ('paper', 18, 3, 1, '0x1.c0726170b69f6p-8', (1, 3, 4, 6, 8, 9, 13), 262143),
    ('paper', 20, 1, 0, '0x1.a5c9efbd8f95ep-7', (1, 2, 7, 9, 10, 11, 13, 15, 17, 19),
     1048575),
    ('paper', 20, 1, 1, '0x1.adceda1ecaedcp-6', (2, 3, 7, 10, 11, 14, 15, 16), 1048575),
    ('paper', 20, 2, 0, '0x1.90ba6466c3027p-8', (1, 2, 9), 1048575),
    ('paper', 20, 2, 1, '0x1.493d85eaca2b6p-7', (0, 2, 5, 11, 14, 16, 18), 1048575),
    ('paper', 20, 3, 0, '0x1.90ba6466c3027p-8', (1, 2, 9), 1048575),
    ('paper', 20, 3, 1, '0x1.ce055e5484edfp-8', (0, 5, 9, 11, 14, 15), 1048575),
    ('lattice', 14, 2, 0, '0x1.a000000000000p+3', (4, 5, 6, 8, 13), 16383),
    ('lattice', 16, 3, 1, '0x1.5333333333333p+3', (1, 6, 8, 9, 10), 65535),
    ('repeated', 14, 1, 0, '0x1.95f4b4599675ep+5', (2, 3, 4, 5, 7, 10, 11), 16383),
    ('repeated', 16, 2, 1, '0x1.92c4fd549ae7ep+2', (4, 8, 9, 10, 12, 13, 14, 15),
     65535),
]


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
        refusal = r"N=25 .*cap is 24 .*16,777,216 subsets.*MiB"
        with pytest.raises(ValueError, match=refusal):
            brute_force_select(_random_gains(0, 1, 25))

    def test_spec_refuses_with_the_solver_message(self):
        with pytest.raises(ValueError) as solver:
            brute_force_select(_random_gains(0, 2, 25))
        base = SystemConfig(n_users=2)
        with pytest.raises(ValueError) as spec:
            ExperimentSpec(base, (10, 25), ("brute_force",), n_trials=1, seed=0)
        assert str(spec.value) == str(solver.value)

    @pytest.mark.parametrize("n_antennas,most_users", [(20, 962), (24, 510), (1, 1398015)])
    def test_user_count_bound(self, n_antennas, most_users):
        # the working memory may reach MAX_BLOCK_ENTRIES complex entries
        assert _working_bytes(n_antennas, most_users) <= 2**28
        assert _working_bytes(n_antennas, most_users + 1) > 2**28
        check_brute_force_size(n_antennas, most_users)
        refusal = rf"M={most_users + 1} users at N={n_antennas}: .* bound of 256 MiB"
        with pytest.raises(ValueError, match=refusal):
            check_brute_force_size(n_antennas, most_users + 1)

    def test_solver_and_spec_refuse_too_many_users(self):
        # both refuse before any table: at 963 users the two split tables
        # alone would take 63 MB
        with pytest.raises(ValueError) as solver:
            brute_force_select(np.ones((963, 20), dtype=complex))
        with pytest.raises(ValueError) as spec:
            ExperimentSpec(SystemConfig(n_users=963), (5, 20), ("brute_force",), 1, 0)
        assert "M=963 users at N=20" in str(solver.value)
        assert str(spec.value) == str(solver.value)

    def test_working_memory_stays_below_a_full_table(self):
        # a float64 array over all 2^20 masks alone would be 8 MiB
        B = _random_gains(22, 3, 22)
        tracemalloc.start()
        try:
            brute_force_select(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert peak < _working_bytes(22, 3)

    def test_zero_gain_user_at_the_cap_is_decided_by_the_tie_key(self):
        # every one of the 2^24 - 1 masks scores 0; no mask may be rescored
        B = _random_gains(24, 3, 24)
        B[1] = 0.0
        tracemalloc.start()
        try:
            res = brute_force_select(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _indices(res) == (23,)
        assert res.metric == 0.0
        assert res.evaluations == 2**24 - 1
        assert peak < 2 * 2**20

    def test_all_masks_tied_without_a_zero_user(self):
        # user j hears only antenna j and user 13 hears 1 - 1 on the first
        # two, so every mask leaves some user at exactly 0 and all 2^13 - 1
        # masks reach the floor; they are rescored one row at a time, within
        # the stated working-memory bound
        B = np.vstack([np.eye(13), [1.0, -1.0] + [0.0] * 11]).astype(complex)
        tracemalloc.start()
        try:
            fast = brute_force_select(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slow = _brute_force_naive(B)
        assert fast.metric == slow.metric == 0.0
        assert fast.activation == slow.activation
        assert peak < _working_bytes(13, 14)

    def test_all_masks_tied_at_17_users_16_antennas(self):
        # the instance above at 17 x 16: all 65,535 masks score exactly 0 and
        # are rescored in popcount groups of bounded row chunks
        B = np.vstack([np.eye(16), [1.0, -1.0] + [0.0] * 14]).astype(complex)
        tracemalloc.start()
        try:
            res = brute_force_select(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.metric == 0.0
        assert _indices(res) == (15,)  # fewest antennas, smallest mask
        assert peak < _working_bytes(16, 17)

    @pytest.mark.parametrize("n_users,n_base,seed", TIE_LATTICES)
    def test_matches_naive_on_ties_across_rows_and_popcounts(self, n_users, n_base, seed):
        B = _tie_lattice(n_users, n_base, seed)
        fast = brute_force_select(B)
        slow = _brute_force_naive(B)
        assert fast.metric == slow.metric
        assert fast.activation == slow.activation

    @pytest.mark.parametrize("n_antennas", [1, 2, 5, 8, 10, 12, 13, 14, 16])
    def test_matches_naive(self, n_antennas):
        # the naive rescorer takes seconds per instance at N=16: one seed there
        for seed in range(1 if n_antennas > 14 else 3):
            B = _random_gains(100 * n_antennas + seed, 2, n_antennas)
            fast = brute_force_select(B)
            slow = _brute_force_naive(B)
            assert fast.metric == slow.metric
            assert fast.activation == slow.activation

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
    def test_matches_naive_on_cancelling_gains(self, scale):
        # sums that cancel are where the product screen rounds differently
        # from the direct sums
        for n_users, n_antennas in [(1, 13), (2, 14), (3, 12)]:
            B = _cancelling_gains(n_antennas, n_users, n_antennas, scale)
            fast = brute_force_select(B)
            slow = _brute_force_naive(B)
            assert fast.metric == slow.metric
            assert fast.activation == slow.activation

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_optimum_whose_worst_user_cancels_across_the_split(self, scale):
        # user j < 13 hears antenna j alone, so every mask but the full one
        # leaves some user at exactly 0. On the full mask the last user's low
        # and high sums, scale + 11 and -scale, cancel to 11, which the
        # product screen may round far from 121: only the floor's absolute
        # term keeps the optimum on the shortlist
        last = np.ones(13)
        last[0], last[12] = scale, -scale
        res = brute_force_select(np.vstack([scale * np.eye(13), last]))
        assert res.metric == 121 / 13
        assert res.activation.active_count == 13

    @pytest.mark.parametrize("n_antennas", [12, 13, 14, 15])
    def test_screening_blocks_match_naive(self, n_antennas):
        # 1, 2, 4 and 8 high rows: a single partial block, a whole block and
        # a boundary between blocks
        for n_users in (1, 3):
            B = _random_gains(300 * n_antennas + n_users, n_users, n_antennas)
            fast = brute_force_select(B)
            slow = _brute_force_naive(B)
            assert fast.metric == slow.metric
            assert fast.activation == slow.activation

    @pytest.mark.parametrize("n_antennas,rows", [(13, None), (15, 3)])
    def test_optimum_in_the_last_partial_block(self, monkeypatch, n_antennas, rows):
        # strong co-phased top antennas put the optimum's high row in the last
        # block, which is partial: 2 rows of one block at N=13, or rows 6-7
        # after blocks of 3 at N=15
        if rows is not None:
            monkeypatch.setattr(baselines, "_SCREEN_ROWS", rows)
        B = _random_gains(17 * n_antennas, 2, n_antennas)
        B[:, 12:] = 6.0 * np.exp(1j * np.array([[0.3], [-1.1]]))
        fast = brute_force_select(B)
        slow = _brute_force_naive(B)
        n_high, block = 1 << (n_antennas - 12), baselines._SCREEN_ROWS
        last = (n_high - 1) // block * block  # first row of the last block
        assert n_high - last < block
        row = sum(1 << (j - 12) for j in _indices(slow) if j >= 12)  # mask >> 12
        assert row >= last
        assert fast.metric == slow.metric
        assert fast.activation == slow.activation

    @pytest.mark.parametrize("seed", [169, 175])
    def test_optimum_at_the_end_of_a_popcount_group(self, seed):
        # strong co-phased low antennas 12 - c .. 11 make the optimum's low
        # part the last mask of its popcount group, the entry a misplaced
        # group start divides by the next group's count
        rng = np.random.default_rng(seed)
        m, n, c = int(rng.integers(1, 3)), int(rng.integers(13, 15)), int(rng.integers(1, 4))
        B = 0.3 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        B[:, 12 - c : 12] += np.exp(1j * rng.uniform(0, 6.3, (m, 1)))
        B[:, 12:] += rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 6.3, (m, n - 12)))
        fast = brute_force_select(B)
        slow = _brute_force_naive(B)
        low = [j for j in _indices(slow) if j < 12]
        assert low == list(range(12 - len(low), 12))
        assert fast.metric == slow.metric
        assert fast.activation == slow.activation

    @staticmethod
    def _search_peak(B):
        brute_force_select(B[:, :3])  # numpy's lazy set-up is not the search's
        tracemalloc.start()
        try:
            brute_force_select(B)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n_antennas", [1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 16, 24])
    def test_working_memory_bound_for_one_user(self, n_antennas):
        # one user has the smallest stated bound: the screening buffers must
        # fit it with a single high row, with partial and whole blocks, and
        # with the full high table at the cap; below N=7 numpy's fixed cost
        # per array outweighs the tables
        B = _random_gains(n_antennas, 1, n_antennas)
        assert self._search_peak(B) < _working_bytes(n_antennas, 1)

    @pytest.mark.parametrize("n_antennas", [1, 2, 3, 4, 5, 6])
    def test_working_memory_bound_for_two_users_at_small_n(self, n_antennas):
        B = _random_gains(n_antennas, 2, n_antennas)
        assert self._search_peak(B) < _working_bytes(n_antennas, 2)

    def test_gray_matches_naive_on_exact_ties(self):
        B = np.array([[1.0 + 0j, -1.0 + 0j, 1.0 + 0j]])
        fast = brute_force_select(B)
        slow = _brute_force_naive(B)
        assert fast.activation == slow.activation
        assert fast.metric == slow.metric == 2.0

    def test_zero_gain_user(self):
        # every mask scores 0; the empty mask must never join the shortlist
        res = brute_force_select(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
        assert res.activation.mask == (0, 0, 1)
        assert res.metric == 0.0

    def test_all_zero_gains_across_the_split(self):
        res = brute_force_select(np.zeros((2, 14)))
        assert _indices(res) == (13,)
        assert res.metric == 0.0
        assert res.evaluations == 2**14 - 1

    @pytest.mark.parametrize("row", BRUTE_PARITY, ids=lambda r: "-".join(map(str, r[:4])))
    def test_parity_with_recorded_fingerprints(self, row):
        kind, n_antennas, n_users, t, *expected = row
        res = brute_force_select(_parity_gains(kind, n_antennas, n_users, t))
        assert [res.metric.hex(), _indices(res), res.evaluations] == expected

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


def _popcount_order(k):
    return np.argsort([bin(s).count("1") for s in range(1 << k)], kind="stable")


def _canonical_powers(gains):
    """Reference for the product screen: every user's canonical power,
    ``worst_user_metric`` of that user's ``mask_signals`` column, laid out as
    the screen is (user, high row, low subset in popcount order), with each
    mask's active count; the empty mask has power 0 and count 1."""
    n_users, n_antennas = gains.shape
    k = min(n_antennas, baselines._LOW_BITS)
    high = np.arange(1 << (n_antennas - k))[:, None] << k
    masks = (_popcount_order(k) | high).ravel()
    bits = (masks[:, None] >> np.arange(n_antennas)) & 1 == 1
    counts = bits.sum(axis=1)
    powers = np.zeros((len(masks), n_users))
    for c in range(1, n_antennas + 1):
        rows = counts == c
        powers[rows] = worst_user_metric(mask_signals(gains, bits[rows], c)[:, :, None], 1)
    counts[0] = 1
    shape = (len(high), 1 << k)
    return powers.T.reshape(n_users, *shape), counts.reshape(shape)


def _product_screens(gains):
    """Every user's product screen as ``brute_force_select`` computes it: by
    blocks of ``_SCREEN_ROWS`` high rows, and one row alone as its second
    pass does."""
    k = min(gains.shape[1], baselines._LOW_BITS)
    low, high = baselines._screen_tables(gains, k, _popcount_order(k))
    n_users, n_high = high.shape[:2]
    blocks, rows = np.empty((2, n_users, n_high, 1 << k))
    for m in range(n_users):
        for h0 in range(0, n_high, baselines._SCREEN_ROWS):
            h1 = min(h0 + baselines._SCREEN_ROWS, n_high)
            np.matmul(high[m, h0:h1], low[m], out=blocks[m, h0:h1])
        for h in range(n_high):
            np.matmul(high[m, h : h + 1], low[m], out=rows[m, h : h + 1])
    return blocks, rows


@pytest.mark.parametrize("n_antennas", [12, 13, 14, 15, 16])
@pytest.mark.parametrize("kind", ["random", "lattice", 1e3, 1e9, 1e12])
def test_product_screen_stays_within_its_bound(kind, n_antennas):
    # every mask and user across the split, block and single-row products
    # against the canonical sums: 1 to 16 high rows make a partial block, a
    # whole one and several; the floor rests on the scores' distance
    for n_users in (1, 2, 3):
        if kind == "random":
            B = _random_gains(40 * n_antennas + n_users, n_users, n_antennas)
        elif kind == "lattice":
            B = _parity_gains("lattice", n_antennas, n_users, 0)
        else:
            B = _cancelling_gains(n_antennas, n_users, n_antennas, kind)
        canonical, counts = _canonical_powers(B)
        scores = canonical.min(axis=0) / counts
        delta = baselines._screen_bound(B)
        for product in _product_screens(B):
            assert np.abs(product - canonical).max() <= delta, n_users
            assert np.abs(product.min(axis=0) / counts - scores).max() <= delta, n_users


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
            maxmin_metric(B, np.arange(15) == n) for n in range(15)
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

    def test_zero_user_signal_takes_phase_zero(self):
        # every singleton scores 0, so the start leaves user 1's signal at
        # zero and the first round projects onto phase 0 for that user
        res = greedy_pgga_select(np.array([[1.0 + 0j, 0j], [0j, 1.0 + 0j]]))
        assert res.metric == 0.5
        assert res.activation.mask == (1, 1)
        assert res.evaluations == 3

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


def _parity_gains(kind, n_antennas, n_users, t):
    """Seed-7 paper channels, lattice gains with exact ties, repeated columns."""
    if kind == "paper":
        cfg = SystemConfig(n_antennas=n_antennas, n_users=n_users)
        users = sample_users(derive_seed(7, n_antennas, t), cfg)
        return build_channel_matrix(cfg, users).gains
    rng = np.random.default_rng([n_antennas, n_users, t])
    shape = (n_users, n_antennas)
    if kind == "lattice":
        levels = np.array([-2.0, -1.0, 1.0, 2.0])
        return levels[rng.integers(0, 4, shape)] + 1j * levels[rng.integers(0, 4, shape)]
    base = rng.standard_normal((n_users, 3)) + 1j * rng.standard_normal((n_users, 3))
    return base[:, rng.integers(0, 3, n_antennas)]


# best_singleton and greedy_pgga_select fingerprints recorded from the
# per-candidate ActivationVector loops this array implementation replaced:
# (kind, N, M, trial, singleton metric hex, singleton indices, singleton
# evaluations, greedy metric hex, greedy indices, greedy evaluations).
PARITY = [
    ('paper', 5, 1, 0, '0x1.6583a702a3e11p-7', (2,), 5, '0x1.233681e38cb05p-6',
     (0, 1, 2, 3), 9),
    ('paper', 5, 1, 1, '0x1.84102fd7efd90p-9', (2,), 5, '0x1.565b4968fa3cbp-8', (1, 2),
     7),
    ('paper', 5, 1, 2, '0x1.075a3c11c9447p-9', (4,), 5, '0x1.075a3c11c9447p-9', (4,), 6),
    ('paper', 5, 2, 0, '0x1.e0b46a7114b5ap-9', (2,), 5, '0x1.9e682710f782dp-8',
     (0, 2, 3), 8),
    ('paper', 5, 2, 1, '0x1.6a9488288957dp-9', (2,), 5, '0x1.565b4968fa3cbp-8', (1, 2),
     7),
    ('paper', 5, 2, 2, '0x1.8a1c0de435875p-10', (3,), 5, '0x1.29cac2825d0b7p-9',
     (0, 1, 3), 8),
    ('paper', 5, 3, 0, '0x1.e0b46a7114b5ap-9', (2,), 5, '0x1.136c0a46e1311p-8', (0, 2),
     7),
    ('paper', 5, 3, 1, '0x1.6a9488288957dp-9', (2,), 5, '0x1.6a9488288957dp-9', (2,), 6),
    ('paper', 5, 3, 2, '0x1.8a1c0de435875p-10', (3,), 5, '0x1.8a1c0de435875p-10', (3,),
     6),
    ('paper', 20, 1, 0, '0x1.6e04ed9e8a15ep-9', (5,), 20, '0x1.a1b0f26ba16cbp-7',
     (0, 3, 4, 5, 6, 8, 14, 18), 28),
    ('paper', 20, 1, 1, '0x1.e7ba4bd0e1f26p-8', (9,), 20, '0x1.19e966a4f9d8dp-6',
     (1, 5, 6, 8, 9), 25),
    ('paper', 20, 1, 2, '0x1.6230f3a7ef53fp-9', (0,), 20, '0x1.c1a02dec84c88p-8',
     (0, 2, 4, 12), 24),
    ('paper', 20, 2, 0, '0x1.588e5d52fd615p-9', (3,), 20, '0x1.14737c290f821p-8',
     (3, 5), 22),
    ('paper', 20, 2, 1, '0x1.020e324aef885p-8', (5,), 20, '0x1.3eb442b705b2ap-7',
     (0, 2, 5, 11, 14), 25),
    ('paper', 20, 2, 2, '0x1.fec9d42a2ea2ap-10', (5,), 20, '0x1.84cba685a4798p-8',
     (1, 5, 6, 9), 24),
    ('paper', 20, 3, 0, '0x1.588e5d52fd615p-9', (3,), 20, '0x1.14737c290f821p-8',
     (3, 5), 22),
    ('paper', 20, 3, 1, '0x1.14f716a252cc2p-9', (10,), 20, '0x1.7e20f4d4feeeep-9',
     (8, 10), 22),
    ('paper', 20, 3, 2, '0x1.66bc06736565fp-10', (7,), 20, '0x1.6dbdb8d7298f4p-9',
     (7, 10, 15), 23),
    ('paper', 50, 1, 0, '0x1.f4cb39ca23aefp-8', (2,), 50, '0x1.85cdc1af12b01p-5',
     (0, 1, 2, 5, 6, 7, 9, 12, 17, 18, 19, 21), 62),
    ('paper', 50, 1, 1, '0x1.e93423afa8e82p-10', (0,), 50, '0x1.820fd510a0dd2p-7',
     (0, 1, 4, 8, 9, 10, 21, 23, 25, 27, 28, 34, 37, 39, 41, 45, 46, 48, 49), 69),
    ('paper', 50, 1, 2, '0x1.b8b28bba8421bp-10', (36,), 50, '0x1.634ab2ce72b24p-6',
     (2, 7, 8, 9, 10, 12, 13, 20, 21, 22, 24, 25, 26, 27, 28, 31, 34, 35, 36, 37, 39,
      40, 41, 46, 47, 49),
     76),
    ('paper', 50, 2, 0, '0x1.d6f39ce71e0fep-9', (14,), 50, '0x1.246d69d9482a9p-6',
     (2, 5, 9, 14, 19, 21, 22, 34, 42), 59),
    ('paper', 50, 2, 1, '0x1.1855b8d0a205ap-10', (20,), 50, '0x1.b83c79a2f35b2p-8',
     (6, 7, 11, 12, 14, 19, 20, 30, 31, 33, 35, 42, 44), 63),
    ('paper', 50, 2, 2, '0x1.b8b28bba8421bp-10', (36,), 50, '0x1.e64f10467cca2p-8',
     (8, 25, 27, 31, 32, 36, 37, 44), 58),
    ('paper', 50, 3, 0, '0x1.2a8a9c1d064adp-9', (20,), 50, '0x1.7e64ebe166c3cp-9',
     (20, 40, 44), 53),
    ('paper', 50, 3, 1, '0x1.1855b8d0a205ap-10', (20,), 50, '0x1.1855b8d0a205ap-10',
     (20,), 51),
    ('paper', 50, 3, 2, '0x1.978a7a444d5b1p-10', (29,), 50, '0x1.978a7a444d5b1p-10',
     (29,), 51),
    # the rest of the rate-sweep channels: N in 5..50:5, M=1, trials 0-3
    ('paper', 5, 1, 3, '0x1.63f8581b256f6p-6', (4,), 5, '0x1.63f8581b256f6p-6',
     (4,), 6),
    ('paper', 10, 1, 0, '0x1.6116035fdb834p-9', (1,), 10, '0x1.5c354adb37300p-8',
     (0, 1), 12),
    ('paper', 10, 1, 1, '0x1.0d67f5d3bade7p-8', (7,), 10, '0x1.f66c7fe234c6fp-8',
     (0, 4, 5, 7), 14),
    ('paper', 10, 1, 2, '0x1.19fc72c645325p-7', (8,), 10, '0x1.36abcad9cdc3fp-6',
     (6, 8, 9), 13),
    ('paper', 10, 1, 3, '0x1.a284e02b7119ep-8', (1,), 10, '0x1.051b1ea895bb4p-7',
     (1, 3), 12),
    ('paper', 15, 1, 0, '0x1.9c0a337913b00p-9', (12,), 15, '0x1.b28bcd4049685p-8',
     (2, 5, 7, 8, 12), 20),
    ('paper', 15, 1, 1, '0x1.553ebc7347bbep-9', (10,), 15, '0x1.5222210c699a3p-7',
     (0, 7, 9, 10, 12, 13), 21),
    ('paper', 15, 1, 2, '0x1.be703c61287c0p-4', (10,), 15, '0x1.be703c61287c0p-4',
     (10,), 16),
    ('paper', 15, 1, 3, '0x1.e2dfb390b2d79p-10', (4,), 15, '0x1.e9359d6cba77ep-8',
     (0, 3, 4, 6, 10, 11, 12, 14), 23),
    ('paper', 20, 1, 3, '0x1.d6dc396a671cap-5', (13,), 20, '0x1.0d6d4ed7c6b5dp-3',
     (12, 13, 14), 23),
    ('paper', 25, 1, 0, '0x1.f3144a28ecc3cp-8', (10,), 25, '0x1.fd350cd09fdf2p-6',
     (7, 8, 9, 10, 11, 12, 14, 18, 21), 34),
    ('paper', 25, 1, 1, '0x1.c93d367c6099dp-10', (6,), 25, '0x1.65da1132e40bfp-7',
     (0, 2, 3, 6, 7, 8, 9, 18, 21, 22, 23), 36),
    ('paper', 25, 1, 2, '0x1.c24b087696905p-7', (18,), 25, '0x1.bb2645a64c466p-6',
     (10, 18, 19, 21), 29),
    ('paper', 25, 1, 3, '0x1.333e7cbccf2dcp-9', (2,), 25, '0x1.0a219dd65953ep-7',
     (0, 2, 8, 9, 10, 17, 18, 24), 33),
    ('paper', 30, 1, 0, '0x1.9ba73d27bd95bp-8', (6,), 30, '0x1.be64171c52509p-6',
     (0, 2, 6, 7, 9, 12, 15, 16, 17, 18, 19, 20, 24, 29), 44),
    ('paper', 30, 1, 1, '0x1.6c4fcb18f2e70p-4', (11,), 30, '0x1.2a8083d64bfb9p-3',
     (5, 8, 10, 11, 14, 15), 36),
    ('paper', 30, 1, 2, '0x1.c7f36e908685dp-9', (25,), 30, '0x1.cb89d8cfe0494p-7',
     (2, 6, 9, 10, 11, 16, 18, 21, 23, 25, 27), 41),
    ('paper', 30, 1, 3, '0x1.9f06db82537a8p-5', (10,), 30, '0x1.050a471c8c6bep-4',
     (6, 10), 32),
    ('paper', 35, 1, 0, '0x1.82ca3fc369366p-8', (5,), 35, '0x1.fb0c3ec070bafp-6',
     (1, 2, 4, 5, 7, 8, 11, 12, 13, 18, 25, 28), 47),
    ('paper', 35, 1, 1, '0x1.7b5ce5204e7b6p-9', (1,), 35, '0x1.4ce887d3692c2p-6',
     (1, 2, 3, 4, 5, 9, 10, 12, 13, 14, 19, 24, 30, 31), 49),
    ('paper', 35, 1, 2, '0x1.2abb50f69eb57p-4', (25,), 35, '0x1.38301cdf1ed27p-3',
     (21, 22, 25, 28, 29), 40),
    ('paper', 35, 1, 3, '0x1.90d947e7db7cbp-5', (27,), 35, '0x1.f5d67a5be44e6p-4',
     (26, 27, 29, 31), 39),
    ('paper', 40, 1, 0, '0x1.c70d34554c82cp-10', (24,), 40, '0x1.ca697db89b726p-7',
     (1, 2, 4, 15, 17, 18, 19, 23, 24, 31, 32, 34, 37, 38), 54),
    ('paper', 40, 1, 1, '0x1.5e29820145f40p-5', (5,), 40, '0x1.a5e91ef709366p-4',
     (2, 4, 5, 8, 11), 45),
    ('paper', 40, 1, 2, '0x1.a6c90145459eap-9', (14,), 40, '0x1.88808d2282c39p-6',
     (2, 4, 5, 6, 8, 10, 12, 13, 14, 15, 17, 19, 20, 21, 22, 24, 25, 27, 28, 29, 30, 31,
      39),
     63),
    ('paper', 40, 1, 3, '0x1.187a2d6ffd2e4p-8', (1,), 40, '0x1.cda94aa59f8a6p-7',
     (0, 1, 5, 7, 14, 15, 18, 24, 26, 30), 50),
    ('paper', 45, 1, 0, '0x1.e3e549748f7a6p-8', (8,), 45, '0x1.5ae9148572cc1p-5',
     (0, 3, 4, 5, 8, 10, 13, 14, 15, 18, 19, 20, 25, 26, 27, 28, 29, 34, 35, 39, 40),
     66),
    ('paper', 45, 1, 1, '0x1.2829acfc5465dp-6', (12,), 45, '0x1.5fd2e30bfad01p-4',
     (1, 2, 3, 9, 11, 12, 14, 17, 21, 25, 26, 27, 28, 29), 59),
    ('paper', 45, 1, 2, '0x1.1dbc5b67e620dp-6', (37,), 45, '0x1.e1c125b87d1f9p-5',
     (19, 24, 31, 32, 37, 38, 39, 42, 44), 54),
    ('paper', 45, 1, 3, '0x1.d2f4c851c169bp-8', (9,), 45, '0x1.d442d13527696p-6',
     (0, 3, 4, 9, 10, 14, 15), 52),
    ('paper', 50, 1, 3, '0x1.ad68722cc5f8cp-10', (39,), 50, '0x1.fcafc7992a398p-7',
     (0, 6, 7, 11, 15, 17, 19, 20, 21, 25, 26, 30, 31, 32, 39, 42, 43, 44, 49), 69),
    ('lattice', 5, 1, 0, '0x1.0000000000000p+3', (1,), 5, '0x1.4555555555555p+4',
     (1, 2, 4), 8),
    ('lattice', 5, 1, 1, '0x1.0000000000000p+3', (0,), 5, '0x1.2000000000000p+3',
     (0, 3), 7),
    ('lattice', 5, 2, 0, '0x1.0000000000000p+3', (4,), 5, '0x1.0000000000000p+3', (4,),
     6),
    ('lattice', 5, 2, 1, '0x1.4000000000000p+2', (1,), 5, '0x1.4000000000000p+2', (1,),
     6),
    ('lattice', 5, 3, 0, '0x1.4000000000000p+2', (1,), 5, '0x1.4000000000000p+2', (1,),
     6),
    ('lattice', 5, 3, 1, '0x1.4000000000000p+2', (0,), 5, '0x1.4000000000000p+2', (0,),
     6),
    ('lattice', 20, 1, 0, '0x1.0000000000000p+3', (0,), 20, '0x1.d000000000000p+4',
     (0, 1, 6, 7, 14, 15, 18, 19), 28),
    ('lattice', 20, 1, 1, '0x1.0000000000000p+3', (0,), 20, '0x1.5555555555555p+4',
     (0, 2, 5, 6, 11, 16), 26),
    ('lattice', 20, 2, 0, '0x1.4000000000000p+2', (0,), 20, '0x1.a800000000000p+3',
     (0, 2, 9, 14), 24),
    ('lattice', 20, 2, 1, '0x1.0000000000000p+3', (5,), 20, '0x1.1555555555555p+4',
     (3, 4, 5, 9, 15, 17), 26),
    ('lattice', 20, 3, 0, '0x1.4000000000000p+2', (0,), 20, '0x1.2000000000000p+3',
     (0, 5, 12, 13), 24),
    ('lattice', 20, 3, 1, '0x1.0000000000000p+3', (16,), 20, '0x1.0000000000000p+3',
     (16,), 21),
    ('lattice', 50, 1, 0, '0x1.0000000000000p+3', (10,), 50, '0x1.1440000000000p+6',
     (1, 5, 7, 8, 9, 10, 13, 19, 21, 22, 23, 30, 32, 43, 45, 49), 66),
    ('lattice', 50, 1, 1, '0x1.0000000000000p+3', (3,), 50, '0x1.0880000000000p+6',
     (2, 3, 8, 10, 11, 15, 17, 18, 28, 30, 31, 37, 41, 42, 46, 48), 66),
    ('lattice', 50, 2, 0, '0x1.0000000000000p+3', (28,), 50, '0x1.ea2e8ba2e8ba3p+4',
     (3, 6, 7, 16, 19, 26, 28, 30, 36, 47, 48), 61),
    ('lattice', 50, 2, 1, '0x1.0000000000000p+3', (28,), 50, '0x1.819999999999ap+4',
     (2, 3, 5, 13, 18, 19, 23, 26, 28, 36), 60),
    ('lattice', 50, 3, 0, '0x1.4000000000000p+2', (1,), 50, '0x1.a000000000000p+2',
     (1, 25), 52),
    ('lattice', 50, 3, 1, '0x1.0000000000000p+3', (10,), 50, '0x1.4000000000000p+4',
     (0, 10, 19, 46, 49), 55),
    ('repeated', 5, 1, 0, '0x1.e944a42478f24p+0', (0,), 5, '0x1.65f980e7cd94ep+1',
     (0, 2), 7),
    ('repeated', 5, 1, 1, '0x1.cf38a1a754f58p+1', (1,), 5, '0x1.26982bab09d98p+3',
     (0, 1, 2, 4), 9),
    ('repeated', 5, 2, 0, '0x1.38738d932e889p+1', (0,), 5, '0x1.38738d932e889p+1', (0,),
     6),
    ('repeated', 5, 2, 1, '0x1.107817fde78aap+2', (1,), 5, '0x1.98b423fcdb4fdp+3',
     (1, 2, 4), 8),
    ('repeated', 5, 3, 0, '0x1.6339f21ce9d4ep-3', (0,), 5, '0x1.6339f21ce9d4ep-3', (0,),
     6),
    ('repeated', 5, 3, 1, '0x1.39800de6e2e85p+0', (0,), 5, '0x1.50248b8b72067p+0',
     (0, 1), 7),
    ('repeated', 20, 1, 0, '0x1.525aa703c36c2p-1', (3,), 20, '0x1.101abc06c2685p+3',
     (1, 3, 4, 6, 7, 9, 10, 11, 12, 13, 16, 17, 18, 19), 34),
    ('repeated', 20, 1, 1, '0x1.2f7b49bcfdcfbp+2', (2,), 20, '0x1.7b5a1c2c3d43ap+4',
     (2, 3, 6, 9, 18), 25),
    ('repeated', 20, 2, 0, '0x1.cfefd9fa26d2ap+0', (0,), 20, '0x1.e477485f39ce0p+3',
     (0, 2, 3, 4, 5, 7, 10, 12, 13, 14, 17, 18, 19), 33),
    ('repeated', 20, 2, 1, '0x1.1b393147b5e19p+2', (6,), 20, '0x1.62077d99a359ep+4',
     (6, 7, 8, 16, 19), 25),
    ('repeated', 20, 3, 0, '0x1.6ebd0b1f66ac2p-1', (4,), 20, '0x1.ba534933a8a28p+2',
     (3, 4, 5, 6, 8, 9, 11, 12, 13, 14, 17, 18), 32),
    ('repeated', 20, 3, 1, '0x1.31b6abc86220cp+0', (0,), 20, '0x1.7e2456ba7aa8fp+3',
     (0, 1, 4, 6, 9, 10, 13, 15, 16, 19), 30),
    ('repeated', 50, 1, 0, '0x1.970e0acdd3e5dp+1', (0,), 50, '0x1.7d9d2a20f6a79p+5',
     (0, 9, 14, 17, 18, 21, 22, 24, 30, 31, 33, 34, 45, 47, 49), 65),
    ('repeated', 50, 1, 1, '0x1.eff8f6ca04766p+1', (3,), 50, '0x1.d0f9675d642efp+5',
     (3, 5, 7, 16, 18, 20, 24, 29, 33, 36, 37, 40, 41, 43, 49), 65),
    ('repeated', 50, 2, 0, '0x1.e03af06b09e0bp+0', (11,), 50, '0x1.682c34504768dp+4',
     (11, 14, 16, 19, 22, 23, 25, 28, 36, 41, 42, 45), 62),
    ('repeated', 50, 2, 1, '0x1.30cd83480ec09p+0', (2,), 50, '0x1.297a51c3c3048p+5',
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 19, 20, 23, 24, 25, 26,
      27, 28, 29, 31, 32, 33, 34, 36, 37, 38, 40, 41, 46, 47, 48),
     88),
    ('repeated', 50, 3, 0, '0x1.cc547290f8ef7p-2', (0,), 50, '0x1.af8f2b67e9609p+2',
     (0, 1, 7, 8, 11, 12, 21, 22, 27, 28, 29, 34, 38, 44, 46), 65),
    ('repeated', 50, 3, 1, '0x1.20c7b95c70a1ep-1', (15,), 50, '0x1.d5448d363706fp+2',
     (15, 19, 20, 25, 30, 32, 38, 42, 43, 45, 46, 47, 48), 63),
]


@pytest.mark.parametrize("kind", ["paper", "lattice", "repeated"])
def test_parity_with_recorded_fingerprints(kind):
    rows = [row for row in PARITY if row[0] == kind]
    assert rows
    for _, n_antennas, n_users, t, *expected in rows:
        gains = _parity_gains(kind, n_antennas, n_users, t)
        got = []
        for res in (best_singleton(gains), greedy_pgga_select(gains)):
            got += [res.metric.hex(), _indices(res), res.evaluations]
        assert got == expected, (kind, n_antennas, n_users, t)
