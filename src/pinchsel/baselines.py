"""Reference solvers: exhaustive subset search and a greedy baseline.

``brute_force_select`` is the exactness oracle. It splits the array into the
low ``_LOW_BITS`` antennas and the rest and tabulates the subset sums of each
part once. The low table is held in popcount order, so the active count is
constant within each of its popcount groups. A first pass scores
``_SCREEN_ROWS`` high subsets at a time against the whole low table as one
(rows, 2^_LOW_BITS) block, so every one of the 2^N - 1 non-empty masks is
screened without a per-subset Python step and without an array of 2^N
entries. Each user's block is one matrix product: the low table holds the
rows [Re L, Im L, |L|^2, 1] and the high table [2 Re H, 2 Im H, 1, |H|^2],
whose product is |L + H|^2. It takes each group's maximum and divides only
those by their counts: dividing by a positive count is monotone under
rounding, so each row's maximum is exactly that of its divided entries. The
near-maximal floor is the best screening score less twice ``_screen_bound``,
a bound on how far any mask's screening score lies from its canonical score,
so every mask tied at the canonical optimum reaches it. A second pass
recomputes only the rows that reach the floor, maps their entries back
through the popcount order and rescores their masks one row at a time,
grouped by active count, with the shared kernel ``metric.worst_user_metric``
on the canonical gather-sum ``metric.mask_signals``, ``_RESCORE_ROWS`` masks
at once. The screening sums never become the answer and no more than one row
of candidates is held: the reported optimum is bit-identical to
``maxmin_metric`` and directly comparable with the trellis solver's output. A
user whose gains are all zero makes every mask score 0, and the tie key alone
picks the answer without a search. It refuses arrays larger than
``BRUTE_FORCE_CAP`` (24) antennas before any work, with a message that states
the subset count and the working-memory bound, and so too a user count whose
working memory would exceed 256 MiB. The tests validate it against a naive
rescorer that scores every subset from scratch.

``best_singleton`` scores every column at once with the shared kernel
``metric.worst_user_metric`` and takes the first maximum.

``greedy_pgga_select`` reconstructs a projection-guided forward-selection
baseline: grow the active set from the best singleton, each round adding the
antenna whose gain projects best onto the worst user's current signal
direction, stopping at the first non-improving step. It follows a single
refinement trajectory by design. The active set is a boolean mask; each round
scores every antenna's projection in one array expression and the one
candidate with the scalar reference ``metric.metric_from_accumulated`` on its
canonical column sum, so stored metrics are bit-identical to ``maxmin_metric``.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelMatrix, as_gains
from .metric import (
    ActivationVector,
    SolverResult,
    mask_signals,
    metric_from_accumulated,
    worst_user_metric,
)
from .vss import MAX_BLOCK_ENTRIES

BRUTE_FORCE_CAP = 24

# Antennas in the low split table; one screening row covers 2^_LOW_BITS masks.
_LOW_BITS = 12

# Shortlisted masks gathered at once when rescoring: keeps the (M, rows,
# active) gather of a many-way tie well inside the working-memory bound.
_RESCORE_ROWS = 64

# High subsets screened per block of (rows, 2^_LOW_BITS) buffers: enough to
# share each numpy call's overhead, few enough for the working-memory bound.
_SCREEN_ROWS = 4

# numpy's fixed cost per search (array headers, small temporaries), which
# outweighs the tables below N=7: tracemalloc peaks of 7-13 KB at N <= 6,
# M <= 3.
_FIXED_BYTES = 16 * 2**10


def _working_bytes(n_antennas: int, n_users: int) -> int:
    """Upper bound on the split tables, row buffers and one row of
    shortlisted masks of one search, at every N."""
    k = min(n_antennas, _LOW_BITS)
    return _FIXED_BYTES + 64 * (n_users + 1) * ((1 << k) + (1 << (n_antennas - k)))


def check_brute_force_size(n_antennas: int, n_users: int) -> None:
    """Raise ``ValueError`` when exhaustive search over ``n_antennas`` would
    exceed ``BRUTE_FORCE_CAP``, or its working memory for ``n_users`` the
    trellis's block limit (``MAX_BLOCK_ENTRIES`` complex entries, 256 MiB);
    the message states the bounded work."""
    if n_antennas > BRUTE_FORCE_CAP:
        mib = _working_bytes(BRUTE_FORCE_CAP, n_users) / 2**20
        raise ValueError(
            f"refusing exhaustive search over N={n_antennas} antennas: the cap is "
            f"{BRUTE_FORCE_CAP} antennas (2^{BRUTE_FORCE_CAP} = "
            f"{1 << BRUTE_FORCE_CAP:,} subsets, at most {mib:.2f} MiB of working "
            f"memory for M={n_users})"
        )
    bound = 16 * MAX_BLOCK_ENTRIES
    if _working_bytes(n_antennas, n_users) > bound:
        raise ValueError(
            f"refusing exhaustive search for M={n_users} users at N={n_antennas}: "
            f"its working memory exceeds the bound of {bound // 2**20} MiB"
        )


def _subset_table(columns: np.ndarray) -> np.ndarray:
    """Sum of every subset of the columns; subset s (bit j = column j) is
    column s of the result."""
    rows, n = columns.shape
    table = np.zeros((rows, 1 << n), dtype=columns.dtype)
    for j in range(n):
        np.add(table[:, : 1 << j], columns[:, j : j + 1], out=table[:, 1 << j : 2 << j])
    return table


def _screen_tables(
    gains: np.ndarray, k: int, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The split tables of the screen, from the subset sums L of the low k
    antennas (in ``order``) and H of the rest: low[m] is (4, 2^k) with rows
    [Re L, Im L, |L|^2, 1] and high[m] is (2^(N-k), 4) with rows
    [2 Re H, 2 Im H, 1, |H|^2], so that high[m, h] @ low[m] is user m's
    |L + H|^2 = 2 Re H Re L + 2 Im H Im L + |L|^2 + |H|^2 for every low
    subset. The parts of a complex subset sum are the subset sums of the
    parts, bit for bit, so the low sums are built as two real tables."""
    head = gains[:, :k]
    re, im = (np.take(_subset_table(part), order, axis=1) for part in (head.real, head.imag))
    low = np.stack([re, im, re * re + im * im, np.ones_like(re)], axis=1)
    high = _subset_table(gains[:, k:])
    re, im = high.real, high.imag
    high = np.stack([2.0 * re, 2.0 * im, np.ones_like(re), re * re + im * im], axis=-1)
    return low, high


def _screen_bound(gains: np.ndarray) -> float:
    """Delta = (4N + 8) u K + 2^-1070, with u = 2^-53 and K = max_m
    (sum_n |Re g_mn|)^2 + (sum_n |Im g_mn|)^2: a bound, for every non-empty
    mask, on |s - t| between its screening score s (from a block of rows or
    from its row alone) and its canonical score t, ``worst_user_metric`` of
    ``mask_signals``, which is ``maxmin_metric``. If t* is the optimum, the
    best screening score is at most t* + Delta and every mask scoring t*
    screens at t* - Delta or more, so the floor best - 2 Delta keeps them all
    and the tie key picks the mask exhaustive canonical scoring would.

    Fix a user and a mask of c antennas. Let x be the exact real part of its
    signal and a the sum of |Re g| over the mask; y and b likewise for the
    imaginary part, so a^2 + b^2 <= K. With gamma_n = n u / (1 - n u), to
    first order in N u (the rest adds under u K for N below 2^20):
    1. ``_subset_table`` adds a subset's columns one at a time to 0, so the low
       and high sums lie within gamma_{k-1} and gamma_{N-k-1} times their
       column sums of exact, and the screen's x_s = Re L + Re H within
       gamma_{N-1} a of x. The canonical gather adds c <= N terms in some
       order, so its x_c lies within gamma_{N-1} a of x too.
    2. So |x_s^2 + y_s^2 - x_c^2 - y_c^2| <= 4 gamma_{N-1} K = 4 (N - 1) u K.
    3. P = high[m, h] @ low[m] is a four-term inner product. In any summation
       order, fused or not, in a block of rows or one row alone, it lies within
       gamma_4 (1 + gamma_2) K of the exact sum of its terms, which lies within
       gamma_2 K of x_s^2 + y_s^2: doubling is exact, and only |L|^2 and |H|^2
       are rounded, twice each. That is 6 u K.
    4. The canonical power fl(fl(x_c^2) + fl(y_c^2)) lies within gamma_2 K,
       2 u K, of x_c^2 + y_c^2. So each user's two powers, and the worst
       users', differ by at most (4N + 4) u K; dividing by c >= 1 adds 2 u K.
    5. Below the normal range a product or quotient may err by 2^-1075 more,
       and a sum or difference is exact. A pair of scores takes ten such steps
       (four table squares, two inner-product terms, two canonical squares, two
       divisions) and Delta one: under 2^-1071.
    6. Rounding fl(best - 2 Delta) raises the floor by at most u K. So Delta
       needs (4N + 6.5) u K + 2^-1071, and keeps 1.5 u K and 2^-1071 for the
       terms dropped above.
    """
    re, im = np.add.reduce(np.abs(gains.real), axis=1), np.add.reduce(np.abs(gains.imag), axis=1)
    return (4 * gains.shape[1] + 8) * 2.0**-53 * float(np.max(re * re + im * im)) + 2.0**-1070


def brute_force_select(B: "ChannelMatrix | np.ndarray") -> SolverResult:
    """Enumerate every non-empty activation and return the max-min optimum."""
    gains = as_gains(B)
    n_users, n_antennas = gains.shape
    check_brute_force_size(n_antennas, n_users)
    evaluations = (1 << n_antennas) - 1
    if not gains.any(axis=1).all():
        # every mask scores exactly 0, so the tie key alone decides: one
        # active antenna, and of those the smallest mask, the last antenna
        mask = (0,) * (n_antennas - 1) + (1,)
        return SolverResult(ActivationVector(mask), 0.0, evaluations)

    # mask = low | high << k. The low table is held in popcount order, so the
    # active count is constant within each of its k + 1 groups, which begin
    # at ``starts``; ``order`` maps a position back to its low subset.
    k = min(n_antennas, _LOW_BITS)
    low_count = _subset_table(np.ones((1, k), dtype=np.uint8))[0]
    order = np.argsort(low_count, kind="stable")
    low_count = low_count[order]
    starts = np.searchsorted(low_count, np.arange(k + 1))
    low, high = _screen_tables(gains, k, order)
    n_high = high.shape[1]
    # counts[h, c]: the active count of high row h with low popcount c (at
    # most BRUTE_FORCE_CAP, so uint8 holds it)
    high_count = _subset_table(np.ones((1, n_antennas - k), dtype=np.uint8))[0]
    counts = high_count[:, None] + np.arange(k + 1, dtype=np.uint8)
    counts[0, 0] = 1  # the empty mask, which scores -inf
    shape = (min(_SCREEN_ROWS, n_high), 1 << k)
    worst = np.empty(shape)
    power = np.empty(shape) if n_users > 1 else None

    def screen(h0: int, h1: int) -> np.ndarray:
        """Worst-user power of high rows h0 .. h1 - 1 with every low subset,
        one matrix product per user. User 0's power is written straight into
        the result: no power is NaN, so that equals its minimum with +inf,
        and one user needs no second buffer."""
        w = worst[: h1 - h0]
        for m in range(n_users):
            p = power[: h1 - h0] if m else w
            np.matmul(high[m, h0:h1], low[m], out=p)
            if m:
                np.minimum(w, p, out=w)
        if h0 == 0:  # the empty mask: never a candidate
            w[0, 0] = -math.inf
        return w

    # first pass, a block of rows at a time: each popcount group's maximum
    # over its one count; the division is monotone, so row maxima are exact
    row_max = np.empty(n_high)
    for h0 in range(0, n_high, shape[0]):
        h1 = min(h0 + shape[0], n_high)
        group_max = np.maximum.reduceat(screen(h0, h1), starts, axis=1)
        np.divide(group_max, counts[h0:h1], out=group_max)
        np.maximum.reduce(group_max, axis=1, out=row_max[h0:h1])
    floor = row_max.max() - 2.0 * _screen_bound(gains)

    # rescore the near-maximal masks row by row with the shared kernel, one
    # popcount group at a time; exact ties go to fewer antennas, then to the
    # lexicographically smallest mask sequence
    low_bits, high_bits = np.arange(k), np.arange(n_antennas - k)
    keys = []
    for h in np.flatnonzero(row_max >= floor).tolist():
        scores = screen(h, h + 1)[0]
        scores /= counts[h, low_count]
        lows = order[np.flatnonzero(scores >= floor)]
        block = np.empty((len(lows), n_antennas), dtype=bool)
        block[:, :k] = (lows[:, None] >> low_bits) & 1
        block[:, k:] = (h >> high_bits) & 1
        actives = block.sum(axis=1)
        for c in np.flatnonzero(np.bincount(actives)).tolist():
            group = block[actives == c]
            chunks = [
                worst_user_metric(mask_signals(gains, group[i : i + _RESCORE_ROWS], c), c)
                for i in range(0, len(group), _RESCORE_ROWS)
            ]
            metrics = np.concatenate(chunks)
            metric = float(metrics.max())
            tied = group[metrics == metric]
            first = np.lexsort(tied.T[::-1])[0]  # column 0 is the primary key
            keys.append((-metric, c, tuple(tied[first].tolist())))
    neg_metric, _, mask = min(keys)
    return SolverResult(ActivationVector(mask), -neg_metric, evaluations)


def best_singleton(B: "ChannelMatrix | np.ndarray") -> SolverResult:
    """Best single-antenna activation (lower-bound reference); ties go to the
    lowest antenna index."""
    gains = as_gains(B)
    n_antennas = gains.shape[1]
    metrics = worst_user_metric(gains.T, 1)
    best = int(metrics.argmax())
    mask = tuple(int(n == best) for n in range(n_antennas))
    return SolverResult(ActivationVector(mask), float(metrics[best]), n_antennas)


def greedy_pgga_select(B: "ChannelMatrix | np.ndarray") -> SolverResult:
    """Projection-guided greedy activation (reconstructed baseline).

    Start from the best singleton; each round, among the inactive antennas,
    pick the one maximising the worst user's projection
    Re(conj(Z_m / |Z_m|) * B_{m,n}) (ties: lowest index) and keep it only if
    the max-min metric strictly improves. Deterministic, single trajectory.
    """
    gains = as_gains(B)
    n_antennas = gains.shape[1]

    metrics = worst_user_metric(gains.T, 1)  # best_singleton's start
    first = metrics.argmax()
    mask = np.zeros(n_antennas, dtype=bool)
    mask[first] = True
    metric, evaluations = float(metrics[first]), n_antennas
    z = np.add.reduce(gains[:, mask], axis=1)
    ones = np.ones_like(z)

    for count in range(2, n_antennas + 1):
        mag = np.abs(z)
        # a zero signal has no direction; it takes phase 0 (a fresh copy each
        # round: a reused buffer would keep the last round's direction)
        directions = np.divide(z, mag, out=ones.copy(), where=mag > 0.0)
        scores = np.minimum.reduce((np.conj(directions)[:, None] * gains).real, axis=0)
        scores[mask] = -math.inf
        best = scores.argmax()
        mask[best] = True
        candidate = np.add.reduce(gains[:, mask], axis=1)
        candidate_metric = metric_from_accumulated(candidate.tolist(), count)
        evaluations += 1
        if candidate_metric <= metric:
            mask[best] = False
            break
        metric = candidate_metric
        z = candidate

    return SolverResult(ActivationVector(tuple(mask.tolist())), metric, evaluations)
