"""Phase-quantised trellis search over antenna activation patterns.

Stage ``tau`` of the trellis holds activations with exactly ``tau`` active
antennas. Each activation is bucketed by the quantised phases of its per-user
accumulated signals: the per-user bin indices, read as base-``n_bins`` digits
with user 0 most significant, give one integer bucket in
``[0, n_bins ** n_users)``. Only the best-metric activation per bucket
survives a stage, and a stage is held as a :class:`Stage` of arrays with one
row per surviving bucket. What every stage of one search shares (the gain
columns, the bucket digit weights) is computed once, in the :class:`Walk`
that ``stage_expand`` takes. Candidates are generated by switching on one
additional antenna of a survivor, with the accumulated signal updated
incrementally; a candidate is kept only if it strictly improves on the
survivor it extends, so metrics increase strictly along every path and the
search stops at the first stage with no accepted candidate. The answer is the
best survivor across all explored stages.

Numerical note: from stage 3 on, accepted survivors have their accumulated
signal and metric rebuilt in canonical (ascending antenna index) order at
install time, by ``metric.mask_signals``, so a stored metric is bit-identical
to ``maxmin_metric`` of its mask and cross-solver comparisons against the
exhaustive oracle are drift-free; the incremental values are used only to
screen candidates. At stages 1 and 2 they are canonical already: the root
signal is +0.0, numpy's add reduction starts from +0.0, and a sum of one or
two terms is the same in either order. A certified walk (``Walk``) keeps the
screened buckets of a stage that screened no entry in the edge band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, as_gains
from .metric import ActivationVector, SolverResult, mask_signals, worst_user_metric

# Cap on the (antennas x buckets x users) candidate block one stage may hold:
# 2^24 complex entries is 256 MiB.
MAX_BLOCK_ENTRIES = 2**24

# Half-width of the band around each bin edge that ``bucket_codes`` hands to
# the scalar quantizer, as a fraction of a full turn. It also sets how much
# rounding a walk's certificate (``Walk``) allows.
EDGE_TOL = 1e-6


def check_block_size(n_antennas: int, n_bins: int, n_users: int) -> None:
    """Raise ``ValueError`` when the candidate block one stage screens
    (N x Q^M x M entries) would exceed ``MAX_BLOCK_ENTRIES``.

    At Q >= 2 and M >= 24 the block holds at least 24 * 2^24 entries, so it
    is refused without computing Q^M, whose cost grows with M."""
    huge = n_bins >= 2 and n_users >= 24
    if huge or n_antennas * n_bins**n_users * n_users > MAX_BLOCK_ENTRIES:
        raise ValueError(
            f"trellis candidate block N*Q^M*M for N={n_antennas}, Q={n_bins}, "
            f"M={n_users} exceeds the limit of {MAX_BLOCK_ENTRIES} entries"
        )


def quantize_phase(phi: float, n_bins: int) -> int:
    """Map an angle to one of ``n_bins`` uniform bins over [-pi, pi).

    The interval is half-open on the left of each bin; +pi wraps to -pi and
    therefore lands in bin 0.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    frac = ((phi + math.pi) % math.tau) / math.tau
    k = int(frac * n_bins)
    return min(k, n_bins - 1)  # guard against frac*n_bins rounding up to n_bins


def digit_weights(n_bins: int, n_users: int) -> np.ndarray:
    """Weight of each user's bin index in a bucket code: ``n_bins ** (M - 1)``
    for user 0 (the most significant digit) down to 1 for the last user."""
    return n_bins ** np.arange(n_users - 1, -1, -1, dtype=np.int64)


def bucket_codes(signals: np.ndarray, n_bins: int) -> np.ndarray:
    """Bucket of each row of an (S, M) signal array; a zero signal counts as
    phase 0. Digits come from ``np.arctan2`` and the position
    ``phi * Q / tau + Q / 2``, which is ``quantize_phase``'s formula up to
    rounding; an entry within ``EDGE_TOL * n_bins`` bins of a bin edge (the
    wrap at 0 and Q included) is re-binned by the scalar
    ``quantize_phase(math.atan2(...))``, so the result equals the scalar path
    even where numpy and libm differ in the last bit."""
    return _binned(signals, n_bins, digit_weights(n_bins, signals.shape[1]))[0]


def _binned(signals: np.ndarray, n_bins: int, weights: np.ndarray) -> "tuple[np.ndarray, bool]":
    """``bucket_codes`` with the ``digit_weights`` a trellis walk computes
    once, and whether any entry fell in the edge band."""
    pos = np.arctan2(signals.imag, signals.real)
    pos *= n_bins / math.tau
    pos += n_bins / 2
    near = np.rint(pos)
    np.subtract(pos, near, out=near)
    np.abs(near, out=near)
    tol = EDGE_TOL * n_bins
    edge = None
    if len(near) and not np.minimum.reduce(near, axis=None) > tol:  # or NaN; none if empty
        # written back by (row, column): a reshape of a strided input is a
        # copy; binned before the cast, so a NaN raises in quantize_phase
        rows, cols = (~(near > tol)).nonzero()
        quant = quantize_phase  # looked up per call, so a rebinding takes effect
        edge = [quant(math.atan2(z.imag, z.real), n_bins) for z in signals[rows, cols].tolist()]
    digits = pos.astype(np.int64)
    if edge is not None:
        digits[rows, cols] = edge
    return digits.dot(weights), edge is not None


@dataclass(eq=False, slots=True)
class Stage:
    """Survivors of one trellis stage, one row per bucket, ascending bucket."""

    masks: np.ndarray  # (S, N) bool, active antennas
    signals: np.ndarray  # (S, M) complex, canonical accumulated signal
    metrics: np.ndarray  # (S,) float, bit-identical to maxmin_metric
    buckets: np.ndarray  # (S,) int, bucket code of the canonical signal
    parents: np.ndarray  # (S,) int, row in the previous stage (-1 at the root)
    active: int  # the stage index: active antennas in every row

    def __len__(self) -> int:
        return len(self.metrics)


class Walk:
    """What every stage of one trellis walk shares, computed once per walk:
    the validated (M, N) gains of ``as_gains``, their columns shaped to
    broadcast against a stage's signals, the bucket digit weights, and
    ``certified``, whether no summation order can move a screened bucket.

    The certificate: a signal the strict gate admits at stage t descends from
    a stage-1 survivor, so each user's |z| exceeds sqrt(t) * w, where w, the
    smallest positive single-antenna worst-user modulus, is sqrt(p_min) up to
    rounding (p_min the smallest positive such power). Two
    summation orders of its t <= N columns differ by at most
    2 sqrt(2) gamma t g_max (gamma = (N-1)u / (1 - (N-1)u), u = 2^-53, g_max
    the largest |gain|), which turns its phase by at most ratio / 4 turns,
    ratio = 2 sqrt(2) gamma sqrt(N) g_max / w. The walk is certified when
    that is under half of ``EDGE_TOL``, the edge band's half-width, so a
    screened entry outside the band keeps its bin in canonical order."""

    __slots__ = ("gains", "n_bins", "columns", "weights", "certified")

    def __init__(self, gains: np.ndarray, n_bins: int) -> None:
        self.gains = gains
        self.n_bins = n_bins
        self.columns = gains.T[:, None, :]  # (antenna, 1, user)
        self.weights = digit_weights(n_bins, gains.shape[0])
        n_antennas = gains.shape[1]
        modulus = np.abs(gains)
        # w; filter(None, ...) drops the zeros. No w certifies nothing.
        w = min(filter(None, np.minimum.reduce(modulus).tolist()), default=0.0)
        nu = (n_antennas - 1) * math.ulp(1.0) / 2  # (N - 1) u
        g_max = float(np.maximum.reduce(modulus, axis=None))
        ratio_w = 2 * math.sqrt(2 * n_antennas) * nu / (1 - nu) * g_max  # ratio * w
        self.certified = ratio_w < 2 * EDGE_TOL * w


@dataclass(frozen=True)
class VssTrace:
    """Per-run diagnostics: convergence curve, termination, work counters."""

    running_best: tuple[float, ...]
    metric_evaluations: int
    survivors_per_stage: tuple[int, ...]

    @property
    def termination_stage(self) -> int:
        """Stages that accepted at least one survivor."""
        return len(self.running_best)


def _best_per_bucket(buckets: np.ndarray, metrics: np.ndarray) -> np.ndarray:
    """Index of the highest-metric row per bucket, ascending bucket; ties go to
    the earliest row."""
    order = np.lexsort((-metrics, buckets))
    ordered = buckets[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order[first]


def root_stage(walk: Walk) -> Stage:
    """Stage 0 of ``walk``: the empty activation as a pure phase reference."""
    n_users, n_antennas = walk.gains.shape
    # a zero signal counts as phase 0 for every user
    code = quantize_phase(0.0, walk.n_bins) * int(walk.weights.sum())
    return Stage(
        masks=np.zeros((1, n_antennas), dtype=bool),
        signals=np.zeros((1, n_users), dtype=complex),
        metrics=np.zeros(1),
        buckets=np.array([code], dtype=np.int64),
        parents=np.array([-1]),
        active=0,
    )


def stage_expand(stage: Stage, walk: Walk) -> Stage:
    """Expand one stage into the next: screen every (antenna, parent row)
    extension at once, keep the best per bucket, and from stage 3 on rebuild
    the winners in canonical order.

    ``walk`` holds the gains, which are not checked again here, because
    ``vss_select`` calls this once per stage."""
    if not len(stage.metrics):
        raise ValueError("stage must be non-empty")
    active = stage.active + 1
    z = stage.signals + walk.columns  # (antenna, row, user)
    cand = worst_user_metric(z, active)
    # strict improvement gate on inactive antennas (True > False is the only
    # true order); nonzero yields (antenna, parent row) order, which decides
    # ties within a bucket
    antenna, row = ((cand > stage.metrics) > stage.masks.T).nonzero()
    if not len(row):  # the terminal stage: nothing to bin or rebuild
        return Stage(
            stage.masks[:0], stage.signals[:0], stage.metrics[:0], stage.buckets[:0], row,
            active,
        )
    signals, metrics = z[antenna, row], cand[antenna, row]
    screened, banded = _binned(signals, walk.n_bins, walk.weights)
    win = _best_per_bucket(screened, metrics)
    antenna, row, screened = antenna[win], row[win], screened[win]

    masks = stage.masks[row]
    masks[np.arange(len(row)), antenna] = True
    if active <= 2:  # 0 + g, and g_a + g_b in either order: canonical bit for bit
        return Stage(masks, signals[win], metrics[win], screened, row, active)
    signals = mask_signals(walk.gains, masks, active)
    metrics = worst_user_metric(signals, active)
    keep = metrics > stage.metrics[row]  # re-check the gate on the canonical value
    if not np.logical_and.reduce(keep):
        masks, signals, metrics = masks[keep], signals[keep], metrics[keep]
        row, screened = row[keep], screened[keep]
    if walk.certified and not banded:  # the rebuild moved no entry out of its bin
        return Stage(masks, signals, metrics, screened, row, active)
    buckets = bucket_codes(signals, walk.n_bins)
    win = _best_per_bucket(buckets, metrics)
    return Stage(masks[win], signals[win], metrics[win], buckets[win], row[win], active)


def vss_select(B: "ChannelMatrix | np.ndarray", n_bins: int) -> SolverResult:
    """Run the trellis search with ``n_bins`` phase bins per user and return
    the best survivor across all stages.

    Raises ``ValueError`` before the first stage when ``check_block_size``
    refuses the size.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    gains = as_gains(B)
    n_users, n_antennas = gains.shape
    check_block_size(n_antennas, n_bins, n_users)

    walk = Walk(gains, n_bins)
    stage = root_stage(walk)
    evaluations = 0
    running_best: list[float] = []
    survivors_per_stage: list[int] = []
    best_metric, best_mask = -math.inf, None
    for t in range(1, n_antennas + 1):
        # every row of stage t-1 has t-1 active antennas
        evaluations += (n_antennas - t + 1) * len(stage.metrics)
        stage = stage_expand(stage, walk)
        metrics = stage.metrics
        if not len(metrics):
            break
        row = metrics.argmax()
        if metrics[row] > best_metric:
            best_metric, best_mask = float(metrics[row]), stage.masks[row]
        running_best.append(best_metric)
        survivors_per_stage.append(len(metrics))
    if best_mask is None:
        raise ValueError(
            "no single-antenna activation has positive worst-user power, so "
            "the strict improvement gate admits no first stage"
        )
    trace = VssTrace(tuple(running_best), evaluations, tuple(survivors_per_stage))
    activation = ActivationVector(tuple(best_mask.tolist()))
    return SolverResult(activation, best_metric, evaluations, trace)
