"""Reference solvers: exhaustive subset search and a greedy baseline.

``brute_force_select`` is the exactness oracle. It walks all non-empty
activation masks in Gray-code order so each step updates the accumulated
signal with a single complex add or subtract, keeps a shortlist of
near-maximal masks, and rescores the shortlist in canonical order at the end;
the reported optimum is therefore immune to drift accumulated along the walk
and directly comparable (bit-for-bit) with the trellis solver's output. It
refuses arrays larger than ``BRUTE_FORCE_CAP`` antennas. The tests validate
the walk against a naive rescorer that scores every subset from scratch.

``best_singleton`` scores every column at once with the shared kernel
``metric.worst_user_metric`` and takes the first maximum.

``greedy_pgga_select`` reconstructs a projection-guided forward-selection
baseline: grow the active set from the best singleton, each round adding the
antenna whose gain projects best onto the worst user's current signal
direction, stopping at the first non-improving step. It follows a single
refinement trajectory by design. The active set is a boolean mask; each round
scores every antenna's projection in one array expression and the one
candidate with the kernel on its canonical column sum, so stored metrics are
bit-identical to ``maxmin_metric``.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelMatrix, as_gains
from .metric import ActivationVector, SolverResult, maxmin_metric, worst_user_metric

BRUTE_FORCE_CAP = 22

# Relative slack used to shortlist near-maximal masks during the Gray walk;
# generously wider than any drift the incremental updates can accumulate.
_SHORTLIST_RTOL = 1e-9


def _mask_to_activation(mask: int, n_antennas: int) -> ActivationVector:
    return ActivationVector(tuple((mask >> i) & 1 for i in range(n_antennas)))


def _tie_key(metric: float, activation: ActivationVector) -> tuple:
    # maximise metric; break ties by fewer active antennas, then by the
    # lexicographically smallest mask sequence
    return (-metric, activation.active_count, activation.mask)


def brute_force_select(B: "ChannelMatrix | np.ndarray") -> SolverResult:
    """Enumerate every non-empty activation and return the max-min optimum."""
    gains = as_gains(B)
    n_users, n_antennas = gains.shape
    if n_antennas > BRUTE_FORCE_CAP:
        raise ValueError(
            f"refusing exhaustive search over {n_antennas} antennas "
            f"(cap is {BRUTE_FORCE_CAP}): 2^N subsets"
        )

    cols = [tuple(gains[:, j].tolist()) for j in range(n_antennas)]
    z = [0j] * n_users
    gray = 0
    count = 0
    best = -math.inf
    shortlist: list[tuple[int, float]] = []  # (mask, incremental metric)
    for k in range(1, 1 << n_antennas):
        flip = (k & -k).bit_length() - 1
        bit = 1 << flip
        gray ^= bit
        col = cols[flip]
        if gray & bit:
            count += 1
            for m in range(n_users):
                z[m] += col[m]
        else:
            count -= 1
            for m in range(n_users):
                z[m] -= col[m]
        worst = math.inf
        for zm in z:
            p = zm.real * zm.real + zm.imag * zm.imag
            if p < worst:
                worst = p
        metric = worst / count
        if metric > best:
            best = metric
            floor = best * (1.0 - _SHORTLIST_RTOL)
            shortlist = [(s, sm) for s, sm in shortlist if sm >= floor]
            shortlist.append((gray, metric))
        elif metric >= best * (1.0 - _SHORTLIST_RTOL):
            shortlist.append((gray, metric))

    # rescore the near-maximal masks in canonical order; exact ties resolved
    # by the deterministic key
    floor = best * (1.0 - _SHORTLIST_RTOL)
    candidates = []
    for mask, inc_metric in shortlist:
        if inc_metric < floor:
            continue
        activation = _mask_to_activation(mask, n_antennas)
        candidates.append((maxmin_metric(gains, activation), activation))
    metric, activation = min(candidates, key=lambda c: _tie_key(c[0], c[1]))
    return SolverResult(activation, metric, (1 << n_antennas) - 1)


def best_singleton(B: "ChannelMatrix | np.ndarray") -> SolverResult:
    """Best single-antenna activation (lower-bound reference); ties go to the
    lowest antenna index."""
    gains = as_gains(B)
    n_antennas = gains.shape[1]
    metrics = worst_user_metric(gains.T, 1)
    best = int(np.argmax(metrics))
    return SolverResult(
        ActivationVector.singleton(n_antennas, best), float(metrics[best]), n_antennas
    )


def greedy_pgga_select(B: "ChannelMatrix | np.ndarray") -> SolverResult:
    """Projection-guided greedy activation (reconstructed baseline).

    Start from the best singleton; each round, among the inactive antennas,
    pick the one maximising the worst user's projection
    Re(conj(Z_m / |Z_m|) * B_{m,n}) (ties: lowest index) and keep it only if
    the max-min metric strictly improves. Deterministic, single trajectory.
    """
    gains = as_gains(B)
    n_antennas = gains.shape[1]

    start = best_singleton(gains)
    mask = np.array(start.activation.mask, dtype=bool)
    metric = start.metric
    evaluations = start.evaluations
    z = gains[:, mask].sum(axis=1)

    for count in range(2, n_antennas + 1):
        mag = np.abs(z)
        safe = np.where(mag > 0.0, mag, 1.0)
        directions = np.where(mag > 0.0, z / safe, 1.0 + 0j)
        scores = (np.conj(directions)[:, None] * gains).real.min(axis=0)
        scores[mask] = -math.inf
        best = np.argmax(scores)
        mask[best] = True
        candidate = gains[:, mask].sum(axis=1)
        candidate_metric = float(worst_user_metric(candidate, count))
        evaluations += 1
        if candidate_metric <= metric:
            mask[best] = False
            break
        metric = candidate_metric
        z = candidate

    return SolverResult(ActivationVector(tuple(mask.tolist())), metric, evaluations)
