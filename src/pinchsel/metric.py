"""The answer record and the worst-user selection objective.

The solvers all maximise the scale-free quantity

    min over users of |sum of active gains|^2 / (number active),

which orders activations identically to the worst-user rate: transmit power,
path-loss scale and noise enter only as a positive multiplier inside
log2(1 + x). Rates are attached at reporting time via :func:`rate_from_metric`.

Solvers work on boolean masks. :func:`mask_signals` is the one canonical
gather-sum of a block of masks, and :func:`worst_user_metric` the array kernel
that scores it; :func:`maxmin_metric`, which takes one 0/1 mask, is the scalar
reference both are bit-identical to. A solver builds an
:class:`ActivationVector` only for the :class:`SolverResult` it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import ChannelMatrix, as_gains
from .config import SystemConfig, settings_text

if TYPE_CHECKING:
    from .vss import VssTrace


class InvariantError(RuntimeError):
    """A solver result broke a guaranteed ordering, bound or consistency check."""


@dataclass(frozen=True)
class ActivationVector:
    """The on/off mask of a solver's answer, as ints, with its support size."""

    mask: tuple[int, ...]
    active_count: int = field(init=False)

    def __post_init__(self) -> None:
        mask = tuple(map(int, self.mask))
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "active_count", sum(mask))


@dataclass(frozen=True)
class SolverResult:
    """One solver's answer on one channel; only the trellis sets ``trace``."""

    activation: ActivationVector
    metric: float
    evaluations: int
    trace: "VssTrace | None" = None


def metric_from_accumulated(accumulated: Sequence[complex], active_count: int) -> float:
    """Worst-user |Z|^2 / count from an already-accumulated signal vector."""
    worst = min(z.real * z.real + z.imag * z.imag for z in accumulated)
    return worst / active_count


def worst_user_metric(signals: np.ndarray, active: int) -> np.ndarray:
    """Metric of each row of accumulated signals (at least 2-D, users on the
    last axis): min over users of re*re + im*im, over the active count. These
    are the IEEE operations of ``metric_from_accumulated``, so results are
    bit-identical. The minimum, exact in any order, is taken one user at a
    time: a reduction along a short last axis costs one inner loop per row."""
    re, im = signals.real, signals.imag
    power = re * re
    power += im * im
    metric = power[..., 0]
    for user in range(1, power.shape[-1]):
        np.minimum(metric, power[..., user], out=metric)
    metric /= active
    return metric


def mask_signals(gains: np.ndarray, masks: np.ndarray, active: int) -> np.ndarray:
    """Canonical signals, (S, M), of an (S, N) bool block whose rows each hold
    ``active`` antennas (S may be 0). The block's nonzero columns reshape to
    one ascending index row per mask, and the gather is summed along its last
    axis, so each row adds its terms in the order ``accumulated_signal`` does:
    the results are bit-identical to it."""
    idx = masks.nonzero()[1].reshape(len(masks), active)
    return np.add.reduce(gains[:, idx], axis=2).T


def accumulated_signal(B: "ChannelMatrix | np.ndarray", mask: Sequence[int]) -> np.ndarray:
    """Coherent sum of the columns a 0/1 mask switches on, one complex value
    per user; refuses a mask of the wrong length, with an entry other than 0
    or 1, or with nothing on."""
    gains = as_gains(B)
    m = np.asarray(mask)
    if m.shape != (gains.shape[1],):
        raise ValueError(f"mask of shape {m.shape} does not match {gains.shape[1]} antennas")
    if not np.logical_or(m == 0, m == 1).all():
        raise ValueError(f"mask entries must be 0 or 1, got {m.tolist()}")
    if not m.any():
        raise ValueError("mask must have at least one active antenna")
    return gains[:, np.flatnonzero(m)].sum(axis=1)


def maxmin_metric(B: "ChannelMatrix | np.ndarray", mask: Sequence[int]) -> float:
    """Worst-user power share min_m |Z_m|^2 / ||mask||_0 (units 1/m^2)."""
    z = accumulated_signal(B, mask)
    return metric_from_accumulated(z.tolist(), int(np.count_nonzero(mask)))


# what sets the SNR scale, and the geometry that sets the metric
_RATE_FIELDS = ("tx_power", "noise_power", "carrier_freq", "room_side", "height")


def rate_from_metric(config: SystemConfig, metric: float) -> float:
    """Worst-user achievable rate log2(1 + scale * metric) in bps/Hz; a rate
    outside the float range is refused rather than reported."""
    rate = math.log2(1.0 + config.snr_scale * metric)
    if not math.isfinite(rate):
        fields = settings_text(config, _RATE_FIELDS)
        raise ValueError(f"the rate at metric {metric:g} leaves the float range: {fields}")
    return rate
