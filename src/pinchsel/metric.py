"""Activation vectors and the worst-user selection objective.

The solvers all maximise the scale-free quantity

    min over users of |sum of active gains|^2 / (number active),

which orders activations identically to the worst-user rate: transmit power,
path-loss scale and noise enter only as a positive multiplier inside
log2(1 + x). Rates are attached at reporting time via :func:`rate_from_metric`.

:func:`worst_user_metric` is the array kernel with which the trellis, the
greedy baseline and the best-singleton solver score candidates;
:func:`maxmin_metric` is the scalar reference it is bit-identical to.
Solvers carry boolean masks internally and build an :class:`ActivationVector`
only for the :class:`SolverResult` they return.
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
    """Binary on/off mask over the antenna array, with cached support size."""

    mask: tuple[int, ...]
    active_count: int = field(init=False)

    def __post_init__(self) -> None:
        mask = tuple(int(b) for b in self.mask)
        if not mask:
            raise ValueError("mask must be non-empty")
        if any(b not in (0, 1) for b in mask):
            raise ValueError(f"mask entries must be 0 or 1, got {mask}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "active_count", sum(mask))

    def __len__(self) -> int:
        return len(self.mask)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.mask) if b)

    @classmethod
    def singleton(cls, n_antennas: int, index: int) -> "ActivationVector":
        mask = [0] * n_antennas
        mask[index] = 1
        return cls(tuple(mask))


@dataclass(frozen=True)
class SolverResult:
    """One solver's answer on one channel; only the trellis sets ``trace``."""

    activation: ActivationVector
    metric: float
    evaluations: int
    trace: "VssTrace | None" = None


def _require_compatible(gains: np.ndarray, a: ActivationVector) -> None:
    if len(a) != gains.shape[1]:
        raise ValueError(
            f"activation length {len(a)} does not match {gains.shape[1]} antennas"
        )
    if a.active_count < 1:
        raise ValueError("activation must have at least one active antenna")


def metric_from_accumulated(accumulated: Sequence[complex], active_count: int) -> float:
    """Worst-user |Z|^2 / count from an already-accumulated signal vector."""
    worst = min(z.real * z.real + z.imag * z.imag for z in accumulated)
    return worst / active_count


def worst_user_metric(signals: np.ndarray, active: int) -> np.ndarray:
    """Metric of each row of accumulated signals (users on the last axis):
    min over users of re*re + im*im, over the active count. These are the IEEE
    operations of ``metric_from_accumulated``, so results are bit-identical."""
    power = signals.real * signals.real + signals.imag * signals.imag
    return np.minimum.reduce(power, axis=-1) / active


def accumulated_signal(B: "ChannelMatrix | np.ndarray", a: ActivationVector) -> np.ndarray:
    """Coherent sum of the active columns, one complex value per user."""
    gains = as_gains(B)
    _require_compatible(gains, a)
    return gains[:, list(a.indices)].sum(axis=1)


def maxmin_metric(B: "ChannelMatrix | np.ndarray", a: ActivationVector) -> float:
    """Worst-user power share min_m |Z_m|^2 / ||a||_0 (units 1/m^2)."""
    z = accumulated_signal(B, a)
    return metric_from_accumulated(z.tolist(), a.active_count)


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
