"""Activation vectors and the worst-user selection objective.

The solvers all maximise the scale-free quantity

    min over users of |sum of active gains|^2 / (number active),

which orders activations identically to the worst-user rate: transmit power,
path-loss scale and noise enter only as a positive multiplier inside
log2(1 + x). Rates are attached at reporting time via :func:`rate_from_metric`
or :func:`rate_report`. Every solver returns a :class:`SolverResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .channel import ChannelMatrix, as_gains
from .config import SystemConfig

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

    def with_added(self, index: int) -> "ActivationVector":
        if self.mask[index]:
            raise ValueError(f"antenna {index} is already active")
        mask = list(self.mask)
        mask[index] = 1
        return ActivationVector(tuple(mask))

    @classmethod
    def singleton(cls, n_antennas: int, index: int) -> "ActivationVector":
        mask = [0] * n_antennas
        mask[index] = 1
        return cls(tuple(mask))

    @classmethod
    def from_indices(cls, n_antennas: int, indices: Iterable[int]) -> "ActivationVector":
        mask = [0] * n_antennas
        for i in indices:
            mask[i] = 1
        return cls(tuple(mask))


@dataclass(frozen=True)
class SolverResult:
    """One solver's answer on one channel; only the trellis sets ``trace``."""

    activation: ActivationVector
    metric: float
    evaluations: int
    trace: "VssTrace | None" = None


@dataclass(frozen=True)
class MetricReport:
    """Per-user diagnostics for one activation on one channel instance."""

    accumulated: tuple[complex, ...]
    metric: float
    per_user_snr: tuple[float, ...]
    per_user_rate: tuple[float, ...]
    min_rate: float


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


def accumulated_signal(B: "ChannelMatrix | np.ndarray", a: ActivationVector) -> np.ndarray:
    """Coherent sum of the active columns, one complex value per user."""
    gains = as_gains(B)
    _require_compatible(gains, a)
    return gains[:, list(a.indices)].sum(axis=1)


def maxmin_metric(B: "ChannelMatrix | np.ndarray", a: ActivationVector) -> float:
    """Worst-user power share min_m |Z_m|^2 / ||a||_0 (units 1/m^2)."""
    z = accumulated_signal(B, a)
    return metric_from_accumulated(z.tolist(), a.active_count)


def snr_scale(config: SystemConfig) -> float:
    """Multiplier turning the scale-free metric into a linear SNR."""
    return config.tx_power * config.path_loss_scale / config.noise_power


def rate_from_metric(config: SystemConfig, metric: float) -> float:
    """Worst-user achievable rate log2(1 + scale * metric) in bps/Hz."""
    return math.log2(1.0 + snr_scale(config) * metric)


def rate_report(
    config: SystemConfig, B: "ChannelMatrix | np.ndarray", a: ActivationVector
) -> MetricReport:
    """Evaluate SNRs and rates for one activation, power split equally."""
    gains = as_gains(B)
    z = accumulated_signal(gains, a)
    power = (z.real**2 + z.imag**2) / a.active_count
    snr = snr_scale(config) * power
    rate = np.log2(1.0 + snr)
    return MetricReport(
        accumulated=tuple(z.tolist()),
        metric=float(power.min()),
        per_user_snr=tuple(snr.tolist()),
        per_user_rate=tuple(rate.tolist()),
        min_rate=float(rate.min()),
    )
