"""System-level configuration for the pinching-antenna activation simulator.

All powers are stored in watts internally; dBm values are converted at the
boundary (CLI / config file). Derived quantities (wavelength, guided
wavelength, path-loss scale) are computed on demand and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to watts (-90 dBm -> 1e-12 W)."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{dbm:g} dBm is too large to convert to watts") from None


def watts_to_dbm(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError(f"power must be positive, got {watts}")
    return 10.0 * math.log10(watts) + 30.0


_FLOAT_FIELDS = (
    "room_side", "height", "carrier_freq", "refractive_index",
    "tx_power", "noise_power", "feed_x",
)
_COUNT_FIELDS = ("n_antennas", "n_users", "phase_bins")
_POSITIVE_FIELDS = ("room_side", "height", "carrier_freq", "tx_power", "noise_power")
_CHANNEL_FIELDS = ("room_side", "height", "feed_x", "carrier_freq", "refractive_index")
_SNR_FIELDS = ("tx_power", "noise_power", "carrier_freq")


def settings_text(config: "SystemConfig", names: tuple[str, ...]) -> str:
    """``name=value`` pairs naming the settings behind a refusal."""
    return ", ".join(f"{name}={getattr(config, name):g}" for name in names)


@dataclass(frozen=True)
class SystemConfig:
    """Physical and algorithmic parameters of one deployment.

    A square service area of side ``room_side`` lies on the ground plane;
    the waveguide runs parallel to the x-axis at height ``height`` with
    ``n_antennas`` radiating elements spread uniformly along it. The feed
    sits on the waveguide at x = ``feed_x`` (defaults to the left end,
    next to the base station).
    """

    n_antennas: int = 10
    n_users: int = 1
    room_side: float = 50.0          # m
    height: float = 3.0              # m
    carrier_freq: float = 28e9       # Hz
    refractive_index: float = 1.4    # effective index of the guide
    tx_power: float = dbm_to_watts(10.0)     # W
    noise_power: float = dbm_to_watts(-90.0)  # W
    phase_bins: int = 4
    feed_x: float | None = None      # m; None -> -room_side / 2

    def __post_init__(self) -> None:
        if self.feed_x is None:
            object.__setattr__(self, "feed_x", -self.room_side / 2.0)
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.refractive_index < 1.0:
            raise ValueError(f"refractive_index must be >= 1, got {self.refractive_index}")
        # what build_channel_matrix computes stays finite: the squared
        # distances np.linalg.norm sums, the phase of the farthest free-space
        # or in-guide run (lambda_g = lambda / n), and the path-loss square
        L, H, scale = self.room_side, self.height, self.wavelength / (4.0 * math.pi)
        reach = math.sqrt(L * L + L * L / 4.0 + H * H) + abs(self.feed_x)
        phase = math.tau * reach * self.refractive_index / self.wavelength
        if not (math.isfinite(phase) and math.isfinite(scale * scale)):
            fields = settings_text(self, _CHANNEL_FIELDS)
            raise ValueError(f"the channel leaves the float range: {fields}")
        if not math.isfinite(self.snr_scale):
            fields = settings_text(self, _SNR_FIELDS)
            raise ValueError(f"the SNR scale leaves the float range: {fields}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def guided_wavelength(self) -> float:
        return self.wavelength / self.refractive_index

    @property
    def path_loss_scale(self) -> float:
        """Free-space scale factor (lambda / 4 pi)^2 applied to |Z|^2 at the SNR stage."""
        return (self.wavelength / (4.0 * math.pi)) ** 2

    @property
    def snr_scale(self) -> float:
        """Multiplier turning the scale-free selection metric into a linear SNR."""
        return self.tx_power * self.path_loss_scale / self.noise_power

    def with_antennas(self, n_antennas: int) -> "SystemConfig":
        return replace(self, n_antennas=n_antennas)
