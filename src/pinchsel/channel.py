"""Geometry and effective channel construction for a waveguide-fed array.

Each radiating element (a "pinch" on the guide) contributes, toward a ground
user, the product of a free-space term exp(-j 2 pi d / lambda) / d and a
unit-modulus in-guide propagation phase exp(-j 2 pi s / lambda_g), where s is
the distance travelled from the feed to the pinch. The M x N matrix of these
complex gains is everything the selection algorithms need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import SystemConfig, settings_text

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Effective complex gains, one row per user, one column per antenna."""

    gains: np.ndarray
    config_snapshot: SystemConfig

    def __post_init__(self) -> None:
        g = as_gains(np.array(self.gains, dtype=np.complex128))
        shape = (self.config_snapshot.n_users, self.config_snapshot.n_antennas)
        if g.shape != shape:
            raise ValueError(f"gains of shape {g.shape} do not match the config's (M, N) {shape}")
        if np.any(g == 0):
            raise ValueError("gains must be nonzero (users cannot sit on an antenna)")
        g.setflags(write=False)
        object.__setattr__(self, "gains", g)


def pa_positions(config: SystemConfig) -> np.ndarray:
    """Antenna positions as an (N, 3) array: uniform along the guide, centred
    on the room.

    The n-th element (1-indexed) sits at x = -L/2 + (2n - 1) L / (2N),
    y = 0, z = H, so spacing is exactly L/N and the layout is symmetric
    about x = 0.
    """
    n, L, H = config.n_antennas, config.room_side, config.height
    k = np.arange(1, n + 1)
    x = -L / 2.0 + (2 * k - 1) * L / (2.0 * n)
    return np.column_stack((x, np.zeros(n), np.full(n, H)))


def build_channel_matrix(
    config: SystemConfig, users: np.ndarray
) -> "ChannelMatrix | list[ChannelMatrix]":
    """Assemble the M x N effective gain matrix of each placement.

    ``users`` is one placement, the (M, 2) ground-plane (x, y) positions of
    ``sample_users``, or a (T, M, 2) stack of T placements (an array, or a
    list of placements). One placement gives one ``ChannelMatrix``; a stack
    gives a list of T in stack order. An (M, 2) input is the T = 1 case of
    the same stacked computation, so each channel of a stack is bit for bit
    the one its placement builds alone. A placement too close to an antenna
    is refused before any channel is returned, with the message that
    building it alone gives.

    Vectorised; the tests check it element by element against a scalar
    reference, the free-space gain times the in-guide phase of each pair.
    """
    xy = np.asarray(users, dtype=float)
    stack = xy[None] if xy.ndim == 2 else xy
    if stack.ndim != 3 or stack.shape[2] != 2:
        raise ValueError(
            f"user positions must be an (M, 2) array or a (T, M, 2) stack, got shape {xy.shape}"
        )
    if stack.shape[1] != config.n_users:
        raise ValueError(f"placement has {stack.shape[1]} users, config expects {config.n_users}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("user positions must be finite")
    pa_xyz = pa_positions(config)                                  # (N, 3)
    user_xyz = np.zeros(stack.shape[:2] + (3,))                    # (T, M, 3), z = 0
    user_xyz[:, :, :2] = stack
    dist = np.linalg.norm(user_xyz[:, :, None, :] - pa_xyz, axis=3)  # (T, M, N)
    # refused before the divide; (N / nearest)^2 bounds every coherent power
    for nearest in dist.min(axis=(1, 2)).tolist():
        reach = config.n_antennas / nearest if nearest > 0.0 else math.inf
        if not 2.0 * reach * reach < math.inf:  # 2x headroom for rounding
            fields = settings_text(config, ("room_side", "height"))
            raise ValueError(
                f"a user stands {nearest:g} m from an antenna, too close for the float "
                f"range: {fields}"
            )
    h = np.exp(-2j * np.pi * dist / config.wavelength) / dist
    guide_dist = np.abs(pa_xyz[:, 0] - config.feed_x)
    g = np.exp(-2j * np.pi * guide_dist / config.guided_wavelength)
    # the guide phase goes on per placement, in the (M, N) x (1, N) product of
    # a lone build: at M = N = 1 a stacked product takes another numpy loop,
    # which can differ in the last bit
    channels = [ChannelMatrix(gains=ht * g[None, :], config_snapshot=config) for ht in h]
    return channels[0] if xy.ndim == 2 else channels


def sample_users(seed: int, config: SystemConfig) -> np.ndarray:
    """Draw ``n_users`` (x, y) positions uniformly over the square service
    area, as an (M, 2) array; users stand on the ground plane."""
    rng = np.random.default_rng(seed & _SEED_MASK)
    half = config.room_side / 2.0
    return rng.uniform(-half, half, size=(config.n_users, 2))


def as_gains(B: "ChannelMatrix | np.ndarray | Sequence") -> np.ndarray:
    """Accept a ChannelMatrix or a bare array of gains; return the (M, N)
    array. A bare array must be non-empty, 2-D and finite with no coherent
    power overflow; only a ChannelMatrix also refuses zero entries."""
    if isinstance(B, ChannelMatrix):
        return B.gains
    g = np.asarray(B, dtype=np.complex128)
    if g.ndim != 2 or g.size == 0:
        raise ValueError(f"gains must be a non-empty 2-D array, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("gains must be finite")
    # (N max|g|)^2 bounds every coherent power, as in build_channel_matrix
    n, modulus = g.shape[1], float(np.abs(g).max())
    if not 2.0 * (n * modulus) * (n * modulus) < math.inf:  # 2x headroom for rounding
        raise ValueError(f"gains of modulus up to {modulus:g} at N={n} overflow a coherent power")
    return g
