"""Geometry, gain and placement tests for the channel builder."""

import cmath
import math

import numpy as np
import pytest

from pinchsel.channel import (
    ChannelMatrix,
    Point3,
    UserPlacement,
    build_channel_matrix,
    pa_positions,
    sample_users,
)
from pinchsel.config import SystemConfig


# Scalar references for build_channel_matrix, one antenna-user pair at a time.
def free_space_gain(user: Point3, pa: Point3, wavelength: float) -> complex:
    """Line-of-sight gain exp(-j 2 pi d / lambda) / d between one antenna and one user."""
    d = math.dist(user, pa)
    if d == 0.0:
        raise ValueError("degenerate geometry: user coincides with antenna")
    return cmath.exp(-2j * math.pi * d / wavelength) / d


def waveguide_phase(pa: Point3, feed: Point3, guided_wavelength: float) -> complex:
    """Unit-modulus phase accumulated travelling from the feed to the pinch."""
    if not guided_wavelength > 0.0:
        raise ValueError(f"guided_wavelength must be positive, got {guided_wavelength}")
    s = math.dist(pa, feed)
    return cmath.exp(-2j * math.pi * s / guided_wavelength)


def test_pa_positions_two_antennas():
    cfg = SystemConfig(n_antennas=2, room_side=50.0, height=3.0)
    assert pa_positions(cfg) == [Point3(-12.5, 0.0, 3.0), Point3(12.5, 0.0, 3.0)]


def test_pa_positions_single_antenna_at_midpoint():
    cfg = SystemConfig(n_antennas=1, room_side=50.0, height=3.0)
    assert pa_positions(cfg) == [Point3(0.0, 0.0, 3.0)]


def test_pa_positions_fifty_antennas_spacing():
    cfg = SystemConfig(n_antennas=50, room_side=50.0, height=3.0)
    pts = pa_positions(cfg)
    assert pts[0].x == -24.5
    spacings = [b.x - a.x for a, b in zip(pts, pts[1:])]
    assert all(s == 1.0 for s in spacings)


def test_pa_positions_symmetric_about_zero():
    cfg = SystemConfig(n_antennas=9, room_side=37.0)
    xs = [p.x for p in pa_positions(cfg)]
    assert xs == sorted(xs)
    for left, right in zip(xs, reversed(xs)):
        assert left == pytest.approx(-right, abs=1e-12)


def test_free_space_gain_full_wavelength():
    g = free_space_gain(Point3(0, 0, 0), Point3(0, 0, 3), wavelength=3.0)
    assert cmath.isclose(g, 1.0 / 3.0, abs_tol=1e-12)


def test_free_space_gain_quarter_wavelength():
    g = free_space_gain(Point3(0, 0, 0), Point3(0, 0, 3), wavelength=12.0)
    assert cmath.isclose(g, -1j / 3.0, abs_tol=1e-12)


def test_free_space_gain_matches_scalar_reference():
    # independent cos/sin evaluation at the default 28 GHz carrier
    wavelength = 299_792_458.0 / 28e9
    g = free_space_gain(Point3(3, 4, 0), Point3(3, 4, 3), wavelength)
    theta = 2.0 * math.pi * 3.0 / wavelength
    expected = complex(math.cos(theta), -math.sin(theta)) / 3.0
    assert cmath.isclose(g, expected, rel_tol=1e-9)
    assert abs(g) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_free_space_gain_rejects_zero_distance():
    with pytest.raises(ValueError):
        free_space_gain(Point3(1, 2, 3), Point3(1, 2, 3), wavelength=1.0)


def test_waveguide_phase_identity_at_feed():
    assert waveguide_phase(Point3(0, 0, 3), Point3(0, 0, 3), 0.01) == 1.0 + 0j


def test_waveguide_phase_half_and_full_period():
    lam_g = 0.25
    feed = Point3(0.0, 0.0, 3.0)
    half = waveguide_phase(Point3(lam_g / 2, 0, 3), feed, lam_g)
    full = waveguide_phase(Point3(lam_g, 0, 3), feed, lam_g)
    assert cmath.isclose(half, -1.0 + 0j, abs_tol=1e-12)
    assert cmath.isclose(full, 1.0 + 0j, abs_tol=1e-12)


def test_build_channel_single_entry_magnitude():
    cfg = SystemConfig(n_antennas=1, n_users=1, room_side=50.0, height=3.0)
    users = UserPlacement(positions=(Point3(0.0, 0.0, 0.0),))
    B = build_channel_matrix(cfg, users)
    assert B.gains.shape == (1, 1)
    assert abs(B.gains[0, 0]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_build_channel_identical_users_identical_rows():
    cfg = SystemConfig(n_antennas=6, n_users=2)
    p = Point3(4.2, -8.0, 0.0)
    B = build_channel_matrix(cfg, UserPlacement(positions=(p, p)))
    assert np.array_equal(B.gains[0], B.gains[1])


def test_build_channel_matches_per_element_recomputation():
    cfg = SystemConfig(n_antennas=10, n_users=1)
    users = sample_users(20260809, cfg)
    B = build_channel_matrix(cfg, users)
    feed = Point3(cfg.feed_x, 0.0, cfg.height)
    # phases are ~1e4 rad before wrapping, so last-ulp distance differences
    # between the vectorised and scalar paths show up at ~1e-11 relative
    for m, user in enumerate(users.positions):
        for n, pa in enumerate(pa_positions(cfg)):
            expected = free_space_gain(user, pa, cfg.wavelength) * waveguide_phase(
                pa, feed, cfg.guided_wavelength
            )
            assert cmath.isclose(B.gains[m, n], expected, rel_tol=1e-9)


def test_gain_magnitude_is_inverse_distance():
    cfg = SystemConfig(n_antennas=12, n_users=2)
    users = sample_users(99, cfg)
    B = build_channel_matrix(cfg, users)
    for m, user in enumerate(users.positions):
        for n, pa in enumerate(pa_positions(cfg)):
            d = math.dist(user, pa)
            assert abs(B.gains[m, n]) * d == pytest.approx(1.0, rel=1e-12)


def test_build_channel_is_pure():
    cfg = SystemConfig(n_antennas=7, n_users=2)
    users = sample_users(5, cfg)
    assert np.array_equal(
        build_channel_matrix(cfg, users).gains, build_channel_matrix(cfg, users).gains
    )


def test_build_channel_user_count_mismatch():
    cfg = SystemConfig(n_antennas=3, n_users=2)
    with pytest.raises(ValueError):
        build_channel_matrix(cfg, UserPlacement(positions=(Point3(0, 0, 0),)))


def test_sample_users_deterministic():
    cfg = SystemConfig(n_antennas=4, n_users=3)
    assert sample_users(42, cfg) == sample_users(42, cfg)
    assert sample_users(42, cfg) != sample_users(43, cfg)


def test_sample_users_support_and_plane():
    cfg = SystemConfig(n_antennas=4, n_users=200, room_side=50.0)
    users = sample_users(11, cfg)
    for p in users.positions:
        assert -25.0 <= p.x <= 25.0
        assert -25.0 <= p.y <= 25.0
        assert p.z == 0.0


def test_sample_users_mean_near_zero():
    # law of large numbers at the stated seed: 1e4 draws, |mean| < 1 m
    cfg = SystemConfig(n_antennas=1, n_users=10_000, room_side=50.0)
    users = sample_users(20260809, cfg)
    xs = np.array([p.x for p in users.positions])
    ys = np.array([p.y for p in users.positions])
    assert abs(xs.mean()) < 1.0
    assert abs(ys.mean()) < 1.0


def test_user_placement_rejects_off_plane():
    with pytest.raises(ValueError):
        UserPlacement(positions=(Point3(0.0, 0.0, 1.0),))


def test_channel_matrix_rejects_zero_and_nonfinite():
    cfg = SystemConfig(n_antennas=2, n_users=1)
    with pytest.raises(ValueError):
        ChannelMatrix(gains=np.array([[1.0 + 0j, 0j]]), config_snapshot=cfg)
    with pytest.raises(ValueError):
        ChannelMatrix(gains=np.array([[1.0 + 0j, np.inf + 0j]]), config_snapshot=cfg)


def test_channel_matrix_gains_read_only():
    cfg = SystemConfig(n_antennas=2, n_users=1)
    B = ChannelMatrix(gains=np.array([[1.0 + 0j, 2.0 + 0j]]), config_snapshot=cfg)
    with pytest.raises(ValueError):
        B.gains[0, 0] = 5.0
