"""Geometry, gain and placement tests for the channel builder."""

import cmath
import hashlib
import math

import numpy as np
import pytest

from pinchsel.baselines import best_singleton, brute_force_select, greedy_pgga_select
from pinchsel.channel import ChannelMatrix, build_channel_matrix, pa_positions, sample_users
from pinchsel.config import SystemConfig
from pinchsel.harness import derive_seed
from pinchsel.metric import maxmin_metric
from pinchsel.vss import vss_select


# Scalar references for build_channel_matrix, one antenna-user pair at a time;
# points are (x, y, z) tuples.
def free_space_gain(user: tuple, pa: tuple, wavelength: float) -> complex:
    """Line-of-sight gain exp(-j 2 pi d / lambda) / d between one antenna and one user."""
    d = math.dist(user, pa)
    if d == 0.0:
        raise ValueError("degenerate geometry: user coincides with antenna")
    return cmath.exp(-2j * math.pi * d / wavelength) / d


def waveguide_phase(pa: tuple, feed: tuple, guided_wavelength: float) -> complex:
    """Unit-modulus phase accumulated travelling from the feed to the pinch."""
    if not guided_wavelength > 0.0:
        raise ValueError(f"guided_wavelength must be positive, got {guided_wavelength}")
    s = math.dist(pa, feed)
    return cmath.exp(-2j * math.pi * s / guided_wavelength)


def test_pa_positions_two_antennas():
    cfg = SystemConfig(n_antennas=2, room_side=50.0, height=3.0)
    assert pa_positions(cfg).tolist() == [[-12.5, 0.0, 3.0], [12.5, 0.0, 3.0]]


def test_pa_positions_single_antenna_at_midpoint():
    cfg = SystemConfig(n_antennas=1, room_side=50.0, height=3.0)
    assert pa_positions(cfg).tolist() == [[0.0, 0.0, 3.0]]


def test_pa_positions_fifty_antennas_spacing():
    cfg = SystemConfig(n_antennas=50, room_side=50.0, height=3.0)
    xs = pa_positions(cfg)[:, 0].tolist()
    assert xs[0] == -24.5
    spacings = [b - a for a, b in zip(xs, xs[1:])]
    assert all(s == 1.0 for s in spacings)


def test_pa_positions_symmetric_about_zero():
    cfg = SystemConfig(n_antennas=9, room_side=37.0)
    xs = pa_positions(cfg)[:, 0].tolist()
    assert xs == sorted(xs)
    for left, right in zip(xs, reversed(xs)):
        assert left == pytest.approx(-right, abs=1e-12)


def test_free_space_gain_full_wavelength():
    g = free_space_gain((0, 0, 0), (0, 0, 3), wavelength=3.0)
    assert cmath.isclose(g, 1.0 / 3.0, abs_tol=1e-12)


def test_free_space_gain_quarter_wavelength():
    g = free_space_gain((0, 0, 0), (0, 0, 3), wavelength=12.0)
    assert cmath.isclose(g, -1j / 3.0, abs_tol=1e-12)


def test_free_space_gain_matches_scalar_reference():
    # independent cos/sin evaluation at the default 28 GHz carrier
    wavelength = 299_792_458.0 / 28e9
    g = free_space_gain((3, 4, 0), (3, 4, 3), wavelength)
    theta = 2.0 * math.pi * 3.0 / wavelength
    expected = complex(math.cos(theta), -math.sin(theta)) / 3.0
    assert cmath.isclose(g, expected, rel_tol=1e-9)
    assert abs(g) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_free_space_gain_rejects_zero_distance():
    with pytest.raises(ValueError):
        free_space_gain((1, 2, 3), (1, 2, 3), wavelength=1.0)


def test_waveguide_phase_identity_at_feed():
    assert waveguide_phase((0, 0, 3), (0, 0, 3), 0.01) == 1.0 + 0j


def test_waveguide_phase_half_and_full_period():
    lam_g = 0.25
    feed = (0.0, 0.0, 3.0)
    half = waveguide_phase((lam_g / 2, 0, 3), feed, lam_g)
    full = waveguide_phase((lam_g, 0, 3), feed, lam_g)
    assert cmath.isclose(half, -1.0 + 0j, abs_tol=1e-12)
    assert cmath.isclose(full, 1.0 + 0j, abs_tol=1e-12)


def test_build_channel_single_entry_magnitude():
    cfg = SystemConfig(n_antennas=1, n_users=1, room_side=50.0, height=3.0)
    B = build_channel_matrix(cfg, np.array([[0.0, 0.0]]))
    assert B.gains.shape == (1, 1)
    assert abs(B.gains[0, 0]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_build_channel_identical_users_identical_rows():
    cfg = SystemConfig(n_antennas=6, n_users=2)
    B = build_channel_matrix(cfg, np.array([[4.2, -8.0], [4.2, -8.0]]))
    assert np.array_equal(B.gains[0], B.gains[1])


def test_build_channel_matches_per_element_recomputation():
    cfg = SystemConfig(n_antennas=10, n_users=1)
    users = sample_users(20260809, cfg)
    B = build_channel_matrix(cfg, users)
    feed = (cfg.feed_x, 0.0, cfg.height)
    # phases are ~1e4 rad before wrapping, so last-ulp distance differences
    # between the vectorised and scalar paths show up at ~1e-11 relative
    for m, (x, y) in enumerate(users.tolist()):
        user = (x, y, 0.0)
        for n, pa in enumerate(pa_positions(cfg).tolist()):
            expected = free_space_gain(user, pa, cfg.wavelength) * waveguide_phase(
                pa, feed, cfg.guided_wavelength
            )
            assert cmath.isclose(B.gains[m, n], expected, rel_tol=1e-9)


def test_gain_magnitude_is_inverse_distance():
    cfg = SystemConfig(n_antennas=12, n_users=2)
    users = sample_users(99, cfg)
    B = build_channel_matrix(cfg, users)
    for m, (x, y) in enumerate(users.tolist()):
        for n, pa in enumerate(pa_positions(cfg).tolist()):
            d = math.dist((x, y, 0.0), pa)
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
        build_channel_matrix(cfg, np.array([[0.0, 0.0]]))


def test_sample_users_deterministic():
    cfg = SystemConfig(n_antennas=4, n_users=3)
    assert np.array_equal(sample_users(42, cfg), sample_users(42, cfg))
    assert not np.array_equal(sample_users(42, cfg), sample_users(43, cfg))


def test_sample_users_support_and_plane():
    cfg = SystemConfig(n_antennas=4, n_users=200, room_side=50.0)
    users = sample_users(11, cfg)
    assert users.shape == (200, 2)  # (x, y): users stand on the ground plane
    assert np.all((-25.0 <= users) & (users <= 25.0))


def test_sample_users_mean_near_zero():
    # law of large numbers at the stated seed: 1e4 draws, |mean| < 1 m
    cfg = SystemConfig(n_antennas=1, n_users=10_000, room_side=50.0)
    users = sample_users(20260809, cfg)
    xs, ys = users.T
    assert abs(xs.mean()) < 1.0
    assert abs(ys.mean()) < 1.0


@pytest.mark.parametrize(
    "users",
    [[[0.0, 0.0, 1.0]], [0.0, 0.0], [[np.nan, 0.0]], [[0.0, np.inf]]],
    ids=["xyz", "flat", "nan", "inf"],
)
def test_build_channel_rejects_bad_positions(users):
    cfg = SystemConfig(n_antennas=3, n_users=1)
    with pytest.raises(ValueError):
        build_channel_matrix(cfg, np.array(users))


# First 32 hex digits of the sha256 of the gains bytes and of the (M, 2)
# draw, recorded from the per-user Point3 path the arrays replaced:
# (seed, N, M, trial, gains digest, positions digest).
CHANNEL_DIGESTS = [
    (7, 5, 1, 0, '49c711c8c32c4dd384dc22ec6fb7507a', '8f36c830cb2399f787da6800b701f232'),
    (7, 5, 3, 0, '0aead768d93d9dfec1fbeb1046b074c6', '9e9b69e32ce52f1d0289cfd740b5cb1a'),
    (7, 20, 1, 0, 'a5878037adbdd294cd9fae2e28d58a82', '5ba536a0c5eba72093bfffa0dd1da08a'),
    (7, 20, 3, 0, '40cd496eec85e2b20e5600f174e59ad8', 'f51c9124a74e81dea45e803fd968d0a6'),
    (7, 100, 1, 0, '06f439654aa58dd473d61b8437aa8ac9', 'a67d8d84c947f2251f5476ea42d37d65'),
    (7, 100, 3, 0, '393e4f1477c83be8cf7039d1e3166eb3', 'a21eb41c4eff84e636880fdba8036e40'),
    (11, 5, 1, 3, '266090552b6f60da4bf8606cca0175ff', '50c90a0a30328052fe917896b8d622a8'),
    (11, 5, 3, 3, '49d7ac2263aeceb4270f9b3943adf25b', 'a965cdc0983202490517a1358411a259'),
    (11, 20, 1, 3, '348d9481664f29fde68a02fa1b7e2ac9', '30d564f1fd7c8472cf89c3e8f385cccb'),
    (11, 20, 3, 3, 'e39ea32d89ef9951cc73685b57eda922', '736133d1a68f8c108d6fcc71fa35057b'),
    (11, 100, 1, 3, '6fb529d9c1e57dcc9ce139f80f2b99f1', '91e321977c6f038b243019c5b9d22657'),
    (11, 100, 3, 3, 'ef70c0e00c899013673296deef1972a2', '3240d70099589447b2c4e3cb0756174d'),
]


@pytest.mark.parametrize("row", CHANNEL_DIGESTS, ids=lambda r: "-".join(map(str, r[:4])))
def test_channel_bit_identity(row):
    seed, n_antennas, n_users, t, gains_digest, users_digest = row
    cfg = SystemConfig(n_antennas=n_antennas, n_users=n_users)
    users = sample_users(derive_seed(seed, n_antennas, t), cfg)
    gains = build_channel_matrix(cfg, users).gains
    assert hashlib.sha256(users.tobytes()).hexdigest()[:32] == users_digest
    assert hashlib.sha256(gains.tobytes()).hexdigest()[:32] == gains_digest


def _placements(seed, cfg, n_trials):
    """The (T, M, 2) stack of trials 0 .. T-1 at ``cfg``'s antenna count."""
    return np.stack(
        [sample_users(derive_seed(seed, cfg.n_antennas, t), cfg) for t in range(n_trials)]
    )


@pytest.mark.parametrize("n_users", [1, 2, 3])
@pytest.mark.parametrize("seed", [7, 11])
def test_stacked_build_equals_lone_builds(seed, n_users):
    for n_antennas in range(1, 101):
        cfg = SystemConfig(n_antennas=n_antennas, n_users=n_users)
        users = _placements(seed, cfg, 5)
        stacked = build_channel_matrix(cfg, users)
        assert len(stacked) == len(users)
        for B, placement in zip(stacked, users):
            assert B.config_snapshot is cfg
            assert B.gains.tobytes() == build_channel_matrix(cfg, placement).gains.tobytes()


# sha256 prefixes of the 1 x 1 gains of trials 0-3, recorded from the lone
# (M, 2) build before stacks existed: at M = N = 1 a stacked guide-phase
# product took another numpy loop and moved trial 0's gain by one ulp.
ONE_BY_ONE_DIGESTS = {
    7: ['6cf3c6a30cae4c421f82309573a4bfe4', 'a6c4c48beddc7f3254d97a1f98113612',
        '667f37e6c877685b931b23bb890cfeb6', 'c92695f52d90a69c84dd80c3fadaeeaa'],
    11: ['dd901d8207c8914bd25254af1cd01697', '18de690b14f5a34fc0b912cf4b29d947',
         '013d85a6ea6ffcda9ea9906cfb5407e2', 'e18fa7bdf1fd69c179c0d6f79b289ab4'],
}


@pytest.mark.parametrize("seed", sorted(ONE_BY_ONE_DIGESTS))
def test_one_by_one_gains_pinned(seed):
    cfg = SystemConfig(n_antennas=1, n_users=1)
    users = _placements(seed, cfg, 4)
    lone = [build_channel_matrix(cfg, placement) for placement in users]
    for builds in (build_channel_matrix(cfg, users), lone):
        digests = [hashlib.sha256(B.gains.tobytes()).hexdigest()[:32] for B in builds]
        assert digests == ONE_BY_ONE_DIGESTS[seed]


def test_stack_of_one_and_empty_stack():
    cfg = SystemConfig(n_antennas=4, n_users=2)
    users = _placements(7, cfg, 1)
    (B,) = build_channel_matrix(cfg, users)
    assert B.gains.tobytes() == build_channel_matrix(cfg, users[0]).gains.tobytes()
    assert build_channel_matrix(cfg, users[:0]) == []


@pytest.mark.parametrize("k", [0, 3])
def test_stack_refused_with_its_first_too_close_placement_message(k):
    # height 1e-200 squares to 0, so a user right below an antenna stands
    # 0 m away; one 1e-158 m off to the side stands about that far
    cfg = SystemConfig(n_antennas=5, n_users=2, height=1e-200)
    users = _placements(7, cfg, 6)
    below = pa_positions(cfg)[2, 0]
    users[k, 1] = (below, 1e-158)
    users[k + 2, 0] = (below, 0.0)
    with pytest.raises(ValueError, match="too close for the float range") as lone:
        build_channel_matrix(cfg, users[k])
    with pytest.raises(ValueError, match="too close for the float range") as later:
        build_channel_matrix(cfg, users[k + 2])
    assert str(lone.value) != str(later.value)
    with pytest.raises(ValueError) as stacked:
        build_channel_matrix(cfg, users)
    assert str(stacked.value) == str(lone.value)


@pytest.mark.parametrize(
    "shape,bad,message",
    [
        ((4, 1, 3), None, r"^user positions must be an \(M, 2\) array or a \(T, M, 2\) stack, "
         r"got shape \(4, 1, 3\)$"),
        ((2, 4, 1, 2), None, r"^user positions must be an \(M, 2\) array or a \(T, M, 2\) "
         r"stack, got shape \(2, 4, 1, 2\)$"),
        ((4, 2, 2), None, r"^placement has 2 users, config expects 1$"),
        ((4, 1, 2), np.nan, r"^user positions must be finite$"),
        ((4, 1, 2), -np.inf, r"^user positions must be finite$"),
    ],
    ids=["last-axis", "four-axes", "user-count", "nan", "inf"],
)
def test_malformed_stack_refused_by_name(shape, bad, message):
    cfg = SystemConfig(n_antennas=3, n_users=1)
    users = np.ones(shape)
    if bad is not None:
        users[2, 0, 1] = bad
    with pytest.raises(ValueError, match=message):
        build_channel_matrix(cfg, users)


def test_channel_matrix_rejects_zero_and_nonfinite():
    cfg = SystemConfig(n_antennas=2, n_users=1)
    with pytest.raises(ValueError):
        ChannelMatrix(gains=np.array([[1.0 + 0j, 0j]]), config_snapshot=cfg)
    with pytest.raises(ValueError):
        ChannelMatrix(gains=np.array([[1.0 + 0j, np.inf + 0j]]), config_snapshot=cfg)


def test_channel_matrix_refuses_a_config_of_another_shape():
    message = r"^gains of shape \(1, 2\) do not match the config's \(M, N\) \(1, 10\)$"
    with pytest.raises(ValueError, match=message):
        ChannelMatrix(gains=np.array([[1.0 + 0j, 2.0 + 0j]]), config_snapshot=SystemConfig())


@pytest.mark.parametrize(
    "take",
    [
        lambda g: vss_select(g, 4),
        brute_force_select,
        greedy_pgga_select,
        best_singleton,
        lambda g: maxmin_metric(g, [1, 1]),
    ],
    ids=["vss", "brute_force", "pgga", "best_singleton", "maxmin_metric"],
)
def test_gains_whose_coherent_power_overflows_refused(take):
    # 2 (N max|g|)^2 is 8e400 here: the metric would be inf
    message = r"^gains of modulus up to 1e\+200 at N=2 overflow a coherent power$"
    with pytest.raises(ValueError, match=message):
        take(np.array([[1e200, 1.0]]))
    # 2 (2e150)^2 = 8e300 stays finite, and so does every power
    result = take(np.array([[1e150, 1e150]]))
    assert math.isfinite(getattr(result, "metric", result))


@pytest.mark.parametrize(
    "take",
    [
        lambda g: vss_select(g, 4),
        brute_force_select,
        greedy_pgga_select,
        best_singleton,
        lambda g: ChannelMatrix(gains=g, config_snapshot=SystemConfig(n_antennas=3)),
    ],
    ids=["vss", "brute_force", "pgga", "best_singleton", "ChannelMatrix"],
)
def test_one_dimensional_gains_refused(take):
    # one shape rule for bare arrays and ChannelMatrix alike; no 1-D promotion
    message = r"^gains must be a non-empty 2-D array, got shape \(3,\)$"
    with pytest.raises(ValueError, match=message):
        take(np.array([1.0 + 0j, 2.0 + 0j, 3.0 + 0j]))


def test_channel_matrix_gains_read_only():
    cfg = SystemConfig(n_antennas=2, n_users=1)
    B = ChannelMatrix(gains=np.array([[1.0 + 0j, 2.0 + 0j]]), config_snapshot=cfg)
    with pytest.raises(ValueError):
        B.gains[0, 0] = 5.0
