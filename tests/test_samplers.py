import numpy as np
import pytest
from scipy.integrate import quad

from lleboundary import rng
from lleboundary.samplers import (PointCloud, curve_m3_point, curve_m3_speed, sample_curve_m3,
                                  sample_disk, sample_gaussian_null, sample_interval,
                                  sample_surface, sample_truncated_torus, torus_embed,
                                  torus_keep_predicate)

ALL_SAMPLERS = [
    lambda seed: sample_interval(500, seed),
    lambda seed: sample_disk(800, seed),
    lambda seed: sample_curve_m3(120, seed),
    lambda seed: sample_surface(600, seed),
    lambda seed: sample_truncated_torus(700, seed),
    lambda seed: sample_gaussian_null(60, 7, seed),
]


@pytest.mark.parametrize("make", ALL_SAMPLERS)
def test_same_seed_reproduces_bit_exactly(make):
    a, b = make(11), make(11)
    assert np.array_equal(a.points, b.points)
    c = make(12)
    assert not np.array_equal(a.points, c.points)


@pytest.mark.parametrize("sampler", [sample_interval, lambda n, s: sample_disk(n, s),
                                     sample_curve_m3])
def test_empty_input_rejected(sampler):
    with pytest.raises(ValueError):
        sampler(0, 1)


def test_interval_basics():
    cloud = sample_interval(1, seed=5)
    t = cloud.points[0, 0]
    assert 0.0 <= t <= 1.0
    assert cloud.ground_truth.boundary_dist[0] == min(t, 1.0 - t)

    cloud = sample_interval(8000, seed=7)
    assert cloud.n == 8000 and cloud.ambient_dim == 1
    t = cloud.points[:, 0]
    assert np.all((t >= 0.0) & (t <= 1.0))
    # brute-force oracle: distance to the boundary set {0, 1}
    brute = np.minimum(np.abs(t - 0.0), np.abs(t - 1.0))
    assert np.max(np.abs(cloud.ground_truth.boundary_dist - brute)) <= 1e-8
    # midpoint example
    assert abs(min(0.5, 1 - 0.5) - 0.5) == 0.0


def test_disk_rejection_and_boundary_distance():
    n_raw = 20000
    cloud = sample_disk(n_raw, seed=1)
    q = np.pi / 4.0
    sigma = np.sqrt(n_raw * q * (1 - q))
    assert abs(cloud.n - n_raw * q) <= 3.0 * sigma
    r = np.linalg.norm(cloud.points, axis=1)
    assert np.all(r <= 1.0)
    # brute-force oracle on a subsample: min distance to a dense circle sample
    theta = np.linspace(0.0, 2.0 * np.pi, 200001)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    for i in range(0, cloud.n, cloud.n // 40):
        d = np.min(np.linalg.norm(circle - cloud.points[i], axis=1))
        assert abs(d - cloud.ground_truth.boundary_dist[i]) <= 1e-8


def test_disk_examples():
    # center and near-boundary radial distances
    assert 1.0 - np.linalg.norm([0.0, 0.0]) == 1.0
    assert abs((1.0 - np.linalg.norm([0.99, 0.0])) - 0.01) < 1e-15


def test_curve_points_and_arclength():
    assert np.allclose(curve_m3_point(0.0), [0.0, np.log(0.5), 1.0])
    assert np.allclose(curve_m3_point(0.5), [0.5, 0.0, 0.0], atol=1e-15)

    total = quad(curve_m3_speed, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)[0]
    for n in (1, 2, 60):
        cloud = sample_curve_m3(n, seed=3)
        t = cloud.ground_truth.param_coords[:, 0]
        for i in range(n):
            s = quad(curve_m3_speed, 0.0, t[i], epsabs=1e-12, epsrel=1e-12)[0]
            expect = min(s, total - s)
            assert abs(cloud.ground_truth.boundary_dist[i] - expect) <= 1e-10, (n, i)


def test_surface_lift_and_proxy():
    cloud = sample_surface(2000, seed=4)
    xy = cloud.ground_truth.param_coords
    lifted = np.column_stack([xy[:, 0], xy[:, 1], xy[:, 0] ** 2 - xy[:, 1] ** 3])
    assert np.array_equal(cloud.points, lifted)
    # the printed example points of the parametrization
    for (x, y), expect in [((0, 0), (0, 0, 0)), ((1, 0), (1, 0, 1)), ((0, 1), (0, 1, -1))]:
        assert (x, y, x ** 2 - y ** 3) == expect
    gt = cloud.ground_truth
    assert not gt.exact
    r = np.linalg.norm(xy, axis=1)
    assert np.allclose(gt.boundary_dist, 1.0 - r)


def test_torus_embedding_and_retention():
    assert np.allclose(torus_embed(0.0, 0.0), [4.2, 0.0, 0.0])
    pt = torus_embed(np.pi, np.pi)
    assert np.allclose(pt, [-1.8, 0.0, 1.2 * np.sin(np.pi)], atol=1e-15)
    assert torus_keep_predicate(np.pi, np.pi)  # -1.8 > -3.4

    n_raw = 25000
    cloud = sample_truncated_torus(n_raw, seed=9)
    theta, phi = cloud.ground_truth.param_coords.T
    assert np.all((3.0 + 1.2 * np.cos(theta)) * np.cos(phi) > -3.4)
    frac = cloud.n / n_raw
    assert 0.5 < frac < 1.0
    # the kept points are exactly the raw draws that pass the retention
    # predicate, in draw order
    u = rng.uniform(9, 2 * n_raw).reshape(n_raw, 2)
    mask = torus_keep_predicate(2.0 * np.pi * u[:, 0], 2.0 * np.pi * u[:, 1])
    assert cloud.n == np.count_nonzero(mask)
    assert np.array_equal(cloud.ground_truth.param_coords, 2.0 * np.pi * u[mask])


def test_gaussian_null():
    cloud = sample_gaussian_null(400, 200, seed=7)
    assert cloud.points.shape == (400, 200)
    assert cloud.ground_truth is None
    means = cloud.points.mean(axis=0)
    assert np.all(np.abs(means) <= 4.0 / np.sqrt(400))

    single = sample_gaussian_null(1, 1, seed=0)
    assert single.points.shape == (1, 1)


def test_cloud_immutable():
    cloud = sample_interval(10, seed=1)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 2.0


def _words(seed, n):
    return np.random.Philox(key=seed).random_raw(n)


def test_uniform_is_the_documented_transform():
    for seed, n in [(0, 1), (1, 7), (9, 1000), (2 ** 40 + 3, 64)]:
        expected = (_words(seed, n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        assert np.array_equal(rng.uniform(seed, n), expected)
    # pinned: the first draws of seed 1 must not move
    assert [x.hex() for x in rng.uniform(1, 4)] == [
        "0x1.36da89edd58a0p-2", "0x1.b289f407757c1p-1", "0x1.3fc3972bb8304p-3",
        "0x1.fda5da5a81200p-6"]


def test_normal_is_the_documented_transform():
    for seed, n in [(0, 1), (1, 4), (1, 5), (7, 999), (7, 1000)]:
        m = (n + 1) // 2
        w = _words(seed, 2 * m) >> np.uint64(11)
        u1 = (w[:m] + np.uint64(1)).astype(np.float64) * 2.0 ** -53
        u2 = w[m:].astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        expected = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        assert np.array_equal(rng.normal(seed, n), expected)
    pinned = ["0x1.b7b3faeb371edp-1", "0x1.1fae36e3eeb56p-1", "0x1.48841566afb25p+0",
              "0x1.c7a0c3836cb36p-4"]
    assert [x.hex() for x in rng.normal(1, 3)] == pinned[:3]  # odd n drops the last sine
    assert [x.hex() for x in rng.normal(1, 4)] == pinned


def test_negative_seed_is_refused():
    for draw in (rng.uniform, rng.normal):
        with pytest.raises(ValueError, match="nonnegative"):
            draw(-1, 3)


@pytest.mark.parametrize("seed", [2 ** 128, 2 ** 200], ids=["2**128", "2**200"])
def test_a_seed_beyond_the_128_bit_key_is_refused(seed):
    # the message names the seed, not Philox's key
    for draw in (rng.uniform, rng.normal):
        with pytest.raises(ValueError, match=rf"^seed must .* below 2\*\*128, got {seed}$"):
            draw(seed, 3)
    assert rng.uniform(2 ** 128 - 1, 3).shape == (3,)


@pytest.mark.parametrize("call, word", [
    (lambda: PointCloud(np.empty((0, 2)), intrinsic_dim=1, seed=0, manifold_tag="x"),
     "at least one point"),
    (lambda: PointCloud(np.zeros((3, 1)), intrinsic_dim=2, seed=0, manifold_tag="x"), "p >= d"),
    (lambda: sample_disk(1, 0), "kept no points"),
    (lambda: sample_surface(1, 0), "kept no points"),
    (lambda: sample_truncated_torus(1, 4), "kept no points"),
], ids=["empty-cloud", "p-below-d", "disk-none-kept", "surface-none-kept", "torus-none-kept"])
def test_cloud_refusals(call, word):
    with pytest.raises(ValueError, match=word):
        call()


@pytest.mark.parametrize("make", ALL_SAMPLERS,
                         ids=["interval", "disk", "curve_m3", "surface", "torus", "null"])
def test_repr_is_one_short_line(make):
    cloud = make(1)
    text = repr(cloud)
    assert "\n" not in text and len(text) < 200, text
    assert text.startswith(f"PointCloud({cloud.manifold_tag!r}, n={cloud.n}, "
                           f"p={cloud.ambient_dim}, d={cloud.intrinsic_dim}, seed=1")
    gt = cloud.ground_truth
    if gt is None:
        assert text.endswith("ground_truth=None)")
    else:
        assert ("boundary_dist" in text) == (gt.boundary_dist is not None)
        assert ("outward_normal_tangent" in text) == (gt.outward_normal_tangent is not None)
        assert f"exact={gt.exact}" in text
