import numpy as np
import pytest

from lleboundary.neighbors import (EpsilonBall, Knn, _knn_csr, brute_force_neighbors,
                                   build_graph, local_data_matrix)
from lleboundary.samplers import PointCloud, sample_disk


def cloud_from(points, d=None):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return PointCloud(points, intrinsic_dim=d or points.shape[1], seed=0, manifold_tag="raw")


def test_collinear_eps():
    cloud = cloud_from([[0.0], [1.0], [2.0]])
    g = build_graph(cloud, EpsilonBall(1.5))
    assert [list(ix) for ix in g.neighbors] == [[1], [0, 2], [1]]
    assert np.allclose(g.distances[1], [1.0, 1.0])
    # a summary, whatever the size of the graph
    assert repr(g) == "NeighborGraph(scheme=EpsilonBall(eps=1.5), n=3, edges=4)"


def test_collinear_knn_tie_to_smaller_index():
    cloud = cloud_from([[0.0], [1.0], [2.0]])
    g = build_graph(cloud, Knn(1))
    assert [list(ix) for ix in g.neighbors] == [[1], [0], [1]]
    # a 4 x 4 grid has four-way ties; with blocks smaller than n and larger, every
    # row is the per-row sort by (distance, index)
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    for block in (3, 512):
        _, indices, _ = _knn_csr(pts, 3, block=block)
        for k, row in enumerate(indices.reshape(16, 3)):
            d = np.linalg.norm(pts - pts[k], axis=1)
            d[k] = np.inf
            assert np.array_equal(row, np.lexsort((np.arange(16), d))[:3])


def test_grid_equals_brute_force_on_disk():
    cloud = sample_disk(700, seed=2)  # ~550 points
    scheme = EpsilonBall(0.1)
    fast = build_graph(cloud, scheme)
    ref = brute_force_neighbors(cloud, scheme)
    for a, b in zip(fast.neighbors, ref.neighbors):
        assert np.array_equal(a, b)
    for a, b in zip(fast.distances, ref.distances):
        assert np.array_equal(a, b)


def test_knn_against_plain_oracle():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    cloud = cloud_from(pts)
    g = build_graph(cloud, Knn(5))
    for k in range(40):
        d = np.linalg.norm(pts - pts[k], axis=1)
        d[k] = np.inf
        expect = np.lexsort((np.arange(40), d))[:5]
        assert np.array_equal(np.sort(g.neighbors[k]), np.sort(expect))


def test_knn_k_too_large():
    cloud = cloud_from([[0.0], [1.0]])
    with pytest.raises(ValueError):
        build_graph(cloud, Knn(2))
    with pytest.raises(ValueError):
        Knn(0)
    with pytest.raises(ValueError):
        EpsilonBall(0.0)


def test_isolated_point_allowed_under_eps():
    cloud = cloud_from([[0.0], [1.0], [50.0]])
    g = build_graph(cloud, EpsilonBall(2.0))
    assert len(g.neighbors[2]) == 0
    assert g.counts.tolist() == [1, 1, 0]


def test_local_data_matrix_symmetric_pair():
    a, b = 0.31, 0.47
    cloud = cloud_from([[0.0, 0.0], [a, b], [-a, b]])
    g = build_graph(cloud, EpsilonBall(1.0))
    G = local_data_matrix(cloud, g, 0)
    assert np.allclose(G, np.array([[a, -a], [b, b]]))


def test_local_data_matrix_single_neighbor_and_errors():
    cloud = cloud_from([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]])
    g = build_graph(cloud, EpsilonBall(1.5))
    G = local_data_matrix(cloud, g, 0)
    assert np.allclose(G, [[1.0], [0.0]])
    with pytest.raises(ValueError):
        local_data_matrix(cloud, g, 2)


def test_translation_and_rotation_invariance():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(30, 3))
    cloud = cloud_from(pts)
    g = build_graph(cloud, Knn(6))
    shifted = cloud_from(pts + np.array([3.0, -2.0, 0.5]))
    g2 = build_graph(shifted, Knn(6))
    for k in range(30):
        G1 = local_data_matrix(cloud, g, k)
        G2 = local_data_matrix(shifted, g2, k)
        assert np.allclose(G1, G2, atol=1e-12)

    # G^T G is rotation invariant
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = cloud_from(pts @ q.T)
    g3 = build_graph(rotated, Knn(6))
    for k in range(0, 30, 5):
        A = local_data_matrix(cloud, g, k)
        B = local_data_matrix(rotated, g3, k)
        assert np.allclose(A.T @ A, B.T @ B, atol=1e-10)
