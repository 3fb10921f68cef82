import numpy as np
import pytest
import scipy.sparse as sp

from conftest import interval_grid, s1_grid_cloud, s1_grid_eps, s1_lle, ten_point_cloud
from lleboundary import lle as lle_module
from lleboundary.analytic import AnalyticCoeffs
from lleboundary.cli import main
from lleboundary.io import SIDECAR_KEYS
from lleboundary.lle import (_gram_eig, apply_shifted, augmented_vector_discrete,
                             build_alpha_kernel_matrix, build_lle_matrix, default_regularizer,
                             resolve_c, row_moments, solve_barycentric)
from lleboundary.neighbors import (EpsilonBall, Knn, brute_force_neighbors, build_graph,
                                   local_data_matrix)
from lleboundary.samplers import (PointCloud, sample_disk, sample_interval,
                                  sample_truncated_torus)
from lleboundary.spectral import DENSE_CUTOFF, eig


def test_symmetric_pair_gives_half_half():
    a, b = 0.4, 0.9
    G = np.array([[a, -a], [b, b]])
    for path in ("direct", "gram"):
        sol = solve_barycentric(G, c=0.01, path=path)
        assert abs(sol.y[0] - sol.y[1]) < 1e-14
        assert np.allclose(sol.w, [0.5, 0.5])


def test_zero_local_matrix_gives_uniform():
    G = np.zeros((3, 4))
    sol = solve_barycentric(G, c=0.25)
    assert np.allclose(sol.y, 1.0 / 0.25)
    assert np.allclose(sol.w, 0.25)


@pytest.mark.parametrize("shape", [(3, 5), (2, 8), (5, 2), (4, 4), (1, 6)])
def test_dual_path_agreement(shape):
    rng = np.random.default_rng(sum(shape))
    G = rng.normal(size=shape)
    for c in (1e-3, 1e-6, 0.5):
        ya = solve_barycentric(G, c, path="direct").y
        yb = solve_barycentric(G, c, path="gram").y
        assert np.max(np.abs(ya - yb)) <= 1e-8 * max(1.0, np.max(np.abs(ya)))


def test_solve_validation():
    for c in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            solve_barycentric(np.ones((2, 2)), c=c)
    with pytest.raises(ValueError):
        solve_barycentric(np.ones((2, 0)), c=1.0)


def test_augmented_vector_cases():
    assert np.allclose(augmented_vector_discrete(np.zeros((3, 2)), 1e-3), 0.0)
    v = np.array([0.3, -1.2, 0.7])
    T = augmented_vector_discrete(v[:, None], c=0.05)
    assert np.allclose(T, v / (v @ v + 0.05), atol=1e-12)


def test_augmented_vector_points_inward_near_boundary():
    cloud = sample_disk(4000, seed=5)
    graph = build_graph(cloud, EpsilonBall(0.15))
    c = default_regularizer(cloud.n, 0.15, 2)
    gt = cloud.ground_truth
    near = np.nonzero(gt.boundary_dist < 0.15 / 4)[0]
    dots = []
    for k in near:
        G = local_data_matrix(cloud, graph, k)
        T = augmented_vector_discrete(G, c)
        dots.append(T @ gt.outward_normal_tangent[k])
    dots = np.array(dots)
    assert np.mean(dots < 0) > 0.95
    assert dots.mean() < 0


def test_s1_grid_rows_are_half_half():
    m = 8
    cloud = s1_grid_cloud(m)
    graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
    lle = build_lle_matrix(cloud, graph, c_rule=1e-3)
    W = lle.weights.toarray()
    assert np.all(lle.n_k == 2)
    assert np.allclose(W[W > 0], 0.5)


def test_row_sums_one(disk_runs):
    lle = disk_runs[0]["lle"]
    err = np.max(np.abs(lle.weights @ np.ones(lle.n) - 1.0))
    assert err <= 1e-12


# (cloud, eps): the convergence sweep's disk and interval runs
MOMENT_CLOUDS = {"disk-0.15": (lambda: sample_disk(4000, 2), 0.15),
                 "interval-0.02": (lambda: sample_interval(2000, 1), 0.02)}


@pytest.mark.parametrize("name", sorted(MOMENT_CLOUDS))
def test_row_moments_decompose_the_shifted_operator(name):
    # for a quadratic f whose gradient lies along n_k and whose Hessian is
    # a I + b n n^T, (W - I) f is exactly grad f.n m1 + (f_nn m2n + f_tt m2t)/2;
    # measured to 5e-15 (disk) and 1.5e-13 (interval) relative. f = x1 is
    # checked in d = 1 only: on the disk its gradient has a tangential part,
    # and the tangential first moment, which row_moments leaves out, enters
    make, eps = MOMENT_CLOUDS[name]
    cloud = make()
    x, normal = cloud.points, cloud.ground_truth.outward_normal_tangent
    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(eps)), "auto")
    m1, m2n, m2t = row_moments(lle.weights, x, normal)
    # (f, df/dn, f_nn, f_tt) at every point
    cases = [((x ** 2).sum(axis=1), 2.0 * (x * normal).sum(axis=1), 2.0, 2.0)]
    if cloud.intrinsic_dim == 1:
        cases.append((x[:, 0], normal[:, 0], 0.0, 0.0))
    for f, f_n, f_nn, f_tt in cases:
        shifted = apply_shifted(lle.weights, f) / eps ** 2
        moments = (f_n * m1 + 0.5 * (f_nn * m2n + f_tt * m2t)) / eps ** 2
        assert np.max(np.abs(moments - shifted)) <= 1e-12 * np.max(np.abs(shifted))


@pytest.mark.parametrize("per_eps", [40, 80, 160])
def test_normal_moment_changes_sign_at_tstar_on_the_grid(per_eps):
    # the degeneracy read off W: phi2 = m2n/(2 eps^2) turns nonnegative at t*.
    # kappa 0.01 puts reg = kappa eps = 2e-4, where the reg-0 t* applies;
    # measured 0.2750, 0.2625, 0.2687 eps against 0.2679 eps
    eps, kappa = 0.02, 0.01
    n = int(round(per_eps / eps)) + 1
    cloud = interval_grid(n)
    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(eps)), kappa * n * eps ** 4)
    gt = cloud.ground_truth
    _, m2n, _ = row_moments(lle.weights, cloud.points, gt.outward_normal_tangent)
    order = np.argsort(gt.boundary_dist, kind="stable")
    first = gt.boundary_dist[order][np.argmax(m2n[order] >= 0.0)]
    assert abs(first - AnalyticCoeffs(1, eps).tstar()) <= 2.0 / (n - 1), first / eps


def test_row_moments_refuse_an_empty_row():
    W = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    pts = np.arange(3.0)[:, None]
    with pytest.raises(ValueError, match=r"\[1\]"):
        row_moments(W, pts, np.ones((3, 1)))


def test_build_errors():
    pts = np.array([[0.0], [1.0], [50.0]])
    cloud = PointCloud(pts, intrinsic_dim=1, seed=0, manifold_tag="raw")
    graph = build_graph(cloud, EpsilonBall(2.0))
    with pytest.raises(ValueError, match=r"\[2\]"):
        build_lle_matrix(cloud, graph, c_rule=1e-3)

    cloud2 = PointCloud(np.arange(6.0)[:, None], intrinsic_dim=1, seed=0, manifold_tag="raw")
    knn_graph = build_graph(cloud2, Knn(2))
    with pytest.raises(ValueError, match="KNN"):
        build_lle_matrix(cloud2, knn_graph, c_rule="auto")
    # an explicit eps unlocks the automatic rule on a KNN graph
    lle = build_lle_matrix(cloud2, knn_graph, c_rule="auto", eps=1.5)
    assert lle.c == default_regularizer(6, 1.5, 1)


def test_apply_shifted():
    m = 6
    cloud = s1_grid_cloud(m)
    graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
    lle = build_lle_matrix(cloud, graph, c_rule=1e-3)
    out = apply_shifted(lle.weights, np.full(2 * m, 3.7))
    assert np.max(np.abs(out)) <= 1e-12
    with pytest.raises(ValueError):
        apply_shifted(lle.weights, np.ones(5))


def test_affine_reproduction_by_barycentric_average():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(2, 6))
    sol = solve_barycentric(G, 1e-3)
    lin = np.array([2.0, -1.0])
    values = lin @ G  # linear function of the offsets, f(x_k) = 0
    recon = sol.w @ G.T
    assert abs(sol.w @ values - lin @ recon) < 1e-12


def test_alpha_family():
    m = 7
    lle = s1_lle(m)

    uniform = build_alpha_kernel_matrix(lle, alpha=1.0)
    W1 = uniform.weights.toarray()
    assert np.allclose(W1[W1 > 0], 0.5)

    half = build_alpha_kernel_matrix(lle, alpha=0.5)
    assert np.max(np.abs(half.weights.toarray() - lle.weights.toarray())) <= 1e-10

    # alpha = 0 is the pure signed kernel; on the circle the curvature makes
    # both entries of every row negative, so every row sum is nonpositive and
    # the rows are reported degenerate and left unnormalized.
    with pytest.warns(UserWarning, match="nonpositive"):
        zero = build_alpha_kernel_matrix(lle, alpha=0.0)
    W0 = zero.weights.toarray()
    assert np.all(np.isfinite(W0))
    assert zero.meta["degenerate_rows"] == list(range(2 * m))
    assert np.all(zero.y_sum < 0.0)


def test_alpha_kernel_runs_no_solve(monkeypatch):
    # the family reads W's solves: with both solve routes gone, every alpha still
    # builds. The cloud has rows on the gram route and on the direct route
    rng = np.random.default_rng(9)
    cluster = rng.normal(scale=0.05, size=(12, 3))
    chain = np.column_stack([np.arange(1, 7) * 0.3, np.zeros(6), np.zeros(6)])
    cloud = PointCloud(np.vstack([cluster, chain]), intrinsic_dim=3, seed=0, manifold_tag="raw")
    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(0.35)), c_rule=1e-3)
    assert np.any(lle.n_k <= 3) and np.any(lle.n_k > 3)

    def unreachable(*args, **kwargs):
        raise AssertionError("a barycentric solve ran")
    monkeypatch.setattr(lle_module, "_gram_dots", unreachable)
    monkeypatch.setattr(lle_module, "_solve_direct", unreachable)
    # alpha = 0, the signed kernel alone, leaves rows of this cloud degenerate
    with pytest.warns(UserWarning, match="nonpositive"):
        build_alpha_kernel_matrix(lle, 0.0)
    half = build_alpha_kernel_matrix(lle, 0.5)
    assert np.max(np.abs((half.weights - lle.weights).toarray())) <= 1e-10
    ball = build_alpha_kernel_matrix(lle, 1.0)
    assert np.allclose(ball.weights.data, np.repeat(1.0 / lle.n_k, lle.n_k))


def test_regularizer_must_be_positive_and_finite(tmp_path):
    m = 7
    cloud = s1_grid_cloud(m)
    graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
    for c in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            build_lle_matrix(cloud, graph, c_rule=c)
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main(["build", "--n", "300", "--eps", "0.05", "--c", "inf", "--out", str(out)])
    assert exc.value.code != 0
    assert not out.exists()


def test_alpha_half_on_random_cloud(disk_runs):
    run = disk_runs[0]
    sub = np.arange(0, 300)
    cloud = PointCloud(run["cloud"].points[sub], intrinsic_dim=2, seed=0, manifold_tag="raw")
    graph = build_graph(cloud, EpsilonBall(0.25))
    c = 1e-3
    lle = build_lle_matrix(cloud, graph, c_rule=c)
    half = build_alpha_kernel_matrix(lle, alpha=0.5)
    assert np.max(np.abs((half.weights - lle.weights).toarray())) <= 1e-10


def test_rigid_motion_invariance():
    cloud = sample_disk(400, seed=8)
    graph = build_graph(cloud, EpsilonBall(0.3))
    lle = build_lle_matrix(cloud, graph, c_rule=1e-3)

    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    moved = PointCloud(cloud.points @ q.T + np.array([5.0, -1.0]),
                       intrinsic_dim=2, seed=8, manifold_tag="moved")
    graph2 = build_graph(moved, EpsilonBall(0.3))
    for a, b in zip(graph.neighbors, graph2.neighbors):
        assert np.array_equal(a, b)
    lle2 = build_lle_matrix(moved, graph2, c_rule=1e-3)
    assert np.max(np.abs((lle.weights - lle2.weights).toarray())) <= 1e-10


# The batched kernel against the per-row oracle. w is compared absolutely;
# y is of the size of 1/c (up to ~1e4 here), so it is compared relative to
# the row's largest |y|, and y_sum relative to itself.
ORACLE_TOL = 1e-12


def assert_rows_match_oracle(cloud, graph, lle):
    W = lle.weights
    for k in range(cloud.n):
        sol = solve_barycentric(local_data_matrix(cloud, graph, k), lle.c)
        lo, hi = W.indptr[k], W.indptr[k + 1]
        assert np.max(np.abs(W.data[lo:hi] - sol.w)) <= ORACLE_TOL
        assert np.max(np.abs(lle.y[lo:hi] - sol.y)) <= ORACLE_TOL * np.max(np.abs(sol.y))
        assert abs(lle.y_sum[k] - sol.y_sum) <= ORACLE_TOL * abs(sol.y_sum)


def assert_alpha_rows_match_oracle(cloud, graph, lle, alpha):
    K = build_alpha_kernel_matrix(lle, alpha)
    for k in range(cloud.n):
        G = local_data_matrix(cloud, graph, k)
        vals = alpha - (1.0 - alpha) * (G.T @ augmented_vector_discrete(G, lle.c))
        row = K.row_kernel(k)
        assert np.max(np.abs(row - vals)) <= ORACLE_TOL * max(1.0, np.max(np.abs(vals)))


def batched_fixture(kind):
    if kind == "disk":
        return sample_disk(900, seed=12), EpsilonBall(0.2), "auto"
    if kind == "torus":
        return sample_truncated_torus(1500, seed=4), EpsilonBall(0.6), "auto"
    if kind == "interval":
        return sample_interval(1000, seed=3), EpsilonBall(0.02), "auto"
    return ten_point_cloud(), Knn(5), 1e-3


@pytest.mark.parametrize("kind", ["disk", "torus", "interval", "ten_point_knn5"])
def test_batched_build_matches_per_row_oracle(kind):
    cloud, scheme, c_rule = batched_fixture(kind)
    graph = build_graph(cloud, scheme)
    lle = build_lle_matrix(cloud, graph, c_rule)
    assert np.all(lle.n_k > cloud.ambient_dim)  # every row on the gram route
    assert_rows_match_oracle(cloud, graph, lle)
    assert_alpha_rows_match_oracle(cloud, graph, lle, alpha=0.75)


@pytest.mark.parametrize("direction", [[0.6, 0.8], [2.0 / 7.0, 3.0 / 7.0, 6.0 / 7.0]])
def test_batched_rank_deficient_gram(direction):
    # collinear points in R^2 and R^3: every G G^T has rank 1, and the rank
    # threshold annihilates the other directions in both paths alike
    t = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 60))
    cloud = PointCloud(t[:, None] * np.array(direction)[None, :], intrinsic_dim=1, seed=0,
                       manifold_tag="raw")
    graph = build_graph(cloud, EpsilonBall(0.15))
    for k in (0, 30, 59):
        assert _gram_eig(local_data_matrix(cloud, graph, k), 1e-3)[3] == 1
    # at c = 1e-40 a rounding-level eigenvalue that escaped the threshold
    # would be amplified to O(1) in T_n
    for c in (1e-3, 1e-6, 1e-40):
        lle = build_lle_matrix(cloud, graph, c_rule=c)
        assert_rows_match_oracle(cloud, graph, lle)
        assert_alpha_rows_match_oracle(cloud, graph, lle, alpha=0.75)


def test_batched_direct_route_rows():
    # a tight cluster (N_k > p, gram route) beside a sparse chain (N_k <= p,
    # direct route) in R^3
    rng = np.random.default_rng(9)
    cluster = rng.normal(scale=0.05, size=(12, 3))
    chain = np.column_stack([np.arange(1, 7) * 0.3, np.zeros(6), np.zeros(6)])
    cloud = PointCloud(np.vstack([cluster, chain]), intrinsic_dim=3, seed=0, manifold_tag="raw")
    graph = build_graph(cloud, EpsilonBall(0.35))
    counts = graph.counts
    assert np.any(counts <= 3) and np.any(counts > 3) and np.all(counts > 0)
    # at c = 1e-9 the gram route would miss the direct solve by more than 1e-12
    for c in (1e-3, 1e-9):
        assert_rows_match_oracle(cloud, graph, build_lle_matrix(cloud, graph, c_rule=c))


def test_batched_isolated_point():
    # an isolated point: the indicator marks it missing and solves the other
    # rows as the per-row oracle does; the LLE build refuses the graph
    from lleboundary.boundary import indicator
    rng = np.random.default_rng(2)
    pts = np.vstack([rng.uniform(0.0, 1.0, size=(80, 2)), [[9.0, 9.0]]])
    cloud = PointCloud(pts, intrinsic_dim=2, seed=0, manifold_tag="raw")
    graph = build_graph(cloud, EpsilonBall(0.3))
    assert graph.counts[80] == 0 and np.all(graph.counts[:80] > 2)
    rep = indicator(cloud, graph, c_rule=1e-2)
    assert rep.missing.tolist() == [False] * 80 + [True]
    assert np.isnan(rep.b_values[80])
    for k in range(80):
        y_sum = solve_barycentric(local_data_matrix(cloud, graph, k), 1e-2).y_sum
        expect = (graph.counts[k] - 1e-2 * y_sum) / graph.counts[k]
        assert abs(rep.b_values[k] - expect) <= ORACLE_TOL * max(1.0, abs(expect))
    with pytest.raises(ValueError, match=r"\[80\]"):
        build_lle_matrix(cloud, graph, c_rule=1e-2)


def test_batched_nonpositive_row_sum_warns():
    # row 0's three neighbors coincide at offset 1 and c = 2^-70 is lost next
    # to G G^T = 3, so T_n = 1 and y = (1 - 1)/c = 0 exactly on both paths
    from lleboundary.boundary import indicator
    cloud = PointCloud(np.array([[0.0], [1.0], [1.0], [1.0]]), intrinsic_dim=1, seed=0,
                       manifold_tag="raw")
    graph = build_graph(cloud, EpsilonBall(1.5))
    c = 2.0 ** -70
    with np.errstate(invalid="ignore"):  # w = 0/0 on that row
        assert solve_barycentric(local_data_matrix(cloud, graph, 0), c).y_sum == 0.0
        with pytest.warns(UserWarning, match=r"nonpositive kernel sum.*\[0\]"):
            lle = build_lle_matrix(cloud, graph, c_rule=c)
    assert lle.y_sum[0] == 0.0 and np.all(lle.y_sum[1:] > 0)
    with pytest.warns(UserWarning, match=r"nonpositive kernel sum.*\[0\]"):
        rep = indicator(cloud, graph, c_rule=c)
    assert rep.b_values[0] == 1.0


FIRST_TEN = "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...]"


def test_row_lists_give_the_count_and_at_most_ten_indices():
    # 30 points 1 apart in an eps = 0.5 ball: every point is isolated
    cloud = PointCloud(np.arange(30.0)[:, None], intrinsic_dim=1, seed=0, manifold_tag="raw")
    with pytest.raises(ValueError) as exc:
        build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(0.5)), c_rule=1e-3)
    assert str(exc.value) == f"isolated points (no neighbors): 30 {FIRST_TEN}"
    with pytest.raises(ValueError) as exc:
        row_moments(sp.csr_matrix((30, 30)), cloud.points, np.ones((30, 1)))
    assert str(exc.value) == f"W has rows without entries: 30 {FIRST_TEN}"
    # twelve copies, 10 apart, of test_batched_nonpositive_row_sum_warns' cloud:
    # rows 0, 4, ..., 44 have kernel sum 0
    pts = (10.0 * np.arange(12)[:, None] + np.array([0.0, 1.0, 1.0, 1.0])).reshape(-1, 1)
    cloud = PointCloud(pts, intrinsic_dim=1, seed=0, manifold_tag="raw")
    with np.errstate(invalid="ignore"), pytest.warns(UserWarning) as record:
        build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(1.5)), c_rule=2.0 ** -70)
    assert [str(w.message) for w in record] == [
        "rows with nonpositive kernel sum (weights flip sign): "
        "12 [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, ...]"]
    # alpha = 0 on the 14-point circle: every row is degenerate; the sidecar lists all
    with pytest.warns(UserWarning) as record:
        zero = build_alpha_kernel_matrix(s1_lle(7), alpha=0.0)
    assert [str(w.message) for w in record] == [
        f"alpha-kernel rows with nonpositive sum left unnormalized: 14 {FIRST_TEN}"]
    assert zero.meta["degenerate_rows"] == list(range(14))


def test_batched_knn_ties_to_smaller_index():
    # a 4 x 4 unit grid: an interior point has four neighbors at distance 1,
    # and Knn(3) keeps the three with the smallest indices
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0), indexing="ij")
    cloud = PointCloud(np.column_stack([xs.ravel(), ys.ravel()]), intrinsic_dim=2, seed=0,
                       manifold_tag="grid")
    graph = build_graph(cloud, Knn(3))
    assert graph.neighbors[5].tolist() == [1, 4, 6]  # not 9
    ref = brute_force_neighbors(cloud, Knn(3))
    assert np.array_equal(graph.indices, ref.indices)
    assert np.array_equal(graph.dist, ref.dist)
    assert_rows_match_oracle(cloud, graph, build_lle_matrix(cloud, graph, c_rule=1e-3))


def test_kernel_sums_positive_on_standard_clouds(interval_runs):
    for run in interval_runs:
        assert np.all(run["lle"].y_sum > 0.0)


def test_dm_neumann_vs_clipped_dirichlet_on_interval():
    # the modes of the alpha = 1 ball average stay large at the interval ends
    # (Neumann-like cosines); the clipped LLE matrix modes vanish there
    # (Dirichlet-like). Both are built on one eps-ball graph
    from lleboundary.boundary import clip, partition_regions

    cloud = sample_interval(2000, seed=1)
    eps = 0.02
    t = cloud.points[:, 0]

    def end_ratio(matrix, pos, j):
        spec = eig(matrix, k=j + 1, ordering="real_desc")
        v = np.abs(spec.eigenvectors.real[:, j])
        return max(v[np.argmin(pos)], v[np.argmax(pos)]) / v.max()

    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(eps)), "auto")
    ball = build_alpha_kernel_matrix(lle, alpha=1.0).weights
    assert end_ratio(ball, t, 1) > 0.5
    assert end_ratio(ball, t, 2) > 0.5

    regions = partition_regions(cloud, eps, AnalyticCoeffs(1, eps).tstar())
    Wr, kept = clip(lle, regions)
    assert end_ratio(Wr, t[kept], 2) < 0.1
    assert end_ratio(Wr, t[kept], 3) < 0.1


# The alpha family on the [0, 1] grid at kappa = 1 (c = n eps^4, the auto
# regularizer of the LLE member): every alpha has the interior generator f''/6,
# so nu_j = (1 - mu_(j+1))/eps^2 is compared with the Neumann value (j pi)^2/6.
# Each sweep over alpha reads the solves of one LLE matrix per eps.
GRID_N = {0.02: 4001, 0.01: 8001}


def grid_lle(eps):
    """The LLE matrix on the grid of GRID_N[eps] points, at c = n eps^4."""
    n = GRID_N[eps]
    cloud = interval_grid(n)
    return build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(eps)), n * eps ** 4)


def grid_neumann_ratios(lle, alpha, count=4):
    """nu_1..nu_count of the alpha kernel of a grid_lle matrix, over (j pi)^2/6."""
    eps = lle.meta["epsilon"]
    W = build_alpha_kernel_matrix(lle, alpha).weights
    mu = eig(W, k=count + 1, ordering="real_desc").eigenvalues
    j = np.arange(1, count + 1)
    return (1.0 - mu[1:].real) / eps ** 2 / ((j * np.pi) ** 2 / 6.0)


def test_ball_average_approaches_neumann_and_lle_does_not():
    # alpha = 1 (the ball average) tends to Neumann as eps -> 0: measured
    # nu_j/Neumann, j = 1..4, 1.0167-1.0207 at eps 0.02 and 1.0060-1.0083 at
    # 0.01, so its gap (max |ratio - 1|) at 0.01 is 0.40 of that at 0.02; the
    # bound is 0.6. LLE (alpha = 1/2) keeps its end mass: nu_1/Neumann measured
    # 0.7914 and 0.7907, bound [0.76, 0.82] at both
    gap = {}
    for eps in GRID_N:
        lle = grid_lle(eps)
        gap[eps] = np.max(np.abs(grid_neumann_ratios(lle, 1.0) - 1.0))
        nu1 = grid_neumann_ratios(lle, 0.5)[0]
        assert 0.76 <= nu1 <= 0.82, (eps, nu1)
    assert gap[0.01] < 0.6 * gap[0.02], gap


def test_nu1_rises_with_alpha_above_one_half():
    # measured mu_2 at alpha 0.5, 0.52, 0.55, 0.6, 0.65, 0.7: 0.999479, 0.999402,
    # 0.999370, 0.999352, 0.999344, 0.999339 (nu_1/Neumann 0.791 to 1.004); the
    # smallest step, 5e-6, is far above the Arnoldi tolerance 1e-10
    lle = grid_lle(0.02)
    nu1 = [grid_neumann_ratios(lle, alpha, count=1)[0]
           for alpha in (0.5, 0.52, 0.55, 0.6, 0.65, 0.7)]
    assert np.all(np.diff(nu1) > 0.0), nu1


def test_below_one_half_an_alpha_kernel_eigenvalue_exceeds_one():
    # at alpha 0.45 the signed kernel outweighs the ball: measured leading
    # eigenvalue 1.148; n is above the dense cutoff, so this is Arnoldi's value
    assert GRID_N[0.02] > DENSE_CUTOFF
    W = build_alpha_kernel_matrix(grid_lle(0.02), alpha=0.45).weights
    mu = eig(W, k=3, ordering="real_desc").eigenvalues
    assert mu[0].real > 1.1, mu


# Depth bands, in units of eps: three in the boundary layer and one interior band.
DEPTH_BANDS = ((0.0, 0.25), (0.25, 0.5), (0.5, 1.0), (2.0, 10.0))


def ball_average_band_means(cloud, lle, eps):
    """Band means of (W - I) f / eps^2 for the alpha = 1 kernel W of the LLE matrix lle
    and f = |x|^2, measured
    and as the table's psi1, psi2 and drift predict them:
    psi1 (Lap f - f_nn) + psi2 f_nn + (drift/eps) df/dn
    with Lap f = 2d, f_nn = 2 and df/dn = 2 x.n at the ground-truth depth and normal."""
    x, gt, d = cloud.points, cloud.ground_truth, cloud.intrinsic_dim
    W = build_alpha_kernel_matrix(lle, alpha=1.0).weights
    measured = apply_shifted(W, np.sum(x ** 2, axis=1)) / eps ** 2
    cf = AnalyticCoeffs(d, eps).table(gt.boundary_dist)
    predicted = (cf["psi1"] * 2.0 * (d - 1) + cf["psi2"] * 2.0
                 + cf["drift"] / eps * 2.0 * np.sum(x * gt.outward_normal_tangent, axis=1))
    depth = gt.boundary_dist / eps
    bands = [(lo <= depth) & (depth < hi) for lo, hi in DEPTH_BANDS]
    return (np.array([measured[b].mean() for b in bands]),
            np.array([predicted[b].mean() for b in bands]))


@pytest.mark.parametrize("eps", sorted(GRID_N))
def test_dm_coeffs_predict_the_ball_average_on_the_grid(eps):
    # measured / predicted at eps 0.02: -21.65/-21.63, -15.18/-15.30,
    # -5.70/-5.96, 0.335/0.333; at eps 0.01: -44.34/-44.42, -29.73/-29.96,
    # -11.89/-12.37, 0.335/0.333. The [eps/2, eps) band is off by 4.4% and 3.9%:
    # eps is 80 grid spacings, and rounding decides whether the point at
    # distance eps is a neighbour (interior rows hold 158-160), which moves
    # the drift's mean (t - eps)/2 by up to a spacing, large beside eps - t as
    # t -> eps; the ratio does not shrink with eps. Relative tolerances per
    # band: 1%, 2%, 6%, 1%
    cloud = interval_grid(GRID_N[eps])
    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(eps)), "auto")
    measured, predicted = ball_average_band_means(cloud, lle, eps)
    assert np.all(np.abs(measured / predicted - 1.0) <= [0.01, 0.02, 0.06, 0.01]), (
        measured, predicted)


def test_dm_coeffs_predict_the_ball_average_on_the_disk(disk_runs):
    # eps 0.1: 740-830 points in each of the two outer bands, about 1470 in
    # [eps/2, eps) and 10000 in [2 eps, 10 eps). Measured relative errors per
    # band at seeds 1, 2, 3: 0.9%, 1.0%, 16%, 1.9%; 3.5%, 3.6%, 3.6%, 1.1%;
    # 4.0%, 6.5%, 11%, 1.9%. In [eps/2, eps) the drift (about -1.4) and the
    # second-order term (+0.5) nearly cancel, so sampling noise weighs more
    # there. Relative tolerances per band: 8%, 8%, 25%, 5%
    for run in disk_runs:
        measured, predicted = ball_average_band_means(run["cloud"], run["lle"], 0.1)
        assert np.all(np.abs(measured / predicted - 1.0) <= [0.08, 0.08, 0.25, 0.05]), (
            run["seed"], measured, predicted)


def test_disk_kernel_sign_structure_weak(disk_runs):
    # rows away from the rim are nonnegative; at least one near-rim row goes
    # negative (at eps=0.1 the regularizer damps most of the negativity, so
    # only a minority of near rows carry a negative entry)
    run = disk_runs[0]
    cloud, lle = run["cloud"], run["lle"]
    bd = cloud.ground_truth.boundary_dist
    near_negative = 0
    for k in range(cloud.n):
        y = lle.row_kernel(k)
        if bd[k] > 0.1:
            assert y.min() >= -1e-10
        elif bd[k] < 0.1 / 4 and y.min() < 0:
            near_negative += 1
    assert near_negative >= 1
    assert np.all(lle.y_sum > 0)


def test_kernel_row_storage(disk_runs):
    lle = disk_runs[0]["lle"]
    k = 123
    y = lle.row_kernel(k)
    assert len(y) == lle.n_k[k]
    assert abs(y.sum() - lle.y_sum[k]) <= 1e-9 * max(1.0, abs(lle.y_sum[k]))


@pytest.mark.parametrize("call, word", [
    (lambda: solve_barycentric(np.ones((1, 2)), 1e-3, path="x"), "unknown path"),
    (lambda: resolve_c(sample_interval(50, seed=1), EpsilonBall(0.1), "fixed"), "c_rule"),
    (lambda: resolve_c(sample_interval(50, seed=1), EpsilonBall(0.1), "auto", eps=0.2),
     r"eps 0\.2 is not the graph's ball radius 0\.1"),
    (lambda: build_alpha_kernel_matrix(s1_lle(), alpha=1.5), "alpha"),
    (lambda: build_alpha_kernel_matrix(build_alpha_kernel_matrix(s1_lle(), 1.0), 0.5),
     "not an alpha kernel"),
], ids=["solve-path", "c-rule", "eps-not-the-ball-radius", "alpha-kernel-alpha",
        "alpha-kernel-of-alpha-kernel"])
def test_builder_refusals(call, word):
    with pytest.raises(ValueError, match=word):
        call()


@pytest.mark.parametrize("knn", [12, None], ids=["knn-and-eps", "eps-ball"])
def test_alpha_kernel_sidecar_matches_the_lle_one(knn):
    # both builders write one record: beside KNN, epsilon is the eps that resolved c
    cloud = sample_interval(400, seed=1)
    graph = build_graph(cloud, EpsilonBall(0.1) if knn is None else Knn(knn))
    lle = build_lle_matrix(cloud, graph, "auto", eps=0.1)
    alpha = build_alpha_kernel_matrix(lle, alpha=0.5)
    assert {key: alpha.meta[key] for key in SIDECAR_KEYS} == {
        key: lle.meta[key] for key in SIDECAR_KEYS}
    assert alpha.meta["epsilon"] == 0.1 and alpha.meta["alpha"] == 0.5
