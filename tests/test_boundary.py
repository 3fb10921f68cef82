import math

import numpy as np
import pytest

from conftest import b_zero_closed_form, s1_grid_cloud, s1_grid_eps
from lleboundary.analytic import AnalyticCoeffs
from lleboundary.boundary import (BoundaryReport, classify, clip, default_threshold,
                                  indicator, partition_regions)
from lleboundary.lle import build_lle_matrix
from lleboundary.neighbors import EpsilonBall, Knn, build_graph
from lleboundary.samplers import GroundTruth, PointCloud, sample_interval

SQRT3 = math.sqrt(3.0)


def test_degenerate_row_indicator_is_zero():
    # two coincident points: G = 0, y = 1/c, so B = (1 - c/c)/1 = 0
    pts = np.zeros((2, 2))
    cloud = PointCloud(pts, intrinsic_dim=2, seed=0, manifold_tag="dup")
    graph = build_graph(cloud, EpsilonBall(0.5))
    rep = indicator(cloud, graph, c_rule=1e-3)
    assert np.allclose(rep.b_values, 0.0)


def test_missing_rows_marked():
    pts = np.array([[0.0], [0.2], [9.0]])
    cloud = PointCloud(pts, intrinsic_dim=1, seed=0, manifold_tag="raw")
    graph = build_graph(cloud, EpsilonBall(0.5))
    rep = classify(indicator(cloud, graph, c_rule=1e-3))
    assert rep.missing.tolist() == [False, False, True]
    assert np.isnan(rep.b_values[2])
    assert rep.labels[2] == "missing"


def test_indicator_requires_eps_graph():
    cloud = sample_interval(50, seed=1)
    knn = build_graph(cloud, Knn(4))
    with pytest.raises(ValueError):
        indicator(cloud, knn, c_rule=1e-3)


def test_indicator_reuses_lle_solves(interval_runs):
    run = interval_runs[0]
    rep1 = indicator(run["cloud"], run["graph"], "auto", lle=run["lle"])
    c = run["lle"].c
    expect = (run["lle"].n_k - c * run["lle"].y_sum) / run["lle"].n_k
    assert np.array_equal(rep1.b_values, expect)


def test_classify_thresholds(interval_runs):
    run = interval_runs[0]
    rep = indicator(run["cloud"], run["graph"], "auto", lle=run["lle"])

    with pytest.warns(UserWarning):
        all_boundary = classify(rep, tau=0.0)
    assert np.all(all_boundary.labels[~all_boundary.missing] == "boundary")

    none = classify(rep, tau=float(np.nanmax(rep.b_values)))
    assert not np.any(none.labels == "boundary")

    # monotone: raising tau never adds boundary labels
    taus = [0.05, 0.1, 0.2, 0.4]
    sets = [set(np.nonzero(classify(rep, tau=t).labels == "boundary")[0]) for t in taus]
    for small, big in zip(sets[1:], sets[:-1]):
        assert small.issubset(big)

    # NaN labels every point interior, and neither NaN nor inf has a JSON spelling
    for tau in [float("nan"), float("inf"), -float("inf"), np.float64("nan")]:
        with pytest.raises(ValueError, match="tau must be a finite number"):
            classify(rep, tau=tau)


def test_default_threshold_formula():
    # b(0) * (3/4)^(d+1) / 2 with b(0) read from the table, against the closed
    # form of b(0); at d = 1 and 2 the two agree to the last bit
    for d in (1, 2, 3, 5):
        for eps in (0.01, 0.1, 0.3):
            expect = b_zero_closed_form(d) * 0.75 ** (d + 1) / 2.0
            assert abs(default_threshold(d, eps) - expect) < 1e-15
            if d <= 2:
                assert default_threshold(d, eps) == expect
    rep_tau = default_threshold(1, 0.01)
    assert 0.0 < rep_tau < 0.75


def test_partition_regions_interval():
    cloud = sample_interval(4000, seed=2)
    eps = 0.01
    cf = AnalyticCoeffs(1, eps)
    tstar = cf.tstar()
    regions = partition_regions(cloud, eps, tstar)
    bd = cloud.ground_truth.boundary_dist
    assert np.all((regions == "wave") == (bd < tstar))
    assert np.all((regions == "interior") == (bd > 2 * eps))
    t = cloud.points[:, 0]
    wave_truth = (t < tstar) | (t > 1.0 - tstar)
    assert np.all((regions == "wave") == wave_truth)


def test_partition_boundary_cases():
    eps, tstar = 0.1, 0.03
    gt = GroundTruth(param_coords=np.zeros((3, 1)),
                     boundary_dist=np.array([3 * eps, tstar, 0.0]))
    cloud = PointCloud(np.zeros((3, 1)), intrinsic_dim=1, seed=0,
                       manifold_tag="raw", ground_truth=gt)
    regions = partition_regions(cloud, eps, tstar)
    assert regions[0] == "interior"
    assert regions[1] == "near_boundary"  # closed lower bound at exactly t*
    assert regions[2] == "wave"


@pytest.mark.parametrize("bad", [-0.1, np.nan])
def test_negative_or_nan_boundary_distance_is_refused(bad):
    # a nan depth would fall in no band of partition_regions and survive clip
    gt = GroundTruth(param_coords=np.zeros((3, 1)), boundary_dist=np.array([0.1, bad, 0.5]))
    with pytest.raises(ValueError, match="nonnegative"):
        PointCloud(np.zeros((3, 1)), intrinsic_dim=1, seed=0, manifold_tag="raw",
                   ground_truth=gt)


def _bisect_depth(cf, b):
    """Scalar bisection for the t in [0, eps] where the table's B equals b."""
    if not np.isfinite(b):
        return np.inf
    if b >= cf.table(0.0)["B"]:
        return 0.0
    if b <= 0.0:
        return cf.eps
    lo, hi = 0.0, cf.eps
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cf.table(mid)["B"] > b:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_region(cf, b, tstar):
    """Region of the proxy depth: bisected, with depth eps and beyond read as 3 eps."""
    dist = _bisect_depth(cf, b)
    if dist >= cf.eps:
        dist = 3.0 * cf.eps
    if dist < tstar:
        return "wave"
    return "near_boundary" if dist < cf.eps else "interior"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_proxy_partition_matches_scalar_bisection(d):
    # the thresholds on B label every point as the bisected depth does,
    # including the clamps b >= b(0), b <= 0 and non-finite b
    eps = 0.3
    cf = AnalyticCoeffs(d, eps)
    tstar = cf.tstar()
    b0 = cf.table(0.0)["B"]
    b = np.concatenate([np.linspace(-0.1, b0 + 0.1, 301),
                        [0.0, -1.0, b0, 2.0 * b0, np.nan, np.inf, -np.inf]])
    cloud = PointCloud(np.zeros((len(b), d)), intrinsic_dim=d, seed=0, manifold_tag="raw")
    report = BoundaryReport(b_values=b, d=d, eps=eps, c=1e-3, missing=np.isnan(b))
    regions = partition_regions(cloud, eps, tstar, report=report)
    assert regions.tolist() == [_bisect_region(cf, v, tstar) for v in b]
    assert regions[-7:].tolist() == ["interior", "interior", "wave", "wave",
                                     "interior", "interior", "interior"]
    assert {"wave", "near_boundary", "interior"} == set(regions)
    # B exactly b(t*) is on the near-boundary side of the cut, as dist = t* is
    one = PointCloud(np.zeros((1, d)), intrinsic_dim=d, seed=0, manifold_tag="raw")
    at_cut = BoundaryReport(b_values=np.array([cf.table(tstar)["B"]]), d=d, eps=eps, c=1e-3,
                            missing=np.zeros(1, dtype=bool))
    assert partition_regions(one, eps, tstar, report=at_cut).tolist() == ["near_boundary"]


def test_partition_via_indicator_proxy(interval_runs):
    run = interval_runs[0]
    cloud = run["cloud"]
    eps = 0.01
    rep = indicator(cloud, run["graph"], "auto", lle=run["lle"])
    stripped = PointCloud(cloud.points, intrinsic_dim=1, seed=cloud.seed,
                          manifold_tag="interval")
    tstar = AnalyticCoeffs(1, eps).tstar()
    prox = partition_regions(stripped, eps, tstar, report=rep)
    truth = partition_regions(cloud, eps, tstar)
    wave_truth = truth == "wave"
    wave_prox = prox == "wave"
    # heuristic proxy: required only to recover most of the wave strip
    recall = np.sum(wave_prox & wave_truth) / max(1, np.sum(wave_truth))
    assert recall >= 0.8
    assert np.sum(wave_prox) <= 4 * np.sum(wave_truth) + 4
    with pytest.raises(ValueError):
        partition_regions(stripped, eps, tstar)


def test_interval_profile_tracks_limit(interval_runs):
    # binned means of B_k across the boundary layer follow b(t) within 0.15
    run = interval_runs[0]
    rep = indicator(run["cloud"], run["graph"], "auto", lle=run["lle"])
    bd = run["cloud"].ground_truth.boundary_dist
    eps = 0.01
    cf = AnalyticCoeffs(1, eps)
    edges = np.linspace(0.0, 1.0, 5) * eps
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (bd >= lo) & (bd < hi)
        assert sel.sum() > 10
        limit = cf.table(0.5 * (lo + hi))["B"]
        assert abs(rep.b_values[sel].mean() - limit) <= 0.15


def test_classification_quality(disk_runs, interval_runs):
    # at the default threshold: strong recall near the boundary, essentially
    # no false positives in the interior
    run = interval_runs[0]
    rep = classify(indicator(run["cloud"], run["graph"], "auto", lle=run["lle"]))
    bd = run["cloud"].ground_truth.boundary_dist
    flagged = rep.labels == "boundary"
    near = bd < 0.01 / 2
    recall = np.sum(flagged & near) / near.sum()
    fpr = np.sum(flagged & (bd > 0.02)) / np.sum(bd > 0.02)
    assert recall >= 0.9
    assert fpr <= 0.05

    # disk at eps = 0.1: the regularizer n*eps^5 is comparable to the local
    # covariance scale near the rim (c/lambda ~ 0.8), which damps B_k and
    # costs recall at the limit-calibrated threshold; measured ~0.80
    run = disk_runs[0]
    rep = classify(indicator(run["cloud"], run["graph"], "auto", lle=run["lle"]))
    bd = run["cloud"].ground_truth.boundary_dist
    flagged = rep.labels == "boundary"
    near = bd < 0.1 / 2
    recall = np.sum(flagged & near) / near.sum()
    fpr = np.sum(flagged & (bd > 0.2)) / np.sum(bd > 0.2)
    assert recall >= 0.75
    assert fpr <= 0.05


def test_clip_identity_when_no_wave():
    m = 8
    cloud = s1_grid_cloud(m)
    graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
    lle = build_lle_matrix(cloud, graph, c_rule=1e-3)
    regions = np.full(2 * m, "interior", dtype="U13")
    Wr, kept = clip(lle, regions)
    assert np.array_equal(kept, np.arange(2 * m))
    assert (Wr != lle.weights).nnz == 0


def test_clip_is_principal_submatrix(interval_runs):
    run = interval_runs[0]
    cloud, lle = run["cloud"], run["lle"]
    eps = 0.01
    tstar = AnalyticCoeffs(1, eps).tstar()
    regions = partition_regions(cloud, eps, tstar)
    Wr, kept = clip(lle, regions)
    assert Wr.shape[0] == cloud.n - np.sum(regions == "wave")
    W = lle.weights
    rng = np.random.default_rng(0)
    for i in rng.integers(0, Wr.shape[0], size=60):
        for j in rng.integers(0, Wr.shape[0], size=12):
            assert Wr[int(i), int(j)] == W[kept[int(i)], kept[int(j)]]

    # rows with all neighbors retained still sum to 1; clipped-adjacent rows to less
    sums = np.asarray(Wr.sum(axis=1)).ravel()
    t = cloud.points[kept, 0]
    far = (t > tstar + 2 * eps) & (t < 1 - tstar - 2 * eps)
    assert np.max(np.abs(sums[far] - 1.0)) <= 1e-12
    near_clip = (t < tstar + 0.3 * eps) | (t > 1 - tstar - 0.3 * eps)
    assert np.all(sums[near_clip] < 1.0 - 1e-6)


def test_clip_dense_matches_sparse():
    m = 8
    cloud = s1_grid_cloud(m)
    graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
    W = build_lle_matrix(cloud, graph, c_rule=1e-3).weights
    regions = np.full(2 * m, "interior", dtype="U13")
    regions[[0, 5, 6, 11]] = "wave"
    Ws, kept_s = clip(W, regions)
    Wd, kept_d = clip(W.toarray(), regions)
    assert isinstance(Wd, np.ndarray) and np.array_equal(kept_d, kept_s)
    assert np.array_equal(Wd, Ws.toarray())
    for A in (W, W.toarray()):
        with pytest.raises(ValueError, match="match the matrix size"):
            clip(A, regions[:-1])


def test_clip_everything_errors():
    regions = np.full(4, "wave", dtype="U13")
    with pytest.raises(ValueError):
        clip(np.eye(4), regions)
