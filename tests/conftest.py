import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lleboundary import AnalyticCoeffs, EpsilonBall, build_graph, build_lle_matrix
from lleboundary.analytic import cap_coefficient, sphere_volume
from lleboundary.samplers import GroundTruth, PointCloud, sample_disk, sample_interval

DISK_SEEDS = (1, 2, 3)
ROOT = Path(__file__).resolve().parents[1]


def python_stdout(*args: str) -> str:
    """stdout of a fresh interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def s1_grid_cloud(m: int) -> PointCloud:
    """Uniform 2m-point grid on the unit circle (closed manifold fixture)."""
    n = 2 * m
    ang = 2.0 * np.pi * np.arange(n) / n
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    return PointCloud(pts, intrinsic_dim=1, seed=0, manifold_tag="s1_grid")


def s1_grid_eps(m: int) -> float:
    """Radius capturing exactly the two adjacent grid points."""
    n = 2 * m
    return 0.5 * (2.0 * np.sin(np.pi / n) + 2.0 * np.sin(2.0 * np.pi / n))


def interval_grid(n: int) -> PointCloud:
    """n evenly spaced points on [0, 1], with the interval's depth and outward normal."""
    t = np.linspace(0.0, 1.0, n)
    gt = GroundTruth(param_coords=t[:, None], boundary_dist=np.minimum(t, 1.0 - t),
                     outward_normal_tangent=np.where(t < 0.5, -1.0, 1.0)[:, None])
    return PointCloud(t[:, None], intrinsic_dim=1, seed=0, manifold_tag="grid", ground_truth=gt)


def one_d_operator(t, eps: float, a: float):
    """(A, B) of the 1-d operator A f'' + B f' on [0, a], uniform density 1/a:
    phi2 and side * V of AnalyticCoeffs(1, eps) at the depth r = min(t, a - t),
    side being the outward direction (-1 toward 0, +1 toward a)."""
    t = np.asarray(t, dtype=float)
    r = np.minimum(t, a - t)
    cf = AnalyticCoeffs(1, eps)
    return cf.phi(r)[1], np.where(t <= a - t, -1.0, 1.0) * cf.potential_v(r, 1.0 / a)


# Closed forms of the two boundary values the sigma table gives at t = 0, from
# |S^(d-2)|/(d-1) (cap_coefficient) and |S^(d-1)| (sphere_volume) alone.
def b_zero_closed_form(d: int) -> float:
    """B(0) = 4 d^2 (d+2) cap^2 / ((d+1)^2 sphere^2), the oracle of b_function(0)."""
    cap, sphere = cap_coefficient(d), sphere_volume(d - 1)
    return 4.0 * d * d * (d + 2) * cap ** 2 / ((d + 1) ** 2 * sphere ** 2)


def kernel_inf_closed_form(d: int) -> float:
    """1 - cap 2d(d+2)/((d+1) sphere), the oracle of the table's kernel infimum."""
    return 1.0 - cap_coefficient(d) * 2.0 * d * (d + 2) / ((d + 1) * sphere_volume(d - 1))


def kernel_inf(cf: AnalyticCoeffs) -> float:
    """The limit kernel's infimum read from the sigma table: 1 + sigma1d(0)/sigma2d(0)."""
    return 1.0 + cf.sigma1d(0.0) / cf.sigma2d(0.0)


# ten-point cloud whose 5-NN LLE matrix at c = 1e-3 has an eigenvalue -2.4233
TEN_POINTS = np.array([
    (-0.56, -0.34, 1.03),
    (-0.51, 0.32, -0.02),
    (-0.53, -1.47, -0.57),
    (1.34, 0.47, -0.15),
    (1.01, -1.56, 1.22),
    (-0.55, -1.00, -0.07),
    (0.09, -1.04, -0.20),
    (-1.27, 2.07, -0.90),
    (1.26, -0.71, -1.20),
    (1.46, 0.00, 0.61),
])


def ten_point_cloud() -> PointCloud:
    return PointCloud(TEN_POINTS.copy(), intrinsic_dim=3, seed=0, manifold_tag="fixture10")


@pytest.fixture(scope="session")
def disk_runs():
    """Full-scale disk builds (n_raw=20000, eps=0.1, automatic regularizer), three seeds.

    Returns a list of dicts with the cloud, graph, lle and the wall time spent.
    """
    runs = []
    for seed in DISK_SEEDS:
        t0 = time.perf_counter()
        cloud = sample_disk(20000, seed=seed)
        graph = build_graph(cloud, EpsilonBall(0.1))
        lle = build_lle_matrix(cloud, graph, "auto")
        runs.append({"seed": seed, "cloud": cloud, "graph": graph, "lle": lle,
                     "build_seconds": time.perf_counter() - t0})
    return runs


@pytest.fixture(scope="session")
def interval_runs():
    """Full-scale interval builds (n=8000, eps=0.01, automatic regularizer), three seeds."""
    runs = []
    for seed in DISK_SEEDS:
        t0 = time.perf_counter()
        cloud = sample_interval(8000, seed=seed)
        graph = build_graph(cloud, EpsilonBall(0.01))
        lle = build_lle_matrix(cloud, graph, "auto")
        runs.append({"seed": seed, "cloud": cloud, "graph": graph, "lle": lle,
                     "build_seconds": time.perf_counter() - t0})
    return runs
