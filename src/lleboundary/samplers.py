"""Test-manifold samplers with analytic ground truth.

Each sampler returns an immutable :class:`PointCloud` whose ground truth
(intrinsic parameters, distance to the manifold boundary, outward boundary
direction in the tangent space) feeds the boundary-layer experiments. Clouds
are reproduced bit-exactly from (sampler, parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng

__all__ = [
    "GroundTruth",
    "PointCloud",
    "sample_interval",
    "sample_disk",
    "sample_curve_m3",
    "sample_surface",
    "sample_truncated_torus",
    "sample_gaussian_null",
    "curve_m3_point",
    "curve_m3_speed",
]


def _freeze(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is not None:
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GroundTruth:
    """Per-point analytic data for validation.

    boundary_dist is the geodesic distance to the manifold boundary. When
    ``exact`` is False it is a documented proxy (or absent, as on the torus).
    """

    param_coords: np.ndarray
    boundary_dist: Optional[np.ndarray] = None
    outward_normal_tangent: Optional[np.ndarray] = None
    exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "param_coords", _freeze(self.param_coords))
        object.__setattr__(self, "boundary_dist", _freeze(self.boundary_dist))
        object.__setattr__(self, "outward_normal_tangent", _freeze(self.outward_normal_tangent))

    def __repr__(self) -> str:
        # a summary, like NeighborGraph's: the field-by-field repr prints every array
        present = [name for name in ("param_coords", "boundary_dist", "outward_normal_tangent")
                   if getattr(self, name) is not None]
        return f"GroundTruth({', '.join(present)}, exact={self.exact})"


@dataclass(frozen=True)
class PointCloud:
    """n points in ambient R^p sampled from a d-dimensional manifold.

    A rejection sampler keeps only its accepted draws, in draw order.
    """

    points: np.ndarray
    intrinsic_dim: int
    seed: int
    manifold_tag: str
    ground_truth: Optional[GroundTruth] = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if self.intrinsic_dim < 1 or pts.shape[1] < self.intrinsic_dim:
            raise ValueError("need p >= d >= 1")
        gt = self.ground_truth
        if gt is not None and gt.boundary_dist is not None and not np.all(gt.boundary_dist >= 0):
            raise ValueError("boundary distances must be nonnegative (and not nan)")
        object.__setattr__(self, "points", _freeze(pts))

    def __repr__(self) -> str:
        return (f"PointCloud({self.manifold_tag!r}, n={self.n}, p={self.ambient_dim}, "
                f"d={self.intrinsic_dim}, seed={self.seed}, ground_truth={self.ground_truth!r})")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


def _check_count(n: int, name: str = "n") -> int:
    n = int(n)
    if n < 1:
        raise ValueError(f"{name} must be >= 1 (empty input)")
    return n


def sample_interval(n: int, seed: int) -> PointCloud:
    """Uniform i.i.d. points on the unit interval [0, 1]."""
    n = _check_count(n)
    t = rng.uniform(seed, n)
    bdist = np.minimum(t, 1.0 - t)
    normal = np.where(t < 0.5, -1.0, 1.0)[:, None]
    gt = GroundTruth(param_coords=t[:, None], boundary_dist=bdist,
                     outward_normal_tangent=normal)
    return PointCloud(t[:, None], intrinsic_dim=1, seed=seed,
                      manifold_tag="interval", ground_truth=gt)


def _disk_draw(n_raw: int, seed: int):
    """n_raw candidates uniform on [-1, 1]^2, rejected to the closed unit disk.

    Returns the kept points and their radii, in draw order.
    """
    n_raw = _check_count(n_raw, "n_raw")
    u = rng.uniform(seed, 2 * n_raw).reshape(n_raw, 2)
    xy = 2.0 * u - 1.0
    r = np.sqrt((xy ** 2).sum(axis=1))
    keep = r <= 1.0
    if not keep.any():
        raise ValueError("rejection sampling kept no points; increase n_raw")
    return xy[keep], r[keep]


def sample_disk(n_raw: int, seed: int) -> PointCloud:
    """Uniform points on the closed unit disk by rejection from [-1, 1]^2.

    n_raw candidates are drawn; roughly pi/4 of them survive.
    """
    pts, rk = _disk_draw(n_raw, seed)
    normal = np.where(rk[:, None] > 1e-12, pts / np.maximum(rk, 1e-12)[:, None],
                      np.array([1.0, 0.0]))
    gt = GroundTruth(param_coords=pts.copy(), boundary_dist=1.0 - rk,
                     outward_normal_tangent=normal)
    return PointCloud(pts, intrinsic_dim=2, seed=seed, manifold_tag="disk", ground_truth=gt)


def curve_m3_point(t):
    """The curve t -> (t, log(0.5 + t), cos(pi t)) on [0, 1]."""
    t = np.asarray(t, dtype=float)
    return np.stack([t, np.log(0.5 + t), np.cos(np.pi * t)], axis=-1)


def curve_m3_speed(t):
    t = np.asarray(t, dtype=float)
    return np.sqrt(1.0 + (0.5 + t) ** -2 + (np.pi * np.sin(np.pi * t)) ** 2)


# 32-point Gauss-Legendre rule on [-1, 1]: one gap [0, 1] matches quad to ~2e-15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _arclength(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Arclength of the m3 curve over each parameter gap [lo, hi]."""
    half = 0.5 * (hi - lo)
    ts = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES
    return half * (curve_m3_speed(ts) @ _GL_WEIGHTS)


def sample_curve_m3(n: int, seed: int) -> PointCloud:
    """Points on the space curve (t, log(0.5+t), cos(pi t)), t uniform on [0, 1].

    The sampling is nonuniform with respect to arclength. Ground-truth
    boundary distance is the arclength to the nearer endpoint, computed by
    Gauss-Legendre quadrature of the curve speed over each gap between the
    sorted parameters.
    """
    n = _check_count(n)
    t = rng.uniform(seed, n)
    pts = curve_m3_point(t)
    order = np.argsort(t, kind="stable")
    knots = np.concatenate([[0.0], t[order], [1.0]])
    s_knots = np.cumsum(_arclength(knots[:-1], knots[1:]))
    s = np.empty(n)
    s[order] = s_knots[:-1]
    total = s_knots[-1]
    bdist = np.minimum(s, total - s)
    dgamma = np.stack([np.ones_like(t), 1.0 / (0.5 + t), -np.pi * np.sin(np.pi * t)], axis=-1)
    tangent = dgamma / np.linalg.norm(dgamma, axis=1, keepdims=True)
    normal = np.where((s < total - s)[:, None], -tangent, tangent)
    gt = GroundTruth(param_coords=t[:, None], boundary_dist=bdist,
                     outward_normal_tangent=normal)
    return PointCloud(pts, intrinsic_dim=1, seed=seed, manifold_tag="curve_m3",
                      ground_truth=gt)


def sample_surface(n_raw: int, seed: int) -> PointCloud:
    """The graph surface (x, y, x^2 - y^3) over the unit disk.

    Candidates are uniform on [-1, 1]^2, rejected to the disk, then lifted;
    the resulting density on the surface is nonuniform. boundary_dist stores
    the parameter-space proxy 1 - r (a valid lower bracket for the geodesic
    distance, since the surface metric dominates the flat one), flagged
    approximate.
    """
    xyk, rk = _disk_draw(n_raw, seed)
    pts = np.column_stack([xyk[:, 0], xyk[:, 1], xyk[:, 0] ** 2 - xyk[:, 1] ** 3])
    gt = GroundTruth(param_coords=xyk.copy(), boundary_dist=1.0 - rk, exact=False)
    return PointCloud(pts, intrinsic_dim=2, seed=seed, manifold_tag="surface", ground_truth=gt)


def torus_keep_predicate(theta, phi) -> np.ndarray:
    """Retention rule for the truncated torus: (3 + 1.2 cos theta) cos phi > -3.4."""
    return (3.0 + 1.2 * np.cos(theta)) * np.cos(phi) > -3.4


def torus_embed(theta, phi) -> np.ndarray:
    """Embedding ((3+1.2 cos t)cos p, (3+1.2 cos t)sin p, 1.2 sin p)."""
    rho = 3.0 + 1.2 * np.cos(theta)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), 1.2 * np.sin(phi)], axis=-1)


def sample_truncated_torus(n_raw: int, seed: int) -> PointCloud:
    """Truncated torus with boundary diffeomorphic to a circle.

    (theta, phi) are uniform on [0, 2pi]^2; draws failing the retention rule
    are dropped, the rest are embedded. No exact boundary distance is stored.
    """
    n_raw = _check_count(n_raw, "n_raw")
    u = rng.uniform(seed, 2 * n_raw).reshape(n_raw, 2)
    theta = 2.0 * np.pi * u[:, 0]
    phi = 2.0 * np.pi * u[:, 1]
    keep = torus_keep_predicate(theta, phi)
    if not keep.any():
        raise ValueError("rejection sampling kept no points; increase n_raw")
    pts = torus_embed(theta[keep], phi[keep])
    gt = GroundTruth(param_coords=np.column_stack([theta[keep], phi[keep]]), exact=False)
    return PointCloud(pts, intrinsic_dim=2, seed=seed, manifold_tag="torus", ground_truth=gt)


def sample_gaussian_null(n: int, p: int, seed: int) -> PointCloud:
    """n i.i.d. standard normal vectors in R^p (no manifold, no ground truth)."""
    n = _check_count(n)
    p = _check_count(p, "p")
    z = rng.normal(seed, n * p).reshape(n, p)
    return PointCloud(z, intrinsic_dim=p, seed=seed, manifold_tag="gaussian_null")
