"""Boundary detection from barycentric solves, and matrix clipping.

The indicator of point k is B_k = (N_k - c y_k^T 1) / N_k, computed from the
same regularized solves that build the LLE matrix. Near the boundary it
concentrates on a dimension-dependent constant (b_function of the analytic
module); in the interior it is O(eps). Thresholding B_k labels boundary
points; the wave strip (within depth t* of the boundary) can then be clipped
out of the matrix, which empirically restores Dirichlet-like eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .analytic import AnalyticCoeffs
from .lle import LleMatrix, _lle_kernel, resolve_c
from .neighbors import EpsilonBall, NeighborGraph
from .samplers import PointCloud

__all__ = [
    "BoundaryReport",
    "indicator",
    "default_threshold",
    "classify",
    "partition_regions",
    "clip",
    "REGIONS",
]

REGIONS = ("wave", "near_boundary", "transition", "interior")


@dataclass(frozen=True)
class BoundaryReport:
    b_values: np.ndarray
    d: int
    eps: float
    c: float
    missing: np.ndarray
    threshold: Optional[float] = None
    labels: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return len(self.b_values)


def indicator(cloud: PointCloud, graph: NeighborGraph,
              c_rule: Union[float, str] = "auto",
              lle: Optional[LleMatrix] = None) -> BoundaryReport:
    """Barycentric boundary indicator B_k for every point.

    When an already-built LleMatrix is passed, its cached solves are reused
    (the indicator needs only N_k and y_k^T 1); otherwise the batched solves
    run without assembling W. Points without neighbors are marked missing and
    excluded from classification.
    """
    if not isinstance(graph.scheme, EpsilonBall):
        raise ValueError("the indicator is defined for the epsilon-ball scheme")
    eps = graph.scheme.eps
    if lle is None:
        c = resolve_c(cloud, graph.scheme, c_rule)
        _, y_sum = _lle_kernel(cloud.points, graph, c)
        n_k = graph.counts.astype(float)
    else:
        c, y_sum, n_k = lle.c, lle.y_sum, lle.n_k.astype(float)
    missing = n_k == 0
    b = np.full(len(n_k), np.nan)
    ok = ~missing
    b[ok] = (n_k[ok] - c * y_sum[ok]) / n_k[ok]
    return BoundaryReport(b_values=b, d=cloud.intrinsic_dim, eps=eps, c=c, missing=missing)


def default_threshold(d: int, eps: float) -> float:
    """Threshold b(0) * (3/4)^(d+1) / 2, with b(0) = b_function(0.0) read from
    the sigma table.

    It is not b(eps/2)/2, which is smaller: at d = 1, 2, 3 the threshold is
    0.211, 0.152, 0.111 and b(eps/2)/2 is 0.125, 0.079, 0.052.
    """
    return float(AnalyticCoeffs(d, eps).b_function(0.0)) * 0.75 ** (d + 1) / 2.0


def classify(report: BoundaryReport, tau: Optional[float] = None) -> BoundaryReport:
    """Label points boundary/interior by thresholding B_k (boundary iff B_k > tau).
    A NaN or infinite tau is refused: it has no JSON spelling for a summary."""
    if tau is None:
        tau = default_threshold(report.d, report.eps)
    if not np.isfinite(tau):
        raise ValueError(f"tau must be a finite number, got {tau!r}")
    if tau <= 0:
        import warnings
        warnings.warn("nonpositive threshold labels every point as boundary")
    labels = np.where(report.b_values > tau, "boundary", "interior").astype("U8")
    labels[report.missing] = "missing"
    return replace(report, threshold=float(tau), labels=labels)


def partition_regions(cloud: PointCloud, eps: float, tstar_val: float,
                      report: Optional[BoundaryReport] = None) -> np.ndarray:
    """Per-point region labels: wave / near_boundary / transition / interior.

    Cut points: wave for dist < t*, near_boundary for t* <= dist < eps,
    transition for eps <= dist <= 2 eps, interior beyond. Uses ground-truth
    boundary distance when the cloud has one; otherwise falls back to the
    indicator B as a depth proxy (a documented heuristic). b_function falls
    from b(0) to 0 on [0, eps], so B > b(t*) is wave, 0 < B <= b(t*)
    near_boundary and the rest, a non-finite B included, interior: the proxy
    cannot see past depth eps, so the transition band collapses into interior.
    """
    gt = cloud.ground_truth
    out = np.empty(cloud.n, dtype="U13")
    if gt is not None and gt.boundary_dist is not None:
        dist = gt.boundary_dist
        out[dist < tstar_val] = "wave"
        out[(dist >= tstar_val) & (dist < eps)] = "near_boundary"
        out[(dist >= eps) & (dist <= 2.0 * eps)] = "transition"
        out[dist > 2.0 * eps] = "interior"
    elif report is not None:
        b = report.b_values
        finite = np.isfinite(b)
        out[:] = "interior"
        out[finite & (b > 0.0)] = "near_boundary"
        out[finite & (b > AnalyticCoeffs(cloud.intrinsic_dim, eps).b_function(tstar_val))] = "wave"
    else:
        raise ValueError("no ground-truth boundary distance and no indicator report")
    return out


def clip(W: Union[LleMatrix, sp.spmatrix, np.ndarray], regions: np.ndarray):
    """Remove wave-region rows/columns: the principal submatrix on the rest.

    Returns (W_r, kept) where kept maps new indices to old ones. Rows of W_r
    touching removed columns no longer sum to 1.
    """
    A = W.weights if isinstance(W, LleMatrix) else W
    regions = np.asarray(regions)
    if regions.shape[0] != A.shape[0]:
        raise ValueError("region labels must match the matrix size")
    kept = np.nonzero(regions != "wave")[0]
    if len(kept) == 0:
        raise ValueError("clipping removed every point")
    if sp.issparse(A):
        Wr = A.tocsr()[kept][:, kept]
    else:
        Wr = np.asarray(A)[np.ix_(kept, kept)]
    return Wr, kept
