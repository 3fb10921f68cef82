"""Nearest-neighbor search and local data matrices.

Two schemes are supported: the open epsilon-radius ball (membership is the
strict inequality ||x_j - x_k|| < eps) and K nearest neighbors with ties
broken toward the smaller index. The epsilon scheme is accelerated by a
k-d tree; results are exactly those of the brute force scan because
candidates are always checked against the true distance. The graph is stored
in CSR layout (indptr, indices, dist), the layout the LLE assembly reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Union

import numpy as np
from scipy.spatial import cKDTree

from .samplers import PointCloud

__all__ = [
    "EpsilonBall",
    "Knn",
    "NeighborGraph",
    "build_graph",
    "brute_force_neighbors",
    "local_data_matrix",
]


@dataclass(frozen=True)
class EpsilonBall:
    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class Knn:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


Scheme = Union[EpsilonBall, Knn]


@dataclass(frozen=True, repr=False)
class NeighborGraph:
    """CSR neighbor lists: row k is indices[indptr[k]:indptr[k + 1]] (by index
    for the epsilon ball, by distance for KNN), dist its distances to x_k."""

    scheme: Scheme
    indptr: np.ndarray
    indices: np.ndarray
    dist: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def neighbors(self) -> List[np.ndarray]:  # per-row views
        return np.split(self.indices, self.indptr[1:-1])

    @cached_property
    def distances(self) -> List[np.ndarray]:
        return np.split(self.dist, self.indptr[1:-1])

    def __repr__(self) -> str:
        # a summary: the field-by-field repr runs to megabytes on a full-size cloud
        return f"NeighborGraph(scheme={self.scheme!r}, n={self.n}, edges={len(self.indices)})"


def _sq_dists(points: np.ndarray, cand: np.ndarray, k) -> np.ndarray:
    diff = points[cand] - points[k]
    return np.einsum("ij,ij->i", diff, diff)


def _eps_csr(points: np.ndarray, eps: float):
    """Epsilon-ball graph: a k-d tree finds the pairs i < j within a slightly
    inflated radius, the exact d^2 < eps^2 test (the brute force scan's own
    arithmetic) filters them, and the mirrored pairs are sorted by (row, col)."""
    n = points.shape[0]
    pairs = cKDTree(points).query_pairs(eps * (1.0 + 1e-9), output_type="ndarray")
    d2 = _sq_dists(points, pairs[:, 1], pairs[:, 0])
    keep = d2 < eps * eps
    pairs, dist = pairs[keep], np.sqrt(d2[keep])
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]]).astype(np.int32)
    # one sort on the unique key row * n + col orders by (row, col)
    order = np.argsort(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], np.concatenate([dist, dist])[order]


def _brute_eps_csr(points: np.ndarray, eps: float):
    n = points.shape[0]
    e2 = eps * eps
    all_idx = np.arange(n)
    nbrs, dists = [], []
    for k in range(n):
        d2 = _sq_dists(points, all_idx, k)
        sel = (d2 < e2) & (all_idx != k)
        nbrs.append(all_idx[sel])
        dists.append(np.sqrt(d2[sel]))
    indptr = np.concatenate([[0], np.cumsum([len(ix) for ix in nbrs])])
    return indptr, np.concatenate(nbrs), np.concatenate(dists)


def _knn_csr(points: np.ndarray, k: int, block: int = 512):
    n = points.shape[0]
    if k >= n:
        raise ValueError(f"knn requires k < n (got k={k}, n={n})")
    sq = (points ** 2).sum(axis=1)
    nbrs = np.empty((n, k), dtype=np.int32)
    dists = np.empty((n, k))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        d2 = sq[lo:hi, None] - 2.0 * points[lo:hi] @ points.T + sq[None, :]
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        # ascending distance; the stable sort keeps ties in index order
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        nbrs[lo:hi] = order
        dists[lo:hi] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return np.arange(0, n * k + 1, k, dtype=np.int64), nbrs.ravel(), dists.ravel()


def build_graph(cloud: PointCloud, scheme: Scheme) -> NeighborGraph:
    """Exact neighbor lists of every point under the given scheme.

    Points with no neighbor under the epsilon scheme get an empty row;
    downstream constructions decide how to treat them.
    """
    points = cloud.points
    if isinstance(scheme, EpsilonBall):
        return NeighborGraph(scheme, *_eps_csr(points, scheme.eps))
    if isinstance(scheme, Knn):
        return NeighborGraph(scheme, *_knn_csr(points, scheme.k))
    raise TypeError(f"unknown scheme {scheme!r}")


def brute_force_neighbors(cloud: PointCloud, scheme: Scheme) -> NeighborGraph:
    """Reference implementation used as the oracle for build_graph."""
    points = cloud.points
    if isinstance(scheme, EpsilonBall):
        return NeighborGraph(scheme, *_brute_eps_csr(points, scheme.eps))
    return NeighborGraph(scheme, *_knn_csr(points, scheme.k, block=points.shape[0]))


def local_data_matrix(cloud: PointCloud, graph: NeighborGraph, k: int) -> np.ndarray:
    """p x N_k matrix whose columns are the centered neighbors x_{k,j} - x_k."""
    idx = graph.indices[graph.indptr[k]:graph.indptr[k + 1]]
    if len(idx) == 0:
        raise ValueError(f"point {k} has no neighbors (empty neighborhood)")
    return (cloud.points[idx] - cloud.points[k]).T
