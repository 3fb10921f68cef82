"""Barycentric solves and LLE matrix assembly.

Per point, the regularized normal equations (G^T G + c I) y = 1 are solved
either directly (N x N) or through the eigendecomposition of the small p x p
Gram matrix G G^T; the two routes agree to rounding and the cheaper one is
picked by default. Row-normalizing y gives the barycentric weights, hence the
row-stochastic LLE matrix W, built from a graph the caller gives. The module
also builds the comparison kernels on W's own graph: the alpha family
interpolating between the 0-1 ball kernel and the signed LLE kernel. Its
alpha = 1 member, the ball average, is the diffusion-type operator that
AnalyticCoeffs.table's psi1, psi2 and drift describe.

build_lle_matrix batches the gram route over the CSR neighbor graph, and
solve_barycentric is the per-row oracle it is tested against. The alpha
family is a function of an LleMatrix: build_alpha_kernel_matrix reads W's
solves and runs none of its own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .neighbors import EpsilonBall, NeighborGraph, Scheme
from .samplers import PointCloud

__all__ = [
    "BarycentricSolution",
    "LleMatrix",
    "solve_barycentric",
    "augmented_vector_discrete",
    "default_regularizer",
    "build_lle_matrix",
    "apply_shifted",
    "row_moments",
    "build_alpha_kernel_matrix",
]


@dataclass(frozen=True)
class BarycentricSolution:
    """Unnormalized kernel vector y, weights w = y / sum(y), and the sum."""

    y: np.ndarray
    w: np.ndarray
    y_sum: float
    c: float


def _check_c(c: float) -> None:
    if not 0 < c < np.inf:  # also false for nan
        raise ValueError(f"regularizer c must be positive and finite, got {c!r}")


def _validate(G: np.ndarray, c: float) -> np.ndarray:
    G = np.atleast_2d(np.asarray(G, dtype=float))
    _check_c(c)
    if G.shape[1] == 0:
        raise ValueError("empty neighborhood: local data matrix has no columns")
    return G


def _solve_direct(G: np.ndarray, c: float) -> np.ndarray:
    N = G.shape[1]
    A = G.T @ G + c * np.eye(N)
    return np.linalg.solve(A, np.ones(N))


def _gram_eig(G: np.ndarray, c: float):
    """Eigen data of G G^T: (U, lam descending, regularized inverse spectrum).

    The numerical rank r counts eigenvalues above max(p, N) * eps_mach * lam_max;
    directions beyond r are annihilated rather than regularized.
    """
    p, N = G.shape
    lam, U = np.linalg.eigh(G @ G.T)
    lam = lam[::-1]
    U = U[:, ::-1]
    lam_max = max(float(lam[0]), 0.0)
    thr = max(p, N) * np.finfo(float).eps * lam_max
    r = int(np.sum(lam > thr))
    inv = np.zeros(p)
    if r > 0:
        inv[:r] = 1.0 / (lam[:r] + c)
    return U, lam, inv, r


def augmented_vector_discrete(G: np.ndarray, c: float) -> np.ndarray:
    """Discrete augmented vector T_n = U I_r (Lambda + cI)^(-1) U^T G 1."""
    G = _validate(G, c)
    U, _, inv, _ = _gram_eig(G, c)
    return U @ (inv * (U.T @ G.sum(axis=1)))


def solve_barycentric(G: np.ndarray, c: float, path: str = "auto") -> BarycentricSolution:
    """Solve (G^T G + c I) y = 1 and normalize.

    path: "auto" uses the p x p gram route when N > p, the direct N x N solve
    otherwise; "direct" and "gram" force a route (used to cross-check them).
    """
    G = _validate(G, c)
    p, N = G.shape
    if path == "auto":
        path = "gram" if N > p else "direct"
    if path == "direct":
        y = _solve_direct(G, c)
    elif path == "gram":
        y = (1.0 - G.T @ augmented_vector_discrete(G, c)) / c
    else:
        raise ValueError(f"unknown path {path!r}")
    y_sum = float(y.sum())
    return BarycentricSolution(y=y, w=y / y_sum, y_sum=y_sum, c=c)


def default_regularizer(n: int, eps: float, d: int) -> float:
    """The operative regularizer c = n * eps^(d+3); inf where eps^(d+3) overflows."""
    try:
        return float(n) * float(eps) ** (d + 3)
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class LleMatrix:
    """Row-form LLE matrix with the per-row solve byproducts.

    weights holds the row-stochastic W; y holds the unnormalized kernel values
    on W's pattern, in its CSR order (row k's slice equals y_k). meta records
    n, scheme, epsilon, K, c, d and seed for persistence sidecars.
    """

    weights: sp.csr_matrix
    y: np.ndarray = field(repr=False)
    y_sum: np.ndarray
    n_k: np.ndarray
    c: float
    meta: dict

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def row_kernel(self, k: int) -> np.ndarray:
        """Unnormalized kernel vector y_k (in neighbor-index order)."""
        return self.y[self.weights.indptr[k]:self.weights.indptr[k + 1]]


def resolve_c(cloud: PointCloud, scheme: Scheme,
              c_rule: Union[float, str], eps: Optional[float] = None) -> float:
    """Resolve the regularizer (a float or the "auto" rule); reads no graph, only its scheme.

    On an eps-ball graph eps is the ball's radius, so another eps is refused;
    beside KNN it is the bandwidth of the auto rule.
    """
    if isinstance(scheme, EpsilonBall):
        if eps is not None and eps != scheme.eps:
            raise ValueError(f"eps {eps!r} is not the graph's ball radius {scheme.eps!r}")
        eps = scheme.eps
    if isinstance(c_rule, str):
        if c_rule != "auto":
            raise ValueError(f"unknown c_rule {c_rule!r}")
        if eps is None:
            raise ValueError(
                "c_rule='auto' needs a bandwidth: the graph is KNN, so pass eps explicitly")
        c = default_regularizer(cloud.n, eps, cloud.intrinsic_dim)
        if not 0 < c < np.inf:  # also false for nan
            raise ValueError(f"auto regularizer c must be positive and finite, got c = n eps^(d+3)"
                             f" = {c!r} (n={cloud.n}, eps={eps!r}, d={cloud.intrinsic_dim})")
    else:
        c = float(c_rule)
        _check_c(c)
    return c


def _gram_dots(points: np.ndarray, graph: NeighborGraph, c: float,
               rows: np.ndarray) -> np.ndarray:
    """(x_j - x_k)^T T_n(x_k) on the edges of the rows in the mask (all with
    neighbors), in CSR order: augmented_vector_discrete for all rows at once.

    G G^T and G 1 are summed per row with np.add.reduceat, one entry pair
    (a, b) at a time so that no per-edge p x p tensor is formed; one stacked
    eigh factors them, with the rank threshold of _gram_eig per row.
    """
    counts = graph.counts[rows]
    X = np.ascontiguousarray(points.T)
    p = X.shape[0]
    D = X[:, graph.indices[np.repeat(rows, graph.counts)]]  # p x E: the columns of every G
    for a in range(p):
        D[a] -= np.repeat(X[a, rows], counts)
    starts = np.cumsum(counts) - counts
    gram = np.empty((len(counts), p, p))
    for a in range(p):
        for b in range(a + 1):
            gram[:, a, b] = gram[:, b, a] = np.add.reduceat(D[a] * D[b], starts)
    lam, U = np.linalg.eigh(gram)  # ascending per row
    thr = np.maximum(p, counts) * np.finfo(float).eps * np.maximum(lam[:, -1], 0.0)
    inv = np.where(lam > thr[:, None], 1.0 / (lam + c), 0.0)
    g1 = np.add.reduceat(D, starts, axis=1).T
    Tn = np.einsum("kab,kb->ka", U, inv * np.einsum("kba,kb->ka", U, g1))
    return sum(D[a] * np.repeat(Tn[:, a], counts) for a in range(p))


def _row_list(rows) -> str:
    """The count of rows, then at most the first 10 of their indices in brackets."""
    shown = [str(k) for k in rows[:10]] + (["..."] if len(rows) > 10 else [])
    return f"{len(rows)} [{', '.join(shown)}]"


def _lle_kernel(points: np.ndarray, graph: NeighborGraph, c: float):
    """Kernel y on every edge and its row sums (nan on rows without neighbors);
    y_sum <= 0 is reported. Rows with N_k > p take the batched gram route, the
    others the direct solve, as solve_barycentric's "auto" route does."""
    p = points.shape[1]
    counts, indptr, indices = graph.counts, graph.indptr, graph.indices
    gram, nonempty = counts > p, counts > 0
    y = np.empty(len(indices))
    if np.any(gram):
        y[np.repeat(gram, counts)] = (1.0 - _gram_dots(points, graph, c, gram)) / c
    for k in np.flatnonzero(nonempty & ~gram):
        lo, hi = indptr[k], indptr[k + 1]
        y[lo:hi] = _solve_direct((points[indices[lo:hi]] - points[k]).T, c)
    # np.add.reduceat does not give 0 on an empty segment: skip those rows
    y_sum = np.full(graph.n, np.nan)
    y_sum[nonempty] = np.add.reduceat(y, indptr[:-1][nonempty])
    if np.any(y_sum <= 0):
        bad = np.nonzero(y_sum <= 0)[0]
        warnings.warn(f"rows with nonpositive kernel sum (weights flip sign): {_row_list(bad)}")
    return y, y_sum


def build_lle_matrix(cloud: PointCloud, graph: NeighborGraph,
                     c_rule: Union[float, str] = "auto",
                     eps: Optional[float] = None) -> LleMatrix:
    """Assemble the n x n LLE matrix from the barycentric solves of every row.

    meta, the sidecar record, holds n, c, d, seed and the scheme, with epsilon
    the ball radius or, beside KNN, the eps that resolved c.
    """
    counts, scheme = graph.counts, graph.scheme
    if np.any(counts == 0):
        raise ValueError(f"isolated points (no neighbors): {_row_list(np.nonzero(counts == 0)[0])}")
    c = resolve_c(cloud, scheme, c_rule, eps)
    y, y_sum = _lle_kernel(cloud.points, graph, c)
    meta = {"n": cloud.n, "c": c, "d": cloud.intrinsic_dim, "seed": cloud.seed}
    if isinstance(scheme, EpsilonBall):
        meta.update(scheme="epsilon_ball", epsilon=scheme.eps, K=None)
    else:
        meta.update(scheme="knn", epsilon=None, K=scheme.k)
    if eps is not None:
        meta["epsilon"] = eps
    # own column indices: sort_indices on a KNN matrix must not reorder the graph
    weights = sp.csr_matrix((y / np.repeat(y_sum, counts), graph.indices.copy(), graph.indptr),
                            shape=(graph.n, graph.n))
    return LleMatrix(weights=weights, y=y, y_sum=y_sum, n_k=counts, c=c, meta=meta)


def apply_shifted(W: sp.spmatrix | np.ndarray, f: np.ndarray) -> np.ndarray:
    """(W - I) f for the sparse or dense matrix W (``lle.weights``)."""
    f = np.asarray(f, dtype=float)
    if W.shape[1] != f.shape[0]:
        raise ValueError(f"dimension mismatch: W is {W.shape}, f has length {f.shape[0]}")
    return W @ f - f


def row_moments(W: sp.csr_matrix, points: np.ndarray, normal: np.ndarray):
    """W's row moments about each point, along the unit normal n_k of its row.

    With D = x_j - x_k, returns per row k the first normal moment
    sum_j w_kj D.n_k, the normal second moment sum_j w_kj (D.n_k)^2 and the
    tangential second moment sum_j w_kj (|D|^2 - (D.n_k)^2). For a quadratic f,
    (W - I) f is these contracted with grad f and Hess f, plus the tangential
    first moment and the mixed second moments, which the three leave out.
    W is CSR with no empty row.
    """
    counts = np.diff(W.indptr)
    if np.any(counts == 0):
        raise ValueError(f"W has rows without entries: {_row_list(np.nonzero(counts == 0)[0])}")
    rows = np.repeat(np.arange(W.shape[0]), counts)
    D = points[W.indices] - points[rows]
    dn = np.einsum("ei,ei->e", D, normal[rows])
    starts = W.indptr[:-1]
    return (np.add.reduceat(W.data * dn, starts),
            np.add.reduceat(W.data * dn * dn, starts),
            np.add.reduceat(W.data * (np.einsum("ei,ei->e", D, D) - dn * dn), starts))


def build_alpha_kernel_matrix(lle: LleMatrix, alpha: float) -> LleMatrix:
    """Row-normalized alpha-kernel matrix on the graph of the LLE matrix lle.

    Row k entries are alpha * 1 + (1 - alpha) * K2 with
    K2(x_k, x_j) = -(x_j - x_k)^T T_n(x_k), using the discrete augmented
    vector. alpha=1 gives uniform rows; alpha=1/2 reproduces the LLE weights.
    Rows whose entry sum is <= 0 are reported and left unnormalized. The
    entries are read from lle's solves, so no solve runs here, and the meta
    is lle's plus alpha and the degenerate rows.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if "alpha" in lle.meta:
        raise ValueError("build_alpha_kernel_matrix reads the LLE matrix, not an alpha kernel")
    W = lle.weights
    # G^T T_n = 1 - c y (push-through identity), so W's solves serve here
    vals = alpha - (1.0 - alpha) * (1.0 - lle.c * lle.y)
    row_sum = np.add.reduceat(vals, W.indptr[:-1])  # W has no row without neighbors
    degenerate = np.nonzero(row_sum <= 0)[0].tolist()
    if degenerate:
        warnings.warn("alpha-kernel rows with nonpositive sum left unnormalized: "
                      f"{_row_list(degenerate)}")
    wdata = vals / np.repeat(np.where(row_sum > 0, row_sum, 1.0), lle.n_k)
    weights = sp.csr_matrix((wdata, W.indices.copy(), W.indptr), shape=W.shape)
    return LleMatrix(weights=weights, y=vals, y_sum=row_sum, n_k=lle.n_k, c=lle.c,
                     meta={**lle.meta, "alpha": alpha, "degenerate_rows": degenerate})
