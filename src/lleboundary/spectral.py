"""Eigen-analysis of (generally non-symmetric) LLE matrices.

Dense Hessenberg-based solves below the crossover size, implicitly restarted
Arnoldi above it. Every returned eigenpair carries a verified residual
||W v - lambda v|| / ||v||, and eigenvector phases are fixed by making the
largest-modulus component real and positive. Arnoldi starts from a fixed
vector, so repeated calls on the same matrix give the same bits and output
files are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lle import LleMatrix
from .rng import CounterStream

__all__ = [
    "Spectrum",
    "EigenConvergenceError",
    "DENSE_CUTOFF",
    "eig",
    "cluster_eigenvalues",
    "symmetric_split",
    "imaginary_diagnostics",
    "spectral_radius_report",
]

DENSE_CUTOFF = 2000
RESIDUAL_TOL = 1e-8

MatrixLike = Union[np.ndarray, sp.spmatrix, LleMatrix]


class EigenConvergenceError(RuntimeError):
    """Arnoldi failed to converge; carries whatever eigenpairs did converge."""

    def __init__(self, msg: str, partial: Optional["Spectrum"] = None):
        super().__init__(msg)
        self.partial = partial


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    ordering: str
    method: str
    residuals: Optional[np.ndarray]

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _as_operator(W: MatrixLike):
    if isinstance(W, LleMatrix):
        return W.weights
    return W


def _sort_key(vals: np.ndarray, ordering: str) -> np.ndarray:
    if ordering == "real_desc":
        return np.lexsort((-np.abs(vals.imag), -vals.real))
    if ordering == "modulus_desc":
        return np.argsort(-np.abs(vals), kind="stable")
    raise ValueError(f"unknown ordering {ordering!r}")


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Scale each column in place so its largest-modulus entry is real and positive."""
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    nonzero = pivot != 0
    phase = np.ones_like(pivot)
    phase[nonzero] = np.abs(pivot[nonzero]) / pivot[nonzero]
    vecs *= phase
    return vecs


def _residuals(W, vals, vecs) -> np.ndarray:
    """||W v - lambda v|| / ||v|| for every eigenpair, from one product W @ V."""
    return np.linalg.norm(W @ vecs - vecs * vals, axis=0) / np.linalg.norm(vecs, axis=0)


def eig(W: MatrixLike, k: Optional[int] = None, ordering: str = "real_desc",
        want_vectors: bool = True, tol: float = 1e-10, maxiter: int = 50000) -> Spectrum:
    """Spectrum of a square real matrix.

    Full dense solve for n <= DENSE_CUTOFF, otherwise restarted Arnoldi
    targeting the k eigenvalues largest by the requested ordering (k is then
    required). Residuals are checked against the 1e-8 contract when vectors
    are computed; with want_vectors=False both solvers return eigenvalues only.
    """
    A = _as_operator(W)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if k is not None and not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if n <= DENSE_CUTOFF:
        dense = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
        if want_vectors:
            vals, vecs = la.eig(dense)
        else:
            vals, vecs = la.eigvals(dense), None
        method = "dense"
    else:
        if k is None:
            raise ValueError(f"n={n} exceeds the dense cutoff; pass k for the Arnoldi solver")
        which = "LR" if ordering == "real_desc" else "LM"
        ncv = min(n, max(4 * k + 10, 60))
        # uniform on [-1, 1): the ones vector would not do, W 1 = 1 makes it invariant
        v0 = 2.0 * CounterStream(0).uniform(n) - 1.0
        try:
            out = spla.eigs(A.astype(float), k=k, which=which, tol=tol, maxiter=maxiter,
                            ncv=ncv, v0=v0, return_eigenvectors=want_vectors)
        except spla.ArpackNoConvergence as exc:
            partial = None
            if len(exc.eigenvalues):
                pvecs = _fix_phase(exc.eigenvectors)
                partial = Spectrum(exc.eigenvalues, pvecs, ordering, "arnoldi-partial",
                                   _residuals(A, exc.eigenvalues, pvecs))
            raise EigenConvergenceError(str(exc), partial) from exc
        vals, vecs = out if want_vectors else (out, None)
        method = "arnoldi"
    order = _sort_key(vals, ordering)
    if k is not None:
        order = order[:k]
    vals = vals[order]
    res = None
    if vecs is not None:
        vecs = _fix_phase(vecs[:, order])
        res = _residuals(A, vals, vecs)
    spectrum = Spectrum(vals, vecs, ordering, method, res)
    if res is not None and np.max(res) > RESIDUAL_TOL * max(1.0, float(np.max(np.abs(vals)))):
        raise EigenConvergenceError(
            f"eigenpair residual {np.max(res):.2e} exceeds the {RESIDUAL_TOL} contract",
            spectrum)
    return spectrum


def cluster_eigenvalues(values: np.ndarray, rtol: float = 1e-7):
    """Group (real parts of) eigenvalues within relative tolerance rtol.

    Returns (centers, multiplicities) sorted ascending. The scale for the
    relative tolerance is max(1, max |value|).
    """
    v = np.sort(np.real(np.asarray(values)))
    scale = max(1.0, float(np.max(np.abs(v))) if len(v) else 1.0)
    centers, mult = [], []
    for x in v:
        if centers and abs(x - centers[-1]) <= rtol * scale:
            centers[-1] = (centers[-1] * mult[-1] + x) / (mult[-1] + 1)
            mult[-1] += 1
        else:
            centers.append(float(x))
            mult.append(1)
    return np.array(centers), np.array(mult, dtype=int)


def symmetric_split(W: MatrixLike):
    """(W + W^T)/2 and (W - W^T)/2."""
    A = _as_operator(W)
    At = A.T
    return (A + At) / 2.0, (A - At) / 2.0


def _norm_1_inf(A) -> float:
    absA = abs(A)
    col = np.asarray(absA.sum(axis=0)).ravel().max()
    row = np.asarray(absA.sum(axis=1)).ravel().max()
    return float(np.sqrt(col * row))


def imaginary_diagnostics(W: MatrixLike) -> dict:
    """Bauer-Fike control of the imaginary parts via the antisymmetric part.

    bound = sqrt(||W^-||_1 ||W^-||_inf) dominates ||W^-||_2; every eigenvalue
    of W must lie within bound of a (real) eigenvalue of W^+.
    """
    A = _as_operator(W)
    n = A.shape[0]
    if n > DENSE_CUTOFF:
        raise ValueError("imaginary_diagnostics needs the full spectra; matrix too large "
                         f"for the dense solver (n={n} > {DENSE_CUTOFF})")
    Wp, Wm = symmetric_split(A)
    bound = _norm_1_inf(Wm)
    max_asym = 2.0 * (abs(Wm).max() if sp.issparse(Wm) else np.abs(Wm).max())
    dense = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    vals = la.eigvals(dense)
    dense_p = Wp.toarray() if sp.issparse(Wp) else np.asarray(Wp, dtype=float)
    mu = la.eigvalsh(dense_p)
    dist = np.array([np.min(np.abs(lam - mu)) for lam in vals])
    return {
        "bound": bound,
        "max_asym": float(max_asym),
        "bauer_fike_ok": bool(np.all(dist <= bound + 1e-12)),
        "max_imag": float(np.max(np.abs(vals.imag))),
    }


def spectral_radius_report(W: MatrixLike, k: int = 6) -> dict:
    """Check W 1 = 1 and report a lower bound on the spectral radius."""
    A = _as_operator(W)
    n = A.shape[0]
    ones = np.ones(n)
    row_err = float(np.max(np.abs(A @ ones - 1.0)))
    if n <= DENSE_CUTOFF:
        vals = la.eigvals(A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float))
    else:
        vals = eig(A, k=min(k, n - 2), ordering="modulus_desc", want_vectors=True).eigenvalues
    rho_lower = float(np.max(np.abs(vals)))
    has_one = bool(np.min(np.abs(vals - 1.0)) <= 1e-8)
    return {"rho_lower": rho_lower, "has_eig_one": has_one, "row_sum_err": row_err}
