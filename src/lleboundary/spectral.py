"""Eigen-analysis of (generally non-symmetric) LLE matrices.

The solver follows what is asked, not the matrix size: a partial spectrum
(k < n - 1 eigenpairs) comes from implicitly restarted Arnoldi with a
subspace of min(n, 2k + 10) vectors, at every n; the full spectrum
(k=None, n <= DENSE_CUTOFF) and k >= n - 1, which ARPACK cannot give, come
from one dense Hessenberg-based solve. Every returned eigenpair carries a
verified residual ||W v - lambda v|| / ||v||, computed by blocks of 64
eigenvectors in real arithmetic (W is real, so W (x + iy) = W x + i W y),
and eigenvector phases are fixed by making the largest-modulus component
real and positive. Keys of the ordering that tie within a few ulps are
ordered by value, so the two solvers order equal-modulus pairs alike. Arnoldi
starts from a fixed vector, so repeated calls on the same matrix give the
same bits and output files are reproducible.

``eig`` is the only code that computes a spectrum: ``imaginary_diagnostics``
and ``spectral_radius_report`` read W's eigenvalues through it. It refuses a
dense solve above the cutoff, for k=None and k >= n - 1 alike, through
``check_dense_cutoff``, which ``harness.run_null_case`` also calls before it
samples a cloud whose size it knows. A dense solve is one LAPACK ``geev``
with right eigenvectors, in ``_dense_eig``, whose eigenvalues are kept for
the last matrix solved under a blake2b digest of its CSR ``indptr``,
``indices`` and ``data`` as stored, or of a dense array's bytes. So ``eig``
and the two diagnostics on one W factor it once, a repeat call neither
densifies nor hashes an n x n array, and the eigenvalues do not depend on
call order.
"""

from __future__ import annotations

import hashlib
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
ARNOLDI_TOL = 1e-10  # ARPACK's relative accuracy for Ritz values

MatrixLike = Union[np.ndarray, sp.spmatrix, LleMatrix]


def check_dense_cutoff(n: int) -> None:
    """Raise ValueError if a dense solve of n points is above DENSE_CUTOFF."""
    if n > DENSE_CUTOFF:
        raise ValueError(f"n={n} exceeds the dense cutoff ({DENSE_CUTOFF}); "
                         "the full spectrum is computed only at or below it")


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
    """Indices that order vals by the ordering's key, with keys that lie within
    a few ulps of their neighbour in one group, ordered by real part, then
    imaginary part, both descending: the two solvers round a tied key (the
    moduli of -1 and 1, say) differently, and the order must not follow that."""
    if ordering == "real_desc":
        key = -vals.real
    elif ordering == "modulus_desc":
        key = -np.abs(vals)
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    order = np.argsort(key, kind="stable")
    k = key[order]
    apart = np.diff(k, prepend=k[:1]) > 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(k))
    within = np.lexsort((-vals.imag[order], -vals.real[order], np.cumsum(apart)))
    return order[within]


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Scale each column in place so its largest-modulus entry is real and positive."""
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    nonzero = pivot != 0
    phase = np.ones_like(pivot)
    phase[nonzero] = np.abs(pivot[nonzero]) / pivot[nonzero]
    vecs *= phase
    return vecs


def _densify(A) -> np.ndarray:
    """A private float copy of A in Fortran order, the layout LAPACK works in."""
    if sp.issparse(A):
        return np.asarray(A.toarray(order="F"), dtype=float)
    return np.array(A, dtype=float, order="F")


def _content_key(A) -> tuple:
    """The shape and a blake2b digest of A as stored: the CSR arrays of a
    sparse matrix (hashed as they are, never canonicalized, which would sort
    the caller's indices in place), the bytes of a dense one."""
    if sp.issparse(A):
        A = A.tocsr()
        h = hashlib.blake2b()
        for part in (A.indptr, A.indices, A.data):
            h.update(np.ascontiguousarray(part))
        return A.shape, A.indices.dtype.str, A.data.dtype.str, h.digest()
    A = np.ascontiguousarray(A, dtype=float)
    return A.shape, hashlib.blake2b(A).digest()


# (key, eigenvalues) of the last dense solve; replaced whole, never mutated
_last_eigvals: Optional[tuple] = None


def _dense_eig(A, want_vectors: bool):
    """Eigenvalues, and right eigenvectors when asked, of a real matrix given
    as CSR or as an ndarray.

    Always one ``la.eig`` with right eigenvectors: geev returns eigenvalues
    that differ in the last bits with and without vectors, and one routine
    makes them depend only on the matrix. The eigenvalues of the last matrix
    solved are kept under ``_content_key``: its CSR arrays, or its bytes when
    dense. An eigenvalues-only call on the same content returns a copy of them
    without densifying or solving, the same bits a solve would give. A call
    that wants vectors always solves. A solve densifies once, into a private
    Fortran-ordered copy that geev overwrites. The trade-off: a cold
    eigenvalues-only call pays for geev with vectors, about 1.5x the time of
    eigvals alone at n = 1000.
    """
    global _last_eigvals
    key = _content_key(A)
    memo = _last_eigvals
    if not want_vectors and memo is not None and memo[0] == key:
        return memo[1].copy(), None
    vals, vecs = la.eig(_densify(A), overwrite_a=True)
    _last_eigvals = (key, vals.copy())
    return vals, vecs if want_vectors else None


_RESIDUAL_COLUMNS = 64  # eigenvectors per product in _residuals


def _residuals(W, vals, vecs) -> np.ndarray:
    """||W v - lambda v|| / ||v|| for every eigenpair, 64 columns at a time.

    W is real, so W (x + iy) = W x + i W y: each block of complex columns is
    one real product with their float view, whose columns interleave real and
    imaginary parts, and the norms are taken on that view. Blocks bound the
    temporaries to n x 64 instead of n x n.
    """
    n, m = vecs.shape
    out = np.empty(m)
    for lo in range(0, m, _RESIDUAL_COLUMNS):
        V = np.ascontiguousarray(vecs[:, lo:lo + _RESIDUAL_COLUMNS], dtype=complex)
        lam = vals[lo:lo + _RESIDUAL_COLUMNS]
        R = W @ V.view(float)
        R -= (V * lam).view(float)
        R = R.reshape(n, len(lam), 2)
        X = V.view(float).reshape(n, len(lam), 2)
        out[lo:lo + len(lam)] = (np.sqrt(np.einsum("ijk,ijk->j", R, R))
                                 / np.sqrt(np.einsum("ijk,ijk->j", X, X)))
    return out


def _finish(A, vals, vecs, ordering: str, k: Optional[int], method: str) -> Spectrum:
    """Sort by the ordering, keep the first k, fix phases and take residuals."""
    order = _sort_key(vals, ordering)[:k]  # [:None] keeps all
    vals = vals[order]
    if vecs is None:
        return Spectrum(vals, None, ordering, method, None)
    vecs = _fix_phase(vecs[:, order])
    return Spectrum(vals, vecs, ordering, method, _residuals(A, vals, vecs))


def eig(W: MatrixLike, k: Optional[int] = None, ordering: str = "real_desc",
        want_vectors: bool = True, maxiter: int = 50000) -> Spectrum:
    """Spectrum of a square real matrix.

    With k < n - 1, restarted Arnoldi (subspace min(n, 2k + 10)) targets the
    k eigenvalues largest by the requested ordering, at every n. The full
    spectrum (k=None) and k >= n - 1 come from a dense solve, only for
    n <= DENSE_CUTOFF. Arnoldi from one start vector may miss a copy of an
    exactly repeated eigenvalue (the symmetric circle grid's pairs); k=None
    finds it.
    Residuals are checked against the 1e-8 contract when vectors are
    computed; with want_vectors=False both solvers return eigenvalues only.
    If Arnoldi stops at maxiter, EigenConvergenceError carries the converged
    eigenpairs, sorted by the ordering, as method "arnoldi-partial" (or None
    when none converged).
    """
    A = _as_operator(W)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if k is not None and not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if k is None or k >= n - 1:
        check_dense_cutoff(n)
        vals, vecs = _dense_eig(A, want_vectors)
        method = "dense"
    else:
        which = "LR" if ordering == "real_desc" else "LM"
        ncv = min(n, 2 * k + 10)
        # uniform on [-1, 1): the ones vector would not do, W 1 = 1 makes it invariant
        v0 = 2.0 * CounterStream(0).uniform(n) - 1.0
        try:
            out = spla.eigs(A.astype(float, copy=False), k=k, which=which, tol=ARNOLDI_TOL,
                            maxiter=maxiter, ncv=ncv, v0=v0, return_eigenvectors=want_vectors)
        except spla.ArpackNoConvergence as exc:
            partial = _finish(A, exc.eigenvalues, exc.eigenvectors, ordering, None,
                              "arnoldi-partial") if len(exc.eigenvalues) else None
            raise EigenConvergenceError(str(exc), partial) from exc
        vals, vecs = out if want_vectors else (out, None)
        method = "arnoldi"
    spectrum = _finish(A, vals, vecs, ordering, k, method)
    vals, res = spectrum.eigenvalues, spectrum.residuals
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


def _distance_to_real(vals: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """min_j |vals_i - mu_j| for every i, for mu real and ascending.

    The nearest mu_j to vals_i is one of the two that bracket Re(vals_i), so
    only those two distances are taken.
    """
    hi = np.searchsorted(mu, vals.real).clip(0, len(mu) - 1)
    lo = (hi - 1).clip(0, None)
    return np.minimum(np.abs(vals - mu[lo]), np.abs(vals - mu[hi]))


def imaginary_diagnostics(W: MatrixLike) -> dict:
    """Bauer-Fike control of the imaginary parts via the antisymmetric part.

    bound = sqrt(||W^-||_1 ||W^-||_inf) dominates ||W^-||_2; every eigenvalue
    of W, read through ``eig`` (so n <= DENSE_CUTOFF), must lie within bound
    of a (real) eigenvalue of W^+.
    """
    A = _as_operator(W)
    vals = eig(A, want_vectors=False).eigenvalues
    Wp, Wm = symmetric_split(A)
    bound = _norm_1_inf(Wm)
    # the sparse (A + A^T)/2 densifies to the bits of the dense one: a + b == b + a
    dist = _distance_to_real(vals, la.eigvalsh(_densify(Wp), overwrite_a=True))
    return {
        "bound": bound,
        "max_asym": float(2.0 * abs(Wm).max()),
        "bauer_fike_ok": bool(np.all(dist <= bound + 1e-12)),
        "max_imag": float(np.max(np.abs(vals.imag))),
    }


def spectral_radius_report(W: MatrixLike) -> dict:
    """Check W 1 = 1 and report a lower bound on the spectral radius.

    The eigenvalues come from ``eig``: all of them at n <= DENSE_CUTOFF, the
    six largest in modulus above it.
    """
    A = _as_operator(W)
    n = A.shape[0]
    ones = np.ones(n)
    row_err = float(np.max(np.abs(A @ ones - 1.0)))
    vals = eig(A, k=None if n <= DENSE_CUTOFF else 6, ordering="modulus_desc",
               want_vectors=False).eigenvalues
    rho_lower = float(np.max(np.abs(vals)))
    has_one = bool(np.min(np.abs(vals - 1.0)) <= 1e-8)
    return {"rho_lower": rho_lower, "has_eig_one": has_one, "row_sum_err": row_err}
