"""Eigen-analysis of (generally non-symmetric) LLE matrices.

Every function here takes the matrix itself, sparse or dense (``lle.weights``,
a clipped ``Wr``, any square ndarray): the module is linear algebra on W and
does not import the LLE module.

The solver follows what is asked, not the matrix size: a partial spectrum
(k < n - 1 eigenpairs) comes from restarted Arnoldi with a subspace of
min(n, 2k + 10) vectors, at every n; the full spectrum (k=None,
n <= DENSE_CUTOFF) and k >= n - 1 come from one dense Hessenberg-based
solve. Arnoldi is this module's own, in real arithmetic: classical
Gram-Schmidt with ARPACK's refinement, ARPACK's convergence test, and a
Krylov-Schur thick restart (Stewart, SIMAX 23, 2001) that keeps the leading
k + (ncv - k + c) // 2 Ritz values of a reordered Schur form, c of the k
wanted having converged: half the subspace or more, where ARPACK's implicit
restart keeps about k. On the interval's clustered top eigenvalues it needs
about a third fewer products. Every returned
eigenpair carries a verified residual ||W v - lambda v|| / ||v||, computed
by blocks of 64 eigenvectors in real arithmetic (W is real, so
W (x + iy) = W x + i W y), and eigenvector phases are fixed by making the
largest-modulus component real and positive. Keys of the ordering that tie
within a few ulps are ordered by value, so the two solvers order
equal-modulus pairs alike. Arnoldi starts from a fixed vector, and goes on
past an invariant subspace from fixed directions, so repeated calls on the
same matrix give the same bits and output files are reproducible.

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
call order. The solve drops its overwritten input before it forms complex
eigenvectors from geev's packed real ones, and the eigenvectors are sorted
and phase-fixed in place, in blocks: at n x n a dense ``eig`` holds at most
the packed vectors and the complex ones (24 n^2 bytes), and its bits are
those of ``la.eig``. No solve loads ``scipy.sparse.linalg``: ARPACK is the
tests' oracle for the restart, not a dependency of the package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from . import rng

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
ARNOLDI_MAXITER = 50000  # Arnoldi iterations (restart, expand, test) before giving up
CLUSTER_RTOL = 1e-7  # relative width of a cluster in cluster_eigenvalues


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


_BLOCK = 64  # columns per block in _fix_phase, rows in _take_columns


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Scale each column in place so its largest-modulus entry is real and
    positive, 64 columns at a time: the moduli are an n x 64 temporary."""
    for lo in range(0, vecs.shape[1], _BLOCK):
        V = vecs[:, lo:lo + _BLOCK]
        pivot = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
        nonzero = pivot != 0
        phase = np.ones_like(pivot)
        phase[nonzero] = np.abs(pivot[nonzero]) / pivot[nonzero]
        V *= phase
    return vecs


def _take_columns(vecs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """vecs[:, order] written over the first len(order) columns of vecs, 64
    rows at a time, and returned as a view: no second n x n array."""
    m = len(order)
    for lo in range(0, vecs.shape[0], _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        vecs[rows, :m] = vecs[rows, order]
    return vecs[:, :m]


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


def _geev(a: np.ndarray):
    """(wr, wi, vr) of a real Fortran-ordered array, which LAPACK ``geev``
    overwrites: the call ``la.eig`` makes, with the same optimal workspace,
    so the bits are its. Like ``la.eig``, raises ValueError on a non-finite
    entry and LinAlgError if geev fails."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    geev, geev_lwork = la.get_lapack_funcs(("geev", "geev_lwork"), (a,))
    lwork = int(geev_lwork(a.shape[0], compute_vl=0, compute_vr=1)[0])
    wr, wi, _, vr, info = geev(a, lwork=lwork, compute_vl=0, compute_vr=1, overwrite_a=1)
    if info != 0:
        raise la.LinAlgError(f"eig algorithm (geev) failed with info={info}")
    return wr, wi, vr


def _complex_eigvecs(vals: np.ndarray, vr: np.ndarray) -> np.ndarray:
    """geev's packed right eigenvectors as ``la.eig`` returns them: a pair
    lambda, conj(lambda) stored as the real columns x, y becomes x + iy and
    x - iy (LAPACK Users' Guide, DGEEV). A real spectrum keeps the real array."""
    if np.all(vals.imag == 0.0):
        return vr
    vecs = np.array(vr, dtype=complex)
    first = vals.imag > 0
    first[:-1] |= vals.imag[1:] < 0  # as la.eig does, for a pair LAPACK misorders
    for i in np.flatnonzero(first):
        vecs.imag[:, i] = vr[:, i + 1]
        np.conj(vecs[:, i], out=vecs[:, i + 1])
    return vecs


# (key, eigenvalues) of the last dense solve; replaced whole, never mutated
_last_eigvals: Optional[tuple] = None


def _dense_eig(A, want_vectors: bool):
    """Eigenvalues, and right eigenvectors when asked, of a real matrix given
    as CSR or as an ndarray.

    Always one ``geev`` with right eigenvectors, the call ``la.eig`` makes:
    geev returns eigenvalues that differ in the last bits with and without
    vectors, and one routine makes them depend only on the matrix. The
    eigenvalues of the last matrix solved are kept under ``_content_key``: its
    CSR arrays, or its bytes when dense. An eigenvalues-only call on the same
    content returns a copy of them without densifying or solving, the same
    bits a solve would give. A call that wants vectors always solves. A solve
    densifies once, into a private Fortran-ordered copy that geev overwrites
    and that is dropped before the complex eigenvectors are formed from the
    packed real ones: at n x n it holds at most the packed vectors and the
    complex ones (24 n^2 bytes), and an eigenvalues-only solve forms none. The
    trade-off: a cold eigenvalues-only call pays for geev with vectors, about
    1.5x the time of eigvals alone at n = 1000.
    """
    global _last_eigvals
    key = _content_key(A)
    memo = _last_eigvals
    if not want_vectors and memo is not None and memo[0] == key:
        return memo[1].copy(), None
    wr, wi, vr = _geev(_densify(A))  # the overwritten copy is freed on return
    vals = wr + 1j * wi
    _last_eigvals = (key, vals.copy())
    return vals, _complex_eigvecs(vals, vr) if want_vectors else None


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
    """Sort by the ordering, keep the first k, fix phases and take residuals.
    The eigenvectors are sorted and scaled in place, in blocks."""
    order = _sort_key(vals, ordering)[:k]  # [:None] keeps all
    vals = vals[order]
    if vecs is None:
        return Spectrum(vals, None, ordering, method, None)
    vecs = _fix_phase(_take_columns(vecs, order))
    return Spectrum(vals, vecs, ordering, method, _residuals(A, vals, vecs))


_REORTH = 0.717  # ARPACK's dnaitr: orthogonalise again while ||w|| keeps dropping below this share
_EPS23 = np.finfo(float).eps ** (2.0 / 3.0)  # ARPACK's floor on |theta| in the convergence test


def _unit_direction(V: np.ndarray, seed: int) -> np.ndarray:
    """A deterministic uniform direction orthogonalised twice against V's
    columns and normalised; zero when the second pass still cancels, which
    means V spans the space."""
    u = 2.0 * rng.uniform(seed, V.shape[0]) - 1.0
    u -= V @ (V.T @ u)
    before = np.linalg.norm(u)
    u -= V @ (V.T @ u)
    norm = np.linalg.norm(u)
    return u / norm if norm > _REORTH * before else np.zeros_like(u)


def _arnoldi(A, V: np.ndarray, H: np.ndarray, start: int, seed: int) -> int:
    """Extend A V[:, :j] = V[:, :j + 1] H[:j + 1, :j] from j = start to the last
    column of H by classical Gram-Schmidt, with ARPACK's refinement: up to two
    more passes while ||w|| falls below 0.717 of its norm before the pass, and
    a residual still falling after them lies in span(V), so H[j + 1, j] = 0
    and the basis goes on from a fresh direction. Returns the next seed."""
    for j in range(start, H.shape[1]):
        Vj = V[:, :j + 1]
        w = A @ V[:, j]
        before = np.sqrt(w @ w)
        for _ in range(3):
            c = Vj.T @ w
            w -= Vj @ c
            H[:j + 1, j] += c
            norm = np.sqrt(w @ w)
            if norm > _REORTH * before:
                H[j + 1, j] = norm
                np.divide(w, norm, out=V[:, j + 1])
                break
            before = norm
        else:  # invariant subspace
            V[:, j + 1] = _unit_direction(Vj, seed)
            seed += 1
    return seed


def _schur_values(T: np.ndarray) -> np.ndarray:
    """The eigenvalues of a real Schur form in the order of its diagonal: a
    2 x 2 block [[a, b], [c, a]] holds a +- i sqrt(|b c|)."""
    vals = np.diag(T).astype(complex)
    for i in np.flatnonzero(np.diag(T, -1)):
        im = np.sqrt(abs(T[i, i + 1] * T[i + 1, i]))
        vals.imag[i:i + 2] = im, -im
    return vals


def _schur_reorder(H: np.ndarray, ordering: str, keep: int):
    """(T, Z, p): the real Schur form H = Z T Z^T of the square part of H,
    reordered by ``dtrsen`` (Stewart, SIMAX 23, 2001) so that its p leading
    diagonal entries hold the keep leading Ritz values by the ordering's key,
    a conjugate pair split at keep taken whole: p is keep or keep + 1."""
    m = H.shape[1]
    T, Z = la.schur(H[:m], output="real")
    rank = np.empty(m, dtype=int)
    rank[_sort_key(_schur_values(T), ordering)] = np.arange(m)
    T, Z, _, _, p, _, _, info = la.lapack.dtrsen(rank < keep, T, Z, job="N")
    if info != 0:
        raise la.LinAlgError(f"Schur reordering (trsen) failed with info={info}")
    return T, Z, p


def _krylov_schur(W, k: int, ordering: str, want_vectors: bool):
    """(values, vectors or None) of the k eigenpairs leading by the ordering.

    A Krylov decomposition A V = V H + v b^T on ncv = min(n, 2k + 10) vectors
    from the fixed start is expanded by Arnoldi, and its Schur form reordered
    so that the leading k + (ncv - k + c) // 2 Ritz values come first, c of
    the k wanted having converged at the last test: keeping more as more
    converge, as ARPACK raises its kept count, took 195 and 160 products
    instead of 210 and 170 on a disk W and its clipped Wr (n 8000, eps 0.1,
    seed 1, k 10) against a fixed k + (ncv - k) // 2. The leading block T_p
    holds the k wanted Ritz pairs (theta, V Z x), tested by ARPACK's
    bound ||A V Z x - theta V Z x|| = |b^T Z x| <= ARNOLDI_TOL |theta|; until
    all pass, the decomposition restarts as A (V Z_p) = (V Z_p) T_p + v
    (b^T Z_p), at most ARNOLDI_MAXITER expansions. Past that,
    EigenConvergenceError carries the converged ones among the k wanted."""
    A = W.astype(float, copy=False)
    n = A.shape[0]
    ncv = min(n, 2 * k + 10)
    V = np.zeros((n, ncv + 1), order="F")
    H = np.zeros((ncv + 1, ncv))
    # uniform on [-1, 1): the ones vector would not do, W 1 = 1 makes it invariant
    v0 = 2.0 * rng.uniform(0, n) - 1.0
    V[:, 0] = v0 / np.linalg.norm(v0)
    p, seed, nconv = 0, 1, 0
    for it in range(ARNOLDI_MAXITER):
        if it:  # thick restart on the kept block
            V[:, :p] = la.blas.dgemm(1.0, V[:, :ncv], Z[:, :p])
            V[:, p] = V[:, ncv]
            H[:] = 0.0
            H[:p, :p] = T[:p, :p]
            H[p, :p] = b
        seed = _arnoldi(A, V, H, p, seed)
        # the k wanted, half the rest, and half as many more as have converged;
        # at most ncv - 2, so that p <= ncv - 1 and every restart expands
        T, Z, p = _schur_reorder(H, ordering, min(ncv - 2, k + (ncv - k + nconv) // 2))
        b = H[ncv] @ Z[:, :p]
        vals, X = la.eig(T[:p, :p])
        wanted = _sort_key(vals, ordering)[:k]
        bound = ARNOLDI_TOL * np.maximum(_EPS23, np.abs(vals[wanted]))
        converged = np.abs(b @ X[:, wanted]) <= bound
        nconv = int(converged.sum())
        if converged.all():
            break
    done = converged.all()
    wanted = wanted[converged]
    vals = vals[wanted]
    # complex, as ARPACK gave them: la.eig returns real vectors when all of
    # T_p's eigenvalues are real, which would follow values not returned
    vecs = ((V[:, :ncv] @ (Z[:, :p] @ X[:, wanted])).astype(complex, copy=False)
            if want_vectors else None)
    if not done:
        partial = (_finish(A, vals, vecs, ordering, None, "arnoldi-partial")
                   if len(vals) else None)
        raise EigenConvergenceError(f"No convergence ({ARNOLDI_MAXITER} iterations, "
                                    f"{len(vals)}/{k} eigenvectors converged)", partial)
    return vals, vecs


def eig(W: sp.spmatrix | np.ndarray, k: Optional[int] = None, ordering: str = "real_desc",
        want_vectors: bool = True) -> Spectrum:
    """Spectrum of a square real matrix.

    With k < n - 1, Arnoldi with a Krylov-Schur restart (subspace
    min(n, 2k + 10)) targets the k eigenvalues largest by the requested
    ordering, at every n. The full spectrum (k=None) and k >= n - 1 come
    from a dense solve, only for n <= DENSE_CUTOFF. Arnoldi from one start
    vector may miss a copy of an exactly repeated eigenvalue (the symmetric
    circle grid's pairs); k=None finds it.
    Residuals are checked against the 1e-8 contract when vectors are
    computed; with want_vectors=False both solvers return eigenvalues only.
    If Arnoldi stops after ARNOLDI_MAXITER iterations, EigenConvergenceError
    carries the converged eigenpairs, sorted by the ordering, as method
    "arnoldi-partial" (or None when none converged).
    """
    n = W.shape[0]
    if W.shape[1] != n:
        raise ValueError("matrix must be square")
    if k is not None and not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if k is None or k >= n - 1:
        check_dense_cutoff(n)
        vals, vecs = _dense_eig(W, want_vectors)
        method = "dense"
    else:
        vals, vecs = _krylov_schur(W, k, ordering, want_vectors)
        method = "arnoldi"
    spectrum = _finish(W, vals, vecs, ordering, k, method)
    vals, res = spectrum.eigenvalues, spectrum.residuals
    if res is not None and np.max(res) > RESIDUAL_TOL * max(1.0, float(np.max(np.abs(vals)))):
        raise EigenConvergenceError(
            f"eigenpair residual {np.max(res):.2e} exceeds the {RESIDUAL_TOL} contract",
            spectrum)
    return spectrum


def cluster_eigenvalues(values: np.ndarray):
    """Group (real parts of) eigenvalues within relative tolerance CLUSTER_RTOL.

    Returns (centers, multiplicities) sorted ascending. The scale for the
    relative tolerance is max(1, max |value|).
    """
    v = np.sort(np.real(np.asarray(values)))
    scale = max(1.0, float(np.max(np.abs(v))) if len(v) else 1.0)
    centers, mult = [], []
    for x in v:
        if centers and abs(x - centers[-1]) <= CLUSTER_RTOL * scale:
            centers[-1] = (centers[-1] * mult[-1] + x) / (mult[-1] + 1)
            mult[-1] += 1
        else:
            centers.append(float(x))
            mult.append(1)
    return np.array(centers), np.array(mult, dtype=int)


def symmetric_split(W: sp.spmatrix | np.ndarray):
    """(W + W^T)/2 and (W - W^T)/2."""
    Wt = W.T
    return (W + Wt) / 2.0, (W - Wt) / 2.0


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


def imaginary_diagnostics(W: sp.spmatrix | np.ndarray) -> dict:
    """Bauer-Fike control of the imaginary parts via the antisymmetric part.

    bound = sqrt(||W^-||_1 ||W^-||_inf) dominates ||W^-||_2; every eigenvalue
    of W, read through ``eig`` (so n <= DENSE_CUTOFF), must lie within bound
    of a (real) eigenvalue of W^+.
    """
    vals = eig(W, want_vectors=False).eigenvalues
    Wp, Wm = symmetric_split(W)
    bound = _norm_1_inf(Wm)
    # the sparse (W + W^T)/2 densifies to the bits of the dense one: a + b == b + a
    dist = _distance_to_real(vals, la.eigvalsh(_densify(Wp), overwrite_a=True))
    return {
        "bound": bound,
        "max_asym": float(2.0 * abs(Wm).max()),
        "bauer_fike_ok": bool(np.all(dist <= bound + 1e-12)),
        "max_imag": float(np.max(np.abs(vals.imag))),
    }


def spectral_radius_report(W: sp.spmatrix | np.ndarray) -> dict:
    """Check W 1 = 1 and report a lower bound on the spectral radius.

    The eigenvalues come from ``eig``: all of them at n <= DENSE_CUTOFF, the
    six largest in modulus above it.
    """
    n = W.shape[0]
    row_err = float(np.max(np.abs(W @ np.ones(n) - 1.0)))
    vals = eig(W, k=None if n <= DENSE_CUTOFF else 6, ordering="modulus_desc",
               want_vectors=False).eigenvalues
    rho_lower = float(np.max(np.abs(vals)))
    has_one = bool(np.min(np.abs(vals - 1.0)) <= 1e-8)
    return {"rho_lower": rho_lower, "has_eig_one": has_one, "row_sum_err": row_err}
