import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from scipy.optimize import brentq

from conftest import interval_grid, s1_grid_cloud, s1_grid_eps, ten_point_cloud
from lleboundary import spectral
from lleboundary.analytic import AnalyticCoeffs
from lleboundary.boundary import clip, partition_regions
from lleboundary.harness import PRESETS, run_null_case
from lleboundary.lle import build_lle_matrix
from lleboundary.neighbors import EpsilonBall, Knn, build_graph
from lleboundary.samplers import PointCloud, sample_disk, sample_gaussian_null, sample_interval
from lleboundary.spectral import (EigenConvergenceError, cluster_eigenvalues, eig,
                                  imaginary_diagnostics, spectral_radius_report,
                                  symmetric_split)


def s1_lle(m):
    cloud = s1_grid_cloud(m)
    graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
    return build_lle_matrix(cloud, graph, c_rule=1e-3)


def s1_expected(m):
    inner = np.repeat(np.cos(np.pi * (m - np.arange(1, m)) / m), 2)
    return np.sort(np.concatenate([[-1.0, 1.0], inner]))


def test_s1_grid_full_spectrum():
    m = 6
    spec = eig(s1_lle(m).weights, ordering="real_desc")
    got = np.sort(spec.eigenvalues.real)
    assert np.max(np.abs(spec.eigenvalues.imag)) < 1e-12
    assert np.max(np.abs(got - s1_expected(m))) < 1e-10


def test_identity_matrix():
    spec = eig(np.eye(7))
    assert np.allclose(spec.eigenvalues, 1.0)


def test_ten_point_fixture_eigenvalue():
    cloud = ten_point_cloud()
    graph = build_graph(cloud, Knn(5))
    lle = build_lle_matrix(cloud, graph, c_rule=1e-3)
    spec = eig(lle.weights, ordering="modulus_desc")
    assert np.min(np.abs(spec.eigenvalues - (-2.4233))) <= 5e-4
    report = spectral_radius_report(lle.weights)
    assert report["rho_lower"] >= 2.42
    assert report["has_eig_one"]


def test_symmetric_split():
    sym = np.array([[1.0, 2.0], [2.0, 5.0]])
    Wp, Wm = symmetric_split(sym)
    assert np.allclose(Wm, 0.0)
    assert np.allclose(Wp, sym)

    Wp, Wm = symmetric_split(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(Wm, [[0.0, 0.5], [-0.5, 0.0]])

    rng = np.random.default_rng(2)
    A = rng.normal(size=(9, 9))
    Wp, Wm = symmetric_split(A)
    assert np.max(np.abs(A - (Wp + Wm))) <= 1e-15 * np.max(np.abs(A))

    S = sp.random(30, 30, density=0.2, random_state=3, format="csr")
    Wp, Wm = symmetric_split(S)
    assert abs(S - (Wp + Wm)).max() <= 1e-15


def test_imaginary_diagnostics_symmetric_and_s1():
    diag = imaginary_diagnostics(np.array([[1.0, 0.3], [0.3, 2.0]]))
    assert diag["bound"] == 0.0
    assert diag["max_asym"] == 0.0
    assert diag["bauer_fike_ok"]

    diag = imaginary_diagnostics(s1_lle(5).weights)
    assert diag["bound"] <= 1e-12  # grid rows are symmetric by construction
    assert diag["bauer_fike_ok"]


def test_imaginary_diagnostics_small_null_case():
    cloud = sample_gaussian_null(120, 40, seed=2)
    graph = build_graph(cloud, Knn(12))
    lle = build_lle_matrix(cloud, graph, c_rule=1e-3)
    diag = imaginary_diagnostics(lle.weights)
    assert diag["bauer_fike_ok"]
    spec = eig(lle.weights, ordering="modulus_desc", want_vectors=False)
    vals = spec.eigenvalues
    complex_vals = vals[np.abs(vals.imag) > 1e-12]
    # conjugate pairing of the complex spectrum (real input matrix)
    for lam in complex_vals:
        assert np.min(np.abs(complex_vals - np.conj(lam))) < 1e-9


def test_residual_contract_and_phase():
    lle = s1_lle(7)
    spec = eig(lle.weights, ordering="real_desc")
    assert np.max(spec.residuals) <= 1e-8
    for j in range(spec.eigenvectors.shape[1]):
        i = np.argmax(np.abs(spec.eigenvectors[:, j]))
        pivot = spec.eigenvectors[i, j]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-12 * abs(pivot)


def test_equal_modulus_order_does_not_depend_on_the_solver():
    # the moduli of the circle grid's -1 and 1 differ in the last bits, each
    # solver rounding them its own way; the order must follow the values
    W = s1_lle(5).weights
    dense = eig(W, ordering="modulus_desc").eigenvalues[:2]
    arnoldi = eig(W, k=3, ordering="modulus_desc").eigenvalues[:2]
    assert np.allclose(dense, [1.0, -1.0], atol=1e-12)
    assert np.allclose(arnoldi, dense, atol=1e-12)


def test_cluster_eigenvalues():
    vals = np.array([1.0, 1.0 + 5e-9, 0.5, 0.5 - 3e-9, -1.0])
    centers, mult = cluster_eigenvalues(vals)
    assert np.allclose(centers, [-1.0, 0.5, 1.0])
    assert mult.tolist() == [1, 2, 2]


def test_arnoldi_path_above_cutoff():
    cloud = sample_interval(2200, seed=6)
    graph = build_graph(cloud, EpsilonBall(0.02))
    lle = build_lle_matrix(cloud, graph, "auto")
    spec = eig(lle.weights, k=4, ordering="real_desc")
    assert spec.method == "arnoldi"
    assert len(spec) == 4
    assert np.max(spec.residuals) <= 1e-8
    assert abs(spec.eigenvalues[0] - 1.0) <= 1e-10
    with pytest.raises(ValueError):
        eig(lle.weights, k=None)


def test_arnoldi_without_vectors():
    cloud = sample_interval(2200, seed=6)
    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(0.02)), "auto")
    full = eig(lle.weights, k=4, ordering="real_desc")
    bare = eig(lle.weights, k=4, ordering="real_desc", want_vectors=False)
    assert bare.method == "arnoldi"
    assert bare.eigenvectors is None and bare.residuals is None
    assert np.max(np.abs(bare.eigenvalues - full.eigenvalues)) <= 1e-12


def test_spectral_radius_report_above_cutoff_reads_eigenvalues_only(monkeypatch):
    cloud = sample_interval(2200, seed=6)
    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(0.02)), "auto")
    full = eig(lle.weights, k=6, ordering="modulus_desc", want_vectors=True)
    asked = []

    def recording(*args, **kwargs):
        asked.append(kwargs["want_vectors"])
        return eig(*args, **kwargs)
    monkeypatch.setattr(spectral, "eig", recording)
    report = spectral_radius_report(lle.weights)
    assert asked == [False]
    assert abs(report["rho_lower"] - np.max(np.abs(full.eigenvalues))) <= 1e-12
    assert report["has_eig_one"]


def test_one_dense_cutoff_check_in_eig(monkeypatch):
    W = sp.identity(2001, format="csr")
    densified = []
    toarray = type(W).toarray

    def counted(self, *args, **kwargs):
        densified.append(self.shape)
        return toarray(self, *args, **kwargs)
    monkeypatch.setattr(type(W), "toarray", counted)
    with pytest.raises(ValueError) as from_eig:
        eig(W)
    with pytest.raises(ValueError) as from_diag:
        imaginary_diagnostics(W)
    message = str(from_eig.value)
    assert str(from_diag.value) == message
    assert "exceeds the dense cutoff" in message and "(2000)" in message
    assert densified == []
    # the radius report asks eig for all eigenvalues at the cutoff, six above it
    asked = []

    def recording(A, k=None, **kwargs):
        asked.append((A.shape[0], k))
        return spectral.Spectrum(np.ones(1), None, kwargs["ordering"], "stub", None)
    monkeypatch.setattr(spectral, "eig", recording)
    spectral_radius_report(sp.identity(2000, format="csr"))
    spectral_radius_report(W)
    assert asked == [(2000, None), (2001, 6)]
    assert densified == []


@pytest.mark.parametrize("k", [2099, 2100])
def test_eig_refuses_dense_k_above_cutoff(monkeypatch, k):
    # k >= n - 1 is a dense solve too: above the cutoff eig refuses it unsolved
    def no_dense(A, want_vectors):
        raise AssertionError("dense solve above the cutoff")
    monkeypatch.setattr(spectral, "_dense_eig", no_dense)
    with pytest.raises(ValueError, match=r"n=2100 exceeds the dense cutoff \(2000\)"):
        eig(sp.identity(2100, format="csr"), k=k, want_vectors=False)


def test_spectral_radius_report_s1():
    report = spectral_radius_report(s1_lle(5).weights)
    assert report["row_sum_err"] <= 1e-12
    assert report["has_eig_one"]
    assert abs(report["rho_lower"] - 1.0) <= 1e-10


def null_lle():
    cloud = sample_gaussian_null(120, 40, seed=2)
    return build_lle_matrix(cloud, build_graph(cloud, Knn(12)), c_rule=1e-3)


def evict_dense_memo():
    """Solve another matrix, so the next dense solve of any W is cold."""
    eig(np.eye(2), want_vectors=False)


def test_distance_to_real_matches_loop():
    W = null_lle().weights.toarray()
    mu = la.eigvalsh((W + W.T) / 2.0)
    vals = la.eigvals(W)
    edges = np.array([mu[0] - 3.0 + 1.0j, mu[-1] + 7.0 - 2.0j, mu[5] + 0.0j,
                      mu[5] - 0.25j, 0.5 * (mu[7] + mu[8]) + 1e-9j])
    for lam_set in (vals, edges):
        loop = np.array([np.min(np.abs(lam - mu)) for lam in lam_set])
        assert np.array_equal(spectral._distance_to_real(lam_set, mu), loop)


def test_dense_memo_keys_on_content():
    M = np.diag([3.0, 2.0, 1.0])
    assert eig(M, want_vectors=False).eigenvalues.tolist() == [3.0, 2.0, 1.0]
    M[2, 2] = 5.0  # same array object and shape, new content
    assert eig(M, want_vectors=False).eigenvalues.tolist() == [5.0, 3.0, 2.0]
    assert spectral_radius_report(M)["rho_lower"] == 5.0
    # a CSR matrix is keyed on its arrays: an in-place change of data is seen
    S = sp.csr_matrix(np.diag([3.0, 2.0, 1.0]))
    assert eig(S, want_vectors=False).eigenvalues.tolist() == [3.0, 2.0, 1.0]
    S.data[2] = 5.0
    assert eig(S, want_vectors=False).eigenvalues.tolist() == [5.0, 3.0, 2.0]
    assert spectral_radius_report(S)["rho_lower"] == 5.0


def test_dense_memo_on_csr_reads_and_densifies_nothing_extra(monkeypatch):
    W = null_lle().weights
    before = [W.indptr.copy(), W.indices.copy(), W.data.copy()]
    calls = count_dense_solves(monkeypatch, "eig")
    densified = []
    toarray = type(W).toarray

    def counted(self, *args, **kwargs):
        densified.append(self.shape)
        return toarray(self, *args, **kwargs)
    monkeypatch.setattr(type(W), "toarray", counted)
    eig(W, ordering="modulus_desc")
    assert calls == {"eig": 1} and len(densified) == 1
    imaginary_diagnostics(W)  # densifies only its symmetric part
    assert calls == {"eig": 1} and len(densified) == 2
    radius = spectral_radius_report(W)  # a hit: no densify, no solve
    assert calls == {"eig": 1} and len(densified) == 2
    # the key hashes the CSR arrays as they are and sorts nothing in place
    for a, b in zip((W.indptr, W.indices, W.data), before):
        assert np.array_equal(a, b)
    W.data[0] += 1.0  # an in-place change of the content forces a new solve
    assert spectral_radius_report(W) != radius
    assert calls == {"eig": 2}


def test_dense_memo_independent_of_call_order():
    W = null_lle().weights
    evict_dense_memo()
    diag_cold = imaginary_diagnostics(W)
    evict_dense_memo()
    radius_cold = spectral_radius_report(W)
    eig(W, ordering="modulus_desc")
    assert imaginary_diagnostics(W) == diag_cold
    assert spectral_radius_report(W) == radius_cold


def test_dense_memo_returns_copies():
    dense = null_lle().weights.toarray()
    evict_dense_memo()
    vals, vecs = spectral._dense_eig(dense, want_vectors=False)
    assert vecs is None
    expected = vals.copy()
    vals[:] = 0.0
    again, _ = spectral._dense_eig(dense, want_vectors=False)  # a hit
    assert np.array_equal(again, expected)
    again[:] = 0.0
    assert np.array_equal(spectral._dense_eig(dense, want_vectors=False)[0], expected)


def test_eigenvalues_same_bits_with_and_without_vectors():
    W = null_lle().weights
    evict_dense_memo()
    bare = eig(W, ordering="modulus_desc", want_vectors=False)
    evict_dense_memo()
    full = eig(W, ordering="modulus_desc", want_vectors=True)
    assert bare.eigenvectors is None and bare.residuals is None
    assert np.array_equal(bare.eigenvalues, full.eigenvalues)


def count_dense_solves(monkeypatch, *names) -> dict:
    """Count calls in spectral by name: "eig" counts the dense solves (the one
    geev call, ``_geev``), any other name the scipy.linalg solver of that name."""
    calls = dict.fromkeys(names, 0)

    def counting(name, solver):
        def counted(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return counted

    for name in names:
        owner, attr = (spectral, "_geev") if name == "eig" else (spectral.la, name)
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    return calls


def test_null_case_factors_w_once(monkeypatch):
    calls = count_dense_solves(monkeypatch, "eig", "eigvals")
    res = run_null_case(PRESETS["gaussian_null"])
    assert res["cloud"].n == 400
    assert calls == {"eig": 1, "eigvals": 0}


def disk_w():
    cloud = sample_disk(2400, seed=1)
    return build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(0.15)), "auto").weights


@pytest.fixture(scope="module")
def below_cutoff():
    """Matrices under DENSE_CUTOFF with their dense spectra, the oracle: the
    interval W (n 2000, eps 0.02), its t*-clipped matrix, whose top
    eigenvalues cluster below 1, and a disk W (2400 draws, eps 0.15)."""
    cloud = sample_interval(2000, seed=1)
    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(0.02)), "auto")
    clipped, _ = clip(lle, partition_regions(cloud, 0.02, AnalyticCoeffs(1, 0.02).tstar()))
    mats = {"interval": lle.weights, "interval_clipped": clipped, "disk": disk_w()}
    return {name: (W, eig(W, ordering="real_desc")) for name, W in mats.items()}


@pytest.mark.parametrize("k", [4, 10])
@pytest.mark.parametrize("name", ["interval", "interval_clipped", "disk"])
def test_arnoldi_matches_dense_below_cutoff(below_cutoff, monkeypatch, name, k):
    W, dense = below_cutoff[name]
    assert W.shape[0] <= spectral.DENSE_CUTOFF and dense.method == "dense"
    calls = count_dense_solves(monkeypatch, "eig")
    spec = eig(W, k=k, ordering="real_desc")
    assert calls == {"eig": 0}
    assert spec.method == "arnoldi"
    assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues[:k])) <= 1e-10
    ref = dense.eigenvectors[:, :k]
    cos = np.abs(np.sum(spec.eigenvectors.conj() * ref, axis=0)) / (
        np.linalg.norm(spec.eigenvectors, axis=0) * np.linalg.norm(ref, axis=0))
    assert np.min(cos) >= 1.0 - 1e-10


def test_dense_only_for_full_spectrum_or_k_past_arpack(monkeypatch):
    W = null_lle().weights
    n = W.shape[0]
    calls = count_dense_solves(monkeypatch, "eig")
    assert eig(W, k=n - 2).method == "arnoldi"
    assert calls == {"eig": 0}
    for k in (None, n - 1, n):
        assert eig(W, k=k).method == "dense"
    assert calls == {"eig": 3}  # a call that wants vectors always solves


@pytest.fixture(scope="module")
def null_full():
    """The benchmark's null W (n 1000, p 200, KNN 50) and its full spectrum."""
    cloud = sample_gaussian_null(1000, 200, seed=1)
    W = build_lle_matrix(cloud, build_graph(cloud, Knn(50)), c_rule=1e-3).weights
    vals, vecs = la.eig(W.toarray())
    return W, vals, vecs


def complex_residuals(W, vals, vecs):
    return np.linalg.norm(W @ vecs - vecs * vals, axis=0) / np.linalg.norm(vecs, axis=0)


@pytest.mark.parametrize("case", ["null_full", "dense", "disk_arnoldi"])
def test_residuals_match_complex_formula(null_full, case):
    if case == "null_full":
        W, vals, vecs = null_full
        assert vecs.shape[1] > spectral._RESIDUAL_COLUMNS
        assert np.sum(np.abs(vals.imag) > 1e-3) > 2  # complex pairs
    elif case == "dense":
        W = np.random.default_rng(4).normal(size=(90, 90))
        vals, vecs = la.eig(W)
    else:
        W = disk_w()
        spec = eig(W, k=10, ordering="real_desc")
        vals, vecs = spec.eigenvalues, spec.eigenvectors
    got = spectral._residuals(W, vals, vecs)
    assert np.max(np.abs(got - complex_residuals(W, vals, vecs))) <= 1e-14


def test_residuals_work_in_column_blocks(null_full):
    W, vals, vecs = null_full
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        spectral._residuals(W, vals, vecs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # under half of one n x n complex array; W @ V - V diag(lambda) in one go
    # holds several of them
    assert peak < vecs.size * 16 / 2


def old_finish(W, vals, vecs, ordering, k=None):
    """The oracle for the dense solve and _finish: la.eig's (vals, vecs) or
    ARPACK's, sorted by _sort_key, copied by vecs[:, order] and phase-fixed as
    a whole matrix."""
    order = spectral._sort_key(vals, ordering)[:k]
    vals, vecs = vals[order], vecs[:, order]
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    nonzero = pivot != 0
    phase = np.ones_like(pivot)
    phase[nonzero] = np.abs(pivot[nonzero]) / pivot[nonzero]
    vecs *= phase
    return vals, vecs, spectral._residuals(W, vals, vecs)


@pytest.mark.parametrize("case", ["null_full", "null_dense_k", "real_spectrum", "disk_arnoldi"])
def test_eig_same_bits_as_old_path(null_full, monkeypatch, case):
    ordering, k = ("real_desc", None)
    if case == "null_full":
        (W, vals, vecs), ordering = null_full, "modulus_desc"
    elif case == "null_dense_k":  # a dense solve that keeps n - 1 columns
        W = null_lle().weights
        k = W.shape[0] - 1
        vals, vecs = la.eig(W.toarray())
    elif case == "real_spectrum":  # la.eig returns real eigenvectors
        W = np.random.default_rng(5).normal(size=(70, 70))
        W = W + W.T
        vals, vecs = la.eig(W)
        assert vecs.dtype == float
    else:  # the oracle finishes ARPACK's own output
        W, k = disk_w(), 10
        raw = []
        finish = spectral._finish

        def recording(A, vals, vecs, *args):
            raw.append((vals.copy(), vecs.copy()))
            return finish(A, vals, vecs, *args)
        monkeypatch.setattr(spectral, "_finish", recording)
    spec = eig(W, k=k, ordering=ordering)
    if case == "disk_arnoldi":
        assert spec.method == "arnoldi" and len(raw) == 1
        vals, vecs = raw[0]
    else:
        assert spec.method == "dense"
    ref = old_finish(W, vals, vecs, ordering, k)
    assert spec.eigenvectors.dtype == ref[1].dtype
    for got, want in zip((spec.eigenvalues, spec.eigenvectors, spec.residuals), ref):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dense_eig_holds_two_n_by_n_arrays_at_most(null_full):
    W = null_full[0]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        eig(W, ordering="modulus_desc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # geev's packed real vectors (8 MB at n 1000) and the complex ones (16 MB);
    # la.eig and a whole-matrix sort and phase fix held 40 MB
    assert peak <= 26e6


def test_geev_failure_raises_linalg_error(monkeypatch):
    with pytest.raises(ValueError, match="infs or NaNs"):
        eig(np.array([[1.0, np.nan], [0.0, 1.0]]))
    get_lapack_funcs = spectral.la.get_lapack_funcs

    def failing(names, arrays):
        geev, geev_lwork = get_lapack_funcs(names, arrays)
        return (lambda *args, **kwargs: (*geev(*args, **kwargs)[:4], 2)), geev_lwork
    monkeypatch.setattr(spectral.la, "get_lapack_funcs", failing)
    with pytest.raises(la.LinAlgError, match=r"geev\) failed with info=2"):
        eig(np.diag([3.0, 2.0, 1.0]), want_vectors=False)


@pytest.mark.parametrize("which, ordering, maxiter", [("disk", "real_desc", 6),
                                                      ("null", "modulus_desc", 12)])
def test_arnoldi_partial_result_sorted_and_checked(which, ordering, maxiter, monkeypatch):
    if which == "disk":
        W = disk_w()
    else:
        cloud = sample_gaussian_null(1000, 200, seed=1)
        W = build_lle_matrix(cloud, build_graph(cloud, Knn(50)), c_rule=1e-3).weights
    monkeypatch.setattr(spectral, "ARNOLDI_MAXITER", maxiter)
    with pytest.raises(EigenConvergenceError) as info:
        eig(W, k=10, ordering=ordering)
    monkeypatch.undo()
    partial = info.value.partial
    assert partial is not None and 1 < len(partial) < 10
    assert partial.method == "arnoldi-partial" and partial.ordering == ordering
    vals = partial.eigenvalues
    assert np.array_equal(spectral._sort_key(vals, ordering), np.arange(len(vals)))
    assert np.max(partial.residuals) <= spectral.RESIDUAL_TOL * max(1.0, np.max(np.abs(vals)))
    converged = eig(W, k=10, ordering=ordering).eigenvalues
    assert np.max(np.min(np.abs(vals[:, None] - converged[None, :]), axis=1)) <= 1e-8


@pytest.mark.parametrize("call, word", [
    (lambda: eig(np.ones((2, 3))), "square"),
    (lambda: eig(np.eye(3), ordering="ascending"), "ordering"),
], ids=["non-square", "unknown-ordering"])
def test_eig_refusals(call, word):
    with pytest.raises(ValueError, match=word):
        call()


def test_residual_contract_breach_carries_the_sorted_spectrum(monkeypatch):
    monkeypatch.setattr(spectral, "_residuals", lambda W, vals, vecs: np.full(len(vals), 1e-6))
    with pytest.raises(EigenConvergenceError, match="contract") as info:
        eig(np.diag([1.0, 3.0, 2.0]))
    partial = info.value.partial
    assert partial.method == "dense" and partial.eigenvalues.tolist() == [3.0, 2.0, 1.0]
    assert partial.residuals.tolist() == [1e-6] * 3


def test_arnoldi_nothing_converged_has_no_partial(monkeypatch):
    monkeypatch.setattr(spectral, "ARNOLDI_MAXITER", 1)
    with pytest.raises(EigenConvergenceError, match="No convergence") as info:
        eig(disk_w(), k=10, ordering="real_desc")
    assert info.value.partial is None


def test_unclipped_interval_spectrum_boundary_condition_set_by_kappa():
    # the paper's "peculiar" boundary behaviour: without clipping, the first
    # nontrivial eigenvalue nu_1 = (1 - mu_2)/eps^2 of W on [0, 1] sits well
    # below the Neumann value pi^2/6 at the auto regularizer (kappa = 1 in
    # c = kappa n eps^4) and climbs toward it as kappa grows; measured ratios
    # 0.5185, 0.7914, 0.9235, 0.9833 at kappa 0.3, 1, 3, 10
    n, eps = 4001, 0.02
    cloud = PointCloud(np.linspace(0.0, 1.0, n)[:, None], intrinsic_dim=1, seed=0,
                       manifold_tag="grid")
    graph = build_graph(cloud, EpsilonBall(eps))
    ratios = []
    for kappa in (0.3, 1.0, 3.0, 10.0):
        lle = build_lle_matrix(cloud, graph, c_rule=kappa * n * eps ** 4)
        mu = eig(lle.weights, k=4, ordering="real_desc").eigenvalues
        ratios.append((1.0 - mu[1].real) / eps ** 2 / (np.pi ** 2 / 6.0))
    assert abs(ratios[1] - 0.79) <= 0.03, ratios
    assert np.all(np.diff(ratios) > 0.0), ratios
    assert ratios[-1] > 0.95, ratios


def end_mass_modes(m, count):
    """nu_j = k_j^2/6 of -(1/6) f'' = nu f on [0, 1] with a point mass m at each
    end: odd j solves cot(k/2) = k m on (2i pi, 2i pi + pi), i = (j - 1)/2; even j
    solves -tan(k/2) = k m on ((2i - 1) pi, 2i pi), i = j/2 (Fulton, Proc. Roy.
    Soc. Edinburgh 77A, 1977: an eigenparameter-dependent boundary condition)."""
    nu = []
    for j in range(1, count + 1):
        lo = (j - 1) * np.pi
        if j % 2:
            k = brentq(lambda k: 1.0 / np.tan(k / 2.0) - k * m, lo + 1e-9, lo + np.pi)
        else:
            k = brentq(lambda k: -np.tan(k / 2.0) - k * m, lo + 1e-9, lo + np.pi)
        nu.append(k * k / 6.0)
    return np.array(nu)


def test_unclipped_interval_spectrum_obeys_the_end_mass_condition():
    # nu_1..nu_6 of the unclipped W follow the point-mass boundary condition,
    # with the end mass m read from W's stationary measure pi (W^T pi = pi,
    # interior median 1), not fitted: m is Sum(pi - 1)/n over each half,
    # averaged. m scales as 1/kappa. Measured max |nu/pred - 1|: 1.27%, 0.61%
    # and 0.13%; m kappa: 0.06263, 0.06249 and 0.06165 at kappa 0.5, 1 and 2.
    # The eigenvectors v_1..v_3 meet the same condition, f'(0) = -6 nu m f(0)
    # and f'(1) = +6 nu m f(1) (Neumann would give 0): A cos kt + B sin kt,
    # k = sqrt(6 nu), fitted on [2 eps, 1 - 2 eps], gives each end's
    # log-derivative. Measured ratios to the condition: 0.957 to 1.034
    n, eps = 4001, 0.02
    t = np.linspace(0.0, 1.0, n)
    cloud = PointCloud(t[:, None], intrinsic_dim=1, seed=0, manifold_tag="grid")
    graph = build_graph(cloud, EpsilonBall(eps))
    interior = (t > 2 * eps) & (t < 1 - 2 * eps)
    m_kappa = []
    for kappa, tol in ((0.5, 0.02), (1.0, 0.01), (2.0, 0.01)):
        W = build_lle_matrix(cloud, graph, c_rule=kappa * n * eps ** 4).weights
        spec = eig(W, k=8, ordering="real_desc")
        nu = (1.0 - spec.eigenvalues[1:7].real) / eps ** 2
        vec = eig(W.T.tocsr(), k=1, ordering="real_desc").eigenvectors[:, 0].real
        pi = vec / np.median(vec[interior])
        m = 0.5 * (np.sum(pi[t < 0.5] - 1.0) + np.sum(pi[t >= 0.5] - 1.0)) / n
        err = np.max(np.abs(nu / end_mass_modes(m, 6) - 1.0))
        assert err <= tol, (kappa, m, err)
        m_kappa.append(m * kappa)
        for j in (1, 2, 3):
            k = np.sqrt(6.0 * nu[j - 1])
            basis = np.column_stack([np.cos(k * t), np.sin(k * t)])
            (a, b), *_ = np.linalg.lstsq(basis[interior], spec.eigenvectors[interior, j].real,
                                         rcond=None)
            at_1 = k * (b * np.cos(k) - a * np.sin(k)) / (a * np.cos(k) + b * np.sin(k))
            ratios = np.array([k * b / a, -at_1]) / (-6.0 * nu[j - 1] * m)
            assert np.all(np.abs(ratios - 1.0) <= 0.06), (kappa, j, ratios)
    assert max(m_kappa) / min(m_kappa) - 1.0 <= 0.03, m_kappa
    assert all(0.058 <= x <= 0.067 for x in m_kappa), m_kappa


def test_unclipped_interval_spectrum_tends_to_dirichlet_as_kappa_falls():
    # the paper's second route to the Dirichlet operator, as a candidate: as
    # kappa -> 0 the end mass m ~ 1/(16 kappa) grows, and the unclipped W gives
    # one "mass mode" (nu ~ 5.3 kappa, weight at the ends) plus nu_j -> (j pi)^2/6.
    # The mass mode is found by its endpoint ratio max(|v(0)|, |v(1)|)/max|v|,
    # not by its index. Measured nu/Dirichlet for j = 1..5: 1.579 ... 1.043 at
    # kappa 0.1, 1.087 ... 1.020 at 0.01, 1.042 ... 1.018 at 0.003; endpoint
    # ratios at most 0.091 at kappa 0.003, and 1.00 for the mass mode throughout
    n, eps = 4001, 0.02
    cloud = interval_grid(n)
    graph = build_graph(cloud, EpsilonBall(eps))
    dirichlet = (np.arange(1, 6) * np.pi) ** 2 / 6.0
    gaps, ends = [], []
    for kappa in (0.1, 0.01, 0.003):
        W = build_lle_matrix(cloud, graph, c_rule=kappa * n * eps ** 4).weights
        spec = eig(W, k=7, ordering="real_desc")
        v = np.abs(spec.eigenvectors[:, 1:].real)  # the constant mode dropped
        ratio = np.maximum(v[0], v[-1]) / v.max(axis=0)
        mass = np.argmax(ratio)
        assert ratio[mass] > 0.9, (kappa, ratio)
        rest = np.delete(np.arange(6), mass)
        nu = (1.0 - spec.eigenvalues[1:][rest].real) / eps ** 2
        gaps.append(nu / dirichlet - 1.0)
        ends.append(ratio[rest])
    assert np.all(np.abs(gaps[-1]) <= 0.05), gaps[-1]  # within 5% at kappa 0.003
    assert np.all(np.diff(np.abs(gaps), axis=0) < 0.0), gaps  # every gap shrinks
    assert np.all(ends[-1] < 0.1), ends[-1]  # criterion 12's bound on the endpoint ratio


def test_small_kappa_unclipped_interval_spectrum_is_dirichlet_at_tstar():
    # the t* conjecture: at small kappa the unclipped W looks Dirichlet on the
    # interval shortened by t* at each end, nu_j = (j pi)^2/(6 (1 - 2 t*)^2), with
    # t* = AnalyticCoeffs(1, eps).tstar(). Measured nu_j over that form for
    # j = 1..5 at kappa 0.0003: 1.0025, 1.0012, 1.0001, 0.9976, 0.9955 at eps 0.02
    # and 0.9993, 0.9985, 0.9985, 0.9979, 0.9975 at eps 0.01; over plain
    # (j pi)^2/6: 1.0244 ... 1.0172 and 1.0101 ... 1.0083. The mass mode is
    # found by its endpoint ratio, as in the test above
    kappa = 0.0003
    j = np.arange(1, 6)
    for n, eps in ((4001, 0.02), (8001, 0.01)):
        cloud = interval_grid(n)
        W = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(eps)),
                             c_rule=kappa * n * eps ** 4).weights
        spec = eig(W, k=7, ordering="real_desc")
        v = np.abs(spec.eigenvectors[:, 1:].real)  # the constant mode dropped
        ratio = np.maximum(v[0], v[-1]) / v.max(axis=0)
        mass = np.argmax(ratio)
        assert ratio[mass] > 0.9, (eps, ratio)
        nu = (1.0 - np.delete(spec.eigenvalues[1:], mass).real) / eps ** 2
        tstar = AnalyticCoeffs(1, eps).tstar()
        at_tstar = nu / ((j * np.pi) ** 2 / (6.0 * (1.0 - 2.0 * tstar) ** 2)) - 1.0
        plain = nu / ((j * np.pi) ** 2 / 6.0) - 1.0
        assert np.all(np.abs(at_tstar) <= 0.006), (eps, at_tstar)  # measured <= 0.45%
        assert abs(at_tstar[0]) <= 0.005, (eps, at_tstar)  # nu_2, the README's claim
        assert np.all(np.abs(at_tstar) < np.abs(plain)), (eps, at_tstar, plain)
