import numpy as np
import pytest
import scipy.sparse as sp

from conftest import s1_grid_cloud, s1_grid_eps, ten_point_cloud
from lleboundary.lle import build_lle_matrix
from lleboundary.neighbors import EpsilonBall, Knn, build_graph
from lleboundary.samplers import sample_gaussian_null, sample_interval
from lleboundary.spectral import (cluster_eigenvalues, eig, imaginary_diagnostics,
                                  spectral_radius_report, symmetric_split)


def s1_lle(m):
    cloud = s1_grid_cloud(m)
    graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
    return build_lle_matrix(cloud, graph, c_rule=1e-3)


def s1_expected(m):
    inner = np.repeat(np.cos(np.pi * (m - np.arange(1, m)) / m), 2)
    return np.sort(np.concatenate([[-1.0, 1.0], inner]))


def test_s1_grid_full_spectrum():
    m = 6
    spec = eig(s1_lle(m), ordering="real_desc")
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
    spec = eig(lle, ordering="modulus_desc")
    assert np.min(np.abs(spec.eigenvalues - (-2.4233))) <= 5e-4
    report = spectral_radius_report(lle)
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
    spec = eig(lle, ordering="real_desc")
    assert np.max(spec.residuals) <= 1e-8
    for j in range(spec.eigenvectors.shape[1]):
        i = np.argmax(np.abs(spec.eigenvectors[:, j]))
        pivot = spec.eigenvectors[i, j]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-12 * abs(pivot)


def test_cluster_eigenvalues():
    vals = np.array([1.0, 1.0 + 5e-9, 0.5, 0.5 - 3e-9, -1.0])
    centers, mult = cluster_eigenvalues(vals, rtol=1e-7)
    assert np.allclose(centers, [-1.0, 0.5, 1.0])
    assert mult.tolist() == [1, 2, 2]


def test_arnoldi_path_above_cutoff():
    cloud = sample_interval(2200, seed=6)
    graph = build_graph(cloud, EpsilonBall(0.02))
    lle = build_lle_matrix(cloud, graph, "auto")
    spec = eig(lle, k=4, ordering="real_desc")
    assert spec.method == "arnoldi"
    assert len(spec) == 4
    assert np.max(spec.residuals) <= 1e-8
    assert abs(spec.eigenvalues[0] - 1.0) <= 1e-10
    with pytest.raises(ValueError):
        eig(lle, k=None)


def test_arnoldi_without_vectors():
    cloud = sample_interval(2200, seed=6)
    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(0.02)), "auto")
    full = eig(lle, k=4, ordering="real_desc")
    bare = eig(lle, k=4, ordering="real_desc", want_vectors=False)
    assert bare.method == "arnoldi"
    assert bare.eigenvectors is None and bare.residuals is None
    assert np.max(np.abs(bare.eigenvalues - full.eigenvalues)) <= 1e-12


def test_spectral_radius_report_s1():
    report = spectral_radius_report(s1_lle(5))
    assert report["row_sum_err"] <= 1e-12
    assert report["has_eig_one"]
    assert abs(report["rho_lower"] - 1.0) <= 1e-10
