"""Spectra of LLE matrices on closed fixtures.

On a uniform grid of the circle with two neighbors per point every row is
(1/2, 1/2) and the spectrum is exactly {-1, 1} plus doubly degenerate
cosines, so the spectral radius is 1. A small scattered cloud in R^3 shows
the other extreme: the spectral radius can exceed 1 by a lot (here an
eigenvalue near -2.42), because the matrix is far from symmetric.
"""

import numpy as np

from lleboundary import (EpsilonBall, Knn, PointCloud, build_graph, build_lle_matrix,
                         cluster_eigenvalues, eig, imaginary_diagnostics,
                         spectral_radius_report)

# --- circle grid -------------------------------------------------------------
m = 10
n = 2 * m
ang = 2.0 * np.pi * np.arange(n) / n
cloud = PointCloud(np.column_stack([np.cos(ang), np.sin(ang)]),
                   intrinsic_dim=1, seed=0, manifold_tag="s1_grid")
eps = 0.5 * (2 * np.sin(np.pi / n) + 2 * np.sin(2 * np.pi / n))
lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(eps)), c_rule=1e-3)

spec = eig(lle.weights, want_vectors=False)
centers, mult = cluster_eigenvalues(spec.eigenvalues)
print(f"circle grid n={n}: clustered spectrum")
for cval, mu in zip(centers, mult):
    print(f"  {cval:+.6f}  x{mu}")
expected = np.sort(np.concatenate([[-1, 1], np.repeat(np.cos(np.pi * np.arange(1, m) / m), 2)]))
print("max deviation from the cosine formula:",
      np.max(np.abs(np.sort(spec.eigenvalues.real) - expected)))
print("radius report:", spectral_radius_report(lle.weights))

# --- scattered cloud in R^3 ----------------------------------------------------
pts = np.array([
    (-0.56, -0.34, 1.03), (-0.51, 0.32, -0.02), (-0.53, -1.47, -0.57),
    (1.34, 0.47, -0.15), (1.01, -1.56, 1.22), (-0.55, -1.0, -0.07),
    (0.09, -1.04, -0.2), (-1.27, 2.07, -0.9), (1.26, -0.71, -1.2), (1.46, 0.0, 0.61),
])
cloud10 = PointCloud(pts, intrinsic_dim=3, seed=0, manifold_tag="scatter10")
lle10 = build_lle_matrix(cloud10, build_graph(cloud10, Knn(5)), c_rule=1e-3)
spec10 = eig(lle10.weights, want_vectors=False)
print("\nten scattered points, 5-NN, c=1e-3:")
print("  eigenvalues:", np.round(np.sort(spec10.eigenvalues.real), 4))
print("  spectral radius:", np.abs(spec10.eigenvalues).max())
print("  antisymmetry diagnostics:", imaginary_diagnostics(lle10.weights))
