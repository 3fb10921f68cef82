"""One kernel family, three algorithms.

The signed LLE kernel is the alpha = 1/2 member of
K^(alpha) = alpha K1 + (1 - alpha) K2, where K1 is the 0-1 ball kernel and
K2 the signed augmented-vector kernel. alpha = 1 gives the ball average (the
diffusion-type operator of AnalyticCoeffs.dm_coeffs), alpha = 0 the pure
signed kernel. The script verifies the alpha = 1/2 identity numerically, shows
the kernel's negative values near the boundary, and contrasts boundary behavior
of alpha = 1 eigenvectors (Neumann-like, large at the ends) with clipped-LLE
ones (Dirichlet-like), all on one graph.
"""

import numpy as np

from lleboundary import (AnalyticCoeffs, EpsilonBall, build_alpha_kernel_matrix, build_graph,
                         build_lle_matrix, clip, eig, partition_regions, sample_interval)

cloud = sample_interval(2000, seed=1)
eps = 0.02
graph = build_graph(cloud, EpsilonBall(eps))
lle = build_lle_matrix(cloud, graph, "auto")

half = build_alpha_kernel_matrix(lle, alpha=0.5)
print("alpha = 1/2 reproduces the LLE rows:",
      np.max(np.abs((half.weights - lle.weights).toarray())))

uniform = build_alpha_kernel_matrix(lle, alpha=1.0)
row = uniform.weights.getrow(5)
print(f"alpha = 1 row 5 is uniform: {row.data.min():.6f} .. {row.data.max():.6f} "
      f"over {row.nnz} neighbors")

bd = cloud.ground_truth.boundary_dist
near = int(np.argmin(bd))
interior = int(np.argmax(bd))
print(f"kernel near the boundary (bdist {bd[near]:.4f}): "
      f"min y entry = {lle.row_kernel(near).min() * lle.c:.4f} (negative)")
print(f"kernel in the interior  (bdist {bd[interior]:.4f}): "
      f"min y entry = {lle.row_kernel(interior).min() * lle.c:.4f}")
cf = AnalyticCoeffs(1, eps)
print("analytic kernel infimum constant (d=1):", 1.0 + cf.sigma1d(0.0) / cf.sigma2d(0.0))

# boundary behavior: the alpha = 1 ball average vs clipped LLE
t = cloud.points[:, 0]
spec_ball = eig(uniform.weights, k=4, ordering="real_desc")
regions = partition_regions(cloud, eps, cf.tstar())
Wr, kept = clip(lle, regions)
spec_cl = eig(Wr, k=5, ordering="real_desc")

print("\n|eigenvector| at the interval ends relative to its max:")
for j in (1, 2):
    v = np.abs(spec_ball.eigenvectors.real[:, j])
    r = max(v[np.argmin(t)], v[np.argmax(t)]) / v.max()
    print(f"  alpha = 1 mode {j + 1}:     {r:.3f}  (Neumann-like)")
tk = t[kept]
for j in (2, 3):
    v = np.abs(spec_cl.eigenvectors.real[:, j])
    r = max(v[np.argmin(tk)], v[np.argmax(tk)]) / v.max()
    print(f"  clipped LLE mode {j + 1}:   {r:.3f}  (Dirichlet-like)")
