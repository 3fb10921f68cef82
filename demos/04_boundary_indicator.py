"""Boundary detection from barycentric coordinates.

The indicator B_k = (N_k - c y_k^T 1)/N_k is order 1 near the boundary and
order eps inside. On the interval its profile tracks the analytic limit
b(t) = sigma1d^2/(sigma0 sigma2d) closely; on the disk at eps = 0.1 the same
profile is visibly damped because the regularizer c = n eps^(d+3) is
comparable to the local covariance scale there (c/lambda ~ 0.8). The script
prints both profiles and the classification quality against ground truth.

Writes CSV under demos_out/indicator/.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from lleboundary import PRESETS, AnalyticCoeffs, run_indicator

for name in ("interval", "disk"):
    cfg = replace(PRESETS[name], out=Path(f"demos_out/indicator/{name}"))
    result = run_indicator(cfg)
    cloud, rep = result["cloud"], result["report"]
    bd = cloud.ground_truth.boundary_dist
    eps = cfg.eps
    cf = AnalyticCoeffs(cloud.intrinsic_dim, eps)

    print(f"\n{name}: n = {cloud.n}, eps = {eps}, c = {rep.c:.4g}, "
          f"threshold = {rep.threshold:.4f}")
    print("  depth t/eps | mean B (measured) | b(t) (limit)")
    for lo, hi in [(0.0, 0.25), (0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, np.inf)]:
        sel = (bd >= lo * eps) & (bd < hi * eps)
        if not sel.any():
            continue
        mid = min(0.5 * (lo + (hi if np.isfinite(hi) else 3.0)), 3.0) * eps
        print(f"  [{lo:4.2f},{hi:4.2f}) | {rep.b_values[sel].mean():17.4f} "
              f"| {cf.b_function(mid):12.4f}")

    truth_near = bd < eps / 2
    flagged = rep.labels == "boundary"
    recall = np.sum(flagged & truth_near) / max(1, truth_near.sum())
    far = bd > 2 * eps
    fpr = np.sum(flagged & far) / max(1, far.sum())
    print(f"  classification: recall(bdist < eps/2) = {recall:.3f}, "
          f"false-positive rate (bdist > 2 eps) = {fpr:.4f}")
