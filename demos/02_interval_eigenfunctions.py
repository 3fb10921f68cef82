"""Interval eigenfunctions, raw and clipped.

Sample the unit interval, build the LLE matrix at eps = 0.01, and compare the
leading eigenvectors of W against those of the clipped matrix W_r (wave strip
of depth t* = (2 - sqrt(3)) eps removed at both ends). The raw eigenvectors
3..6 are large right at the ends; the clipped ones vanish there, like
Dirichlet modes. Writes plot-ready CSV into demos_out/interval/.

Pass --n N to set the sample size (the default 2000 keeps the run quick;
use --n 8000 for the preset's full size).
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from lleboundary import PRESETS, run_eigenfunctions

parser = argparse.ArgumentParser()
parser.add_argument("--n", type=int, default=2000)
args = parser.parse_args()

out = Path("demos_out/interval")
cfg = replace(PRESETS["interval"], n=args.n, k_eigs=8, tstar_clip=True, out=out)
result = run_eigenfunctions(cfg)

cloud = result["cloud"]
t = cloud.points[:, 0]
print(f"n = {cloud.n}, eps = {cfg.eps}, clipped points: {result['summary']['n_clipped']}")
print("top eigenvalues (raw):    ",
      np.round(result["spectrum"].eigenvalues.real[:6], 6))
print("top eigenvalues (clipped):",
      np.round(result["clipped_spectrum"].eigenvalues.real[:6], 6))

kept = result["kept"]
for label, spec, pos in [("raw", result["spectrum"], t),
                         ("clipped", result["clipped_spectrum"], t[kept])]:
    ends = (np.argmin(pos), np.argmax(pos))
    print(f"{label}: |eigenvector| at the ends relative to its max")
    for j in range(2, 6):
        v = np.abs(spec.eigenvectors.real[:, j])
        print(f"  mode {j + 1}: {max(v[ends[0]], v[ends[1]]) / v.max():.4f}")
print(f"CSV written under {out}/")
