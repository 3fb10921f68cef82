"""The boundary-layer operator, coefficient by coefficient.

Prints the sigma-function table across the boundary layer, locates the
degeneracy depth t* where the normal second-order coefficient phi2 changes
sign (the wave/elliptic interface), evaluates the drift V, and verifies that
the closed-form Sturm-Liouville data p, w of the curve [0, a] reproduce the
d = 1 operator read from the same table: A = phi2 and B = side * V at the
depth min(t, a - t).
"""

import math

import numpy as np

from lleboundary import AnalyticCoeffs, coefficient_table, moments_oracle, sl_functions

eps = 0.1
for d in (1, 2, 3):
    cf = AnalyticCoeffs(d, eps)
    t_star = cf.tstar()
    d1, d2 = cf.deltas()
    print(f"d={d}: phi2(0) = {cf.phi(0.0)[1]:+.6f}, interior value = {cf.phi(eps)[1]:.6f}, "
          f"t*/eps = {t_star / eps:.6f} in ({d1:.4f}, {d2:.4f})")
print(f"(d=1 exact depth: 2 - sqrt(3) = {2 - math.sqrt(3):.6f})\n")

print("d=2 coefficient table across the layer (t/eps, phi1, phi2, V, B):")
ts = np.linspace(0.0, 1.0, 6) * eps
for row in coefficient_table(2, eps, ts, p_val=1.0 / math.pi):
    print(f"  {row[0]:.1f}  phi1={row[7]:+.4f}  phi2={row[8]:+.4f}  "
          f"V={row[9]:+.4f}  B={row[10]:.4f}")

# the closed forms agree with brute quadrature over the cap region
mu = moments_oracle(2, eps, 0.5 * eps, [0, 1]) / eps ** 3
cf2 = AnalyticCoeffs(2, eps)
print(f"\nmoment oracle vs closed form at half depth: {mu:.8f} vs {cf2.sigma1d(0.5 * eps):.8f}")

# Sturm-Liouville form: p/w and p'/w reproduce the operator coefficients, here
# A = phi2 and B = -V (the drift points inward from the end t = 0) of the d = 1 table
a = 1.0
t = 0.6 * eps
h = 1e-6 * eps
vals = sl_functions(t, eps, a)
dp = (sl_functions(t + h, eps, a)["p"] - sl_functions(t - h, eps, a)["p"]) / (2 * h)
cf1 = AnalyticCoeffs(1, eps)
print(f"SL identity at t = 0.6 eps: p/w = {vals['p'] / vals['w']:+.8f} "
      f"(A = {cf1.phi(t)[1]:+.8f}), p'/w = {dp / vals['w']:+.8f} "
      f"(B = {-cf1.potential_v(t, 1.0 / a):+.8f})")
t0 = vals["degeneracy"][0]
print(f"p vanishes at the degeneracy: p({t0:.6f}) = {sl_functions(t0, eps, a)['p']}")
