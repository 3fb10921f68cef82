"""Closed-form coefficients of the boundary-layer operator.

Everything is expressed through six spherical-cap integrals ("sigma
functions") of the region between the unit ball and the hyperplane
x_d = t/eps: the integrals of 1, x_d, x_1^2, x_d^2, x_1^2 x_d and x_d^3.
Three of them reduce to int_0^s (1 - x^2)^(m/2) dx, which one reduction
formula in m gives in closed form for every d; the other three are closed
forms outright. From them come the second-order coefficients phi1/phi2, the
drift V, the degeneracy depth t* where phi2 changes sign, the boundary
indicator limit B(t), and the ball average's coefficients psi1/psi2. One
table (AnalyticCoeffs.table) holds every coefficient as a named column, each
formula written there once; its callers read the columns they need, and
coefficient_table stacks the columns TABLE_COLUMNS. The boundary values are
the same table at t = 0: B(0) is its B column and the (negative) kernel
infimum is 1 + s1d/s2d there. A tensor-grid quadrature over the cap
region serves as the independent oracle for the closed forms (moments_oracle).
On a curve of length a the one-dimensional operator is the d = 1 table read
at the depth r = min(t, a - t), with the drift pointing along the side of the
nearer end; its Sturm-Liouville data (g, h, p, w), which bring it to
divergence form, follow from the same depth map and are the closed forms the
table is checked against at d = 1. Every function here takes t as a scalar or
an array; a scalar gives numpy scalars with the bits of the same t inside an
array.

Convention: the ratio |S^(d-2)|/(d-1) is defined to be 1 when d = 1; it is
centralized in :func:`cap_coefficient` and every sigma routes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "sphere_volume",
    "cap_coefficient",
    "AnalyticCoeffs",
    "moments_oracle",
    "sl_functions",
    "coefficient_table",
]

_SQRT3 = math.sqrt(3.0)


def sphere_volume(m: int) -> float:
    """Volume |S^m| of the unit m-sphere: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    if m < 0:
        raise ValueError("dimension must be >= 0")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def cap_coefficient(d: int) -> float:
    """|S^(d-2)|/(d-1), with the d = 1 value defined to be 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return 1.0
    return sphere_volume(d - 2) / (d - 1)


# --- cap integrals ------------------------------------------------------------
# I_m(s) = int_0^s (1 - x^2)^(m/2) dx for s in [0, 1] (an array) and every
# integer m >= -1, by the reduction I_m = (s (1 - s^2)^(m/2) + m I_(m-2)) / (m + 1)
# from I_(-1) = arcsin s or I_0 = s. sigma0 takes m = d - 1, sigma2 m = d + 1 (the
# last reduction step from I_(d-1)), and sigma2d their difference, since
# x^2 (1 - x^2)^q = (1 - x^2)^q - (1 - x^2)^(q+1); that step writes the difference as
# I_(d-1) - I_(d+1) = (I_(d-1) - s (1 - s^2)^((d+1)/2)) / (d + 2).

def _cap_integral(s, m: int):
    """int_0^s (1 - x^2)^(m/2) dx for every entry of s, m >= -1 an integer."""
    s = np.asarray(s, dtype=float)
    k, out = (1, np.arcsin(s)) if m % 2 else (2, s)
    root = np.sqrt(1.0 - s * s)
    for j in range(k, m + 1, 2):
        out = (s * root ** j + j * out) / (j + 1)
    return out


# The columns of one coefficient table, in coefficient_table's (and the CLI's
# sigma-table's) order; table() adds psi1, psi2 and the ball average's drift.
TABLE_COLUMNS = ("t_over_eps", "s0", "s1d", "s2", "s2d", "s3", "s3d", "phi1", "phi2", "V", "B")


@dataclass(frozen=True)
class AnalyticCoeffs:
    """Evaluator for the sigma functions and derived coefficients at fixed (d, eps).

    :meth:`table` gives every coefficient at the boundary distances t >= 0 (a
    scalar or an array) as one named column. Each column is continuous in t
    and constant for t >= eps (interior values); evaluation exactly at
    t = eps returns that interior constant.
    """

    d: int
    eps: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not 0 < self.eps < math.inf:  # also false for nan
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    def table(self, t, p_val: float = 1.0) -> dict:
        """Every coefficient at the depths t, one named column each, in the shape
        of t: t_over_eps, the six sigmas s0, s1d, s2, s2d, s3, s3d at the scaled
        depth s = min(t/eps, 1); phi1 and phi2 (both 1/(2(d+2)) for t >= eps);
        the drift V <= 0 at density p_val; B = s1d^2/(s0 s2d), the indicator
        limit; and the 0-1 ball average's psi1, psi2 and drift, with
        (W - I) f / eps^2 = psi1 (Laplacian f - f_nn) + psi2 f_nn + (drift/eps) df/dn
        (n the outward normal, curvature term excluded).

        t is a scalar or an array with every entry >= 0; both are evaluated at
        least 1-d, so a scalar takes the same numpy loops as an array entry and
        gives numpy scalars with the same bits. I_(d+1) is the last reduction
        step from I_(d-1); where s >= 1 the sigmas are the exact interior
        constants, and so are phi and psi.
        """
        if not p_val > 0:  # also refuses nan
            raise ValueError("density value must be positive")
        depth = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all(depth >= 0):  # also refuses nan
            raise ValueError("t must be >= 0 (and not nan)")
        d, sphere, cap = self.d, sphere_volume(self.d - 1), cap_coefficient(self.d)
        t_over_eps = depth / self.eps
        s = np.minimum(t_over_eps, 1.0)
        layer = s < 1
        i_lo = _cap_integral(s, d - 1)
        i_hi = (s * np.sqrt(1.0 - s * s) ** (d + 1) + (d + 1) * i_lo) / (d + 2)
        w = (1.0 - s * s) ** ((d + 1) / 2.0)
        c3 = -cap / ((d + 1) * (d + 3))
        half2 = sphere / (2 * d * (d + 2))
        values = {
            "s0": (sphere / (2 * d) + cap * i_lo, sphere / d),
            "s1d": (-cap / (d + 1) * w, 0.0),
            "s2": (half2 + cap / (d + 1) * i_hi, sphere / (d * (d + 2))),
            "s2d": (half2 + cap * ((i_lo - s * w) / (d + 2)), sphere / (d * (d + 2))),
            "s3": (c3 * (1.0 - s * s) ** ((d + 3) / 2.0), 0.0),
            "s3d": (c3 * (2.0 + (d + 1) * s * s) * w, 0.0),
        }
        g = {k: np.where(layer, v, inner) for k, (v, inner) in values.items()}
        s0, s1d, s2, s2d = g["s0"], g["s1d"], g["s2"], g["s2d"]
        det = s2d * s0 - s1d ** 2  # the (positive) denominator of phi and V
        interior = 1.0 / (2.0 * (d + 2))
        columns = {"t_over_eps": t_over_eps, **g,
                   "phi1": np.where(layer, (s2d * s2 - g["s3"] * s1d) / (2.0 * det), interior),
                   "phi2": np.where(layer, (s2d ** 2 - g["s3d"] * s1d) / (2.0 * det), interior),
                   "V": s1d / (p_val * det), "B": s1d ** 2 / (s0 * s2d),
                   "psi1": np.where(layer, 0.5 * s2 / s0, interior),
                   "psi2": np.where(layer, 0.5 * s2d / s0, interior), "drift": s1d / s0}
        shape = np.shape(t)
        return {k: _shaped(v, shape) for k, v in columns.items()}

    # --- degeneracy locus --------------------------------------------------

    def deltas(self) -> Tuple[float, float]:
        """Bracket constants (delta1, delta2) with delta1*eps < t* < delta2*eps."""
        d = self.d
        # (d^2-1)|S^(d-1)|/|S^(d-2)|, with the d = 1 convention
        q = (d + 1) * sphere_volume(d - 1) / cap_coefficient(d)
        delta1 = math.sqrt(1.0 - ((1.0 + q / (2 * d * (d + 2)))
                                  / (1.0 + math.sqrt(2.0 / (d + 3)))) ** (2.0 / (d + 1)))
        delta2 = math.sqrt(1.0 - (q / (4 * d * (d + 2)) + 1.0 / (d + 3)) ** (2.0 / (d + 1)))
        return delta1, delta2

    def tstar(self) -> float:
        """Depth where phi2 vanishes: the root of sigma2d^2 = sigma3d * sigma1d.

        Found by bisection on the sign of phi2 (its denominator is positive)
        inside the analytic bracket to relative tolerance 1e-12 (no
        derivatives; the sign change is verified first).
        """
        def fun(t: float) -> float:
            return float(self.table(t)["phi2"])

        d1, d2 = self.deltas()
        a = 0.99 * d1 * self.eps
        b = min(1.01 * d2 * self.eps, self.eps)
        fa, fb = fun(a), fun(b)
        if not (fa < 0.0 < fb):
            raise RuntimeError(f"degeneracy root not bracketed on [{a}, {b}]: f={fa}, {fb}")
        while (b - a) > 1e-13 * self.eps:
            mid = 0.5 * (a + b)
            if fun(mid) <= 0.0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)


# --- independent moment oracle ------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _ball_monomial(rho: np.ndarray, exps) -> np.ndarray:
    """Integral of prod u_i^e_i over the ball of radius rho in R^m, m = len(exps).

    Nested Gauss-Legendre with the substitution u_i = r_i sin(theta_i), where
    r_0 = rho and r_(i+1) = r_i cos(theta_i) is the radius of the next cross
    section; this absorbs their square-root behavior. The integral over the
    inner coordinates is homogeneous in r_(i+1), so the nested sum equals
    rho^(m + sum e) times the product over i of the one-dimensional sums
    sum_j (pi/2) w_j sin^e_i(theta_j) cos^a_i(theta_j), with
    a_i = 1 + (m - 1 - i) + sum_(l>i) e_l. rho may be an array. No symmetry
    shortcuts: odd exponents integrate to ~0 numerically, which downstream
    tests rely on as evidence.
    """
    rho = np.asarray(rho, dtype=float)
    m = len(exps)
    theta = 0.5 * math.pi * _GL_NODES  # theta in (-pi/2, pi/2), jacobian weight pi/2
    sin, cos = np.sin(theta), np.cos(theta)
    factor = 1.0
    for i, e in enumerate(exps):
        a = 1 + (m - 1 - i) + sum(exps[i + 1:])
        factor *= float(np.sum(0.5 * math.pi * _GL_WEIGHTS * sin ** e * cos ** a))
    return factor * rho ** (m + sum(exps))


def moments_oracle(d: int, eps: float, t_bd: float, v) -> float:
    """Moment mu_v over the flat cap region {|u| <= eps, u_d <= t_bd}.

    v is the d-vector of exponents (the last entry belongs to the constrained
    direction). Deterministic tensor-grid quadrature; supports |v| <= 3.
    """
    v = [int(e) for e in v]
    if len(v) != d:
        raise ValueError(f"exponent vector must have length d={d}")
    if sum(v) > 3:
        raise ValueError("moments above total order 3 are unsupported")
    if not t_bd >= 0:  # also refuses nan
        raise ValueError("t_bd must be >= 0 (and not nan)")
    c = min(float(t_bd), eps)
    e_d, rest = v[-1], v[:-1]

    def cross_section(u: np.ndarray) -> np.ndarray:
        return (u ** e_d) * _ball_monomial(np.sqrt(np.maximum(eps * eps - u * u, 0.0)), rest)

    # piece over [-eps, 0] with u = -eps cos(psi): removes the cap singularity at -eps
    psi = 0.25 * math.pi * (_GL_NODES + 1.0)
    w = 0.25 * math.pi * _GL_WEIGHTS
    u1 = -eps * np.cos(psi)
    total = float(np.sum(w * cross_section(u1) * (eps * np.sin(psi))))
    # piece over [0, c] with u = c sin(theta): absorbs the singularity when c = eps
    if c > 0:
        u2 = c * np.sin(psi)
        total += float(np.sum(w * cross_section(u2) * (c * np.cos(psi))))
    return total


# --- Sturm-Liouville form of the one-dimensional operator ---------------------

def _depth_1d(t, a: float, eps: float):
    """Depth r = min(t, a - t) of arclength t. t is a scalar or an array with
    every entry in [0, a]; both come back at least 1-d, so a scalar takes the
    same numpy loops as an array entry (numpy-scalar arithmetic can round pow
    differently)."""
    if a <= 2.0 * eps:
        raise ValueError("branches overlap: need a > 2*eps")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((0.0 <= t) & (t <= a)):
        raise ValueError("t must lie in [0, a]")
    return np.minimum(t, a - t)


def _shaped(x: np.ndarray, shape: tuple):
    """x in the shape of the depths t given as np.shape(t): a scalar t gives a
    numpy scalar."""
    return x.reshape(shape)[()]


def sl_functions(t, eps: float, a: float) -> dict:
    """Sturm-Liouville data (g, h, p, w) of the 1-d operator, uniform density 1/a.

    With A = phi2(r) and B = side V(r, 1/a) of AnalyticCoeffs(1, eps), side
    the outward direction (-1 toward 0, +1 toward a), the operator is
    A f'' + B f' = (p f')'/w. g is the integrating factor exp(int B/A) on the
    layer, vanishing like |r - t0|^((4+2sqrt3) a eps) at the degeneracy depth
    t0 = (2 - sqrt3) eps; h = 12 eps^2 g / (|r - t0| |r - t1|) (with
    t1 = (2 + sqrt3) eps) makes p/w equal A exactly. Both are taken at the
    depth min(r, eps), so they are constant in the interior; w = h, and
    p = g with the sign of A: negative on the wave strips r < t0.
    At both reported degeneracy points, t0 and a - t0, p = +0.0 and h, w
    return +inf.
    """
    r = _depth_1d(t, a, eps)
    t0, t1 = (2.0 - _SQRT3) * eps, (2.0 + _SQRT3) * eps
    r = np.where(np.asarray(t) == a - t0, t0, r)  # a - (a - t0) may round off t0
    al, be = (4.0 + 2.0 * _SQRT3) * a * eps, (4.0 - 2.0 * _SQRT3) * a * eps
    u = np.minimum(r, eps)
    g = (np.abs(u - t0) ** al * np.abs(u - t1) ** be * (u + eps) ** (-8.0 * a * eps)
         * np.exp(12.0 * a * eps ** 3 / (eps + u) ** 2 + 12.0 * a * eps ** 2 / (eps + u)))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(u == t0, np.inf, 12.0 * eps * eps * g / (np.abs(u - t0) * np.abs(u - t1)))
    shape = np.shape(t)
    h = _shaped(h, shape)
    return {"g": _shaped(g, shape), "h": h, "p": _shaped(np.where(r < t0, -g, g), shape),
            "w": h, "degeneracy": (t0, a - t0)}


def coefficient_table(d: int, eps: float, ts, p_val: float = 1.0) -> np.ndarray:
    """Rows of TABLE_COLUMNS (t/eps, s0, s1d, s2, s2d, s3, s3d, phi1, phi2, V, B) on a t grid."""
    table = AnalyticCoeffs(d, eps).table(ts, p_val)
    return np.column_stack([table[k] for k in TABLE_COLUMNS])
