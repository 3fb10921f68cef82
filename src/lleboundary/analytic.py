"""Closed-form coefficients of the boundary-layer operator.

Everything is expressed through six spherical-cap integrals ("sigma
functions") of the region between the unit ball and the hyperplane
x_d = t/eps: the integrals of 1, x_d, x_1^2, x_d^2, x_1^2 x_d and x_d^3.
Three of them reduce to int_0^s (1 - x^2)^(m/2) dx, which one reduction
formula in m gives in closed form for every d; the other three are closed
forms outright. From them come the second-order coefficients phi1/phi2, the
drift V, the degeneracy depth t* where phi2 changes sign, the boundary
indicator limit B(t), the kernel limit constants, and the diffusion-map
coefficients psi1/psi2. A tensor-grid quadrature over the cap region
serves as the independent oracle for the closed forms (moments_oracle).
On a curve of length a the one-dimensional operator has explicit
coefficients A (of f'') and B (of f') plus the Sturm-Liouville data
(g, h, p, w) that brings it to divergence form; all of them follow from one
depth map, r = min(t, a - t) and the side of the nearer end. Every function
here takes t as a scalar or an array; a scalar gives a numpy scalar.

Convention: the ratio |S^(d-2)|/(d-1) is defined to be 1 when d = 1; it is
centralized in :func:`cap_coefficient` and every sigma routes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "sphere_volume",
    "cap_coefficient",
    "sphere_ratio_check",
    "AnalyticCoeffs",
    "moments_oracle",
    "local_cov_check",
    "d_epsilon_1d",
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


def sphere_ratio_check(d: int) -> bool:
    """Two-sided bound on [|S^(d-2)|/((d-1)|S^(d-1)|)]^2 used by the sign results."""
    mid = (cap_coefficient(d) / sphere_volume(d - 1)) ** 2
    lo = (d + 1) ** 2 * (d + 3) / (8.0 * d ** 2 * (d + 2) ** 2)
    hi = (d + 1) ** 2 / (4.0 * d ** 2 * (d + 2))
    return lo < mid < hi


# --- cap integrals ------------------------------------------------------------
# I_m(s) = int_0^s (1 - x^2)^(m/2) dx for s in [0, 1] (an array) and every
# integer m >= -1, by the reduction I_m = (s (1 - s^2)^(m/2) + m I_(m-2)) / (m + 1)
# from I_(-1) = arcsin s or I_0 = s. sigma0 takes m = d - 1, sigma2 m = d + 1,
# and sigma2d their difference, since x^2 (1 - x^2)^q = (1 - x^2)^q - (1 - x^2)^(q+1);
# one reduction step writes that difference as
# I_(d-1) - I_(d+1) = (I_(d-1) - s (1 - s^2)^((d+1)/2)) / (d + 2).

def _cap_integral(s, m: int):
    """int_0^s (1 - x^2)^(m/2) dx for every entry of s, m >= -1 an integer."""
    s = np.asarray(s, dtype=float)
    k, out = (1, np.arcsin(s)) if m % 2 else (2, s)
    root = np.sqrt(1.0 - s * s)
    for j in range(k, m + 1, 2):
        out = (s * root ** j + j * out) / (j + 1)
    return out


@dataclass(frozen=True)
class AnalyticCoeffs:
    """Evaluator for the sigma functions and derived coefficients at fixed (d, eps).

    All sigma functions and the coefficients built from them take the
    boundary distance t >= 0 as a scalar or an array (scalars give numpy
    scalars), are continuous, and are constant for t >= eps (interior
    values). Evaluation exactly at t = eps returns that interior constant.
    """

    d: int
    eps: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    # cached scalars
    @property
    def sphere(self) -> float:
        return sphere_volume(self.d - 1)

    @property
    def cap(self) -> float:
        return cap_coefficient(self.d)

    def _s(self, t):
        """Scaled depth min(t/eps, 1); the sigma functions are constant from s = 1 on."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be >= 0")
        return np.minimum(t / self.eps, 1.0)

    def sigma0(self, t):
        d, s = self.d, self._s(t)
        layer = self.sphere / (2 * d) + self.cap * _cap_integral(s, d - 1)
        return np.where(s < 1, layer, self.sphere / d)[()]

    def sigma1d(self, t):
        d, s = self.d, self._s(t)
        layer = -self.cap / (d + 1) * (1.0 - s * s) ** ((d + 1) / 2.0)
        return np.where(s < 1, layer, 0.0)[()]

    def sigma2(self, t):
        d, s = self.d, self._s(t)
        layer = self.sphere / (2 * d * (d + 2)) + self.cap / (d + 1) * _cap_integral(s, d + 1)
        return np.where(s < 1, layer, self.sphere / (d * (d + 2)))[()]

    def sigma2d(self, t):
        d, s = self.d, self._s(t)
        sq = (_cap_integral(s, d - 1) - s * (1.0 - s * s) ** ((d + 1) / 2.0)) / (d + 2)
        layer = self.sphere / (2 * d * (d + 2)) + self.cap * sq
        return np.where(s < 1, layer, self.sphere / (d * (d + 2)))[()]

    def sigma3(self, t):
        d, s = self.d, self._s(t)
        layer = -self.cap / ((d + 1) * (d + 3)) * (1.0 - s * s) ** ((d + 3) / 2.0)
        return np.where(s < 1, layer, 0.0)[()]

    def sigma3d(self, t):
        d, s = self.d, self._s(t)
        layer = (-self.cap / ((d + 1) * (d + 3))
                 * (2.0 + (d + 1) * s * s) * (1.0 - s * s) ** ((d + 1) / 2.0))
        return np.where(s < 1, layer, 0.0)[()]

    def sigma(self, kind: str, t):
        table = {"s0": self.sigma0, "s1d": self.sigma1d, "s2": self.sigma2,
                 "s2d": self.sigma2d, "s3": self.sigma3, "s3d": self.sigma3d}
        try:
            return table[kind](t)
        except KeyError:
            raise ValueError(f"unknown sigma kind {kind!r}") from None

    # --- operator coefficients -------------------------------------------

    def _denom(self, t):
        return self.sigma2d(t) * self.sigma0(t) - self.sigma1d(t) ** 2

    def phi(self, t) -> Tuple:
        """Second-order coefficients (phi1, phi2); both equal 1/(2(d+2)) for t >= eps."""
        layer = self._s(t) < 1
        interior = 1.0 / (2.0 * (self.d + 2))
        den = 2.0 * self._denom(t)
        phi1 = (self.sigma2d(t) * self.sigma2(t) - self.sigma3(t) * self.sigma1d(t)) / den
        phi2 = (self.sigma2d(t) ** 2 - self.sigma3d(t) * self.sigma1d(t)) / den
        return np.where(layer, phi1, interior)[()], np.where(layer, phi2, interior)[()]

    def potential_v(self, t, p_val: float):
        """First-order (drift) coefficient V <= 0; zero for t >= eps."""
        if not p_val > 0:
            raise ValueError("density value must be positive")
        return self.sigma1d(t) / (p_val * self._denom(t))

    def b_function(self, t):
        """Boundary-indicator limit sigma1d^2/(sigma0 sigma2d); 0 for t >= eps, where
        sigma1d is exactly 0."""
        return self.sigma1d(t) ** 2 / (self.sigma0(t) * self.sigma2d(t))

    def b_at_boundary(self) -> float:
        """Closed form of b_function(0): 4 d^2 (d+2) |S^(d-2)|^2 / ((d^2-1)^2 |S^(d-1)|^2)."""
        d = self.d
        return 4.0 * d * d * (d + 2) * self.cap ** 2 / ((d + 1) ** 2 * self.sphere ** 2)

    def kernel_limits(self) -> dict:
        """Limit kernel constants: the infimum constant and the boundary slope.

        kernel_inf = 1 - |S^(d-2)|/(d-1) * 2d(d+2) / ((d+1)|S^(d-1)|) < 0,
        boundary_slope(t) = -sigma1d(t) / (sigma2d(t) * eps).
        """
        kernel_inf = 1.0 - self.cap * 2.0 * self.d * (self.d + 2) / ((self.d + 1) * self.sphere)

        def boundary_slope(t):
            return -self.sigma1d(t) / (self.sigma2d(t) * self.eps)

        return {"kernel_inf": kernel_inf, "boundary_slope": boundary_slope}

    def dm_coeffs(self, t) -> dict:
        """Diffusion-map coefficients psi1 = sigma2/(2 sigma0), psi2 = sigma2d/(2 sigma0),
        and the order-eps drift sigma1d/sigma0 (curvature term excluded)."""
        layer = self._s(t) < 1
        interior = 1.0 / (2.0 * (self.d + 2))
        s0 = self.sigma0(t)
        return {"psi1": np.where(layer, 0.5 * self.sigma2(t) / s0, interior)[()],
                "psi2": np.where(layer, 0.5 * self.sigma2d(t) / s0, interior)[()],
                "drift": self.sigma1d(t) / s0}

    # --- degeneracy locus --------------------------------------------------

    def deltas(self) -> Tuple[float, float]:
        """Bracket constants (delta1, delta2) with delta1*eps < t* < delta2*eps."""
        d = self.d
        q = (d + 1) * self.sphere / self.cap  # (d^2-1)|S^(d-1)|/|S^(d-2)| with the d=1 convention
        delta1 = math.sqrt(1.0 - ((1.0 + q / (2 * d * (d + 2)))
                                  / (1.0 + math.sqrt(2.0 / (d + 3)))) ** (2.0 / (d + 1)))
        delta2 = math.sqrt(1.0 - (q / (4 * d * (d + 2)) + 1.0 / (d + 3)) ** (2.0 / (d + 1)))
        return delta1, delta2

    def tstar(self) -> float:
        """Depth where phi2 vanishes: the root of sigma2d^2 = sigma3d * sigma1d.

        Found by bisection inside the analytic bracket to relative tolerance
        1e-12 (no derivatives; the sign change is verified first).
        """
        def fun(t: float) -> float:
            return self.sigma2d(t) ** 2 - self.sigma3d(t) * self.sigma1d(t)

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
    if t_bd < 0:
        raise ValueError("t_bd must be >= 0")
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


def local_cov_check(d: int, eps: float, t_bd: float, p_val: float,
                    ambient_dim: int | None = None, rtol: float = 1e-3) -> bool:
    """Check the local-covariance eigenvalue structure on a flat patch.

    Builds C = P * integral of u u^T over the cap region by quadrature,
    embeds it in ambient dimension p (extra directions carry no mass on a
    flat patch), eigendecomposes, and verifies the leading d eigenvalues
    equal P * mu_{2 e_i} within rtol while the trailing ones vanish.
    """
    if not p_val > 0:
        raise ValueError("density value must be positive")
    p = ambient_dim if ambient_dim is not None else d + 1
    if p < d:
        raise ValueError("ambient dimension must be >= d")
    C = np.zeros((p, p))
    for i in range(d):
        for j in range(i, d):
            vv = [0] * d
            vv[i] += 1
            vv[j] += 1
            C[i, j] = C[j, i] = p_val * moments_oracle(d, eps, t_bd, vv)
    lam = np.linalg.eigvalsh(C)[::-1]
    # reference values from the closed forms, not the quadrature
    cf = AnalyticCoeffs(d, eps)
    mu2 = [cf.sigma2(t_bd) * eps ** (d + 2)] * (d - 1) + [cf.sigma2d(t_bd) * eps ** (d + 2)]
    expected = np.sort(p_val * np.asarray(mu2))[::-1]
    lead_ok = np.allclose(lam[:d], expected, rtol=rtol, atol=1e-300)
    trail_ok = np.all(np.abs(lam[d:]) <= 1e-8 * max(lam[0], 1e-300))
    return bool(lead_ok and trail_ok)


# --- one-dimensional operator and its Sturm-Liouville form --------------------

def _depth_1d(t, a: float, eps: float):
    """Depth r = min(t, a - t) of arclength t, and the outward side (-1 toward 0,
    +1 toward a): the one place the 1-d functions decide where t sits. t is a
    scalar or an array with every entry in [0, a]; both come back at least 1-d,
    so a scalar takes the same numpy loops as an array entry (numpy-scalar
    arithmetic can round pow differently)."""
    if a <= 2.0 * eps:
        raise ValueError("branches overlap: need a > 2*eps")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((0.0 <= t) & (t <= a)):
        raise ValueError("t must lie in [0, a]")
    return np.minimum(t, a - t), np.where(t <= a - t, -1.0, 1.0)


def _shaped(x: np.ndarray, t):
    """x in the shape of t: a scalar t gives a numpy scalar."""
    return x.reshape(np.shape(t))[()]


def sl_coefficient_a(t, a: float, eps: float):
    """Second-order coefficient of the 1-d operator (f'' multiplier)."""
    r, _ = _depth_1d(t, a, eps)
    s = r / eps
    return _shaped(np.where(r < eps, -(1.0 - 4.0 * s + s * s) / 12.0, 1.0 / 6.0), t)


def sl_coefficient_b(t, a: float, eps: float):
    """First-order coefficient of the 1-d operator (f' multiplier), uniform density 1/a.

    The drift points inward: positive near t = 0, negative near t = a.
    """
    r, side = _depth_1d(t, a, eps)
    drift = -side * 6.0 * a * eps ** 2 * (eps - r) / (eps + r) ** 3
    return _shaped(np.where(r < eps, drift, 0.0), t)


def d_epsilon_1d(f, f1, f2, t, a: float, eps: float, density: Callable):
    """Boundary-layer operator A f2 + B f1 / (a density(t)) on a curve of length a.

    f, f1, f2 are the function and its first two arclength derivatives at t
    (the operator has no zeroth-order term); B is written for density 1/a.
    """
    return (sl_coefficient_a(t, a, eps) * f2
            + sl_coefficient_b(t, a, eps) * f1 / (a * density(t)))


def sl_functions(t, eps: float, a: float) -> dict:
    """Sturm-Liouville data (g, h, p, w) of the 1-d operator, uniform density.

    g is the integrating factor exp(int B/A) on the layer, vanishing like
    |r - t0|^((4+2sqrt3) a eps) at the degeneracy depth t0 = (2 - sqrt3) eps;
    h = 12 eps^2 g / (|r - t0| |r - t1|) (with t1 = (2 + sqrt3) eps) makes
    p/w equal the second-order coefficient exactly. Both are taken at the
    depth min(r, eps), so they are constant in the interior; w = h, and
    p = g with the sign of A: negative on the wave strips r <= t0.
    Exactly at the degeneracy p = 0 and h, w return +inf.
    """
    r, _ = _depth_1d(t, a, eps)
    t0, t1 = (2.0 - _SQRT3) * eps, (2.0 + _SQRT3) * eps
    al, be = (4.0 + 2.0 * _SQRT3) * a * eps, (4.0 - 2.0 * _SQRT3) * a * eps
    u = np.minimum(r, eps)
    g = (np.abs(u - t0) ** al * np.abs(u - t1) ** be * (u + eps) ** (-8.0 * a * eps)
         * np.exp(12.0 * a * eps ** 3 / (eps + u) ** 2 + 12.0 * a * eps ** 2 / (eps + u)))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(u == t0, np.inf, 12.0 * eps * eps * g / (np.abs(u - t0) * np.abs(u - t1)))
    h = _shaped(h, t)
    return {"g": _shaped(g, t), "h": h, "p": _shaped(np.where(r <= t0, -g, g), t), "w": h,
            "degeneracy": (t0, a - t0)}


def coefficient_table(d: int, eps: float, ts, p_val: float = 1.0) -> np.ndarray:
    """Rows (t/eps, s0, s1d, s2, s2d, s3, s3d, phi1, phi2, V, B) on a t grid."""
    cf = AnalyticCoeffs(d, eps)
    t = np.asarray(ts, dtype=float)
    return np.column_stack([t / eps, cf.sigma0(t), cf.sigma1d(t), cf.sigma2(t), cf.sigma2d(t),
                            cf.sigma3(t), cf.sigma3d(t), *cf.phi(t),
                            cf.potential_v(t, p_val), cf.b_function(t)])
