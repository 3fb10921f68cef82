"""Closed-form coefficients of the boundary-layer operator.

Everything is expressed through six spherical-cap integrals ("sigma
functions") of the region between the unit ball and the hyperplane
x_d = t/eps: the integrals of 1, x_d, x_1^2, x_d^2, x_1^2 x_d and x_d^3.
From them come the second-order coefficients phi1/phi2, the drift V, the
degeneracy depth t* where phi2 changes sign, the boundary indicator limit
B(t), the kernel limit constants, and the diffusion-map coefficients
psi1/psi2. A tensor-grid quadrature over the cap region serves as the
independent oracle for the closed forms (moments_oracle), and the
one-dimensional operator has an explicit three-branch form plus the
Sturm-Liouville data (g, h, p, w) that brings it to divergence form.

Convention: the ratio |S^(d-2)|/(d-1) is defined to be 1 when d = 1; it is
centralized in :func:`cap_coefficient` and every sigma routes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np
from scipy.integrate import quad

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


# --- cap integrals I(s) = int_0^s of the three integrand families ------------
# s may be an array; d <= 3 are closed forms, d >= 4 adaptive quadrature per entry.

def _quad(f, s):
    """int_0^s f(x) dx for every entry of s."""
    return np.vectorize(lambda b: quad(f, 0.0, b, epsabs=1e-12, epsrel=1e-12)[0],
                        otypes=[float])(s)


def _int_flat(s, d: int):
    """int_0^s (1 - x^2)^((d-1)/2) dx."""
    if d == 1:
        return s
    if d == 2:
        return 0.5 * (s * np.sqrt(1.0 - s * s) + np.arcsin(s))
    if d == 3:
        return s - s ** 3 / 3.0
    return _quad(lambda x: (1.0 - x * x) ** ((d - 1) / 2.0), s)


def _int_steep(s, d: int):
    """int_0^s (1 - x^2)^((d+1)/2) dx."""
    if d == 1:
        return s - s ** 3 / 3.0
    if d == 2:
        return (s * (5.0 - 2.0 * s * s) * np.sqrt(1.0 - s * s) + 3.0 * np.arcsin(s)) / 8.0
    if d == 3:
        return s - 2.0 * s ** 3 / 3.0 + s ** 5 / 5.0
    return _quad(lambda x: (1.0 - x * x) ** ((d + 1) / 2.0), s)


def _int_sq(s, d: int):
    """int_0^s x^2 (1 - x^2)^((d-1)/2) dx."""
    if d == 1:
        return s ** 3 / 3.0
    if d == 2:
        return (np.arcsin(s) - s * (1.0 - 2.0 * s * s) * np.sqrt(1.0 - s * s)) / 8.0
    if d == 3:
        return s ** 3 / 3.0 - s ** 5 / 5.0
    return _quad(lambda x: x * x * (1.0 - x * x) ** ((d - 1) / 2.0), s)


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
        layer = self.sphere / (2 * d) + self.cap * _int_flat(s, d)
        return np.where(s < 1, layer, self.sphere / d)[()]

    def sigma1d(self, t):
        d, s = self.d, self._s(t)
        layer = -self.cap / (d + 1) * (1.0 - s * s) ** ((d + 1) / 2.0)
        return np.where(s < 1, layer, 0.0)[()]

    def sigma2(self, t):
        d, s = self.d, self._s(t)
        layer = self.sphere / (2 * d * (d + 2)) + self.cap / (d + 1) * _int_steep(s, d)
        return np.where(s < 1, layer, self.sphere / (d * (d + 2)))[()]

    def sigma2d(self, t):
        d, s = self.d, self._s(t)
        layer = self.sphere / (2 * d * (d + 2)) + self.cap * _int_sq(s, d)
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

    Nested Gauss-Legendre with the substitution u = rho sin(theta), which
    absorbs the square-root behavior of the shrinking cross sections. rho may
    be an array. No symmetry shortcuts: odd exponents integrate to ~0
    numerically, which downstream tests rely on as evidence.
    """
    rho = np.asarray(rho, dtype=float)
    if len(exps) == 0:
        return np.ones_like(rho)
    e = exps[0]
    out = np.zeros_like(rho)
    for node, wt in zip(_GL_NODES, _GL_WEIGHTS):
        theta = 0.5 * math.pi * node  # theta in (-pi/2, pi/2), jacobian weight pi/2
        u = rho * math.sin(theta)
        du = rho * math.cos(theta)
        inner = _ball_monomial(np.sqrt(np.maximum(rho * rho - u * u, 0.0)), exps[1:])
        out += 0.5 * math.pi * wt * (u ** e) * du * inner
    return out


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

def d_epsilon_1d(f: float, f1: float, f2: float, t: float, a: float, eps: float,
                 density: Callable[[float], float]) -> float:
    """Three-branch boundary-layer operator on a curve of length a.

    f, f1, f2 are the values of the function and its first two arclength
    derivatives at t. The outward direction flips sign across the two ends:
    near t = 0 the drift acts on -f', near t = a on +f'.
    """
    if a <= 2.0 * eps:
        raise ValueError("branches overlap: need a > 2*eps")
    if not 0.0 <= t <= a:
        raise ValueError("t must lie in [0, a]")
    if t <= eps:
        s = t / eps
        return (-(1.0 - 4.0 * s + s * s) / 12.0 * f2
                + 6.0 * eps ** 2 * (eps - t) / (density(t) * (eps + t) ** 3) * f1)
    if t >= a - eps:
        s = (a - t) / eps
        return (-(1.0 - 4.0 * s + s * s) / 12.0 * f2
                - 6.0 * eps ** 2 * (eps + t - a) / (density(t) * (eps + a - t) ** 3) * f1)
    return f2 / 6.0


def sl_coefficient_a(t: float, a: float, eps: float) -> float:
    """Second-order coefficient of the 1-d operator (f'' multiplier)."""
    if t <= eps:
        s = t / eps
    elif t >= a - eps:
        s = (a - t) / eps
    else:
        return 1.0 / 6.0
    return -(1.0 - 4.0 * s + s * s) / 12.0


def sl_coefficient_b(t: float, a: float, eps: float) -> float:
    """First-order coefficient of the 1-d operator (f' multiplier), uniform density 1/a."""
    if t < eps:
        return 6.0 * a * eps ** 2 * (eps - t) / (eps + t) ** 3
    if t > a - eps:
        return -6.0 * a * eps ** 2 * (eps + t - a) / (eps + a - t) ** 3
    return 0.0


@lru_cache(maxsize=None)
def _sl_parts(eps: float, a: float):
    t0 = (2.0 - _SQRT3) * eps
    t1 = (2.0 + _SQRT3) * eps
    al = (4.0 + 2.0 * _SQRT3) * a * eps
    be = (4.0 - 2.0 * _SQRT3) * a * eps

    def g(t: float) -> float:
        return (abs(t - t0) ** al * abs(t - t1) ** be * (t + eps) ** (-8.0 * a * eps)
                * math.exp(12.0 * a * eps ** 3 / (eps + t) ** 2
                           + 12.0 * a * eps ** 2 / (eps + t)))

    def h(t: float) -> float:
        if t == t0:
            return math.inf
        return 12.0 * eps * eps * g(t) / (abs(t - t0) * abs(t - t1))

    return g, h, t0


def sl_functions(t: float, eps: float, a: float) -> dict:
    """Sturm-Liouville data (g, h, p, w) of the 1-d operator, uniform density.

    g is the integrating factor exp(int B/A) on [0, eps], vanishing like
    |t - t0|^((4+2sqrt3) a eps) at the degeneracy depth t0 = (2 - sqrt3) eps;
    h = 12 eps^2 g / (|t - t0| |t - t1|) (with t1 = (2 + sqrt3) eps) makes
    p/w equal the second-order coefficient exactly. p has five branches on
    [0, a] (negative on the wave strips, g(eps) in the interior) and w three.
    Exactly at the degeneracy p = 0 and h, w return +inf.
    """
    if a <= 2.0 * eps:
        raise ValueError("branches overlap: need a > 2*eps")
    if not 0.0 <= t <= a:
        raise ValueError("t must lie in [0, a]")
    g, h, t0 = _sl_parts(eps, a)

    def p_of(t: float) -> float:
        if t <= t0:
            return -g(t)
        if t <= eps:
            return g(t)
        if t <= a - eps:
            return g(eps)
        if t <= a - t0:
            return g(a - t)
        return -g(a - t)

    def w_of(t: float) -> float:
        if t <= eps:
            return h(t)
        if t <= a - eps:
            return h(eps)
        return h(a - t)

    g_val = g(t) if t <= eps else (g(a - t) if t >= a - eps else g(eps))
    h_val = w_of(t)
    return {"g": g_val, "h": h_val, "p": p_of(t), "w": h_val,
            "degeneracy": (t0, a - t0)}


def coefficient_table(d: int, eps: float, ts, p_val: float = 1.0) -> np.ndarray:
    """Rows (t/eps, s0, s1d, s2, s2d, s3, s3d, phi1, phi2, V, B) on a t grid."""
    cf = AnalyticCoeffs(d, eps)
    t = np.asarray(ts, dtype=float)
    return np.column_stack([t / eps, cf.sigma0(t), cf.sigma1d(t), cf.sigma2(t), cf.sigma2d(t),
                            cf.sigma3(t), cf.sigma3d(t), *cf.phi(t),
                            cf.potential_v(t, p_val), cf.b_function(t)])
