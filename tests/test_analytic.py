import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (ROOT, b_zero_closed_form, kernel_inf, kernel_inf_closed_form,
                      one_d_operator, python_stdout)
from lleboundary.analytic import (AnalyticCoeffs, _ball_monomial, _cap_integral,
                                  cap_coefficient, coefficient_table, moments_oracle,
                                  sl_functions, sphere_volume)

SQRT3 = math.sqrt(3.0)


def test_sphere_volumes():
    assert abs(sphere_volume(0) - 2.0) < 1e-15
    assert abs(sphere_volume(1) - 2.0 * math.pi) < 1e-14
    assert abs(sphere_volume(2) - 4.0 * math.pi) < 1e-14


def test_cap_coefficient_convention():
    assert cap_coefficient(1) == 1.0
    assert abs(cap_coefficient(2) - 2.0) < 1e-15  # |S^0| / 1
    assert abs(cap_coefficient(3) - math.pi) < 1e-14  # |S^1| / 2


def sphere_ratio_check(d: int) -> bool:
    """Two-sided bound on [|S^(d-2)|/((d-1)|S^(d-1)|)]^2 used by the sign results."""
    mid = (cap_coefficient(d) / sphere_volume(d - 1)) ** 2
    lo = (d + 1) ** 2 * (d + 3) / (8.0 * d ** 2 * (d + 2) ** 2)
    hi = (d + 1) ** 2 / (4.0 * d ** 2 * (d + 2))
    return lo < mid < hi


@pytest.mark.parametrize("d", [1, 2, 3, 10, 50])
def test_sphere_ratio_bounds(d):
    assert sphere_ratio_check(d)


def test_sigma_values_d1():
    cf = AnalyticCoeffs(1, 1.0)
    assert abs(cf.sigma0(0.0) - 1.0) < 1e-15
    assert abs(cf.sigma0(1.0) - 2.0) < 1e-15
    assert abs(cf.sigma1d(0.0) + 0.5) < 1e-15
    assert abs(cf.sigma2d(0.0) - 1.0 / 3.0) < 1e-15
    assert abs(cf.sigma3d(0.0) + 0.25) < 1e-15


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_sigma_interior_constants(d):
    eps = 0.37
    cf = AnalyticCoeffs(d, eps)
    S = sphere_volume(d - 1)
    # scalars and one array of depths both give the interior constants exactly
    for t in (eps, 1.3 * eps, 10.0, np.array([eps, 1.3 * eps, 10.0])):
        assert np.all(cf.sigma1d(t) == 0.0)
        assert np.all(cf.sigma3(t) == 0.0)
        assert np.all(cf.sigma3d(t) == 0.0)
        assert np.all(cf.sigma0(t) == S / d)
        assert np.all(cf.sigma2(t) == S / (d * (d + 2)))
        assert np.all(cf.sigma2d(t) == S / (d * (d + 2)))
        assert np.all(cf.b_function(t) == 0.0)
        assert np.all(cf.potential_v(t, 1.0) == 0.0)
        assert all(np.all(v == 1.0 / (2.0 * (d + 2))) for v in cf.phi(t))
    assert np.shape(cf.sigma0(np.array([eps, 0.0]))) == (2,)
    assert np.ndim(cf.sigma0(eps / 2)) == 0


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_sigma_continuity_at_eps(d):
    eps = 0.2
    cf = AnalyticCoeffs(d, eps)
    for fn in (cf.sigma0, cf.sigma1d, cf.sigma2, cf.sigma2d, cf.sigma3, cf.sigma3d):
        below = fn(eps * (1.0 - 1e-9))
        assert abs(below - fn(eps)) < 1e-7


@pytest.mark.parametrize("m", range(-1, 10))
def test_closed_form_integrals_match_quadrature(m):
    # the reduction formula for int_0^s (1 - x^2)^(m/2) dx against adaptive
    # quadrature, for the m that sigma0 (d - 1) and sigma2 (d + 1) use up to d = 8
    for s in (0.0, 0.1, 0.45, 0.8, 1.0):
        ref = quad(lambda x: (1 - x * x) ** (m / 2), 0, s, epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(_cap_integral(s, m) - ref) < 1e-11, s
    s = np.array([0.0, 0.1, 0.45, 0.8, 1.0])
    assert _cap_integral(s, m).shape == s.shape


def test_import_leaves_scipy_integrate_unloaded():
    # the cap integrals need no quadrature, so importing the package must not
    # pay for scipy.integrate (import time and resident memory)
    code = "import sys, lleboundary; print('scipy.integrate' in sys.modules)"
    assert python_stdout("-c", code).strip() == "False"


def test_moments_interior_ball_volume():
    for d in (1, 2, 3):
        eps = 0.6
        v = moments_oracle(d, eps, t_bd=eps, v=[0] * d)
        assert abs(v - sphere_volume(d - 1) / d * eps ** d) < 1e-10


def test_moments_odd_symmetric_vanish():
    assert abs(moments_oracle(2, 0.5, 0.2, [1, 0])) < 1e-12
    assert abs(moments_oracle(3, 0.5, 0.2, [1, 0, 0])) < 1e-12
    assert abs(moments_oracle(3, 0.5, 0.2, [1, 1, 1])) < 1e-12


def _nested_ball_monomial(rho, exps):
    """The oracle's nested Gauss-Legendre sum, one level per coordinate: u = r sin(theta),
    du = r cos(theta) and the next cross section's radius sqrt(r^2 - u^2)."""
    if not exps:
        return np.ones_like(rho)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    theta = 0.5 * math.pi * nodes
    u = rho[..., None] * np.sin(theta)
    du = rho[..., None] * np.cos(theta)
    inner = _nested_ball_monomial(np.sqrt(np.maximum(rho[..., None] ** 2 - u * u, 0.0)),
                                  exps[1:])
    return np.sum(0.5 * math.pi * weights * u ** exps[0] * du * inner, axis=-1)


def test_ball_monomial_product_matches_nested_sum():
    # the product of one-dimensional sums equals the nested sum it factors, for every
    # exponent vector the oracle takes (up to 3 coordinates, total order <= 3)
    rho = np.array([0.0, 0.3, 1.0, 1.9])
    for m in range(4):
        for exps in itertools.product(range(4), repeat=m):
            if sum(exps) > 3:
                continue
            got = _ball_monomial(rho, list(exps))
            ref = _nested_ball_monomial(rho, list(exps))
            scale = np.maximum(1.0, rho ** (m + sum(exps)))
            assert np.all(np.abs(got - ref) <= 1e-13 * scale), exps


def test_moments_match_sigma_at_half_depth():
    # every sigma on one array of depths through the layer (half depth included)
    # against the tensor-grid oracle, for d = 1..5: one reduction formula gives
    # the cap integrals at every d, and the oracle's product form reaches d = 5
    eps = 0.3
    s = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
    for d in range(1, 6):
        cf = AnalyticCoeffs(d, eps)
        kinds = {cf.sigma0: (0, False), cf.sigma1d: (1, False), cf.sigma2d: (2, False),
                 cf.sigma3d: (3, False)}
        if d > 1:  # x_1 is tangential only for d >= 2
            kinds.update({cf.sigma2: (0, True), cf.sigma3: (1, True)})
        for sigma, (m, tangential) in kinds.items():
            sig = sigma(s * eps)
            assert sig.shape == s.shape
            v = [2 if tangential else 0] + [0] * (d - 2) + [m] if d > 1 else [m]
            mu = [moments_oracle(d, eps, si * eps, v) / eps ** (d + sum(v)) for si in s]
            assert np.max(np.abs(sig - mu)) <= 1e-10, (d, sigma.__name__)


def test_moments_validation():
    with pytest.raises(ValueError):
        moments_oracle(2, 0.5, 0.2, [2, 2])
    with pytest.raises(ValueError):
        moments_oracle(2, 0.5, 0.2, [1])
    with pytest.raises(ValueError):
        moments_oracle(2, 0.5, -0.1, [0, 0])


@pytest.mark.parametrize("call", [
    lambda: AnalyticCoeffs(2, np.inf),
    lambda: AnalyticCoeffs(2, np.nan),
    lambda: AnalyticCoeffs(2, 0.1).sigma0(np.nan),
    lambda: AnalyticCoeffs(2, 0.1).b_function(np.array([0.0, np.nan])),
    lambda: coefficient_table(1, np.inf, [0.0, 0.1]),
    lambda: moments_oracle(2, 0.1, np.nan, [0, 0]),
    lambda: coefficient_table(1, 0.1, [0.0, 0.05, 0.2], p_val=0.0),
    lambda: coefficient_table(1, 0.1, [0.0, 0.05, 0.2], p_val=-1.0),
    lambda: coefficient_table(1, 0.1, [0.0, 0.05, 0.2], p_val=np.nan),
], ids=["eps-inf", "eps-nan", "sigma0-nan", "b-function-nan", "table-eps-inf", "oracle-nan",
        "table-density-zero", "table-density-negative", "table-density-nan"])
def test_non_finite_eps_and_nan_depth_are_refused(call):
    with pytest.raises(ValueError):
        call()


def _d_values(cf, t):
    """Every sigma, phi1, phi2, V, B, psi1, psi2 and the dm drift at t."""
    return [cf.sigma0(t), cf.sigma1d(t), cf.sigma2(t), cf.sigma2d(t), cf.sigma3(t), cf.sigma3d(t),
            *cf.phi(t), cf.potential_v(t, 0.7), cf.b_function(t), *cf.dm_coeffs(t).values()]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_d_array_matches_scalar_calls(d):
    # a scalar depth is evaluated at least 1-d, so it takes the array's numpy loops
    eps = 0.1
    cf = AnalyticCoeffs(d, eps)
    grid = np.concatenate([np.linspace(0.0, 1.2 * eps, 1001), [cf.tstar(), eps]])
    pointwise = [_d_values(cf, float(t)) for t in grid]
    assert all(np.ndim(v) == 0 for row in pointwise for v in row)
    for j, whole in enumerate(_d_values(cf, grid)):
        assert whole.shape == grid.shape
        assert whole.tobytes() == np.array([row[j] for row in pointwise]).tobytes(), j
    square = _d_values(cf, grid[:1000].reshape(40, 25))
    assert all(v.shape == (40, 25) for v in square)


def test_phi_values():
    cf = AnalyticCoeffs(1, 1.0)
    assert abs(cf.phi(0.0)[1] + 1.0 / 12.0) < 1e-12
    for d in (1, 2, 3, 6):
        cfd = AnalyticCoeffs(d, 0.5)
        interior = 1.0 / (2.0 * (d + 2))
        assert cfd.phi(0.5)[0] == interior
        assert cfd.phi(0.5)[1] == interior
        assert cfd.phi(2.0) == (interior, interior)
    # phi2 vanishes at the degeneracy depth
    t0 = (2.0 - SQRT3) * 1.0
    assert abs(cf.phi(t0)[1]) < 1e-10


def test_potential_values():
    cf = AnalyticCoeffs(1, 1.0)
    assert abs(cf.potential_v(0.0, 1.0) + 6.0) < 1e-12
    assert abs(cf.potential_v(0.5, 1.0) + 8.0 / 9.0) < 1e-12
    for d in (1, 2, 4):
        cfd = AnalyticCoeffs(d, 0.3)
        assert cfd.potential_v(0.3, 2.0) == 0.0
        assert cfd.potential_v(1.0, 2.0) == 0.0
        ts = np.linspace(0.0, 0.3, 40)
        assert np.all(cfd.potential_v(ts, 1.3) <= 0.0)
    with pytest.raises(ValueError):
        cf.potential_v(0.1, 0.0)


def test_tstar_refuses_a_bracket_without_a_sign_change(monkeypatch):
    # a bracket wholly past the root, where phi2 > 0 at both ends
    eps = 0.5
    monkeypatch.setattr(AnalyticCoeffs, "deltas", lambda self: (0.9, 0.95))
    a, b = 0.99 * 0.9 * eps, min(1.01 * 0.95 * eps, eps)
    with pytest.raises(RuntimeError, match=re.escape(f"not bracketed on [{a}, {b}]")):
        AnalyticCoeffs(1, eps).tstar()


def test_tstar_and_deltas():
    eps = 0.73
    cf = AnalyticCoeffs(1, eps)
    assert abs(cf.tstar() - (2.0 - SQRT3) * eps) <= 1e-10 * eps
    d1, d2 = cf.deltas()
    assert abs(d1 - 0.1539) < 5e-4 and abs(d2 - 0.6455) < 5e-4
    assert d1 < 2.0 - SQRT3 < d2

    prev = None
    for d in range(1, 11):
        cfd = AnalyticCoeffs(d, 1.0)
        lo, hi = cfd.deltas()
        ts = cfd.tstar()
        assert lo < ts < hi
        if prev is not None:
            assert hi < prev
        prev = hi


def test_monotone_sigmas_on_layer():
    for d in (1, 2, 3, 5):
        cf = AnalyticCoeffs(d, 0.4)
        ts = np.linspace(0.0, 0.8, 120)  # the layer and as far again into the interior
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for fn in (cf.sigma0, cf.sigma1d, cf.sigma2, cf.sigma2d):
                vals = fn(ts)
                assert np.all(np.diff(vals) >= -1e-14)
                with pytest.raises(ValueError):
                    fn(np.array([0.1, -1e-12]))
            for fn in (cf.sigma3, cf.sigma3d, cf.b_function, cf.phi, cf.dm_coeffs,
                       lambda t: cf.potential_v(t, 1.0)):
                fn(ts)


def test_phi1_positive_and_phi2_single_sign_change():
    for d in (1, 2, 3, 5):
        cf = AnalyticCoeffs(d, 1.0)
        ts = np.linspace(0.0, 1.0, 400)
        phi = np.column_stack(cf.phi(ts))
        assert np.all(phi[:, 0] > 0.0)
        signs = np.sign(phi[:, 1])
        changes = np.nonzero(np.diff(signs) != 0)[0]
        assert len(changes) == 1
        crossing = ts[changes[0]]
        assert abs(crossing - cf.tstar()) < 1.0 / 399 + 1e-9


_ONE_D_CASES = [(0.05, 1.0), (0.01, 0.5), (0.2, 3.0)]


def _one_d_grid(eps, a):
    """t over [0, a] with t0, eps, a - eps, a - t0 added; the depth r; the layer."""
    t0 = (2.0 - SQRT3) * eps
    t = np.concatenate([np.linspace(0.0, a, 20001), [t0, eps, a - eps, a - t0]])
    r = np.minimum(t, a - t)
    return t, r, r < eps


def test_d_epsilon_1d_branches():
    # the 1-d operator D f = A f'' + B f' on [0, a]: A = phi2 and B = side V of
    # the d = 1 table at the depth r = min(t, a - t), density P = 1/a
    for eps, a in _ONE_D_CASES:
        t, _, layer = _one_d_grid(eps, a)
        coef_a, coef_b = one_d_operator(t, eps, a)
        # interior: (1/6) f'' and no drift, exactly
        assert np.all(coef_a[~layer] == 1.0 / 6.0) and np.all(coef_b[~layer] == 0.0)
        # at the degeneracy depth (2 - sqrt3) eps the second-order coefficient
        # vanishes at both ends, so D f there is the drift alone
        t0 = (2.0 - SQRT3) * eps
        for end in (t0, a - t0):
            at_deg = one_d_operator(end, eps, a)
            assert abs(at_deg[0]) < 1e-15
            assert abs((at_deg[0] * 100.0 + at_deg[1]) - at_deg[1]) < 1e-10
        # the drift points inward across the layer, t0 and a - t0 included:
        # up from t = 0, down from t = a
        left = t < 0.5 * a
        assert np.all(coef_b[layer & left] > 0.0) and np.all(coef_b[layer & ~left] < 0.0)
    # interior: D f = 1 for f'' = 6
    assert abs(one_d_operator(0.5, 0.05, 1.0)[0] * 6.0 - 1.0) < 1e-14
    with pytest.raises(ValueError, match="branches overlap"):
        sl_functions(0.01, 0.05, 0.05)


def test_d_epsilon_dual_path():
    # the d = 1 table read on both ends of [0, a], against its closed forms with
    # s = r/eps: on the layer phi2 = -(1 - 4s + s^2)/12 to 1e-14 (|phi2| <= 1/6)
    # and V = -6 (1 - s)/(P (1 + s)^3) to 1e-14 * 6/P (|V| <= 6/P); the largest
    # gaps seen on these grids are 4.0e-16 and 1.6e-15 * 6/P
    for eps, a in _ONE_D_CASES:
        cf, p_val = AnalyticCoeffs(1, eps), 1.0 / a
        _, r, layer = _one_d_grid(eps, a)
        s = r / eps
        phi2, drift = cf.phi(r)[1], cf.potential_v(r, p_val)
        assert np.abs(phi2 + (1.0 - 4.0 * s + s * s) / 12.0)[layer].max() < 1e-14
        closed_v = -6.0 * (1.0 - s) / (p_val * (1.0 + s) ** 3)
        assert np.abs(drift - closed_v)[layer].max() < 1e-14 * 6.0 / p_val


@pytest.mark.parametrize("eps, a", [(0.05, 1.0), (0.01, 0.5), (0.2, 3.0), (0.1, 1.0)])
def test_sl_functions_at_both_degeneracies(eps, a):
    # both reported degeneracy points give g = 0, p = +0.0 and h = w = inf, for
    # a scalar t and inside an array; at (0.01, 0.5) a - (a - t0) rounds to
    # 1.1e-17 below t0, so the far end is not the depth t0 by arithmetic alone
    t0 = (2.0 - SQRT3) * eps
    ends = sl_functions(t0, eps, a)["degeneracy"]
    assert ends == (t0, a - t0)
    inside = sl_functions(np.array([0.5 * t0, ends[0], 0.5 * a, ends[1]]), eps, a)
    for end, j in zip(ends, (1, 3)):
        for vals in (sl_functions(end, eps, a), {k: inside[k][j] for k in "ghpw"}):
            assert vals["g"] == 0.0
            assert vals["p"] == 0.0 and not np.signbit(vals["p"])
            assert math.isinf(vals["h"]) and math.isinf(vals["w"])


def test_sl_functions():
    eps, a = 0.05, 1.0
    t0 = (2.0 - SQRT3) * eps
    for t in np.linspace(eps / 100, t0 * (1 - 1e-3), 25):
        vals = sl_functions(t, eps, a)
        assert vals["p"] < 0.0
        assert vals["g"] > 0.0 and vals["h"] > 0.0

    # p/w equals the second-order coefficient away from the degeneracy
    grid = np.linspace(eps / 200, eps * (1 - 1 / 200), 120)
    grid = grid[np.abs(grid - t0) > 1e-3 * eps]
    h = 1e-6 * eps
    for t in grid:
        vals = sl_functions(t, eps, a)
        coef_a, coef_b = one_d_operator(t, eps, a)
        assert abs(vals["p"] / vals["w"] - coef_a) < 1e-6
        dp = (sl_functions(t + h, eps, a)["p"] - sl_functions(t - h, eps, a)["p"]) / (2 * h)
        assert abs(dp / vals["w"] - coef_b) < 1e-5


def _one_d_values(t, eps, a):
    """g, h, p, w at t."""
    sl = sl_functions(t, eps, a)
    return [sl["g"], sl["h"], sl["p"], sl["w"]]


@pytest.mark.parametrize("eps, a", [(0.05, 1.0), (0.01, 0.5), (0.2, 3.0)])
def test_one_d_array_matches_scalar_calls(eps, a):
    t0 = (2.0 - SQRT3) * eps
    grid = np.concatenate([np.linspace(0.0, a, 401), [t0, eps, a - eps, a - t0]])
    pointwise = [_one_d_values(float(t), eps, a) for t in grid]
    assert all(np.ndim(v) == 0 for row in pointwise for v in row)
    for j, whole in enumerate(_one_d_values(grid, eps, a)):
        assert whole.shape == grid.shape
        assert whole.tobytes() == np.array([row[j] for row in pointwise]).tobytes(), j
    square = _one_d_values(grid[:400].reshape(20, 20), eps, a)
    assert all(v.shape == (20, 20) for v in square)

    for bad in ([0.5 * a, -1e-12], [0.5 * a, a * (1 + 1e-12)], [0.5 * a, np.nan]):
        with pytest.raises(ValueError, match=r"\[0, a\]"):
            sl_functions(np.array(bad), eps, a)


def test_operator_demo_lines_agree():
    # the demo prints p/w, p'/w and the table's A, B to the same digits, and p
    # at the degeneracy as +0.0
    out = python_stdout(str(ROOT / "demos" / "03_operator_coefficients.py"))
    sl = re.search(r"p/w = (\S+) \(A = (\S+)\), p'/w = (\S+) \(B = (\S+)\)$", out, re.M)
    assert sl and sl[1] == sl[2] and sl[3] == sl[4]
    assert re.search(r"^p vanishes at the degeneracy: .* = 0\.0$", out, re.M)


def test_b_function():
    # B(0) = b_function(0) against its closed form from cap_coefficient and sphere_volume
    cf1 = AnalyticCoeffs(1, 1.0)
    assert abs(cf1.b_function(0.0) - 0.75) < 1e-12
    assert abs(b_zero_closed_form(1) - 0.75) < 1e-12
    cf2 = AnalyticCoeffs(2, 1.0)
    assert abs(cf2.b_function(0.0) - 64.0 / (9.0 * math.pi ** 2)) < 1e-12
    assert abs(b_zero_closed_form(2) - cf2.b_function(0.0)) < 1e-12
    for d in (1, 2, 3):
        cfd = AnalyticCoeffs(d, 0.4)
        assert cfd.b_function(0.4) == 0.0
        assert cfd.b_function(2.0) == 0.0
        ts = np.linspace(0.0, 0.4, 80)
        assert np.all(np.diff(cfd.b_function(ts)) <= 1e-14)
        assert abs(b_zero_closed_form(d) - cfd.b_function(0.0)) < 1e-12


def test_kernel_limits():
    # the kernel infimum 1 + sigma1d(0)/sigma2d(0) against its closed form; in
    # the interior sigma1d is exactly 0, so the kernel is flat there
    cf1 = AnalyticCoeffs(1, 0.3)
    assert abs(kernel_inf(cf1) + 0.5) < 1e-12
    assert abs(kernel_inf_closed_form(1) + 0.5) < 1e-12
    assert cf1.sigma1d(0.3) == 0.0
    cf2 = AnalyticCoeffs(2, 0.3)
    assert abs(kernel_inf(cf2) - (1.0 - 16.0 / (3.0 * math.pi))) < 1e-12
    for d in range(1, 8):
        cfd = AnalyticCoeffs(d, 1.0)
        assert abs(kernel_inf(cfd) - kernel_inf_closed_form(d)) < 1e-12
        assert kernel_inf(cfd) < 0.0


def test_dm_coeffs():
    for d in (1, 2, 5):
        cf = AnalyticCoeffs(d, 0.2)
        vals = cf.dm_coeffs(0.2)
        assert vals["psi1"] == vals["psi2"] == 1.0 / (2 * (d + 2))
        assert vals["drift"] == 0.0
        assert cf.dm_coeffs(0.0)["psi2"] > 0.0
    cf1 = AnalyticCoeffs(1, 0.2)
    assert abs(cf1.dm_coeffs(0.0)["drift"] + 0.5) < 1e-12


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


def test_local_cov_check():
    assert local_cov_check(2, 0.3, t_bd=0.3, p_val=1.0)
    assert local_cov_check(2, 0.3, t_bd=0.3, p_val=2.5, ambient_dim=5)
    assert local_cov_check(1, 0.2, t_bd=0.0, p_val=1.0)
    assert local_cov_check(2, 0.25, t_bd=0.1, p_val=0.7)
    # interior second moment hits the closed ball value |S^1| eps^4 / 8 = pi eps^4 / 4
    eps = 0.3
    mu = moments_oracle(2, eps, eps, [2, 0])
    assert abs(mu - math.pi * eps ** 4 / 4.0) < 1e-10


def test_coefficient_table():
    ts = [0.0, 0.1, 0.25]
    table = coefficient_table(1, 0.25, ts)
    assert table.shape == (3, 11)
    assert abs(table[0, 8] + 1.0 / 12.0) < 1e-12  # phi2 column at t = 0
    assert abs(table[0, 10] - 0.75) < 1e-12       # B column at t = 0
    # each row equals the scalar calls at its depth, for d = 1..5
    for d in range(1, 6):
        cf = AnalyticCoeffs(d, 0.25)
        ts = [0.0, 0.1, 0.2, 0.25, 0.4]
        table = coefficient_table(d, 0.25, ts, p_val=0.7)
        for row, t in zip(table, ts):
            ref = (t / 0.25, cf.sigma0(t), cf.sigma1d(t), cf.sigma2(t), cf.sigma2d(t),
                   cf.sigma3(t), cf.sigma3d(t), *cf.phi(t), cf.potential_v(t, 0.7),
                   cf.b_function(t))
            assert np.allclose(row, ref, rtol=1e-14, atol=0.0)
    assert coefficient_table(2, 0.25, []).shape == (0, 11)


@pytest.mark.parametrize("call", [lambda: sphere_volume(-1), lambda: cap_coefficient(0),
                                  lambda: AnalyticCoeffs(0, 0.1)],
                         ids=["sphere-volume", "cap-coefficient", "coeffs-d"])
def test_dimension_refusals(call):
    with pytest.raises(ValueError, match="must be >= "):
        call()
