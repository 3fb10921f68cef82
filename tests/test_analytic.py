import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from lleboundary.analytic import (AnalyticCoeffs, cap_coefficient, coefficient_table,
                                  d_epsilon_1d, local_cov_check, moments_oracle,
                                  sl_functions, sphere_ratio_check, sphere_volume)

SQRT3 = math.sqrt(3.0)


def test_sphere_volumes():
    assert abs(sphere_volume(0) - 2.0) < 1e-15
    assert abs(sphere_volume(1) - 2.0 * math.pi) < 1e-14
    assert abs(sphere_volume(2) - 4.0 * math.pi) < 1e-14


def test_cap_coefficient_convention():
    assert cap_coefficient(1) == 1.0
    assert abs(cap_coefficient(2) - 2.0) < 1e-15  # |S^0| / 1
    assert abs(cap_coefficient(3) - math.pi) < 1e-14  # |S^1| / 2


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


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_integrals_match_quadrature(d):
    # the d <= 3 closed forms against the generic adaptive quadrature branch
    for s in (0.1, 0.45, 0.8, 1.0):
        ref_flat = quad(lambda x: (1 - x * x) ** ((d - 1) / 2), 0, s, epsabs=1e-13)[0]
        ref_steep = quad(lambda x: (1 - x * x) ** ((d + 1) / 2), 0, s, epsabs=1e-13)[0]
        ref_sq = quad(lambda x: x * x * (1 - x * x) ** ((d - 1) / 2), 0, s, epsabs=1e-13)[0]
        from lleboundary.analytic import _int_flat, _int_sq, _int_steep
        assert abs(_int_flat(s, d) - ref_flat) < 1e-11
        assert abs(_int_steep(s, d) - ref_steep) < 1e-11
        assert abs(_int_sq(s, d) - ref_sq) < 1e-11


def test_moments_interior_ball_volume():
    for d in (1, 2, 3):
        eps = 0.6
        v = moments_oracle(d, eps, t_bd=eps, v=[0] * d)
        assert abs(v - sphere_volume(d - 1) / d * eps ** d) < 1e-10


def test_moments_odd_symmetric_vanish():
    assert abs(moments_oracle(2, 0.5, 0.2, [1, 0])) < 1e-12
    assert abs(moments_oracle(3, 0.5, 0.2, [1, 0, 0])) < 1e-12
    assert abs(moments_oracle(3, 0.5, 0.2, [1, 1, 1])) < 1e-12


def _cap_moment_1d(d, s, m, tangential):
    """Cap moment of x_d^m (times x_1^2 when tangential) over {|x| <= 1, x_d <= s},
    with the d - 1 tangential directions integrated out: the slice at x_d = x is a
    ball of radius r = sqrt(1 - x^2) and volume V r^(d-1), on which x_1^2
    integrates to V r^(d+1) / (d + 1)."""
    vol = math.pi ** ((d - 1) / 2) / math.gamma((d + 1) / 2)
    q, c = ((d + 1) / 2, vol / (d + 1)) if tangential else ((d - 1) / 2, vol)
    return quad(lambda x: c * x ** m * (1 - x * x) ** q, -1.0, min(s, 1.0),
                epsabs=1e-13, epsrel=1e-13)[0]


def test_moments_match_sigma_at_half_depth():
    # every sigma on one array of depths through the layer (half depth included),
    # for d = 1..5: closed forms up to d = 3, adaptive quadrature from d = 4
    eps = 0.3
    s = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
    for d in range(1, 6):
        cf = AnalyticCoeffs(d, eps)
        kinds = {"s0": (0, False), "s1d": (1, False), "s2d": (2, False), "s3d": (3, False)}
        if d > 1:  # x_1 is tangential only for d >= 2
            kinds.update({"s2": (0, True), "s3": (1, True)})
        for kind, (m, tangential) in kinds.items():
            sig = cf.sigma(kind, s * eps)
            assert sig.shape == s.shape
            ref = [_cap_moment_1d(d, si, m, tangential) for si in s]
            assert np.max(np.abs(sig - ref)) <= 1e-10, (d, kind)
            if d <= 2:
                # the tensor-grid oracle costs 64^(d-1) nodes per moment, seconds
                # from d = 3 on (criterion 4 runs it there)
                v = [2 if tangential else 0] + [0] * (d - 2) + [m] if d > 1 else [m]
                mu = [moments_oracle(d, eps, si * eps, v) / eps ** (d + sum(v)) for si in s]
                assert np.max(np.abs(sig - mu)) <= 1e-10, (d, kind)


def test_moments_validation():
    with pytest.raises(ValueError):
        moments_oracle(2, 0.5, 0.2, [2, 2])
    with pytest.raises(ValueError):
        moments_oracle(2, 0.5, 0.2, [1])
    with pytest.raises(ValueError):
        moments_oracle(2, 0.5, -0.1, [0, 0])


def test_sigma_kind_dispatch():
    cf = AnalyticCoeffs(2, 0.5)
    for kind, fn in [("s0", cf.sigma0), ("s1d", cf.sigma1d), ("s2", cf.sigma2),
                     ("s2d", cf.sigma2d), ("s3", cf.sigma3), ("s3d", cf.sigma3d)]:
        assert cf.sigma(kind, 0.2) == fn(0.2)
    with pytest.raises(ValueError):
        cf.sigma("nope", 0.1)


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


def test_d_epsilon_1d_branches():
    cf = AnalyticCoeffs(1, 0.05)
    # interior: (1/6) f''
    assert abs(d_epsilon_1d(0.0, 0.0, 6.0, t=0.5, a=1.0, eps=0.05,
                            density=lambda t: 1.0) - 1.0) < 1e-14
    # at the degeneracy the second-order coefficient vanishes
    t0 = (2.0 - SQRT3) * 0.05
    only_drift = d_epsilon_1d(0.0, 1.0, 0.0, t=t0, a=1.0, eps=0.05, density=lambda t: 1.0)
    with_curv = d_epsilon_1d(0.0, 1.0, 100.0, t=t0, a=1.0, eps=0.05, density=lambda t: 1.0)
    assert abs(only_drift - with_curv) < 1e-10
    assert only_drift > 0.0
    with pytest.raises(ValueError):
        d_epsilon_1d(0.0, 0.0, 1.0, t=0.01, a=0.05, eps=0.05, density=lambda t: 1.0)


def test_d_epsilon_dual_path():
    eps, a = 0.05, 1.0
    cf = AnalyticCoeffs(1, eps)
    f1, f2 = -0.7, 2.3
    for t in np.linspace(1e-4, eps * (1 - 1e-6), 100):
        branch = d_epsilon_1d(0.0, f1, f2, t=t, a=a, eps=eps, density=lambda t: 1.0)
        general = cf.phi(t)[1] * f2 + cf.potential_v(t, 1.0) * (-f1)
        assert abs(branch - general) < 1e-10
    # right boundary mirrors with the opposite outward direction
    for t in np.linspace(a - eps * (1 - 1e-6), a - 1e-4, 50):
        branch = d_epsilon_1d(0.0, f1, f2, t=t, a=a, eps=eps, density=lambda t: 1.0)
        general = cf.phi(a - t)[1] * f2 + cf.potential_v(a - t, 1.0) * f1
        assert abs(branch - general) < 1e-10


def test_sl_functions():
    eps, a = 0.05, 1.0
    t0 = (2.0 - SQRT3) * eps
    at_deg = sl_functions(t0, eps, a)
    assert at_deg["p"] == 0.0
    assert math.isinf(at_deg["h"]) and math.isinf(at_deg["w"])
    assert sl_functions(a - t0, eps, a)["p"] == 0.0

    for t in np.linspace(eps / 100, t0 * (1 - 1e-3), 25):
        vals = sl_functions(t, eps, a)
        assert vals["p"] < 0.0
        assert vals["g"] > 0.0 and vals["h"] > 0.0

    # p/w equals the second-order coefficient away from the degeneracy
    from lleboundary.analytic import sl_coefficient_a, sl_coefficient_b
    grid = np.linspace(eps / 200, eps * (1 - 1 / 200), 120)
    grid = grid[np.abs(grid - t0) > 1e-3 * eps]
    h = 1e-6 * eps
    for t in grid:
        vals = sl_functions(t, eps, a)
        assert abs(vals["p"] / vals["w"] - sl_coefficient_a(t, a, eps)) < 1e-6
        dp = (sl_functions(t + h, eps, a)["p"] - sl_functions(t - h, eps, a)["p"]) / (2 * h)
        assert abs(dp / vals["w"] - sl_coefficient_b(t, a, eps)) < 1e-5


def test_b_function():
    cf1 = AnalyticCoeffs(1, 1.0)
    assert abs(cf1.b_function(0.0) - 0.75) < 1e-12
    assert abs(cf1.b_at_boundary() - 0.75) < 1e-12
    cf2 = AnalyticCoeffs(2, 1.0)
    assert abs(cf2.b_function(0.0) - 64.0 / (9.0 * math.pi ** 2)) < 1e-12
    assert abs(cf2.b_at_boundary() - cf2.b_function(0.0)) < 1e-12
    for d in (1, 2, 3):
        cfd = AnalyticCoeffs(d, 0.4)
        assert cfd.b_function(0.4) == 0.0
        assert cfd.b_function(2.0) == 0.0
        ts = np.linspace(0.0, 0.4, 80)
        assert np.all(np.diff(cfd.b_function(ts)) <= 1e-14)
        assert abs(cfd.b_at_boundary() - cfd.b_function(0.0)) < 1e-12


def test_kernel_limits():
    cf1 = AnalyticCoeffs(1, 0.3)
    lims = cf1.kernel_limits()
    assert abs(lims["kernel_inf"] + 0.5) < 1e-12
    assert abs(lims["boundary_slope"](0.3)) == 0.0
    cf2 = AnalyticCoeffs(2, 0.3)
    assert abs(cf2.kernel_limits()["kernel_inf"] - (1.0 - 16.0 / (3.0 * math.pi))) < 1e-12
    for d in range(1, 8):
        assert AnalyticCoeffs(d, 1.0).kernel_limits()["kernel_inf"] < 0.0


def test_dm_coeffs():
    for d in (1, 2, 5):
        cf = AnalyticCoeffs(d, 0.2)
        vals = cf.dm_coeffs(0.2)
        assert vals["psi1"] == vals["psi2"] == 1.0 / (2 * (d + 2))
        assert vals["drift"] == 0.0
        assert cf.dm_coeffs(0.0)["psi2"] > 0.0
    cf1 = AnalyticCoeffs(1, 0.2)
    assert abs(cf1.dm_coeffs(0.0)["drift"] + 0.5) < 1e-12


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
