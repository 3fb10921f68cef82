"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.

Criteria 9 (kernel sign structure) and 10 (indicator profile) compare the
rows within eps/4 of the boundary with closed forms taken at the pinned
eps and regularizer c = n * eps^(d+3), not with their eps -> 0 limits. The
regularizer enters through its weight on the normal Gram eigenvalue,
reg = c / (n P eps^(d+2)) = eps / P for the uniform density P: 0.01 on the
interval (P = 1), 0.1 pi ~ 0.314 on the disk (P = 1/pi), where it is of the
size of sigma2d(0) = pi/8. At depth t the closed forms are
min_j c y_kj = 1 - |sigma1d(t)| / (sigma2d(t) + reg) and
B_k = sigma1d(t)^2 / (sigma0(t) (sigma2d(t) + reg)); at reg = 0 they reduce
to the kernel infimum 1 + sigma1d(0)/sigma2d(0) (at t = 0, checked against its
closed form) and the table's B(t), which both tests also assert. Measured
against predicted on seeds 1-3:

* disk: mean row minimum of c y 0.110-0.122 against 0.089 (reg = 0
  predicts -0.635); 1.1-2.8% of near rows negative where none is predicted;
  band mean of B 0.342-0.347 against 0.328 (reg = 0 predicts 0.589);
* interval: every near row negative, as predicted; band mean of B
  0.617/0.652/0.641 against 0.630/0.658/0.605.
"""

import math
import time

import numpy as np
import pytest

from conftest import (b_zero_closed_form, kernel_inf, kernel_inf_closed_form, one_d_operator,
                      s1_grid_cloud, s1_grid_eps, ten_point_cloud)
from lleboundary.analytic import AnalyticCoeffs, moments_oracle, sl_functions
from lleboundary.boundary import clip, indicator, partition_regions
from lleboundary.lle import apply_shifted, build_lle_matrix
from lleboundary.neighbors import EpsilonBall, Knn, build_graph
from lleboundary.samplers import sample_gaussian_null
from lleboundary.spectral import (cluster_eigenvalues, eig, imaginary_diagnostics,
                                  spectral_radius_report, symmetric_split)

SQRT3 = math.sqrt(3.0)

# Finite-eps closed forms for criteria 9 and 10. On a flat boundary patch of a
# cloud with uniform density P, the row-k sums converge to the cap integrals
# at depth t: N_k ~ n P eps^d sigma0(t), G 1 ~ n P eps^(d+1) sigma1d(t) e_d,
# and the normal eigenvalue of G G^T ~ n P eps^(d+2) sigma2d(t). The augmented
# vector T_n = (G G^T + c I)^(-1) G 1 then has normal component
# sigma1d / (eps (sigma2d + reg)) with reg = c / (n P eps^(d+2)). So
# c y_kj = 1 - (x_j - x_k)^T T_n is smallest at the deepest neighbour (normal
# offset -eps), and B_k = (G 1)^T T_n / N_k.
DENSITY = {"interval": 1.0, "disk": 1.0 / math.pi}  # uniform P on the unit interval / disk
PRESET_EPS = {"interval": 0.01, "disk": 0.1}  # the bandwidths the fixtures pin
# Per-row |min_j c y_kj - closed form|. The minimum sits at one sampled
# neighbour and T_n is estimated from N_k ~ 40-150 points; measured spread is
# std 0.03-0.06, max 0.25, while the reg = 0 form is 0.75 off on the disk.
KERNEL_MIN_TOL = 0.3
SIGN_AGREEMENT = 0.95  # share of near rows whose min_j c y_kj has the predicted sign
# |band mean of B_k - band mean of the closed form|; measured up to 0.035,
# while the reg = 0 form is 0.25 off on the disk.
INDICATOR_TOL = 0.05


def regularizer_weight(cloud, lle, eps: float) -> float:
    """reg = c / (n P eps^(d+2)); eps / P under the automatic c = n eps^(d+3)."""
    return lle.c / (cloud.n * DENSITY[cloud.manifold_tag] * eps ** (cloud.intrinsic_dim + 2))


def predicted_kernel_min(cf: AnalyticCoeffs, t: float, reg: float) -> float:
    """min_j c y_kj at depth t: 1 - |s1d(t)| / (s2d(t) + reg)."""
    table = cf.table(t)
    return 1.0 - abs(table["s1d"]) / (table["s2d"] + reg)


def predicted_indicator(cf: AnalyticCoeffs, t: float, reg: float) -> float:
    """B_k at depth t: s1d(t)^2 / (s0(t) (s2d(t) + reg))."""
    table = cf.table(t)
    return table["s1d"] ** 2 / (table["s0"] * (table["s2d"] + reg))


def reg_zero_failures() -> list:
    """At reg = 0 the closed forms must reduce to the eps -> 0 limits."""
    failures = []
    for d, eps in ((1, PRESET_EPS["interval"]), (2, PRESET_EPS["disk"])):
        cf = AnalyticCoeffs(d, eps)
        closed = kernel_inf_closed_form(d)
        for name, got in (("kernel minimum at reg=0, t=0", predicted_kernel_min(cf, 0.0, 0.0)),
                          ("table kernel infimum", kernel_inf(cf))):
            if abs(got - closed) > 1e-12:
                failures.append(f"d={d}: {name} {got:.6f} != closed-form kernel_inf {closed:.6f}")
        for s in (0.0, 0.125, 0.25, 0.5):
            t = s * eps
            if abs(predicted_indicator(cf, t, 0.0) - cf.table(t)["B"]) > 1e-12:
                failures.append(f"d={d}: indicator at reg=0, t/eps={s} != the table's B")
    return failures


def near_band(run):
    """(cf, reg, near row indices, their depths) for the rows within eps/4 of the boundary."""
    cloud, lle = run["cloud"], run["lle"]
    eps = PRESET_EPS[cloud.manifold_tag]
    bdist = cloud.ground_truth.boundary_dist
    near = np.nonzero(bdist < eps / 4)[0]
    return (AnalyticCoeffs(cloud.intrinsic_dim, eps), regularizer_weight(cloud, lle, eps),
            near, bdist[near])


def report(num: int, name: str, failures: list, elapsed: float, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    line = f"[{status}] criterion {num:2d}: {name} [{elapsed:.2f}s]"
    if detail:
        line += f" | {detail}"
    print(line)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_s1_exact_spectrum():
    t0 = time.perf_counter()
    failures = []
    for m in (4, 10, 25):
        cloud = s1_grid_cloud(m)
        graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
        lle = build_lle_matrix(cloud, graph, c_rule=1e-3)
        spec = eig(lle.weights, want_vectors=False)
        got = np.sort(spec.eigenvalues.real)
        inner = np.repeat(np.cos(np.pi * (m - np.arange(1, m)) / m), 2)
        expected = np.sort(np.concatenate([[-1.0, 1.0], inner]))
        dev = float(np.max(np.abs(got - expected)))
        if dev > 1e-8:
            failures.append(f"m={m}: max deviation {dev:.2e} > 1e-8")
        centers, mult = cluster_eigenvalues(spec.eigenvalues)
        exp_centers, exp_mult = cluster_eigenvalues(expected)
        if mult.tolist() != exp_mult.tolist():
            failures.append(f"m={m}: multiplicities {mult.tolist()} != {exp_mult.tolist()}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, "S^1 grid exact spectrum (m=4,10,25)", failures, elapsed)


def test_criterion_02_ten_point_fixture():
    t0 = time.perf_counter()
    failures = []
    cloud = ten_point_cloud()
    graph = build_graph(cloud, Knn(5))
    lle = build_lle_matrix(cloud, graph, c_rule=1e-3)
    spec = eig(lle.weights, want_vectors=False)
    dist = float(np.min(np.abs(spec.eigenvalues - (-2.4233))))
    if dist > 5e-4:
        failures.append(f"closest eigenvalue to -2.4233 is off by {dist:.2e} > 5e-4")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(2, "ten-point 5-NN fixture eigenvalue -2.4233", failures, elapsed,
           f"min distance {dist:.1e}")


def test_criterion_03_row_stochastic_and_radius(disk_runs, interval_runs):
    t0 = time.perf_counter()
    failures = []
    constructed = []
    for m in (4, 10, 25):
        cloud = s1_grid_cloud(m)
        graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
        constructed.append((f"s1 m={m}", build_lle_matrix(cloud, graph, c_rule=1e-3)))
    fixture = ten_point_cloud()
    constructed.append(("fixture10",
                        build_lle_matrix(fixture, build_graph(fixture, Knn(5)), 1e-3)))
    for run in disk_runs:
        constructed.append((f"disk seed {run['seed']}", run["lle"]))
    for run in interval_runs:
        constructed.append((f"interval seed {run['seed']}", run["lle"]))
    nc = sample_gaussian_null(400, 200, seed=7)
    constructed.append(("nullcase", build_lle_matrix(nc, build_graph(nc, Knn(50)), 1e-3)))

    for name, lle in constructed:
        rep = spectral_radius_report(lle.weights)
        if rep["row_sum_err"] > 1e-12:
            failures.append(f"{name}: ||W1-1||_inf = {rep['row_sum_err']:.2e} > 1e-12")
        if rep["rho_lower"] < 1.0 - 1e-10:
            failures.append(f"{name}: rho lower bound {rep['rho_lower']:.12f} < 1-1e-10")
    report(3, "row sums and spectral radius on every constructed W", failures,
           time.perf_counter() - t0, f"{len(constructed)} matrices")


def test_criterion_04_sigma_mu_oracle():
    t0 = time.perf_counter()
    failures = []
    eps = 0.31
    for d in (1, 2, 3):
        cf = AnalyticCoeffs(d, eps)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            t = s * eps
            table = cf.table(t)
            pairs = [
                ("mu0/sigma0", [0] * d, d, table["s0"]),
                ("mu_ed/sigma1d", [0] * (d - 1) + [1], d + 1, table["s1d"]),
                ("mu_2ed/sigma2d", [0] * (d - 1) + [2], d + 2, table["s2d"]),
                ("mu_3ed/sigma3d", [0] * (d - 1) + [3], d + 3, table["s3d"]),
            ]
            if d > 1:
                pairs += [
                    ("mu_2e1/sigma2", [2] + [0] * (d - 1), d + 2, table["s2"]),
                    ("mu_2e1_ed/sigma3", [2] + [0] * (d - 2) + [1], d + 3, table["s3"]),
                ]
            for name, v, power, sigma in pairs:
                mu = moments_oracle(d, eps, t, v) / eps ** power
                if abs(mu - sigma) > 1e-4:
                    failures.append(f"d={d} t/eps={s} {name}: |{mu:.6f}-{sigma:.6f}| > 1e-4")
        # symmetric odd moments vanish
        odd = [[1] + [0] * (d - 1)] if d > 1 else []
        if d == 3:
            odd += [[1, 1, 1], [0, 1, 1]]
        for v in odd:
            val = moments_oracle(d, eps, 0.4 * eps, v)
            if abs(val) > 1e-10:
                failures.append(f"d={d} odd moment {v} = {val:.2e} not ~0")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(4, "sigma/moment oracle equivalence (d=1,2,3)", failures, elapsed)


def test_criterion_05_coefficient_ledger():
    t0 = time.perf_counter()
    failures = []
    for d in (1, 2, 3, 6):
        cf = AnalyticCoeffs(d, 0.4)
        interior = 1.0 / (2.0 * (d + 2))
        for t in (0.4, 0.7):
            at_t = cf.table(t)
            phi = (at_t["phi1"], at_t["phi2"])
            if phi != (interior, interior):
                failures.append(f"d={d}: interior phi {phi} != {interior} exactly")
        if not cf.table(0.0)["phi2"] < 0.0:
            failures.append(f"d={d}: phi2(0) = {cf.table(0.0)['phi2']} not < 0")
    cf1 = AnalyticCoeffs(1, 1.0)
    at_zero = cf1.table(0.0, 1.0)
    checks = [
        ("phi2(0) = -1/12", at_zero["phi2"], -1.0 / 12.0),
        ("V(0, P=1) = -6", at_zero["V"], -6.0),
        ("V(eps/2, P=1) = -8/9", cf1.table(0.5, 1.0)["V"], -8.0 / 9.0),
        ("B(0) = 3/4", at_zero["B"], 0.75),
        ("kernel_inf = -1/2", kernel_inf(cf1), -0.5),
    ]
    for name, got, expect in checks:
        if abs(got - expect) > 1e-10:
            failures.append(f"{name}: got {got!r}")
    # cross-checks against the independent closed forms
    if abs(b_zero_closed_form(1) - 0.75) > 1e-10:
        failures.append("closed-form B(0) at d=1 != 3/4")
    cf2 = AnalyticCoeffs(2, 1.0)
    if abs(cf2.table(0.0)["B"] - b_zero_closed_form(2)) > 1e-10:
        failures.append("d=2 B(0) != closed form")
    report(5, "coefficient ledger (interior constants, d=1 values)", failures,
           time.perf_counter() - t0)


def test_criterion_06_degeneracy_locus():
    t0 = time.perf_counter()
    failures = []
    eps = 0.57
    cf1 = AnalyticCoeffs(1, eps)
    dev = abs(cf1.tstar() - (2.0 - SQRT3) * eps)
    if dev > 1e-10 * eps:
        failures.append(f"d=1 t* off by {dev:.2e}")
    prev_d2 = None
    for d in range(1, 11):
        cf = AnalyticCoeffs(d, eps)
        d1, d2 = cf.deltas()
        ts = cf.tstar()
        if not (d1 * eps < ts < d2 * eps):
            failures.append(f"d={d}: t*={ts:.6f} outside ({d1 * eps:.6f}, {d2 * eps:.6f})")
        if prev_d2 is not None and not d2 < prev_d2:
            failures.append(f"d={d}: delta2 not decreasing")
        prev_d2 = d2
    report(6, "degeneracy locus t* and its brackets (d=1..10)", failures,
           time.perf_counter() - t0)


def test_criterion_07_sl_identity():
    t0 = time.perf_counter()
    failures = []
    eps, a = 0.05, 1.0
    t_deg = (2.0 - SQRT3) * eps
    grid = np.linspace(eps / 201, eps * (1.0 - 1.0 / 201), 200)
    grid = grid[np.abs(grid - t_deg) > 1e-3 * eps]
    h = 1e-6 * eps
    worst_a = worst_b = 0.0
    for t in grid:
        vals = sl_functions(t, eps, a)
        coef_a, coef_b = one_d_operator(t, eps, a)
        worst_a = max(worst_a, abs(vals["p"] / vals["w"] - coef_a))
        dp = (sl_functions(t + h, eps, a)["p"] - sl_functions(t - h, eps, a)["p"]) / (2 * h)
        worst_b = max(worst_b, abs(dp / vals["w"] - coef_b))
    if worst_a > 1e-5:
        failures.append(f"max |p/w - A| = {worst_a:.2e} > 1e-5")
    if worst_b > 1e-4:
        failures.append(f"max |p'/w - B| = {worst_b:.2e} > 1e-4")
    report(7, "Sturm-Liouville identity p/w = A, p'/w = B", failures,
           time.perf_counter() - t0, f"max errors {worst_a:.1e}, {worst_b:.1e}")


def test_criterion_08_pointwise_convergence_disk(disk_runs):
    t0 = time.perf_counter()
    failures = []
    means = []
    for run in disk_runs:
        cloud, lle = run["cloud"], run["lle"]
        f = (cloud.points ** 2).sum(axis=1)
        vals = apply_shifted(lle.weights, f) / 0.1 ** 2
        interior = cloud.ground_truth.boundary_dist > 0.2
        mean = float(vals[interior].mean())
        means.append(mean)
        if not 0.425 <= mean <= 0.575:
            failures.append(f"seed {run['seed']}: interior mean {mean:.4f} outside [.425,.575]")
    elapsed = time.perf_counter() - t0 + sum(r["build_seconds"] for r in disk_runs)
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    report(8, "disk pointwise operator value (target 0.5, 3 seeds)", failures, elapsed,
           "means " + ", ".join(f"{m:.4f}" for m in means))


def test_criterion_09_kernel_sign_structure(disk_runs, interval_runs):
    t0 = time.perf_counter()
    failures = reg_zero_failures()
    details = []
    for run in interval_runs + disk_runs:
        cloud, lle = run["cloud"], run["lle"]
        name = f"{cloud.manifold_tag} seed {run['seed']}"
        cf, reg, near, depths = near_band(run)
        row_min = np.minimum.reduceat(lle.y, lle.weights.indptr[:-1])
        if np.any(row_min[cloud.ground_truth.boundary_dist > cf.eps] < -1e-10):
            failures.append(f"{name}: a row with bdist > eps has y < -1e-10")
        if not np.all(lle.y_sum > 0.0):
            failures.append(f"{name}: some row kernel sum is nonpositive")
        got = lle.c * row_min[near]
        expect = np.array([predicted_kernel_min(cf, t, reg) for t in depths])
        worst = float(np.max(np.abs(got - expect)))
        if worst > KERNEL_MIN_TOL:
            failures.append(f"{name}: a near row's min c*y is {worst:.3f} off the closed form "
                            f"(tolerance {KERNEL_MIN_TOL})")
        agree = float(np.mean((got < 0.0) == (expect < 0.0)))
        if agree < SIGN_AGREEMENT:
            failures.append(f"{name}: only {agree:.1%} of near rows have the predicted sign "
                            f"of min c*y (need {SIGN_AGREEMENT:.0%})")
        details.append(f"{cloud.manifold_tag} s{run['seed']}: min c*y {got.mean():.3f} vs "
                       f"{expect.mean():.3f}, neg {np.mean(got < 0.0):.3f}")
    report(9, "kernel sign structure vs closed form (interval and disk, 3 seeds)", failures,
           time.perf_counter() - t0, "; ".join(details))


def test_criterion_10_indicator_profile(disk_runs, interval_runs):
    t0 = time.perf_counter()
    failures = reg_zero_failures()
    details = []
    for run in interval_runs + disk_runs:
        cloud, graph, lle = run["cloud"], run["graph"], run["lle"]
        name = f"{cloud.manifold_tag} seed {run['seed']}"
        cf, reg, near, depths = near_band(run)
        rep = indicator(cloud, graph, "auto", lle=lle)
        mean_near = float(rep.b_values[near].mean())
        expect = float(np.mean([predicted_indicator(cf, t, reg) for t in depths]))
        details.append(f"{cloud.manifold_tag} s{run['seed']}: near {mean_near:.3f} vs {expect:.3f}")
        if abs(mean_near - expect) > INDICATOR_TOL:
            failures.append(f"{name}: |{mean_near:.4f} - {expect:.4f}| > {INDICATOR_TOL}")
        if cloud.manifold_tag == "interval":
            interior = cloud.ground_truth.boundary_dist > 2 * cf.eps
            mean_abs_int = float(np.abs(rep.b_values[interior]).mean())
            if mean_abs_int > 0.1:
                failures.append(f"{name}: interior mean |B| {mean_abs_int:.4f} > 0.1")
    report(10, "indicator profile vs closed form (interval and disk, 3 seeds)", failures,
           time.perf_counter() - t0, "; ".join(details))


def test_criterion_11_null_case(disk_runs):
    t0 = time.perf_counter()
    failures = []
    cloud = sample_gaussian_null(400, 200, seed=7)
    graph = build_graph(cloud, Knn(50))
    lle = build_lle_matrix(cloud, graph, c_rule=1e-3)
    spec = eig(lle.weights, ordering="real_desc", want_vectors=False)
    top = spec.eigenvalues[0]
    if abs(top - 1.0) > 1e-8:
        failures.append(f"top eigenvalue {top} not within 1e-8 of 1")
    max_im = float(np.max(np.abs(spec.eigenvalues.imag)))
    if max_im <= 0.01:
        failures.append(f"max |Im| = {max_im:.4f} <= 0.01")
    diag = imaginary_diagnostics(lle.weights)
    if not diag["bauer_fike_ok"]:
        failures.append("an eigenvalue escapes the Bauer-Fike bound "
                        f"sqrt(||W-||_1 ||W-||_inf) = {diag['bound']:.3f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.0f}s >= 60s")
    report(11, "Gaussian null case spectrum", failures, elapsed,
           f"max|Im| {max_im:.3f}, bound {diag['bound']:.2f}")


def test_criterion_12_clipped_dirichlet(interval_runs):
    t0 = time.perf_counter()
    failures = []
    run = interval_runs[0]
    cloud, lle = run["cloud"], run["lle"]
    eps = 0.01
    tstar = AnalyticCoeffs(1, eps).tstar()
    regions = partition_regions(cloud, eps, tstar)
    Wr, kept = clip(lle, regions)

    t = cloud.points[:, 0]

    def endpoint_ratios(matrix, positions, k=8):
        spec = eig(matrix, k=k, ordering="real_desc")
        vecs = np.abs(spec.eigenvectors)
        first, last = int(np.argmin(positions)), int(np.argmax(positions))
        return [max(vecs[first, j], vecs[last, j]) / vecs[:, j].max() for j in range(2, 6)]

    clipped_ratios = endpoint_ratios(Wr, t[kept])
    full_ratios = endpoint_ratios(lle.weights, t)
    if not all(r <= 0.10 for r in clipped_ratios):
        failures.append("clipped eigenvectors 3..6 endpoint/max ratios "
                        f"{[f'{r:.3f}' for r in clipped_ratios]} exceed 10%")
    if not any(r > 0.10 for r in full_ratios):
        failures.append("unclipped eigenvectors 3..6 all satisfy the 10% bound "
                        f"({[f'{r:.3f}' for r in full_ratios]}); expected a violation")
    report(12, "clipped interval Dirichlet endpoints", failures,
           time.perf_counter() - t0,
           f"clipped max {max(clipped_ratios):.3f}, unclipped max {max(full_ratios):.3f}")
