import json
from dataclasses import replace

import numpy as np
import pytest

from lleboundary.analytic import AnalyticCoeffs
from lleboundary.cli import main
from lleboundary.harness import (PRESETS, ExperimentConfig, TEST_FUNCTIONS,
                                 _operator_targets, run_convergence, run_eigenfunctions,
                                 run_indicator, run_null_case, sample)
from lleboundary.lle import apply_shifted


def test_presets_cover_standard_manifolds():
    assert set(PRESETS) == {"interval", "disk", "curve_m3", "surface", "torus",
                            "gaussian_null"}
    assert PRESETS["interval"].eps == 0.01
    assert PRESETS["disk"].eps == 0.1
    assert PRESETS["torus"].eps == 0.3
    assert PRESETS["gaussian_null"].knn == 50


def test_scaled_interval_eigenfunctions(tmp_path):
    cfg = replace(PRESETS["interval"], scale=4.0, tstar_clip=True, k_eigs=8,
                  out=tmp_path / "run")
    res = run_eigenfunctions(cfg)
    ev = res["spectrum"].eigenvalues
    # constant function is an exact null mode; the linear mode is within the
    # regularization error of 1 but not exactly 1
    assert abs(ev[0] - 1.0) <= 1e-8
    assert abs(ev[1] - 1.0) <= 1e-3
    assert np.max(res["spectrum"].residuals) <= 1e-8

    evr = res["clipped_spectrum"].eigenvalues
    assert evr[0].real < 1.0  # clipped rows no longer sum to one
    assert res["clipped"].shape[0] == res["lle"].n - res["summary"]["n_clipped"]

    lines = (tmp_path / "run" / "eigenfunctions.csv").read_text().splitlines()
    assert lines[0] == "x1," + ",".join(f"v{j+1}" for j in range(8))
    clipped_lines = (tmp_path / "run" / "eigenfunctions_clipped.csv").read_text().splitlines()
    assert len(clipped_lines) == 1 + len(res["kept"])
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert len(summary["eigenvalues"]) == 8


def test_convergence_interior_targets(tmp_path):
    cfg = replace(PRESETS["disk"], f_test="squared_radius", seed=2, out=tmp_path)
    rows = run_convergence(cfg, ns=[4000], eps_values=[0.15])
    assert 0.4 <= rows[0]["interior_mean_value"] <= 0.6  # Laplacian/8 of x^2+y^2
    header = (tmp_path / "convergence.csv").read_text().splitlines()[0]
    assert header.startswith("n,eps,f_test,seed,interior_mean_value")

    rows = run_convergence(replace(PRESETS["interval"], f_test="constant"),
                           ns=[500], eps_values=[0.05])
    assert rows[0]["interior_mean_err"] <= 1e-12
    assert rows[0]["layer_mean_err"] <= 1e-12

    rows = run_convergence(replace(PRESETS["interval"], f_test="trig"),
                           ns=[2000], eps_values=[0.02])
    assert rows[0]["interior_mean_err"] <= 0.5  # |f''| reaches pi^2, ~10% observed


def test_convergence_rejects_curved_manifolds():
    cfg = replace(PRESETS["torus"], f_test="constant")
    with pytest.raises(ValueError, match="flat"):
        run_convergence(cfg, ns=[500], eps_values=[0.5])


def test_interval_near_boundary_operator_value(interval_runs):
    # mean of [(W-I)f]/eps^2 over a band around depth eps/2 matches
    # phi2 * f'' + V * (-f') for f = t^2
    run = interval_runs[0]
    cloud, lle = run["cloud"], run["lle"]
    eps = 0.01
    t = cloud.points[:, 0]
    vals = apply_shifted(lle, t * t) / eps ** 2
    cf = AnalyticCoeffs(1, eps)
    band = (t > 0.4 * eps) & (t < 0.6 * eps)
    assert band.sum() >= 5
    target = np.array([cf.phi(ti)[1] * 2.0 + cf.potential_v(ti, 1.0) * (-2.0 * ti)
                       for ti in t[band]])
    assert abs(cf.potential_v(eps / 2, 1.0) + 8.0 / 9.0) < 1e-12
    assert abs(vals[band].mean() - target.mean()) <= 0.06


@pytest.mark.parametrize("manifold,eps", [("interval", 0.02), ("disk", 0.15)])
def test_operator_targets_match_per_point_loop(manifold, eps):
    cloud = sample(ExperimentConfig(manifold, n=1000, eps=eps, seed=3))
    gt = cloud.ground_truth
    p_val = 1.0 if manifold == "interval" else 1.0 / np.pi
    cf = AnalyticCoeffs(cloud.intrinsic_dim, eps)
    for f_test in ("squared_radius", "trig"):
        _, grad, hess = TEST_FUNCTIONS[f_test](cloud.points)
        ref = np.empty(cloud.n)
        for k in range(cloud.n):
            nvec, t = gt.outward_normal_tangent[k], gt.boundary_dist[k]
            h_nn = nvec @ hess[k] @ nvec
            phi1, phi2 = cf.phi(t)
            ref[k] = (phi1 * (np.trace(hess[k]) - h_nn) + phi2 * h_nn
                      + cf.potential_v(t, p_val) * (grad[k] @ nvec))
        got = _operator_targets(cloud, eps, f_test)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_run_null_case_scaled():
    cfg = ExperimentConfig("gaussian_null", n=150, knn=15, c_rule=1e-3, seed=3, ambient=60)
    res = run_null_case(cfg)
    ev = res["spectrum"].eigenvalues
    assert abs(ev[0] - 1.0) <= 1e-8
    assert res["diagnostics"]["bauer_fike_ok"]
    assert res["radius"]["row_sum_err"] <= 1e-12


def test_run_indicator_files(tmp_path):
    cfg = replace(PRESETS["interval"], scale=8.0, out=tmp_path)
    res = run_indicator(cfg)
    assert (tmp_path / "indicator.csv").exists()
    header = (tmp_path / "indicator.csv").read_text().splitlines()[0]
    assert header == "idx,B,label,region,bdist"
    prof = (tmp_path / "profile.csv").read_text().splitlines()
    assert prof[0] == "t_over_eps,B"
    summary = json.loads((tmp_path / "indicator.json").read_text())
    assert summary["n"] == res["cloud"].n


def test_sample_dispatch_and_scale():
    cfg = replace(PRESETS["disk"], scale=20.0)
    cloud = sample(cfg)
    assert cloud.manifold_tag == "disk"
    assert cloud.n < 1200
    with pytest.raises(ValueError):
        sample(replace(cfg, manifold="nope"))
    with pytest.raises(ValueError):
        ExperimentConfig("disk", n=100, eps=0.1, scale=-1.0).scaled_n()


def test_test_function_derivatives():
    pts = np.random.default_rng(0).normal(size=(50, 3))
    h = 1e-6
    for name, fn in TEST_FUNCTIONS.items():
        f, grad, hess = fn(pts)
        bump = pts.copy()
        bump[:, 0] += h
        f2, _, _ = fn(bump)
        fd = (f2 - f) / h
        assert np.max(np.abs(fd - grad[:, 0])) < 1e-4, name


# --- CLI ------------------------------------------------------------------

def test_cli_sample_and_sigma_table(tmp_path, capsys):
    assert main(["sample", "--manifold", "interval", "--n", "50", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "interval_cloud.csv").exists()

    assert main(["sigma-table", "--d", "2", "--eps", "0.5", "--grid", "0,0.5,1",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sigma_table.csv").read_text().splitlines()
    assert lines[0] == "t_over_eps,s0,s1d,s2,s2d,s3,s3d,phi1,phi2,V,B"
    assert len(lines) == 4


def test_cli_build_spectrum_indicator_clip(tmp_path):
    base = ["--manifold", "interval", "--n", "300", "--eps", "0.05", "--seed", "2",
            "--out", str(tmp_path)]
    assert main(["build"] + base) == 0
    assert (tmp_path / "lle_matrix.csv").exists()
    assert (tmp_path / "lle_matrix.csv.json").exists()

    assert main(["spectrum"] + base + ["--k-eigs", "5"]) == 0
    assert (tmp_path / "spectrum.csv").exists()

    assert main(["build"] + base + ["--alpha", "0.5"]) == 0
    assert (tmp_path / "alpha_kernel_matrix.csv").exists()

    assert main(["indicator"] + base) == 0
    assert (tmp_path / "indicator.csv").exists()

    assert main(["clip"] + base) == 0
    assert (tmp_path / "lle_matrix_clipped.csv").exists()
    kept = (tmp_path / "kept_indices.csv").read_text().splitlines()
    assert kept[0] == "old_index"


def test_cli_convergence_and_nullcase(tmp_path, capsys):
    assert main(["convergence", "--manifold", "interval", "--out", str(tmp_path),
                 "--ns", "400", "--eps-list", "0.05", "--f-test", "squared_radius"]) == 0
    out = capsys.readouterr().out
    row = json.loads(out.strip().splitlines()[-1])
    assert row["n"] == 400

    assert main(["nullcase", "--n", "120", "--knn", "12", "--seed", "1",
                 "--manifold", "gaussian_null", "--c", "1e-3",
                 "--out", str(tmp_path / "null")]) == 0
    out = capsys.readouterr().out
    assert "top eigenvalue 1.0" in out


def test_scaled_torus_and_surface_clip():
    # curved presets run end to end; the torus has no analytic boundary
    # distance, so clipping falls back to the indicator depth proxy (which at
    # this bandwidth is heavily damped and may flag nothing as wave)
    cfg = replace(PRESETS["torus"], scale=8.0, k_eigs=4, tstar_clip=True, seed=2)
    res = run_eigenfunctions(cfg)
    assert abs(res["spectrum"].eigenvalues[0] - 1.0) <= 1e-8
    assert 0 <= res["summary"]["n_clipped"] < res["cloud"].n
    assert res["clipped"].shape[0] == len(res["kept"])

    cfg = replace(PRESETS["surface"], scale=8.0, k_eigs=4, tstar_clip=True, seed=2)
    res = run_eigenfunctions(cfg)
    assert abs(res["spectrum"].eigenvalues[0] - 1.0) <= 1e-8
    assert res["summary"]["n_clipped"] > 0


def test_run_reproducible_from_config():
    cfg = replace(PRESETS["interval"], scale=16.0)
    a = run_indicator(cfg)["report"].b_values
    b = run_indicator(cfg)["report"].b_values
    assert np.array_equal(a, b)


def test_cli_eigenfunctions(tmp_path, capsys):
    assert main(["eigenfunctions", "--manifold", "interval", "--scale", "16",
                 "--k-eigs", "6", "--tstar-clip", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("top eigenvalues: 1.0")
    assert (tmp_path / "eigenfunctions_clipped.csv").exists()


def test_cli_config_file_with_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("manifold = interval\nn = 40\nseed = 5\n# comment\n")
    assert main(["sample", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "interval_cloud.csv").read_text().splitlines()
    assert len(lines) == 41

    # CLI flag overrides the config value
    assert main(["sample", "--config", str(cfgfile), "--n", "12",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "interval_cloud.csv").read_text().splitlines()
    assert len(lines) == 13

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    with pytest.raises(SystemExit):
        main(["sample", "--config", str(bad), "--out", str(tmp_path)])
