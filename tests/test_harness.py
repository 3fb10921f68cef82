import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import python_stdout
from lleboundary import harness
from lleboundary.analytic import AnalyticCoeffs, coefficient_table
from lleboundary.boundary import clip
from lleboundary.cli import main
from lleboundary.harness import (PRESETS, ExperimentConfig, _eigfun_csv, build_pipeline,
                                 run_convergence, run_eigenfunctions, run_indicator,
                                 run_null_case, sample, wave_partition)
from lleboundary.lle import apply_shifted
from lleboundary.samplers import PointCloud
from lleboundary.spectral import Spectrum


def test_presets_cover_standard_manifolds():
    assert set(PRESETS) == {"interval", "disk", "curve_m3", "surface", "torus",
                            "gaussian_null"}
    assert PRESETS["interval"].eps == 0.01
    assert PRESETS["disk"].eps == 0.1
    assert PRESETS["torus"].eps == 0.3
    assert PRESETS["gaussian_null"].knn == 50


def test_scaled_interval_eigenfunctions(tmp_path):
    cfg = replace(PRESETS["interval"], n=2000, tstar_clip=True, k_eigs=8,
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
    assert summary["method"] == "arnoldi"  # n 2000: a partial spectrum goes to Arnoldi
    assert summary["clipped_method"] == "arnoldi"


def test_knn_eigenfunctions_clip_by_ground_truth():
    # indicator refuses KNN graphs, so the partition comes from the ground truth
    res = run_eigenfunctions(replace(PRESETS["interval"], n=1500, knn=30, tstar_clip=True,
                                     k_eigs=4))
    summary = res["summary"]
    assert summary["method"] == "arnoldi"
    assert summary["clipped_method"] == "arnoldi"
    assert summary["n_clipped"] > 0


def test_convergence_interior_targets(tmp_path):
    # interior phi1 = phi2 = 1/8 on the disk; measured 0.1228 and 0.1253
    cfg = replace(PRESETS["disk"], seed=2, out=tmp_path)
    rows = run_convergence(cfg, ns=[4000], eps_values=[0.15])
    assert 0.1 <= rows[0]["interior_phi1"] <= 0.15
    assert 0.1 <= rows[0]["interior_phi2"] <= 0.15
    header = (tmp_path / "convergence.csv").read_text().splitlines()[0]
    assert header == ",".join(["n", "eps", "seed"] + [
        f"{band}_{col}" for band in ("interior", "layer")
        for col in ("count", "phi1", "phi1_err", "phi2", "phi2_err", "V", "V_err")])

    # on the interval the interior drift is 0 and phi2 is 1/6; measured V
    # -3.2e-3, 3.6e-3, -2.4e-3 and phi2 0.1661, 0.1652, 0.1656 at seeds 1-3
    for seed in (1, 2, 3):
        rows = run_convergence(replace(PRESETS["interval"], seed=seed),
                               ns=[2000], eps_values=[0.02])
        assert abs(rows[0]["interior_V"]) <= 5e-3, (seed, rows[0])
        assert abs(rows[0]["interior_phi2"] - 1.0 / 6.0) <= 0.01, (seed, rows[0])
        assert np.isnan(rows[0]["interior_phi1"])  # d = 1 has no tangent


def test_convergence_empty_interior_band_is_nan_without_warning(tmp_path):
    # at eps 0.3 on [0, 1] every point lies within the layer, so the interior
    # band is empty: its means are nan, with no "Mean of empty slice" warning
    cfg = replace(PRESETS["interval"], seed=7, out=tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_convergence(cfg, ns=[300], eps_values=[0.3])
    assert rows[0]["interior_count"] == 0
    empty = ("interior_phi2", "interior_phi2_err", "interior_V", "interior_V_err")
    assert all(np.isnan(rows[0][col]) for col in empty)
    assert np.isfinite(rows[0]["layer_phi2"]) and np.isfinite(rows[0]["layer_V_err"])
    header, line = (tmp_path / "convergence.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), line.split(",")))
    assert all(cells[col] == "nan" for col in empty)


def test_convergence_rejects_curved_manifolds():
    cfg = PRESETS["torus"]
    with pytest.raises(ValueError, match="flat"):
        run_convergence(cfg, ns=[500], eps_values=[0.5])


@pytest.mark.parametrize("ns, eps_values, name", [([], [0.05], "ns"), ([300], [], "eps_values")],
                         ids=["ns", "eps_values"])
def test_convergence_refuses_an_empty_sweep_before_sampling(tmp_path, monkeypatch, ns,
                                                            eps_values, name):
    def unreachable(*args, **kwargs):
        raise AssertionError("the cloud was sampled")
    monkeypatch.setattr(harness, "sample", unreachable)
    out = tmp_path / "D"
    with pytest.raises(ValueError, match=f"{name} is empty"):
        run_convergence(replace(PRESETS["interval"], out=out), ns, eps_values)
    assert not out.exists()


def test_interval_near_boundary_operator_value(interval_runs):
    # mean of [(W-I)f]/eps^2 over a band around depth eps/2 matches
    # phi2 * f'' + V * (-f') for f = t^2
    run = interval_runs[0]
    cloud, lle = run["cloud"], run["lle"]
    eps = 0.01
    t = cloud.points[:, 0]
    vals = apply_shifted(lle.weights, t * t) / eps ** 2
    cf = AnalyticCoeffs(1, eps)
    band = (t > 0.4 * eps) & (t < 0.6 * eps)
    assert band.sum() >= 5
    target = np.array([cf.table(ti)["phi2"] * 2.0 + cf.table(ti, 1.0)["V"] * (-2.0 * ti)
                       for ti in t[band]])
    assert abs(cf.table(eps / 2, 1.0)["V"] + 8.0 / 9.0) < 1e-12
    assert abs(vals[band].mean() - target.mean()) <= 0.06


def test_run_null_case_scaled():
    cfg = ExperimentConfig("gaussian_null", n=150, knn=15, c_rule=1e-3, seed=3, ambient=60)
    res = run_null_case(cfg)
    ev = res["spectrum"].eigenvalues
    assert abs(ev[0] - 1.0) <= 1e-8
    assert res["diagnostics"]["bauer_fike_ok"]
    assert res["radius"]["row_sum_err"] <= 1e-12


def test_null_case_loads_no_kd_tree_or_arpack():
    # a KNN graph and a dense solve need no k-d tree, so the package imports it
    # on first use and an epsilon graph loads it; Arnoldi is the package's own
    # restart, so no solve loads ARPACK (scipy.sparse.linalg)
    code = """
import sys
from dataclasses import replace
import lleboundary as lb
lazy = ("scipy.spatial", "scipy.sparse.linalg", "scipy.integrate")
loaded = [[m for m in lazy if m in sys.modules]]
lb.run_null_case(replace(lb.PRESETS["gaussian_null"], n=300))
loaded.append([m for m in lazy if m in sys.modules])
cloud = lb.sample_interval(300, seed=1)
lle = lb.build_lle_matrix(cloud, lb.build_graph(cloud, lb.EpsilonBall(0.05)), "auto")
assert lb.eig(lle.weights, k=4).method == "arnoldi"
loaded.append([m for m in lazy if m in sys.modules])
print(loaded)
"""
    assert python_stdout("-c", code).strip() == str(
        [[], [], ["scipy.spatial"]])


def test_null_case_refuses_n_above_cutoff_before_sampling(monkeypatch):
    # the Gaussian sampler returns exactly n points, so n alone decides
    def no_sampling(n, seed, cfg):
        raise AssertionError("sampled a cloud too large for the dense solve")
    monkeypatch.setitem(harness._SAMPLERS, "gaussian_null", no_sampling)
    with pytest.raises(ValueError, match=r"n=2001 exceeds the dense cutoff \(2000\)"):
        run_null_case(replace(PRESETS["gaussian_null"], n=2001))


def test_a_wave_strip_without_eps_is_refused_before_sampling(monkeypatch):
    # t* scales with eps, so a KNN run asking for the clip is refused before it builds W
    def no_sampling(n, seed, cfg):
        raise AssertionError("sampled before the wave strip's eps was checked")
    monkeypatch.setitem(harness._SAMPLERS, "gaussian_null", no_sampling)
    with pytest.raises(ValueError, match="the wave strip needs eps"):
        run_eigenfunctions(replace(PRESETS["gaussian_null"], n=300, tstar_clip=True))


@pytest.mark.parametrize("manifold", ["interval", "disk", "gaussian_null"])
@pytest.mark.parametrize("eps", [-0.1, 0.0, float("nan"), float("inf")])
def test_a_bad_eps_beside_knn_is_refused_before_sampling(monkeypatch, manifold, eps):
    # EpsilonBall checks eps whenever one is given, also when knn picks the graph
    def no_sampling(config):
        raise AssertionError("sampled before eps was checked")
    monkeypatch.setattr(harness, "sample", no_sampling)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        build_pipeline(replace(PRESETS[manifold], n=400, knn=12, eps=eps))


def test_run_indicator_files(tmp_path):
    cfg = replace(PRESETS["interval"], n=1000, out=tmp_path)
    res = run_indicator(cfg)
    assert (tmp_path / "indicator.csv").exists()
    header = (tmp_path / "indicator.csv").read_text().splitlines()[0]
    assert header == "idx,B,label,bdist"
    prof = (tmp_path / "profile.csv").read_text().splitlines()
    assert prof[0] == "t_over_eps,B"
    summary = json.loads((tmp_path / "indicator.json").read_text())
    assert summary["n"] == res["cloud"].n


def test_run_indicator_reports_isolated_points_missing(tmp_path):
    cfg = replace(PRESETS["disk"], n=1000, out=tmp_path)
    res = run_indicator(cfg)
    rep = res["report"]
    assert np.flatnonzero(rep.missing).tolist() == [383, 569]
    assert np.all(rep.labels[rep.missing] == "missing")
    assert np.all(np.isnan(rep.b_values[rep.missing]))
    assert np.all(np.isfinite(rep.b_values[~rep.missing]))
    assert res["summary"]["n_missing"] == 2
    summary = json.loads((tmp_path / "indicator.json").read_text())
    assert summary["n_missing"] == 2


def test_sample_dispatch_and_scale():
    cfg = replace(PRESETS["disk"], n=1000)
    cloud = sample(cfg)
    assert cloud.manifold_tag == "disk"
    assert cloud.n < 1200
    with pytest.raises(ValueError):
        sample(replace(cfg, manifold="nope"))


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
                 "--ns", "400", "--eps-list", "0.05"]) == 0
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
    cfg = replace(PRESETS["torus"], n=3125, k_eigs=4, tstar_clip=True, seed=2)
    res = run_eigenfunctions(cfg)
    assert abs(res["spectrum"].eigenvalues[0] - 1.0) <= 1e-8
    assert 0 <= res["summary"]["n_clipped"] < res["cloud"].n
    assert res["clipped"].shape[0] == len(res["kept"])

    cfg = replace(PRESETS["surface"], n=2500, k_eigs=4, tstar_clip=True, seed=2)
    res = run_eigenfunctions(cfg)
    assert abs(res["spectrum"].eigenvalues[0] - 1.0) <= 1e-8
    assert res["summary"]["n_clipped"] > 0


def test_run_reproducible_from_config():
    cfg = replace(PRESETS["interval"], n=500)
    a = run_indicator(cfg)["report"].b_values
    b = run_indicator(cfg)["report"].b_values
    assert np.array_equal(a, b)


def test_cli_eigenfunctions(tmp_path, capsys):
    assert main(["eigenfunctions", "--manifold", "interval", "--n", "500",
                 "--k-eigs", "6", "--tstar-clip", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("top eigenvalues: 1.0")
    assert (tmp_path / "eigenfunctions_clipped.csv").exists()


def test_cli_config_file_with_override(tmp_path, capsys):
    argsfile = tmp_path / "run.args"
    argsfile.write_text("--manifold\ninterval\n--n=40\n--seed\n5\n")
    assert main(["sample", f"@{argsfile}", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "interval_cloud.csv").read_text().splitlines()
    assert len(lines) == 41

    # a later argument wins, whether it is a flag or comes from the @FILE
    assert main(["sample", f"@{argsfile}", "--n", "12", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "interval_cloud.csv").read_text().splitlines()
    assert len(lines) == 13
    assert main(["sample", "--n", "12", f"@{argsfile}", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "interval_cloud.csv").read_text().splitlines()
    assert len(lines) == 41

    bad = tmp_path / "bad.args"
    bad.write_text("nonsense\n")
    with pytest.raises(SystemExit) as exc:
        main(["sample", f"@{bad}", "--out", str(tmp_path)])
    assert exc.value.code == 2


# --- text files: the harness and CLI writers go through io._write_table ---------
# Each reference below is the writer it replaced (one string per cell, or
# np.savetxt); the files must match it byte for byte.

def _text(lines):
    return "".join(line + "\n" for line in lines).encode()


def ref_eigfun(cloud, idx, spec):
    cols = ([f"x{i + 1}" for i in range(cloud.ambient_dim)]
            + [f"v{j + 1}" for j in range(len(spec))])
    vecs = spec.eigenvectors.real
    lines = [",".join(cols)]
    for r, i in enumerate(idx):
        cells = [format(v, ".17g") for v in cloud.points[i]]
        cells += [format(vecs[r, j], ".17g") for j in range(vecs.shape[1])]
        lines.append(",".join(cells))
    return _text(lines)


def ref_profile(bdist, b_values, eps):
    return _text(["t_over_eps,B"] + [f"{bdist[i] / eps:.17g},{b_values[i]:.17g}"
                                     for i in np.argsort(bdist)])


def ref_convergence(rows):
    cols = list(rows[0].keys())
    return _text([",".join(cols)] + [",".join(format(r[c], ".17g") if isinstance(r[c], float)
                                              else str(r[c]) for c in cols) for r in rows])


def ref_savetxt(tmp_path, X, **kwargs):
    path = tmp_path / "savetxt_reference.csv"
    np.savetxt(path, X, comments="", **kwargs)
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["interval_clipped", "extremes"])
def test_eigfun_csv_bytes_match_per_entry_writer(tmp_path, kind):
    if kind == "interval_clipped":
        res = run_eigenfunctions(replace(PRESETS["interval"], n=500, k_eigs=4,
                                         tstar_clip=True))
        cloud, idx, spec = res["cloud"], res["kept"], res["clipped_spectrum"]
    else:
        vals = np.array([-0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0, -2.5e-10, 0.1])
        cloud = PointCloud(np.column_stack([vals, vals[::-1]]), intrinsic_dim=2, seed=0,
                           manifold_tag="extremes")
        idx = np.array([6, 0, 3, 4])
        vecs = np.outer(vals[idx], [1.0, -1.0j, 0.5 + 0.5j])
        spec = Spectrum(np.ones(3, dtype=complex), vecs, "real_desc", "dense", None)
    _eigfun_csv(tmp_path, "e.csv", cloud, idx, spec)
    assert (tmp_path / "e.csv").read_bytes() == ref_eigfun(cloud, idx, spec)


@pytest.mark.parametrize("manifold, n", [("interval", 1000), ("disk", 2000)])
def test_profile_csv_bytes_match_per_entry_writer(tmp_path, manifold, n):
    cfg = replace(PRESETS[manifold], n=n, out=tmp_path)
    res = run_indicator(cfg)
    bdist = res["cloud"].ground_truth.boundary_dist
    expected = ref_profile(bdist, res["report"].b_values, cfg.eps)
    assert (tmp_path / "profile.csv").read_bytes() == expected


def test_convergence_csv_bytes_match_per_entry_writer(tmp_path):
    # float cells are %.17g like every other CSV and read back to the same
    # double, nan included; int cells are %d
    cfg = replace(PRESETS["interval"], out=tmp_path)
    rows = run_convergence(cfg, ns=[300, 500], eps_values=[0.05, 0.1])
    assert len(rows) == 4
    text = (tmp_path / "convergence.csv").read_bytes()
    assert text == ref_convergence(rows)
    lines = text.decode().splitlines()
    for row, line in zip(rows, lines[1:]):
        for col, cell in zip(lines[0].split(","), line.split(",")):
            value = type(row[col])(cell)  # d = 1 writes phi1 as nan
            assert value == row[col] or np.isnan(value) and np.isnan(row[col]), (col, cell)


@pytest.mark.parametrize("d, grid", [("2", "0,0.5,1"), ("5", "13"), ("1", "1")])
def test_sigma_table_bytes_match_savetxt(tmp_path, d, grid):
    assert main(["sigma-table", "--d", d, "--eps", "0.4", "--grid", grid,
                 "--out", str(tmp_path)]) == 0
    s = ([float(v) for v in grid.split(",")] if "," in grid
         else np.linspace(0.0, 1.2, int(grid)).tolist())
    table = coefficient_table(int(d), 0.4, [v * 0.4 for v in s])
    expected = ref_savetxt(tmp_path, table, delimiter=",", fmt="%.17g",
                           header="t_over_eps,s0,s1d,s2,s2d,s3,s3d,phi1,phi2,V,B")
    assert (tmp_path / "sigma_table.csv").read_bytes() == expected


def test_kept_indices_bytes_match_savetxt(tmp_path):
    assert main(["clip", "--manifold", "interval", "--n", "300", "--eps", "0.05",
                 "--seed", "2", "--out", str(tmp_path)]) == 0
    cfg = replace(PRESETS["interval"], n=300, eps=0.05, knn=None, seed=2)
    cloud, graph, lle = build_pipeline(cfg)
    _, kept = clip(lle, wave_partition(cloud, graph, lle, cfg))
    assert 0 < len(kept) < cloud.n
    expected = ref_savetxt(tmp_path, kept, fmt="%d", header="old_index")
    assert (tmp_path / "kept_indices.csv").read_bytes() == expected


def test_config_without_eps_or_knn_is_refused():
    with pytest.raises(ValueError, match="either eps or knn"):
        build_pipeline(replace(PRESETS["interval"], n=50, eps=None, knn=None))
