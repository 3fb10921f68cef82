import json

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import s1_grid_cloud, s1_grid_eps, ten_point_cloud
from lleboundary import io as lio
from lleboundary.boundary import classify, indicator
from lleboundary.lle import build_lle_matrix
from lleboundary.neighbors import EpsilonBall, Knn, build_graph
from lleboundary.samplers import sample_interval
from lleboundary.spectral import eig


def s1_lle(m):
    cloud = s1_grid_cloud(m)
    graph = build_graph(cloud, EpsilonBall(s1_grid_eps(m)))
    return build_lle_matrix(cloud, graph, c_rule=1e-3)


def test_matrix_round_trip_exact(tmp_path):
    lle = s1_lle(6)
    path = lio.save_matrix(lle, tmp_path / "w.csv")
    loaded, meta = lio.load_matrix(path)
    assert (loaded != lle.weights).nnz == 0
    assert meta["n"] == 12 and meta["scheme"] == "epsilon_ball"
    assert meta["c"] == 1e-3 and meta["d"] == 1


def test_matrix_round_trip_random_values(tmp_path):
    rng = np.random.default_rng(5)
    A = sp.random(40, 40, density=0.1, random_state=7, format="csr")
    A.data[:] = rng.normal(size=A.nnz) * 10.0 ** rng.integers(-12, 12, size=A.nnz)
    meta = {"scheme": "epsilon_ball", "epsilon": 0.1, "K": None, "c": 1.0, "d": 2, "seed": 0}
    path = lio.save_matrix(A, tmp_path / "w.csv", meta=meta)
    loaded, _ = lio.load_matrix(path)
    assert (loaded != A).nnz == 0


def test_triplets_canonically_sorted(tmp_path):
    A = sp.coo_matrix((np.array([1.0, 2.0, 3.0]),
                       (np.array([2, 0, 2]), np.array([1, 1, 0]))), shape=(3, 3))
    meta = {"scheme": "knn", "epsilon": None, "K": 1, "c": 1.0, "d": 1, "seed": 0}
    path = lio.save_matrix(A, tmp_path / "w.csv", meta=meta)
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,value"
    coords = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert coords == sorted(coords)


def test_empty_matrix(tmp_path):
    meta = {"scheme": "knn", "epsilon": None, "K": 1, "c": 1.0, "d": 1, "seed": 0}
    path = lio.save_matrix(sp.csr_matrix((0, 0)), tmp_path / "empty.csv", meta=meta)
    assert path.read_text() == "row,col,value\n"
    loaded, _ = lio.load_matrix(path)
    assert loaded.shape == (0, 0)


@pytest.mark.parametrize("kind", ["disk", "ten_point_knn5"])
def test_batched_matrix_file_round_trip_bit_exact(tmp_path, kind):
    # the batched W survives save_matrix -> load_matrix bit for bit; the KNN
    # rows are stored in distance order and come back in index order
    from lleboundary.samplers import sample_disk
    if kind == "disk":
        cloud, scheme, c_rule = sample_disk(600, seed=3), EpsilonBall(0.25), "auto"
    else:
        cloud, scheme, c_rule = ten_point_cloud(), Knn(5), 1e-3
    lle = build_lle_matrix(cloud, build_graph(cloud, scheme), c_rule)
    loaded, _ = lio.load_matrix(lio.save_matrix(lle, tmp_path / "w.csv"))
    ref = lle.weights.sorted_indices()
    assert np.array_equal(loaded.indptr, ref.indptr)
    assert np.array_equal(loaded.indices, ref.indices)
    assert np.array_equal(loaded.data.view(np.uint64), ref.data.view(np.uint64))


def test_ten_point_spectrum_round_trip(tmp_path):
    cloud = ten_point_cloud()
    graph = build_graph(cloud, Knn(5))
    lle = build_lle_matrix(cloud, graph, c_rule=1e-3)
    path = lio.save_matrix(lle, tmp_path / "w.csv")
    loaded, _ = lio.load_matrix(path)
    ev1 = np.sort_complex(eig(lle.weights, want_vectors=False).eigenvalues)
    ev2 = np.sort_complex(eig(loaded, want_vectors=False).eigenvalues)
    assert np.max(np.abs(ev1 - ev2)) <= 1e-12


def test_malformed_lines(tmp_path):
    meta = {"scheme": "knn", "epsilon": None, "K": 1, "c": 1.0, "d": 1, "seed": 0, "n": 3}
    bad = tmp_path / "bad.csv"
    bad.write_text("row,col,value\n0,1,0.5\n0,oops\n")
    with open(tmp_path / "bad.csv.json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ValueError, match="line 3"):
        lio.load_matrix(bad)

    bad.write_text("row,col,value\n0,x,0.5\n")
    with pytest.raises(ValueError, match="line 2"):
        lio.load_matrix(bad)

    bad.write_text("not,the,header\n")
    with pytest.raises(ValueError, match="line 1"):
        lio.load_matrix(bad)


def test_sidecar_validation(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("row,col,value\n")
    with pytest.raises(ValueError, match="sidecar"):
        lio.load_matrix(path)
    with open(tmp_path / "w.csv.json", "w") as fh:
        json.dump({"n": 2, "c": 1.0}, fh)
    with pytest.raises(ValueError, match="lacks required keys"):
        lio.load_matrix(path)


def test_cloud_csv(tmp_path):
    cloud = sample_interval(20, seed=4)
    path = lio.save_cloud(cloud, tmp_path / "cloud.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,bdist"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], cloud.points[:, 0])
    assert np.array_equal(parsed[:, 1], cloud.ground_truth.boundary_dist)


def test_spectrum_and_eigenvector_files(tmp_path):
    lle = s1_lle(5)
    spec = eig(lle.weights)
    spath = lio.save_spectrum(spec, tmp_path / "spec.csv")
    lines = spath.read_text().splitlines()
    assert lines[0] == "re,im,residual"
    assert len(lines) == 11

    vpath = lio.save_eigenvectors(spec, tmp_path / "vecs.csv", meta={"seed": 0})
    sidecar = json.loads((tmp_path / "vecs.csv.json").read_text())
    assert sidecar["n"] == 10 and sidecar["k"] == 10
    assert sidecar["layout"] == "column-major"
    rows = vpath.read_text().splitlines()
    assert len(rows) == 100
    first = complex(*[float(v) for v in rows[0].split(",")])
    assert abs(first - spec.eigenvectors[0, 0]) == 0.0


def test_report_csv(tmp_path):
    cloud = sample_interval(30, seed=9)
    graph = build_graph(cloud, EpsilonBall(0.2))
    rep = classify(indicator(cloud, graph, c_rule=1e-3))
    path = lio.save_report(rep, tmp_path / "report.csv", bdist=cloud.ground_truth.boundary_dist)
    lines = path.read_text().splitlines()
    assert lines[0] == "idx,B,label,region,bdist"
    assert len(lines) == 31
    cells = lines[1].split(",")
    assert cells[2] in {"boundary", "interior", "missing"}
