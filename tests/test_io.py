import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import s1_lle, ten_point_cloud
from lleboundary import io as lio
from lleboundary.boundary import classify, indicator
from lleboundary.lle import build_lle_matrix
from lleboundary.neighbors import EpsilonBall, Knn, build_graph
from lleboundary.boundary import BoundaryReport
from lleboundary.samplers import PointCloud, sample_disk, sample_interval
from lleboundary.spectral import Spectrum, eig


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
    # a sidecar that is not an object; the string holds every key as a substring
    for side in [5, None, "n scheme epsilon K c d seed"]:
        (tmp_path / "w.csv.json").write_text(json.dumps(side))
        with pytest.raises(ValueError, match=r"sidecar .*w\.csv\.json must hold a JSON object"):
            lio.load_matrix(path)
    # n must be a nonnegative JSON integer: int() would take 2.7 and "2", and
    # raise TypeError, ValueError or OverflowError on the rest without naming the file
    # n >= 2**63 does not fit the int64 indices of the CSR build
    for n in [2.7, 2.0, "2", None, "x", 1e300, True, -1, 2 ** 63, 10 ** 30]:
        with open(tmp_path / "w.csv.json", "w") as fh:
            json.dump(dict(META3, n=n), fh)
        with pytest.raises(ValueError, match=r"sidecar .*w\.csv\.json: n must be a nonnegative"):
            lio.load_matrix(path)
    (tmp_path / "w.csv.json").write_text(json.dumps(dict(META3, n=0)))
    assert lio.load_matrix(path)[0].shape == (0, 0)


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
    assert lines[0] == "idx,B,label,bdist"
    assert len(lines) == 31
    cells = lines[1].split(",")
    assert cells[2] in {"boundary", "interior", "missing"}


# Per-entry reference writers: one `format(float(x), ".17g")` per cell and one
# string per line. The block writers must reproduce their files byte for byte.

def _fmt(x):
    return format(float(x), ".17g")


def _text(lines):
    return "".join(line + "\n" for line in lines).encode()


def ref_matrix(A):
    A = sp.coo_matrix(A)
    order = np.lexsort((A.col, A.row))
    return _text(["row,col,value"]
                 + [f"{A.row[i]},{A.col[i]},{_fmt(A.data[i])}" for i in order])


def ref_cloud(cloud):
    gt = cloud.ground_truth
    bdist = None if gt is None else gt.boundary_dist
    lines = [",".join(f"x{i + 1}" for i in range(cloud.ambient_dim))
             + ("" if bdist is None else ",bdist")]
    for i in range(cloud.n):
        cells = [_fmt(v) for v in cloud.points[i]]
        if bdist is not None:
            cells.append(_fmt(bdist[i]))
        lines.append(",".join(cells))
    return _text(lines)


def ref_spectrum(spec):
    with_res = spec.residuals is not None
    lines = ["re,im,residual" if with_res else "re,im"]
    for i, lam in enumerate(spec.eigenvalues):
        cells = [_fmt(lam.real), _fmt(lam.imag)]
        if with_res:
            cells.append(_fmt(spec.residuals[i]))
        lines.append(",".join(cells))
    return _text(lines)


def ref_eigenvectors(spec):
    vecs = spec.eigenvectors
    return _text([f"{_fmt(vecs[i, j].real)},{_fmt(vecs[i, j].imag)}"
                  for j in range(vecs.shape[1]) for i in range(vecs.shape[0])])


def ref_report(report, bdist):
    lines = ["idx,B,label" + ("" if bdist is None else ",bdist")]
    for i in range(report.n):
        b = report.b_values[i]
        cells = [str(i), _fmt(b) if np.isfinite(b) else "nan",
                 "" if report.labels is None else str(report.labels[i])]
        if bdist is not None:
            cells.append(_fmt(bdist[i]))
        lines.append(",".join(cells))
    return _text(lines)


EXTREMES = np.array([-0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0, -2.5e-10, 0.1])


def _matrix_inputs():
    knn = ten_point_cloud()
    disk = sample_disk(600, seed=3)
    coo = sp.coo_matrix((np.array([1.0, 2.0, 3.0, 4.0]),
                         (np.array([2, 0, 2, 1]), np.array([1, 1, 0, 2]))), shape=(3, 3))
    stored_zero = sp.csr_matrix((np.array([0.0, 1.5]), np.array([1, 0]), np.array([0, 1, 2])),
                                shape=(2, 2))
    extremes = sp.csr_matrix((EXTREMES, (np.array([0, 0, 1, 2, 3, 4, 4]),
                                         np.array([4, 0, 1, 3, 2, 4, 0]))), shape=(5, 5))
    return {
        "disk": build_lle_matrix(disk, build_graph(disk, EpsilonBall(0.25)), "auto"),
        "ten_point_knn5": build_lle_matrix(knn, build_graph(knn, Knn(5)), 1e-3),
        "unsorted_coo": coo,
        "dense": np.array([[0.0, -1.25, 0.0], [2.0 ** -40, 0.0, 7.0], [0.0, 0.0, 1e-300]]),
        "empty": sp.csr_matrix((0, 0)),
        "stored_zero": stored_zero,
        "extremes": extremes,
    }


@pytest.mark.parametrize("kind", ["disk", "ten_point_knn5", "unsorted_coo", "dense", "empty",
                                  "stored_zero", "extremes"])
def test_save_matrix_bytes_match_per_entry_writer(tmp_path, kind):
    W = _matrix_inputs()[kind]
    A = W.weights if hasattr(W, "weights") else W
    before = sp.csr_matrix(A, copy=True)
    path = lio.save_matrix(W, tmp_path / "w.csv")
    assert path.read_bytes() == ref_matrix(A)
    meta = dict(W.meta) if hasattr(W, "meta") else {}
    sidecar = {key: meta.get(key) for key in lio.SIDECAR_KEYS}
    sidecar["n"] = int(A.shape[0])
    sidecar.update({k: v for k, v in meta.items() if k not in lio.SIDECAR_KEYS})
    expected = json.dumps(sidecar, indent=1, sort_keys=True) + "\n"
    assert (tmp_path / "w.csv.json").read_text() == expected
    if sp.issparse(A):
        # the caller's matrix keeps its own (e.g. distance) order of each row
        after = sp.csr_matrix(A)
        assert np.array_equal(after.indices, before.indices)
        assert np.array_equal(after.data, before.data)


def test_save_matrix_sums_coo_duplicates(tmp_path):
    A = sp.coo_matrix((np.array([0.5, 1.0, 0.25]), (np.array([2, 0, 2]), np.array([0, 1, 0]))),
                      shape=(3, 3))
    meta = {"scheme": "knn", "epsilon": None, "K": 1, "c": 1.0, "d": 1, "seed": 0}
    path = lio.save_matrix(A, tmp_path / "w.csv", meta=meta)
    assert path.read_text() == "row,col,value\n0,1,1\n2,0,0.75\n"
    loaded, _ = lio.load_matrix(path)
    assert loaded[2, 0] == 0.75 and loaded.nnz == 2


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_save_matrix_rejects_non_square(tmp_path, shape):
    # the sidecar records one size n: a 2 x 3 file would not load, and a
    # 3 x 2 one would come back 3 x 3
    A = sp.csr_matrix(np.arange(1.0, 7.0).reshape(shape))
    with pytest.raises(ValueError, match=rf"square matrix, got shape \({shape[0]}, {shape[1]}\)"):
        lio.save_matrix(A, tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()
    assert not (tmp_path / "w.csv.json").exists()


def _extreme_cloud(with_truth):
    pts = np.column_stack([EXTREMES, EXTREMES[::-1]])
    cloud = sample_interval(len(EXTREMES), seed=2)
    truth = cloud.ground_truth if with_truth else None
    return PointCloud(pts, intrinsic_dim=2, seed=0, manifold_tag="extremes", ground_truth=truth)


@pytest.mark.parametrize("kind", ["interval", "disk", "extremes", "extremes_no_truth"])
def test_save_cloud_bytes_match_per_entry_writer(tmp_path, kind):
    cloud = {"interval": lambda: sample_interval(50, seed=4),
             "disk": lambda: sample_disk(80, seed=5),
             "extremes": lambda: _extreme_cloud(True),
             "extremes_no_truth": lambda: _extreme_cloud(False)}[kind]()
    path = lio.save_cloud(cloud, tmp_path / "cloud.csv")
    assert path.read_bytes() == ref_cloud(cloud)


def _extreme_spectrum(with_residuals):
    vals = EXTREMES + 1j * EXTREMES[::-1]
    vecs = np.outer(EXTREMES, [1.0, -1.0j, 0.5 + 0.5j])
    res = np.abs(EXTREMES) if with_residuals else None
    return Spectrum(vals, vecs, "real_desc", "dense", res)


def test_eigenvector_sidecar_keeps_the_keys_it_computes(tmp_path):
    # meta adds keys, but the ones describing the file written are not replaced
    spec = eig(s1_lle(5).weights)
    lio.save_eigenvectors(spec, tmp_path / "v.csv",
                          meta={"n": 99, "k": 0, "ordering": "none", "method": "none",
                                "layout": "row-major", "seed": 4})
    sidecar = json.loads((tmp_path / "v.csv.json").read_text())
    assert sidecar == {"n": 10, "k": spec.eigenvectors.shape[1], "ordering": spec.ordering,
                       "method": spec.method, "layout": "column-major", "seed": 4}


@pytest.mark.parametrize("kind", ["s1", "extremes", "extremes_no_residuals", "no_vectors"])
def test_spectrum_files_bytes_match_per_entry_writer(tmp_path, kind):
    spec = {"s1": lambda: eig(s1_lle(5).weights),
            "extremes": lambda: _extreme_spectrum(True),
            "extremes_no_residuals": lambda: _extreme_spectrum(False),
            "no_vectors": lambda: eig(s1_lle(5).weights, want_vectors=False)}[kind]()
    assert lio.save_spectrum(spec, tmp_path / "s.csv").read_bytes() == ref_spectrum(spec)
    if spec.eigenvectors is None:
        with pytest.raises(ValueError, match="no eigenvectors"):
            lio.save_eigenvectors(spec, tmp_path / "v.csv")
    else:
        vpath = lio.save_eigenvectors(spec, tmp_path / "v.csv")
        assert vpath.read_bytes() == ref_eigenvectors(spec)


@pytest.mark.parametrize("full", [True, False])
def test_save_report_bytes_match_per_entry_writer(tmp_path, full):
    b = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.5, 1e308])
    labels = np.array(["missing", "boundary", "interior", "boundary", "interior",
                       "interior", "boundary"]) if full else None
    report = BoundaryReport(b_values=b, d=1, eps=0.1, c=1e-3, missing=np.isnan(b),
                            labels=labels)
    bdist = EXTREMES if full else None
    path = lio.save_report(report, tmp_path / "r.csv", bdist=bdist)
    assert path.read_bytes() == ref_report(report, bdist)
    # nan, inf and -inf B are all written as nan
    assert [line.split(",")[1] for line in path.read_text().splitlines()[1:4]] == ["nan"] * 3


META3 = {"scheme": "knn", "epsilon": None, "K": 1, "c": 1.0, "d": 1, "seed": 0, "n": 3}


@pytest.mark.parametrize("text, line, reason", [
    ("not,the,header\n0,1,0.5\n", 1, "expected header"),
    ("row,col,value\n0,1,0.5\n0,oops\n", 3, "expected 3 fields, got 2"),
    ("row,col,value\n0,1,0.5,7\n", 2, "expected 3 fields, got 4"),
    ("row,col,value\n0,x,0.5\n", 2, "invalid literal for int"),
    ("row,col,value\n0,1,0.5\n\n\n1,2,abc\n", 5, "could not convert string to float"),
    ("row,col,value\n0,1,0.5\n0,99999999999999999999,1\n", 3, "too large"),
    ("row,col,value\n0,1,0.5\n\n-1,2,0.5\n", 4, r"index \(-1, 2\) outside \[0, 3\)"),
    ("row,col,value\n0,-2,0.5\n", 2, r"index \(0, -2\) outside"),
    ("row,col,value\n0,1,0.5\n\n1,3,0.5\n", 4, r"index \(1, 3\) outside \[0, 3\)"),
    ("row,col,value\n0,1,0.5\n\n2,0,0.5\n1,1,1\n2,0,0.25\n", 6, r"duplicate triplet \(2, 0\)"),
    ("row,col,value\n2,0,0.5\n\n2,0,0.5\n", 4, r"duplicate triplet \(2, 0\)"),
    ("row,col,value\n0,1,0.5\n0,1,1_0\n", 3, r"could not convert string '1_0' to float64"),
    ("row,col,value\n0,1,0.5\n\n1_0,2,0.5\n", 4, r"could not convert string '1_0' to int64"),
    (b"row,col,value\n0,1,0.\xe9\n", 2, "not UTF-8"),
    (b"row,col,value\r\n0,1,0.5\r\n\r\n\r\n1,2,\xff\r\n2,x,0.5\r\n", 5, "not UTF-8"),
    (b"row,col,valu\xe9\n0,1,0.5\n", 1, "not UTF-8"),
], ids=["header", "two_fields", "four_fields", "int_field", "float_field_after_blanks",
        "int64_overflow", "negative_row", "negative_col", "index_ge_n", "duplicate_unsorted",
        "duplicate_adjacent", "underscore_value", "underscore_index_after_blank",
        "not_utf8_first_body_line", "not_utf8_after_blanks", "not_utf8_header"])
def test_load_matrix_errors_name_file_and_line(tmp_path, text, line, reason):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    (tmp_path / "bad.csv.json").write_text(json.dumps(META3))
    with pytest.raises(ValueError, match=rf"bad\.csv: line {line}: .*{reason}"):
        lio.load_matrix(bad)


def test_line_finder_rejects_what_loadtxt_rejects():
    # the finder names a line only if np.loadtxt would not read it: fields that
    # int() or float() take but loadtxt does not, and the reverse
    spaces = ["", " ", "\t", "\x1c", "\x1f", "\xa0", "\u3000"]
    cores = ["1", "+1", "-0", "1_0", "0.5_5", "1.5", "1E-5", "nan", "-inf", "infinity",
             "\u0661", "\uff11", "", "0x10", "9223372036854775808", "1e400"]
    for core, before, after in itertools.product(cores, spaces, spaces):
        field = before + core + after
        for line in (f"{field},0,0.5", f"0,{field},0.5", f"0,0,{field}"):
            try:
                np.loadtxt([line], dtype=lio._TRIPLET_DTYPE, delimiter=",", comments=None)
                reads = True
            except ValueError:
                reads = False
            try:
                for text, dtype in zip(line.split(","), (np.int64, np.int64, np.float64)):
                    lio._check_field(text, dtype)
                checks = True
            except (ValueError, OverflowError):
                checks = False
            assert checks == reads, repr(line)


def test_load_matrix_falls_back_to_the_loadtxt_message(tmp_path, monkeypatch):
    # when the line finder names no line, the refusal carries np.loadtxt's own reason
    monkeypatch.setattr(lio, "_check_field", lambda text, dtype: None)
    bad = tmp_path / "bad.csv"
    bad.write_text("row,col,value\n0,1,0.5\n1,2,abc\n")
    (tmp_path / "bad.csv.json").write_text(json.dumps(META3))
    with pytest.raises(ValueError) as exc:
        np.loadtxt(bad, dtype=lio._TRIPLET_DTYPE, delimiter=",", comments=None, skiprows=1)
    reason = str(exc.value)
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{bad}: {reason}')}$"):
        lio.load_matrix(bad)


@pytest.mark.parametrize("text, values", [
    (b"row,col,value\r\n0,1,0.5\r\n1,2,0.25\r\n", ["0.5", "0.25"]),
    (b"row,col,value\r0,1,0.5\r1,2,0.25\r", ["0.5", "0.25"]),
    (b"row,col,value\n0,1,0.5\n1,2,0.25", ["0.5", "0.25"]),
    (b"row,col,value\n 0 ,\t1\t, 0.5 \n1,2,\t0.25\n", ["0.5", "0.25"]),
    (b"row,col,value\n+0,+1,+0.5\n1,2,1E-5\n", ["+0.5", "1E-5"]),
    (b"row,col,value\n0,1,nan\n1,2,-inf\n", ["nan", "-inf"]),
    (b"row,col,value\n0,1,0.1234567890123456789012345678901234\n",
     ["0.1234567890123456789012345678901234"]),
    (b"row,col,value\n0,1,9007199254740993\n", ["9007199254740993"]),
    (b"row,col,value\n\n\n0,1,0.5\n1,2,0.25\n", ["0.5", "0.25"]),
    (b"row,col,value\r\n0,1,0.5\n1,2,0.25\n", ["0.5", "0.25"]),
], ids=["crlf", "cr_only", "no_final_newline", "spaces_and_tabs", "plus_and_upper_e",
        "nan_and_minus_inf", "decimal_34_digits", "exact_tie", "blank_lines_after_header",
        "crlf_header_lf_body"])
def test_load_matrix_reads_triplets_as_float_does(tmp_path, text, values):
    path = tmp_path / "w.csv"
    path.write_bytes(text)
    (tmp_path / "w.csv.json").write_text(json.dumps(META3))
    loaded, _ = lio.load_matrix(path)
    assert loaded.indptr.tolist() == [0, 1, len(values), len(values)]
    assert loaded.indices.tolist() == [1, 2][:len(values)]
    assert loaded.data.tobytes() == np.array([float(v) for v in values]).tobytes()
    if values == ["9007199254740993"]:  # 2**53 + 1, a tie, rounds to the even 2**53
        assert loaded.data[0] == 9007199254740992.0


def test_load_matrix_header_only_is_empty(tmp_path):
    path = tmp_path / "w.csv"
    path.write_bytes(b"row,col,value")  # no final newline
    (tmp_path / "w.csv.json").write_text(json.dumps(META3))
    loaded, _ = lio.load_matrix(path)
    assert loaded.shape == (3, 3) and loaded.nnz == 0


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_matrix_names_numpy_would_decompress_are_refused(tmp_path, suffix):
    # np.loadtxt opens a path ending so through a decompressor
    path = tmp_path / f"w.csv{suffix}"
    with pytest.raises(ValueError, match=rf"w\.csv\{suffix}: a triplet file is plain text"):
        lio.save_matrix(np.eye(3), path)
    path.write_text("row,col,value\n0,1,0.5\n")
    (tmp_path / f"w.csv{suffix}.json").write_text(json.dumps(META3))
    with pytest.raises(ValueError, match="plain text"):
        lio.load_matrix(path)


def test_load_matrix_accepts_unsorted_triplets_and_blank_lines(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("row,col,value\n2,1,0.5\n\n0,2,-0.0\n2,0,0.25\n")
    (tmp_path / "w.csv.json").write_text(json.dumps(META3))
    loaded, _ = lio.load_matrix(path)
    assert loaded.has_canonical_format and loaded.nnz == 3
    assert loaded.toarray().tolist() == [[0, 0, 0], [0, 0, 0], [0.25, 0.5, 0]]


def test_arnoldi_eigenvector_files_reproducible(tmp_path):
    cloud = sample_interval(3000, seed=11)
    lle = build_lle_matrix(cloud, build_graph(cloud, EpsilonBall(0.01)), "auto")
    a, b = (eig(lle.weights, k=6, ordering="real_desc") for _ in range(2))
    assert a.method == "arnoldi"
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
    pa = lio.save_eigenvectors(a, tmp_path / "a.csv")
    pb = lio.save_eigenvectors(b, tmp_path / "b.csv")
    assert pa.read_bytes() == pb.read_bytes()


# The `%.17g` and `%d` cells against Python's own conversions, on inputs that
# stress the exact scaling: every binary exponent, the powers of ten and their
# neighbours, the exponent range's edges, subnormals, the specials and values
# whose scaled fraction is within 1e-12 of 1/2 (the kernel's fallback cells).

def _near_ties():
    """Doubles x = m 2**-(s + q) with x 10**q = m 5**q / 2**s in [1e16, 1e17) and
    its fraction 1/2 + delta / 2**s within 1e-12 of 1/2: exact ties (delta 0)
    and near ones."""
    out = []
    for q in range(1, 30):
        p5 = 5 ** q
        for s in range(1, 53):
            lo, hi = max(1, -(-10 ** 16 * 2 ** s // p5)), min(2 ** 53, 10 ** 17 * 2 ** s // p5)
            for delta in [d for d in range(-2, 3) if abs(d) * 10 ** 12 <= 2 ** s]:
                r = (2 ** (s - 1) + delta) * pow(p5, -1, 2 ** s) % 2 ** s
                m = r + -(-(lo - r) // 2 ** s) * 2 ** s  # the least m >= lo
                if m < hi:
                    x = math.ldexp(m, -(s + q))
                    scaled = Fraction(x) * 10 ** q
                    assert 10 ** 16 <= scaled < 10 ** 17
                    tie = scaled - math.floor(scaled) - Fraction(1, 2)
                    assert abs(tie) <= Fraction(1, 10 ** 12)
                    out.append(x)
    return np.array(out)


def _hard_doubles():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    mantissa = rng.integers(0, 2 ** 52, size=(2046, 50), dtype=np.uint64)
    exponents = (np.arange(1, 2047, dtype=np.uint64) << np.uint64(52))[:, None]
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ulps = 1.0 + 2.0 ** -52 * np.arange(-3, 4)
    edges = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf),
                            1e-280 * ulps, 1e280 * ulps])
    decimal = rng.random(700_000) * 10.0 ** rng.integers(-20, 21, size=700_000)
    subnormal = rng.integers(1, 2 ** 52, size=5000, dtype=np.uint64).view(np.float64)
    special = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, 0.5, 1e16, 1e17, 99999999999999999.0,
                        9.9999999999999999e-5, 123.0, 1.0 / 3.0])
    x = np.concatenate([bits.view(np.float64), (exponents | mantissa).view(np.float64).ravel(),
                        edges, decimal, subnormal, _near_ties(), special])
    sign = rng.integers(0, 2, size=len(x), dtype=np.uint64) << np.uint64(63)
    return np.concatenate([(x.view(np.uint64) ^ sign).view(np.float64), -special])


def test_g17_cells_match_format_on_hard_doubles(tmp_path):
    # two columns, so that the kernel also formats and trims them together
    x = _hard_doubles()
    x = np.append(x, -0.0) if len(x) % 2 else x
    assert len(x) >= 10 ** 6
    path = tmp_path / "x.csv"
    lio._write_table(path, None, [x[::2], x[1::2]])
    got = path.read_bytes()
    expected = ("{:.17g},{:.17g}\n" * (len(x) // 2)).format(*x.tolist()).encode()
    if got != expected:
        bad = [(g, e) for g, e in zip(got.decode().splitlines(), expected.decode().splitlines())
               if g != e]
        pytest.fail(f"{len(bad)} lines differ from format(x, '.17g'), first {bad[:5]}")


def test_int_cells_match_percent_d(tmp_path):
    near_powers = [v for k in range(1, 19) for v in (10 ** k - 1, 10 ** k, 10 ** k + 1)]
    ints = [0, 9, 10, 2 ** 63 - 1, -2 ** 63] + near_powers + [-v for v in [9] + near_powers]
    for column in (np.array(ints, dtype=np.int64), np.array([0, 9, 10, 99, 100, 9999, 10000,
                                                             -1, -10000], dtype=np.int32),
                   np.arange(12000), np.array([True, False])):
        path = tmp_path / "d.csv"
        lio._write_table(path, "v", [column])
        assert path.read_text() == "v\n" + "".join("%d\n" % v for v in column.tolist())



def _per_entry_cells(column):
    if column.dtype.kind == "U":
        return column.tolist()
    if column.dtype.kind == "f":
        return [format(v, ".17g") for v in column.tolist()]
    return ["%d" % v for v in column.tolist()]


def test_column_dtype_decides_cells(tmp_path):
    rng = np.random.default_rng(17)
    m = 7000  # more rows than one block holds
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-45, 3e38]
    x = rng.normal(size=m) * 10.0 ** rng.integers(-30, 30, size=m)
    x[:len(special)] = special
    ints = [rng.integers(np.iinfo(t).min, np.iinfo(t).max, m, dtype=t, endpoint=True)
            for t in (np.int8, np.int32, np.int64, np.uint8, np.uint16, np.uint32)]
    text = np.array(["", "boundary", "\u00e9", "near_boundary", "x y"] * (m // 5))
    columns = [rng.integers(0, 2, m).astype(bool), *ints, x.astype(np.float32), x, text]
    path = tmp_path / "t.csv"
    lio._write_table(path, "h", columns)
    rows = zip(*(_per_entry_cells(c) for c in columns))
    assert path.read_bytes() == ("h\n" + "".join(",".join(r) + "\n" for r in rows)).encode()
    for bad in (np.array([1, "a"], dtype=object), np.array([1j, 2.0]),
                np.array([2 ** 64 - 1, 0], dtype=np.uint64)):
        bad_path = tmp_path / "bad.csv"
        with pytest.raises(TypeError, match=str(bad.dtype)):
            lio._write_table(bad_path, "h", [np.arange(2), bad])
        assert not bad_path.exists()
