"""Bit-stable text persistence for clouds, sparse matrices, spectra, reports.

Everything is decimal CSV with 17 significant digits (enough to round-trip a
double exactly), UTF-8, LF line endings. Sparse matrices are stored as
lexicographically sorted triplets, duplicates summed, next to a JSON sidecar
carrying the build metadata, so a load can validate what it reads.

Writers format whole columns at once: one `%` format of a per-line template
repeated over a block of rows, applied to the block's cells as Python
scalars. `%.17g` of a float is the same conversion as `format(x, ".17g")`,
so the files equal those of a per-entry writer byte for byte. The triplet
reader parses the body in one `np.loadtxt` call and goes back to the file
only to name the line of an error.
"""

from __future__ import annotations

import json
import warnings
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .boundary import BoundaryReport
from .lle import LleMatrix
from .samplers import PointCloud
from .spectral import Spectrum

__all__ = [
    "save_matrix",
    "load_matrix",
    "save_cloud",
    "save_spectrum",
    "save_eigenvectors",
    "save_report",
]

SIDECAR_KEYS = ("n", "scheme", "epsilon", "K", "c", "d", "seed")
_TRIPLET_DTYPE = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
_BLOCK_CELLS = 1 << 17  # cells per `%` call: bounds the temporary list and string


def _write_table(path: Path, header: Optional[str], fmt: str,
                 columns: Sequence[np.ndarray]) -> None:
    """Write `header`, then one line `fmt % (row's cells)` per row of `columns`."""
    ncol = len(columns)
    nrow = len(columns[0])
    step = max(1, _BLOCK_CELLS // ncol)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for lo in range(0, nrow, step):
            hi = min(lo + step, nrow)
            cells = [None] * ((hi - lo) * ncol)
            for j, col in enumerate(columns):
                cells[j::ncol] = np.asarray(col[lo:hi]).tolist()
            fh.write((fmt * (hi - lo)) % tuple(cells))


def _write_sidecar(path: Path, sidecar: dict) -> None:
    with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_matrix(W: Union[LleMatrix, sp.spmatrix, np.ndarray], path,
                meta: Optional[dict] = None) -> Path:
    """Write triplets `row,col,value` (sorted by row, then col, duplicates
    summed) plus a JSON sidecar."""
    path = Path(path)
    if isinstance(W, LleMatrix):
        meta = dict(W.meta) if meta is None else meta
        A = W.weights
    else:
        A = W
    if meta is None:
        meta = {}
    A = sp.csr_matrix(A, copy=True)  # the copy keeps the caller's row order
    A.sum_duplicates()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    _write_table(path, "row,col,value", "%d,%d,%.17g\n", [rows, A.indices, A.data])
    sidecar = {key: meta.get(key) for key in SIDECAR_KEYS}
    sidecar["n"] = int(A.shape[0])
    sidecar.update({k: v for k, v in meta.items() if k not in SIDECAR_KEYS})
    _write_sidecar(path, sidecar)
    return path


def _body_lines(path: Path):
    """(1-based line number, text) of each non-blank line after the header."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line:
                yield lineno, line


def _malformed_line(path: Path) -> Optional[str]:
    """'line N: reason' for the first body line that is not `int,int,float`."""
    for lineno, line in _body_lines(path):
        parts = line.split(",")
        if len(parts) != 3:
            return f"line {lineno}: expected 3 fields, got {len(parts)}"
        try:
            np.int64(parts[0]), np.int64(parts[1]), float(parts[2])
        except (ValueError, OverflowError) as exc:
            return f"line {lineno}: {exc}"
    return None


def _line_of_triplet(path: Path, i: int) -> int:
    return next(islice(_body_lines(path), int(i), None))[0]


def load_matrix(path) -> Tuple[sp.csr_matrix, dict]:
    """Load a triplet file and its sidecar; validates both.

    Rejects, naming the file and line, a wrong header, a line that is not
    `int,int,float`, an index outside [0, n) for the sidecar's n and a
    repeated (row, col).
    """
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    if not sidecar_path.exists():
        raise ValueError(f"missing sidecar {sidecar_path}")
    with open(sidecar_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    missing = [k for k in SIDECAR_KEYS if k not in meta]
    if missing:
        raise ValueError(f"sidecar {sidecar_path} lacks required keys: {missing}")
    n = int(meta["n"])
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "row,col,value":
            raise ValueError(f"{path}: line 1: expected header 'row,col,value', got {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                t = np.loadtxt(fh, dtype=_TRIPLET_DTYPE, delimiter=",", comments=None,
                               ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {_malformed_line(path) or exc}") from None
    rows, cols = t["row"], t["col"]
    outside = np.flatnonzero((np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= n))
    if len(outside):
        i = outside[0]
        raise ValueError(f"{path}: line {_line_of_triplet(path, i)}: index ({rows[i]}, "
                         f"{cols[i]}) outside [0, {n}) for n from the sidecar")
    M = sp.csr_matrix((t["value"], (rows, cols)), shape=(n, n))
    if M.nnz < len(t):  # the conversion summed a repeated (row, col)
        _, first = np.unique(rows * n + cols, return_index=True)
        repeat = np.ones(len(t), dtype=bool)
        repeat[first] = False
        i = np.argmax(repeat)
        raise ValueError(f"{path}: line {_line_of_triplet(path, i)}: duplicate triplet "
                         f"({rows[i]}, {cols[i]})")
    return M, meta


def save_cloud(cloud: PointCloud, path) -> Path:
    """Cloud CSV with header x1,...,xp and a trailing bdist column when known."""
    path = Path(path)
    p = cloud.ambient_dim
    gt = cloud.ground_truth
    bdist = None if gt is None else gt.boundary_dist
    header = ",".join(f"x{i + 1}" for i in range(p))
    columns = list(cloud.points.T)
    if bdist is not None:
        header += ",bdist"
        columns.append(bdist)
    _write_table(path, header, ",".join(["%.17g"] * len(columns)) + "\n", columns)
    return path


def save_spectrum(spec: Spectrum, path) -> Path:
    """Spectrum CSV `re,im[,residual]`."""
    path = Path(path)
    columns = [np.real(spec.eigenvalues), np.imag(spec.eigenvalues)]
    if spec.residuals is None:
        _write_table(path, "re,im", "%.17g,%.17g\n", columns)
    else:
        _write_table(path, "re,im,residual", "%.17g,%.17g,%.17g\n",
                     columns + [spec.residuals])
    return path


def save_eigenvectors(spec: Spectrum, path, meta: Optional[dict] = None) -> Path:
    """Eigenvector matrix CSV, one column per line (column-major), plus sidecar."""
    path = Path(path)
    if spec.eigenvectors is None:
        raise ValueError("spectrum carries no eigenvectors")
    vecs = spec.eigenvectors
    flat = vecs.ravel(order="F")
    _write_table(path, None, "%.17g,%.17g\n", [np.real(flat), np.imag(flat)])
    sidecar = {"n": int(vecs.shape[0]), "k": int(vecs.shape[1]),
               "ordering": spec.ordering, "method": spec.method,
               "layout": "column-major"}
    if meta:
        sidecar.update(meta)
    _write_sidecar(path, sidecar)
    return path


def save_report(report: BoundaryReport, path,
                bdist: Optional[np.ndarray] = None) -> Path:
    """Indicator report CSV `idx,B,label,region[,bdist]`; a non-finite B is written `nan`."""
    path = Path(path)
    b = report.b_values
    header = "idx,B,label,region"
    columns = [np.arange(report.n), np.where(np.isfinite(b), b, np.nan)]
    cells = ["%d", "%.17g"]
    for labels in (report.labels, report.regions):
        cells.append("" if labels is None else "%s")
        if labels is not None:
            columns.append(np.asarray(labels))
    if bdist is not None:
        header += ",bdist"
        columns.append(bdist)
        cells.append("%.17g")
    _write_table(path, header, ",".join(cells) + "\n", columns)
    return path
