"""Bit-stable text persistence for clouds, sparse matrices, spectra, reports.

Everything is decimal CSV with 17 significant digits (enough to round-trip a
double exactly), UTF-8, LF line endings. Sparse matrices are stored as
lexicographically sorted triplets, duplicates summed, next to a JSON sidecar
carrying the build metadata, so a load can validate what it reads.

Writers build a block of rows at a time in numpy, without a `%` per cell.
A `%.17g` cell of x != 0 is the 17-digit integer N = round(|x| 10**(16 - E)),
E = floor(log10 |x|). |x| times a tabled double-double 10**(16 - E), by
Dekker's exact two-product of Veltkamp-split halves, is known to about
2**-104 relative, which rounds to N exactly unless the scaled fraction lies
within 1e-9 of 1/2. N's digits come from a 4-digit table and are placed,
with the sign, point, leading "0." or "e+XX", by one template per (sign, E,
significant digits). `%d` cells use the same digit table and `%s` cells are
their UTF-8 bytes. A block is one uint8 matrix of NUL-padded cells and
literal text, written without its NULs. The cells the kernel cannot place
exactly (nan, +-inf, |x| outside [1e-280, 1e280), subnormals included, and
those near-ties) go through `"%.17g" % x`, the conversion of
`format(x, ".17g")`, so the files equal those of a per-entry writer byte
for byte. The harness and CLI write their CSV files through the same
helper. The triplet reader parses the body in one `np.loadtxt` call and
goes back to the file only to name the line of an error.
"""

from __future__ import annotations

import json
import re
import warnings
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple, Union

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
_BLOCK_CELLS = 1 << 15  # cells per block: keeps the block's temporaries in cache
_CONVERSION = re.compile(r"%(\.17g|d|s)")

# `%.17g` cells: |x| in [_X_MIN, _X_MAX) is scaled by a tabled 10**(16 - E),
# E in [_E_MIN, _E_MAX]; other cells, and those whose scaled fraction lies
# within _TIE of 1/2, go through `%`.
_E_MIN, _E_MAX = -282, 282
_X_MIN, _X_MAX = 1e-280, 1e280
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_TIE = 1e-9
_ZERO_KEY = 2 * 18 * (_E_MAX - _E_MIN + 1)  # keys of +0 and -0; the one after is `%`
_FALLBACK_KEY = _ZERO_KEY + 2


class _Tables(NamedTuple):
    digits: np.ndarray  # uint32 i -> the 4 ASCII digits of i, zero-padded
    lead: np.ndarray  # the same with the leading zeros NUL (0 keeps its last "0")
    zeros: np.ndarray  # trailing zeros of the 4 digits of i (4 for 0)
    tens: np.ndarray  # uint64 10**1 .. 10**19
    scale: np.ndarray  # row E - _E_MIN: 10**(16 - E) = p_hi + p_lo exactly to
    # about 2**-106, as (p_hi, its Veltkamp halves, p_lo)


@lru_cache(maxsize=None)
def _tables() -> _Tables:
    """Digit and power-of-ten tables, built once on first use."""
    i = np.arange(10000)
    ascii_ = (i[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    width = 1 + (i >= 10) + (i >= 100) + (i >= 1000)
    lead = np.where(np.arange(4) >= 4 - width[:, None], ascii_, 0).astype(np.uint8)
    zeros = np.argmax(ascii_[:, ::-1] != 48, axis=1)
    zeros[0] = 4
    p_hi, p_lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        q = 16 - e
        if q >= 0:
            hi = float(10 ** q)
            lo = float(10 ** q - int(hi))
        else:
            den = 10 ** -q
            hi = 1 / den
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (two * den)
        p_hi.append(hi)
        p_lo.append(lo)
    p_hi = np.array(p_hi)
    tables = _Tables(ascii_.view(np.uint32).ravel(), lead.view(np.uint32).ravel(),
                     zeros.astype(np.int64), 10 ** np.arange(1, 20, dtype=np.uint64),
                     np.column_stack([p_hi, *_split(p_hi), p_lo]))
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a: np.ndarray, e: np.ndarray, t: _Tables) -> Tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as p + s: p the rounded product, s the rest to about 2**-104
    relative (Dekker's exact two-product of a and p_hi, plus a * p_lo)."""
    ph, hh, hl, pl = np.take(t.scale, e - _E_MIN, axis=0).T
    p = a * ph
    ah, al = _split(a)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + a * pl


@lru_cache(maxsize=None)
def _template(key: int):
    """Template bytes of one `%.17g` cell key (sign, exponent E, significant
    digits nd) with NUL where digits go, and its runs (dst, src, length) of
    digits of the 17-digit integer."""
    if key >= _ZERO_KEY:
        pieces = ["0"]
    else:
        e, nd = divmod(key >> 1, 18)
        e += _E_MIN
        if 0 <= e < 17:
            pieces = [(0, e + 1)] + ([".", (e + 1, nd - e - 1)] if nd > e + 1 else [])
        elif -4 <= e < 0:
            pieces = ["0." + "0" * (-e - 1), (0, nd)]
        else:
            pieces = [(0, 1)] + ([".", (1, nd - 1)] if nd > 1 else []) + ["e%+03d" % e]
    text, runs = bytearray(b"-" if key & 1 else b""), []
    for piece in pieces:
        if isinstance(piece, str):
            text += piece.encode()
        else:
            runs.append((len(text), *piece))
            text += bytes(piece[1])
    return np.frombuffer(bytes(text), np.uint8), tuple(runs)


def _text_cells(text) -> np.ndarray:
    """UTF-8 of each string, one NUL-padded row per string."""
    s = np.ascontiguousarray(text, dtype=str)
    code = s.view(np.uint32).reshape(len(s), -1)  # UCS-4 code points
    if code.max() < 128:
        return code.astype(np.uint8)
    b = np.char.encode(s, "utf-8")
    return b.view(np.uint8).reshape(len(b), b.dtype.itemsize)


def _int_cells(v: np.ndarray) -> np.ndarray:
    """`%d` of each int64 entry, one NUL-padded row per entry."""
    t = _tables()
    neg = v < 0
    u = v.view(np.uint64)
    u = np.where(neg, -u, u)  # |v|, also for the most negative int64
    ngroups = -(-len(str(int(u.max()))) // 4)
    if ngroups == 1:
        cells = t.lead[u].view(np.uint8).reshape(len(u), 4)
    else:
        groups = np.empty((len(u), ngroups), np.uint64)
        q = u
        for j in range(ngroups - 1, -1, -1):
            q, groups[:, j] = np.divmod(q, 10000)
        cells = t.digits[groups].view(np.uint8)
        digits = 1 + np.searchsorted(t.tens, u, side="right")
        cells[np.arange(4 * ngroups) < 4 * ngroups - digits[:, None]] = 0
    if neg.any():
        cells = np.concatenate([np.where(neg, 45, 0).astype(np.uint8)[:, None], cells], axis=1)
    return cells


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of C-contiguous 2-d `a` as single opaque items, so that a
    gather or scatter copies each row whole."""
    return a.view(f"V{a.shape[1] * a.itemsize}").ravel()


def _g17_cells(columns: np.ndarray) -> list:
    """`%.17g` of each entry of float64 `columns` (one row per column): for each
    column, a matrix of NUL-padded cells, one row per entry, as wide as its
    widest cell.

    The cell of x != 0 is the 17-digit integer N = round(|x| 10**(16 - E)),
    E = floor(log10 |x|), its digits placed by the template of its key
    (sign, E, significant digits). N comes from |x| 10**(16 - E) in
    double-double; the exponent np.log10 gives is corrected by one where the
    scaled value leaves [1e16, 1e17), and N = 1e17 carries into E.
    """
    t = _tables()
    x = columns.ravel()
    m = len(x)
    a = np.abs(x)
    neg = np.signbit(x)
    fast = (a >= _X_MIN) & (a < _X_MAX)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    p, s = _scaled(a, e, t)
    low = (p - 1e16) + s < 0  # the sign of a sum of two doubles is exact
    off = np.flatnonzero(low | ((p - 1e17) + s >= 0))
    if len(off):
        e[off] += np.where(low[off], -1, 1)
        p[off], s[off] = _scaled(a[off], e[off], t)
        fast[off] &= ((p[off] - 1e16) + s[off] >= 0) & ((p[off] - 1e17) + s[off] < 0)
    floor = np.floor(s)
    frac = s - floor
    fast &= np.abs(frac - 0.5) > _TIE
    n = p.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    # N = d0 g1 g2 g3 g4: its first digit, then four groups of four
    groups = np.empty((m, 5), np.int64)
    d0, g1, g2, g3, g4 = groups.T
    top = n // 10 ** 8
    _quot_rem(top, 10 ** 8, d0, g2)
    _quot_rem(g2, 10 ** 4, g1, g2)
    _quot_rem(n - top * 10 ** 8, 10 ** 4, g3, g4)
    nd = 17 - t.zeros[g4]
    rest = np.flatnonzero(g4 == 0)  # rows whose last group is 0000
    for g, count in ((g3, 13), (g2, 9), (g1, 5)):
        nd[rest] = count - t.zeros[g[rest]]
        rest = rest[g[rest] == 0]
    key = np.where(fast, ((e - _E_MIN) * 18 + nd) * 2 + neg,
                   np.where(x == 0, _ZERO_KEY + neg, _FALLBACK_KEY)).astype(np.int16)

    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    ends = np.append(starts[1:], m)
    keys = key[starts].tolist()
    slow = None
    if keys[-1] == _FALLBACK_KEY:
        slow = _text_cells(["%.17g" % v for v in x[order[starts[-1]:]].tolist()])
        keys.pop()
    widths = [len(_template(k)[0]) for k in keys] + ([] if slow is None else [slow.shape[1]])
    out = np.zeros((m, max(widths)), np.uint8)
    digits = np.take(t.digits, _rows(groups)[order].view(np.int64).reshape(m, 5)).view(np.uint8)
    for k, lo, hi in zip(keys, starts.tolist(), ends.tolist()):
        text, runs = _template(k)
        out[lo:hi, :len(text)] = text
        for dst, src, length in runs:  # digit i of N is in column 3 + i
            out[lo:hi, dst:dst + length] = digits[lo:hi, 3 + src:3 + src + length]
    if slow is not None:
        out[starts[-1]:, :slow.shape[1]] = slow
    cells = np.empty_like(out)
    _rows(cells)[order] = _rows(out)
    width = np.empty(m, np.intp)
    width[order] = np.repeat(widths, ends - starts)
    ncol = len(columns)
    return [c[:, :w] for c, w in zip(cells.reshape(ncol, m // ncol, -1),
                                      width.reshape(ncol, -1).max(axis=1).tolist())]


def _quot_rem(a: np.ndarray, b: int, quot: np.ndarray, rem: np.ndarray) -> None:
    """quot, rem = divmod(a, b) for a >= 0, written into the given arrays."""
    np.floor_divide(a, b, out=quot)
    np.subtract(a, quot * b, out=rem)


def _cells(conversion: str, v: np.ndarray) -> np.ndarray:
    """One `%`-conversion applied to each entry of `v`, one NUL-padded row per entry."""
    kind = v.dtype.kind
    if conversion == "s":
        return _text_cells(v if kind == "U" else [str(c) for c in v.tolist()])
    if conversion == "d" and (kind in "bi" or (kind == "u" and v.dtype.itemsize < 8)):
        return _int_cells(v.astype(np.int64))
    return _text_cells([("%" + conversion) % c for c in v.tolist()])


def _write_table(path: Path, header: Optional[str], fmt: str,
                 columns: Sequence[np.ndarray]) -> None:
    """Write `header`, then the bytes of `fmt % (row's cells)` for each row of `columns`.

    `fmt` holds one `%.17g`, `%d` or `%s` per column and no other `%`. A
    block of rows is one uint8 matrix, literal text and NUL-padded cells side
    by side, written without its NULs (so a text cell loses any NUL of its own).
    """
    parts = _CONVERSION.split(fmt)
    literals = [np.frombuffer(text.encode(), np.uint8)[None, :] for text in parts[::2]]
    conversions = parts[1::2]
    if len(conversions) != len(columns) or any(b"%" in lit.tobytes() for lit in literals):
        raise ValueError(f"template {fmt!r} does not fit {len(columns)} columns")
    nrow = len(columns[0])
    step = max(1, _BLOCK_CELLS // len(columns))
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((header + "\n").encode())
        for lo in range(0, nrow, step):
            hi = min(lo + step, nrow)
            values = [np.asarray(col[lo:hi]) for col in columns]
            numeric = [j for j, v in enumerate(values)
                       if conversions[j] == ".17g" and v.dtype.kind in "biuf"]
            cells = {}
            if numeric:  # all `%.17g` columns of numbers in one kernel call
                x = np.stack([values[j] for j in numeric]).astype(np.float64, copy=False)
                cells = dict(zip(numeric, _g17_cells(x)))
            pieces = [literals[0]]
            for j, (conversion, lit) in enumerate(zip(conversions, literals[1:])):
                pieces += [cells[j] if j in cells else _cells(conversion, values[j]), lit]
            block = np.empty((hi - lo, sum(piece.shape[1] for piece in pieces)), np.uint8)
            at = 0
            for piece in pieces:
                width = piece.shape[1]
                if width:  # one copy per row, not per byte
                    block[:, at:at + width].view(f"V{width}")[:, 0] = _rows(piece)
                at += width
            fh.write(block[block != 0])


def _write_sidecar(path: Path, sidecar: dict) -> None:
    with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_matrix(W: Union[LleMatrix, sp.spmatrix, np.ndarray], path,
                meta: Optional[dict] = None) -> Path:
    """Write triplets `row,col,value` (sorted by row, then col, duplicates
    summed) plus a JSON sidecar. The sidecar records one size n, so the
    matrix must be square."""
    path = Path(path)
    if isinstance(W, LleMatrix):
        meta = dict(W.meta) if meta is None else meta
        A = W.weights
    else:
        A = W
    if meta is None:
        meta = {}
    A = sp.csr_matrix(A, copy=True)  # the copy keeps the caller's row order
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"save_matrix needs a square matrix, got shape {A.shape}")
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
