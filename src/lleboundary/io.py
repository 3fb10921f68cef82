"""Bit-stable text persistence for clouds, sparse matrices, spectra, reports.

Everything is decimal CSV with 17 significant digits (enough to round-trip a
double exactly), UTF-8, LF line endings. Sparse matrices are stored as
lexicographically sorted triplets, duplicates summed, next to a JSON sidecar
carrying the build metadata, so a load can validate what it reads.

Writers build a block of rows at a time in numpy, without a `%` per cell,
and a column's dtype decides its cells (see `_write_table`). A `%.17g` cell
of x != 0 is the 17-digit integer N = round(|x| 10**(16 - E)),
E = floor(log10 |x|). |x| times a tabled double-double 10**(16 - E), by
Dekker's exact two-product of Veltkamp-split halves, is known to about
2**-104 relative, which rounds to N exactly unless the scaled fraction lies
within 1e-9 of 1/2. N's digits come from a 4-digit table and are placed,
with the sign, point, leading "0." or "e+XX", by one template per (sign, E,
significant digits). `%d` cells use the same digit table and text cells are
their UTF-8 bytes. A block is one uint8 matrix of NUL-padded cells and
separators, written without its NULs. The cells the kernel cannot place
exactly (nan, +-inf, |x| outside [1e-280, 1e280), subnormals included, and
those near-ties) go through `"%.17g" % x`, the conversion of
`format(x, ".17g")`, so the files equal those of a per-entry writer byte
for byte. Every CSV file, the harness's and CLI's included, goes through
`_write_table`, and every JSON file, sidecars and run summaries, through
`_write_json`; both create the file's directory when it is missing, so a
run that fails before its first write leaves nothing behind. The triplet
reader checks the header, then gives `np.loadtxt` the path, so numpy's C
reader parses the body in blocks rather than one Python line at a time. It
goes back to the file only to name the line of an error, decoding each line
from UTF-8 on its own so that a byte that is not UTF-8 is reported by line
too. The sidecar must be a JSON object whose n is a JSON integer in
[0, 2**63).
"""

from __future__ import annotations

import json
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
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # np.loadtxt opens such a path decompressed

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
    b = np.char.encode(np.asarray(text, dtype=str), "utf-8")
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


def _cell_kind(dtype: np.dtype) -> str:
    """'g' (`%.17g`), 'd' (`%d`) or 's' (the text itself): the cells of a column of `dtype`."""
    if dtype.kind == "f":
        return "g"
    if dtype.kind in "bi" or (dtype.kind == "u" and dtype.itemsize < 8):
        return "d"
    if dtype.kind == "U":
        return "s"
    raise TypeError(f"no text cells for a column of dtype {dtype}")


def _write_table(path: Path, header: Optional[str], columns: Sequence[np.ndarray]) -> None:
    """Write `header`, then one line per row of `columns`: its cells joined by
    commas, ended by LF.

    A column's dtype decides its cells: float as `%.17g`; bool, signed int and
    unsigned int narrower than 8 bytes as `%d`; str as its text. Any other
    dtype raises TypeError before the file, or its missing directory, is
    made. A block of rows is one uint8 matrix, cells and separators side by
    side, written without its NULs (so a text cell loses any NUL of its own).
    """
    columns = [np.asarray(col) for col in columns]
    kinds = [_cell_kind(col.dtype) for col in columns]
    floats = [j for j, kind in enumerate(kinds) if kind == "g"]
    comma, newline = (np.frombuffer(c, np.uint8)[None, :] for c in (b",", b"\n"))
    nrow = len(columns[0])
    step = max(1, _BLOCK_CELLS // len(columns))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((header + "\n").encode())
        for lo in range(0, nrow, step):
            values = [col[lo:lo + step] for col in columns]
            cells = {}
            if floats:  # all float columns in one kernel call
                x = np.stack([values[j] for j in floats]).astype(np.float64, copy=False)
                cells = dict(zip(floats, _g17_cells(x)))
            pieces = []
            for j, (kind, v) in enumerate(zip(kinds, values)):
                if j not in cells:
                    cells[j] = _int_cells(v.astype(np.int64)) if kind == "d" else _text_cells(v)
                pieces += [cells[j], comma]
            pieces[-1] = newline
            block = np.empty((len(values[0]), sum(piece.shape[1] for piece in pieces)), np.uint8)
            at = 0
            for piece in pieces:
                width = piece.shape[1]
                if width:  # one copy per row, not per byte
                    block[:, at:at + width].view(f"V{width}")[:, 0] = _rows(piece)
                at += width
            fh.write(block[block != 0])


def _write_json(path: Path, payload: dict) -> None:
    """`payload` as JSON with a one-space indent and sorted keys, then LF, in a
    directory created if missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _sidecar(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".json")


def _check_plain_name(path: Path) -> None:
    if path.suffix in _COMPRESSED:
        raise ValueError(f"{path}: a triplet file is plain text, but np.loadtxt reads "
                         f"a name ending in {path.suffix} as compressed")


def save_matrix(W: Union[LleMatrix, sp.spmatrix, np.ndarray], path,
                meta: Optional[dict] = None) -> Path:
    """Write triplets `row,col,value` (sorted by row, then col, duplicates
    summed) plus a JSON sidecar. The sidecar records one size n, so the
    matrix must be square. The name may not end in .gz, .bz2, .xz or .lzma
    (see `load_matrix`)."""
    path = Path(path)
    _check_plain_name(path)
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
    _write_table(path, "row,col,value", [rows, A.indices, A.data])
    sidecar = {key: meta.get(key) for key in SIDECAR_KEYS}
    sidecar["n"] = int(A.shape[0])
    sidecar.update({k: v for k, v in meta.items() if k not in SIDECAR_KEYS})
    _write_json(_sidecar(path), sidecar)
    return path


def _lines(path: Path):
    """(1-based line number, text) of each line, split at universal newlines as
    a text read splits them. Each line is decoded from UTF-8 on its own; text
    is None for a line that is not UTF-8."""
    # latin-1 maps each byte to one character, and no byte of a multibyte UTF-8
    # character is CR or LF, so these lines are those of the UTF-8 text
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                yield lineno, line.rstrip("\n").encode("latin-1").decode("utf-8")
            except UnicodeDecodeError:
                yield lineno, None


def _body_lines(path: Path):
    """(1-based line number, text) of each non-blank line after the header."""
    return ((lineno, line) for lineno, line in islice(_lines(path), 1, None) if line != "")


def _check_field(text: str, dtype) -> None:
    """Raise ValueError or OverflowError unless np.loadtxt reads text as dtype.

    int() and float() alone also take '_' between digits and non-ASCII digits,
    which loadtxt rejects. str.strip removes the whitespace loadtxt skips
    around a field, the separators U+001C to U+001F among it, which int()
    and float() keep and reject."""
    s = text.strip()
    if not s.isascii() or "_" in s:
        raise ValueError(f"could not convert string {text!r} to {np.dtype(dtype).name}")
    dtype(s)


def _malformed_line(path: Path) -> Optional[str]:
    """'line N: reason' for the first body line that is not UTF-8 or that
    np.loadtxt does not read as `int,int,float`."""
    for lineno, line in _body_lines(path):
        if line is None:
            return f"line {lineno}: not UTF-8"
        parts = line.split(",")
        if len(parts) != 3:
            return f"line {lineno}: expected 3 fields, got {len(parts)}"
        try:
            for text, dtype in zip(parts, (np.int64, np.int64, np.float64)):
                _check_field(text, dtype)
        except (ValueError, OverflowError) as exc:
            return f"line {lineno}: {exc}"
    return None


def _line_of_triplet(path: Path, i: int) -> int:
    return next(islice(_body_lines(path), int(i), None))[0]


def load_matrix(path) -> Tuple[sp.csr_matrix, dict]:
    """Load a triplet file and its sidecar; validates both.

    The sidecar must be a JSON object whose n is a JSON integer in
    [0, 2**63). An n that fits but is too large for memory raises
    MemoryError from the allocation of the CSR row pointer (n + 1 entries:
    16 GiB at n = 2**31). Rejects, naming the file and line, a line that is
    not UTF-8, a wrong header, a line that is not `int,int,float`, an index
    outside [0, n) and a repeated (row, col).
    np.loadtxt gets the path, so numpy reads the body in blocks; a name that
    ends in .gz, .bz2, .xz or .lzma, which numpy would decompress, is refused.
    """
    path = Path(path)
    _check_plain_name(path)
    sidecar_path = _sidecar(path)
    if not sidecar_path.exists():
        raise ValueError(f"missing sidecar {sidecar_path}")
    with open(sidecar_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {sidecar_path} must hold a JSON object, "
                         f"got {type(meta).__name__}")
    missing = [k for k in SIDECAR_KEYS if k not in meta]
    if missing:
        raise ValueError(f"sidecar {sidecar_path} lacks required keys: {missing}")
    n = meta["n"]
    if type(n) is not int or not 0 <= n < 2 ** 63:  # not bool, an int subclass
        raise ValueError(f"sidecar {sidecar_path}: n must be a nonnegative integer "
                         f"below 2**63, got {n!r}")
    header = next(_lines(path), (1, ""))[1]
    if header is None:
        raise ValueError(f"{path}: line 1: not UTF-8")
    if header != "row,col,value":
        raise ValueError(f"{path}: line 1: expected header 'row,col,value', got {header!r}")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            t = np.loadtxt(path, dtype=_TRIPLET_DTYPE, delimiter=",", comments=None,
                           ndmin=1, skiprows=1, encoding="utf-8")
    except ValueError as exc:  # UnicodeDecodeError included
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
    _write_table(path, header, columns)
    return path


def save_spectrum(spec: Spectrum, path) -> Path:
    """Spectrum CSV `re,im[,residual]`."""
    path = Path(path)
    columns = [np.real(spec.eigenvalues), np.imag(spec.eigenvalues)]
    if spec.residuals is None:
        _write_table(path, "re,im", columns)
    else:
        _write_table(path, "re,im,residual", columns + [spec.residuals])
    return path


def save_eigenvectors(spec: Spectrum, path, meta: Optional[dict] = None) -> Path:
    """Eigenvector matrix CSV, one column per line (column-major), plus sidecar."""
    path = Path(path)
    if spec.eigenvectors is None:
        raise ValueError("spectrum carries no eigenvectors")
    vecs = spec.eigenvectors
    flat = vecs.ravel(order="F")
    _write_table(path, None, [np.real(flat), np.imag(flat)])
    sidecar = {"n": int(vecs.shape[0]), "k": int(vecs.shape[1]),
               "ordering": spec.ordering, "method": spec.method,
               "layout": "column-major"}
    if meta:
        sidecar.update(meta)
    _write_json(_sidecar(path), sidecar)
    return path


def save_report(report: BoundaryReport, path,
                bdist: Optional[np.ndarray] = None) -> Path:
    """Indicator report CSV `idx,B,label[,bdist]`; a non-finite B is written `nan`."""
    path = Path(path)
    b = report.b_values
    header = "idx,B,label"
    labels = np.full(report.n, "") if report.labels is None else report.labels
    columns = [np.arange(report.n), np.where(np.isfinite(b), b, np.nan), labels]
    if bdist is not None:
        header += ",bdist"
        columns.append(bdist)
    _write_table(path, header, columns)
    return path
