"""Benchmark workloads: seeded inputs from the samplers and one checked pass.

A pass calls the public functions of ``neighbors``, ``lle``, ``analytic``,
``boundary``, ``spectral`` and ``io`` in the order the harness runners use
(``run_eigenfunctions`` with ``tstar_clip``, ``run_indicator`` and
``run_null_case``), and wraps each call in a tracer span named
``<module>.<call>`` after the per-layer metric it feeds. Spans are recorded
from this file only: the program itself is not instrumented.

Every pass checks its own outputs; a failed check or a raising layer call
marks the pass failed and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from lleboundary import (AnalyticCoeffs, EpsilonBall, ExperimentConfig, Knn, build_graph,
                         build_lle_matrix, classify, clip, default_threshold, eig,
                         imaginary_diagnostics, indicator, partition_regions,
                         spectral_radius_report)
from lleboundary import io as lio
from lleboundary.boundary import REGIONS
from lleboundary.spectral import DENSE_CUTOFF, RESIDUAL_TOL

ROW_SUM_TOL = 1e-12  # ||W 1 - 1||_inf on every assembled W
EIG_ONE_TOL = 1e-8  # |lambda_top - 1| for the top real eigenvalue of W
DIGEST_DECIMALS = 8  # eigenvalues enter the output digest rounded to 1e-8

# Dense operation counts (Golub & Van Loan, Matrix Computations, 4th ed.,
# sections 7.5.6 and 8.3): real Schur form with eigenvectors ~25 n^3,
# eigenvalues only ~10 n^3, symmetric eigenvalues only ~4/3 n^3.
FLOPS_EIG_VECTORS = 25.0
FLOPS_EIGVALS = 10.0
FLOPS_EIGVALSH = 4.0 / 3.0


class Tracer:
    """Spans ``[name, start, end, parent, pass_id]`` kept in memory.

    Disabled, :meth:`span` only yields, so an untraced pass runs the same
    code without the bookkeeping. Enabled, the time spent in the bookkeeping
    itself is summed per pass in ``overhead``.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.overhead: dict = defaultdict(float)
        self.pass_id = 0
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t_in = perf_counter()
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None,
                           self.pass_id])
        self._open.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            rec = self.spans[idx]
            rec[1], rec[2] = start, end
            self._open.pop()
            self.overhead[self.pass_id] += (start - t_in) + (perf_counter() - end)

    def self_times(self, pass_id: int) -> dict:
        """Per span name: summed duration minus the time its child spans cover."""
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        covered: dict = defaultdict(float)
        for _, (_, start, end, parent, _) in mine:
            if parent is not None:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _) in mine:
            out[name] += (end - start) - covered[i]
        return dict(out)

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "pass_id")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")


@dataclass
class PassResult:
    """What one pass produced: exact-repeat counts, measured values, checks."""

    counts: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    eigenvalues: list = field(default_factory=list)
    failed_checks: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.failed_checks.append(name)

    def digest(self) -> str:
        """sha256 over the counts and the sorted, rounded eigenvalues."""
        h = hashlib.sha256(json.dumps(self.counts, sort_keys=True).encode())
        for vals in self.eigenvalues:
            v = np.asarray(vals, dtype=complex)
            # adding 0.0 folds -0.0 into 0.0
            re = np.round(v.real, DIGEST_DECIMALS) + 0.0
            im = np.round(v.imag, DIGEST_DECIMALS) + 0.0
            h.update(np.array(sorted(zip(re.tolist(), im.tolist()))).tobytes())
        return h.hexdigest()


def _graph_and_matrix(cloud, scheme, c_rule, eps, tr: Tracer, res: PassResult):
    with tr.span("neighbors.build_graph"):
        graph = build_graph(cloud, scheme)
    n_k = graph.counts
    res.counts.update({
        "neighbors.edges": int(n_k.sum()),
        "neighbors.nk_p10": int(np.quantile(n_k, 0.1, method="inverted_cdf")),
        "neighbors.nk_p50": int(np.quantile(n_k, 0.5, method="inverted_cdf")),
        "neighbors.nk_p90": int(np.quantile(n_k, 0.9, method="inverted_cdf")),
        "neighbors.nk_max": int(n_k.max()),
        "neighbors.isolated": int(np.sum(n_k == 0)),
    })
    with tr.span("lle.build"):
        lle = build_lle_matrix(cloud, graph, c_rule, eps=eps)
    with tr.span("bench.check"):
        p = cloud.ambient_dim
        # solve_barycentric's "auto" route: gram when N_k > p, direct otherwise
        res.counts.update({
            "lle.rows_gram": int(np.sum(lle.n_k > p)),
            "lle.rows_direct": int(np.sum(lle.n_k <= p)),
            "lle.rows_nonpositive": int(np.sum(lle.y_sum <= 0)),
        })
        err = float(np.max(np.abs(lle.weights @ np.ones(cloud.n) - 1.0)))
        res.values["lle.row_sum_err"] = err
        res.check("row_sum", err <= ROW_SUM_TOL)
    return graph, lle


def _eig(A, tr: Tracer, span: str, res: PassResult, **kw):
    with tr.span(span):
        spec = eig(A, **kw)
    with tr.span("bench.check"):
        res.counts[f"{span}.method.{spec.method}"] = 1
        if spec.method == "dense":
            n = A.shape[0]
            res.values["spectral.dense_flops_computed"] = (
                res.values.get("spectral.dense_flops_computed", 0.0) + FLOPS_EIG_VECTORS * n ** 3)
        top = float(np.max(np.abs(spec.eigenvalues)))
        res.check(f"{span}.residual",
                  float(np.max(spec.residuals)) <= RESIDUAL_TOL * max(1.0, top))
        res.values["spectral.max_residual"] = max(res.values.get("spectral.max_residual", 0.0),
                                                  float(np.max(spec.residuals)))
        res.eigenvalues.append(spec.eigenvalues)
    return spec


def _partition_and_clip(cloud, eps, tstar, report, lle, tr: Tracer, res: PassResult):
    with tr.span("boundary.partition"):
        regions = partition_regions(cloud, eps, tstar, report=report)
    with tr.span("boundary.clip"):
        Wr, kept = clip(lle, regions)
    with tr.span("bench.check"):
        for r in REGIONS:
            res.counts[f"boundary.{r}"] = int(np.sum(regions == r))
        res.counts["boundary.kept"] = int(len(kept))
        res.check("regions_cover", regions.shape == (cloud.n,)
                  and bool(np.all(np.isin(regions, REGIONS))))
        res.check("clip_shape", Wr.shape == (len(kept), len(kept)))
    return regions, Wr, kept


def eigen_pass(cloud, cfg: ExperimentConfig, tr: Tracer, res: PassResult,
               workdir: Path) -> None:
    """disk-eigen / torus-proxy: eps-graph, W, indicator and classify,
    Arnoldi on W, wave partition (ground truth when the cloud has it, the
    indicator proxy otherwise), clip, Arnoldi on the clipped matrix."""
    d, eps = cloud.intrinsic_dim, cfg.eps
    graph, lle = _graph_and_matrix(cloud, EpsilonBall(eps), cfg.c_rule, eps, tr, res)
    with tr.span("analytic.coeffs"):
        tstar = AnalyticCoeffs(d, eps).tstar()
        tau = default_threshold(d, eps)
    with tr.span("boundary.indicator"):
        report = indicator(cloud, graph, cfg.c_rule, lle=lle)
    with tr.span("boundary.classify"):
        report = classify(report, tau)
    res.counts["boundary.n_boundary"] = int(np.sum(report.labels == "boundary"))
    spec = _eig(lle.weights, tr, "spectral.eig", res, k=cfg.k_eigs, ordering="real_desc")
    with tr.span("bench.check"):
        res.check("top_eig_one", abs(spec.eigenvalues[0] - 1.0) <= EIG_ONE_TOL)
    regions, Wr, kept = _partition_and_clip(cloud, eps, tstar, report, lle, tr, res)
    spec_r = _eig(Wr, tr, "spectral.eig_clip", res, k=cfg.k_eigs, ordering="real_desc")
    res.artifacts.update({"lle": lle, "spectrum": spec, "regions": regions, "kept": kept,
                          "clipped_spectrum": spec_r})


def _file_bytes(path: Path) -> int:
    return path.stat().st_size + Path(str(path) + ".json").stat().st_size


def io_pass(cloud, cfg: ExperimentConfig, tr: Tracer, res: PassResult,
            workdir: Path) -> None:
    """interval-io: W, save_matrix -> load_matrix round trip, Arnoldi on W,
    ground-truth partition, clip, Arnoldi on the clipped matrix, then the
    spectra and eigenvectors of both written out."""
    eps = cfg.eps
    graph, lle = _graph_and_matrix(cloud, EpsilonBall(eps), cfg.c_rule, eps, tr, res)
    mpath = workdir / "W.csv"
    with tr.span("io.save_matrix"):
        lio.save_matrix(lle, mpath)
    with tr.span("io.load_matrix"):
        M, _ = lio.load_matrix(mpath)
    with tr.span("bench.check"):
        W = lle.weights
        res.check("matrix_roundtrip_bits", M.shape == W.shape
                  and np.array_equal(M.indptr, W.indptr) and np.array_equal(M.indices, W.indices)
                  and np.array_equal(M.data.view(np.uint64), W.data.view(np.uint64)))
        matrix_bytes = _file_bytes(mpath)
    res.counts["io.matrix_bytes"] = matrix_bytes
    spec = _eig(lle.weights, tr, "spectral.eig", res, k=cfg.k_eigs, ordering="real_desc")
    with tr.span("bench.check"):
        res.check("top_eig_one", abs(spec.eigenvalues[0] - 1.0) <= EIG_ONE_TOL)
    with tr.span("analytic.coeffs"):
        tstar = AnalyticCoeffs(cloud.intrinsic_dim, eps).tstar()
    regions, Wr, kept = _partition_and_clip(cloud, eps, tstar, None, lle, tr, res)
    spec_r = _eig(Wr, tr, "spectral.eig_clip", res, k=cfg.k_eigs, ordering="real_desc")
    written = matrix_bytes
    for tag, s in (("W", spec), ("clipped", spec_r)):
        spath, vpath = workdir / f"spectrum_{tag}.csv", workdir / f"eigenvectors_{tag}.csv"
        with tr.span("io.save_spectrum"):
            lio.save_spectrum(s, spath)
        with tr.span("io.save_eigenvectors"):
            lio.save_eigenvectors(s, vpath)
        written += spath.stat().st_size + _file_bytes(vpath)
    res.values["io.bytes_written"] = written
    res.values["io.bytes_read"] = matrix_bytes
    res.artifacts.update({"lle": lle, "spectrum": spec, "regions": regions, "kept": kept,
                          "clipped_spectrum": spec_r})


def null_pass(cloud, cfg: ExperimentConfig, tr: Tracer, res: PassResult,
              workdir: Path) -> None:
    """null-dense: KNN graph, direct-route solves, dense eig of W, then the
    Bauer-Fike diagnostics and the spectral-radius report."""
    graph, lle = _graph_and_matrix(cloud, Knn(cfg.knn), cfg.c_rule, None, tr, res)
    n = cloud.n
    spec = _eig(lle.weights, tr, "spectral.eig", res, ordering="modulus_desc")
    with tr.span("spectral.imag_diag"):
        diag = imaginary_diagnostics(lle.weights)
    with tr.span("spectral.radius"):
        radius = spectral_radius_report(lle.weights)
    with tr.span("bench.check"):
        # imaginary_diagnostics: eigvals of W and eigvalsh of its symmetric
        # part; spectral_radius_report: eigvals of W at or below DENSE_CUTOFF
        res.counts["spectral.imag_diag.method.dense"] = 2
        flops = (FLOPS_EIGVALS + FLOPS_EIGVALSH) * n ** 3
        if n <= DENSE_CUTOFF:
            res.counts["spectral.radius.method.dense"] = 1
            flops += FLOPS_EIGVALS * n ** 3
        else:
            res.counts["spectral.radius.method.arnoldi"] = 1
        res.values["spectral.dense_flops_computed"] = (
            res.values.get("spectral.dense_flops_computed", 0.0) + flops)
        res.check("bauer_fike_ok", diag["bauer_fike_ok"])
        res.check("has_eig_one", radius["has_eig_one"])
    res.artifacts.update({"lle": lle, "spectrum": spec, "diagnostics": diag, "radius": radius})


@dataclass(frozen=True)
class Workload:
    """A harness config (sampler, size, scheme) and the pass run on its cloud."""

    config: ExperimentConfig
    run_pass: Callable  # (cloud, config, tracer, result, workdir) -> None


# Why each workload exists is set out in README.md. The presets' eps, knn, p
# and c are kept. The eps clouds are scaled down from the presets (disk 20000
# raw draws, torus 25000, interval 8000), and the null case sits between its
# preset n=400 and DENSE_CUTOFF=2000, so that a pass takes about 1-3 s on
# 2 cores and a run holds several passes. Every eps workload keeps n and its
# clipped n above DENSE_CUTOFF, so W and the clipped matrix still go to
# Arnoldi as at preset size; the null case goes to the dense solver.
WORKLOADS = {
    "disk-eigen": Workload(ExperimentConfig("disk", n=8000, eps=0.1), eigen_pass),
    "torus-proxy": Workload(ExperimentConfig("torus", n=4000, eps=0.3), eigen_pass),
    "interval-io": Workload(ExperimentConfig("interval", n=4000, eps=0.01), io_pass),
    "null-dense": Workload(ExperimentConfig("gaussian_null", n=1000, knn=50, c_rule=1e-3,
                                            ambient=200), null_pass),
}


def run_checked_pass(workload: Workload, cloud, tr: Tracer, workdir: Path,
                     config: ExperimentConfig = None) -> PassResult:
    """One pass on ``cloud``; a layer call that raises is recorded as a failed check."""
    res = PassResult()
    with tr.span("pass"):
        try:
            workload.run_pass(cloud, config or workload.config, tr, res, workdir)
        except Exception as exc:  # counted as a failed pass, never aborts the run
            res.failed_checks.append(f"raised {type(exc).__name__}: {exc}"[:300])
    return res

