"""Desk-scale experiment presets and runners.

Wires samplers, graph construction, matrix assembly, spectra, the boundary
indicator and clipping into reproducible runs that emit plot-ready CSV plus a
JSON summary. Presets mirror the standard test manifolds: the unit interval
(eps 0.01), the unit disk (eps 0.1), a logarithm/cosine space curve
(eps 0.01), the graph surface x^2 - y^3 over the disk, and a truncated torus
(eps 0.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import io as lio
from .analytic import AnalyticCoeffs
from .boundary import classify, clip, indicator, partition_regions
from .lle import LleMatrix, apply_shifted, build_lle_matrix, resolve_c
from .neighbors import EpsilonBall, Knn, NeighborGraph, build_graph
from .samplers import (PointCloud, sample_curve_m3, sample_disk, sample_gaussian_null,
                       sample_interval, sample_surface, sample_truncated_torus)
from .spectral import (Spectrum, check_dense_cutoff, eig, imaginary_diagnostics,
                       spectral_radius_report)

__all__ = [
    "ExperimentConfig",
    "PRESETS",
    "TEST_FUNCTIONS",
    "sample",
    "build_pipeline",
    "run_eigenfunctions",
    "run_convergence",
    "run_null_case",
    "run_indicator",
]


@dataclass(frozen=True)
class ExperimentConfig:
    manifold: str
    n: int
    eps: Optional[float] = None
    knn: Optional[int] = None
    c_rule: Union[float, str] = "auto"
    seed: int = 1
    k_eigs: int = 10
    f_test: str = "squared_radius"
    tstar_clip: bool = False
    out: Optional[Path] = None
    ambient: int = 200  # gaussian_null only


PRESETS = {
    "interval": ExperimentConfig("interval", n=8000, eps=0.01),
    "disk": ExperimentConfig("disk", n=20000, eps=0.1),
    "curve_m3": ExperimentConfig("curve_m3", n=8000, eps=0.01),
    "surface": ExperimentConfig("surface", n=20000, eps=0.2),
    "torus": ExperimentConfig("torus", n=25000, eps=0.3),
    "gaussian_null": ExperimentConfig("gaussian_null", n=400, knn=50, c_rule=1e-3),
}

_SAMPLERS: dict = {
    "interval": lambda n, seed, cfg: sample_interval(n, seed),
    "disk": lambda n, seed, cfg: sample_disk(n, seed),
    "curve_m3": lambda n, seed, cfg: sample_curve_m3(n, seed),
    "surface": lambda n, seed, cfg: sample_surface(n, seed),
    "torus": lambda n, seed, cfg: sample_truncated_torus(n, seed),
    "gaussian_null": lambda n, seed, cfg: sample_gaussian_null(n, cfg.ambient, seed),
}
# samplers that return exactly n points (disk, surface and torus reject draws)
_EXACT_N = frozenset({"interval", "curve_m3", "gaussian_null"})


def sample(config: ExperimentConfig) -> PointCloud:
    try:
        sampler = _SAMPLERS[config.manifold]
    except KeyError:
        raise ValueError(f"unknown manifold {config.manifold!r}") from None
    return sampler(config.n, config.seed, config)


def _sample_graph(config: ExperimentConfig):
    """sample -> c -> neighbor graph, honoring the config's scheme; a refused eps
    (checked by EpsilonBall, also beside knn) or c stops the run."""
    if config.knn is None and config.eps is None:
        raise ValueError("config needs either eps or knn")
    ball = None if config.eps is None else EpsilonBall(config.eps)
    scheme = ball if config.knn is None else Knn(config.knn)
    cloud = sample(config)
    c = resolve_c(cloud, scheme, config.c_rule, config.eps)
    return cloud, build_graph(cloud, scheme), c


def build_pipeline(config: ExperimentConfig):
    """sample -> neighbor graph -> LLE matrix, honoring the config's scheme."""
    cloud, graph, c = _sample_graph(config)
    return cloud, graph, build_lle_matrix(cloud, graph, c, eps=config.eps)


# --- built-in test functions with ambient derivatives -------------------------

def _const(pts):
    return np.ones(pts.shape[0]), np.zeros_like(pts), np.zeros((pts.shape[0],
                                                                pts.shape[1], pts.shape[1]))


def _coordinate(pts):
    n, p = pts.shape
    grad = np.zeros_like(pts)
    grad[:, 0] = 1.0
    return pts[:, 0].copy(), grad, np.zeros((n, p, p))


def _squared_radius(pts):
    n, p = pts.shape
    hess = np.tile(2.0 * np.eye(p), (n, 1, 1))
    return (pts ** 2).sum(axis=1), 2.0 * pts, hess


def _trig(pts):
    n, p = pts.shape
    f = np.cos(np.pi * pts[:, 0])
    grad = np.zeros_like(pts)
    grad[:, 0] = -np.pi * np.sin(np.pi * pts[:, 0])
    hess = np.zeros((n, p, p))
    hess[:, 0, 0] = -np.pi ** 2 * np.cos(np.pi * pts[:, 0])
    return f, grad, hess


TEST_FUNCTIONS: dict = {
    "constant": _const,
    "coordinate": _coordinate,
    "squared_radius": _squared_radius,
    "trig": _trig,
}

_FLAT_DENSITY = {"interval": 1.0, "disk": 1.0 / math.pi}


def _operator_targets(cloud: PointCloud, eps: float, f_test: str) -> np.ndarray:
    """Pointwise limit values phi1 (tangential Laplacian) + phi2 (normal second
    derivative) + V (outward drift) for a manifold in _FLAT_DENSITY."""
    p_val = _FLAT_DENSITY[cloud.manifold_tag]
    _, grad, hess = TEST_FUNCTIONS[f_test](cloud.points)
    gt = cloud.ground_truth
    bdist = gt.boundary_dist
    normal = gt.outward_normal_tangent
    cf = AnalyticCoeffs(cloud.intrinsic_dim, eps)
    h_nn = np.einsum("ki,kij,kj->k", normal, hess, normal)
    trace = np.einsum("kii->k", hess)
    dn = np.einsum("ki,ki->k", grad, normal)
    phi1, phi2 = cf.phi(bdist)
    return phi1 * (trace - h_nn) + phi2 * h_nn + cf.potential_v(bdist, p_val) * dn


def wave_partition(cloud: PointCloud, graph: NeighborGraph, lle: LleMatrix,
                   config: ExperimentConfig) -> np.ndarray:
    """Region labels at depth t*, using ground truth when the cloud has it and
    the indicator-derived depth proxy otherwise (torus and other clouds
    without an analytic boundary distance)."""
    if config.eps is None:
        raise ValueError("the wave strip needs eps, since its depth t* scales with eps")
    cf = AnalyticCoeffs(cloud.intrinsic_dim, config.eps)
    gt = cloud.ground_truth
    if gt is not None and gt.boundary_dist is not None:
        return partition_regions(cloud, config.eps, cf.tstar())
    report = indicator(cloud, graph, config.c_rule, lle=lle)
    return partition_regions(cloud, config.eps, cf.tstar(), report=report)


# --- runners -------------------------------------------------------------------

def _outdir(config: ExperimentConfig) -> Optional[Path]:
    """The output directory; the writers create it with their first file."""
    return None if config.out is None else Path(config.out)


def _eigfun_csv(out: Path, name: str, cloud: PointCloud, idx: np.ndarray,
                spec: Spectrum) -> None:
    p, k = cloud.ambient_dim, len(spec)
    header = ",".join([f"x{i + 1}" for i in range(p)] + [f"v{j + 1}" for j in range(k)])
    columns = list(cloud.points[idx].T) + list(spec.eigenvectors.real.T)
    lio._write_table(out / name, header, columns)


def run_eigenfunctions(config: ExperimentConfig) -> dict:
    """Leading eigenpairs of W (and of the clipped matrix when requested)."""
    cloud, graph, lle = build_pipeline(config)
    # the wave strip first: a refused eps must stop the run before any file is written
    regions = wave_partition(cloud, graph, lle, config) if config.tstar_clip else None
    out = _outdir(config)
    spec = eig(lle.weights, k=config.k_eigs, ordering="real_desc")
    result = {"cloud": cloud, "graph": graph, "lle": lle, "spectrum": spec}
    summary = {
        "manifold": config.manifold, "n": cloud.n, "eps": config.eps,
        "seed": config.seed, "c": lle.c, "method": spec.method,
        "eigenvalues": [[v.real, v.imag] for v in spec.eigenvalues],
        "residuals": spec.residuals.tolist(),
    }
    if out is not None:
        _eigfun_csv(out, "eigenfunctions.csv", cloud, np.arange(cloud.n), spec)
    if regions is not None:
        Wr, kept = clip(lle, regions)
        spec_r = eig(Wr, k=config.k_eigs, ordering="real_desc")
        result.update({"regions": regions, "clipped": Wr, "kept": kept,
                       "clipped_spectrum": spec_r})
        summary["clipped_method"] = spec_r.method
        summary["clipped_eigenvalues"] = [[v.real, v.imag] for v in spec_r.eigenvalues]
        summary["n_clipped"] = int(cloud.n - len(kept))
        if out is not None:
            _eigfun_csv(out, "eigenfunctions_clipped.csv", cloud, kept, spec_r)
    if out is not None:
        lio._write_json(out / "summary.json", summary)
    result["summary"] = summary
    return result


def _band_mean(x: np.ndarray, band: np.ndarray) -> float:
    """Mean of x over a band of points; nan, without a warning, on an empty band."""
    return float(x[band].mean()) if band.any() else float("nan")


def run_convergence(config: ExperimentConfig,
                    ns: Sequence[int], eps_values: Sequence[float]) -> list:
    """Mean interior/boundary-layer operator error over an (n, eps) sweep.

    For each grid point: error_k = |[(W - I) f]_k / eps^2 - target_k| with the
    target from the closed-form coefficients, averaged separately over the
    partition_regions bands "interior" and "wave" plus "near_boundary".
    """
    if config.manifold not in _FLAT_DENSITY:
        raise ValueError("operator targets need a flat constant-density manifold "
                         f"(interval or disk), got {config.manifold!r}")
    rows = []
    for n in ns:
        for eps in eps_values:
            cfg = replace(config, n=int(n), eps=float(eps), knn=None)
            cloud, graph, lle = build_pipeline(cfg)
            f_vals, _, _ = TEST_FUNCTIONS[cfg.f_test](cloud.points)
            vals = apply_shifted(lle, f_vals) / eps ** 2
            targets = _operator_targets(cloud, eps, cfg.f_test)
            tstar = AnalyticCoeffs(cloud.intrinsic_dim, eps).tstar()
            regions = partition_regions(cloud, eps, tstar)
            interior = regions == "interior"
            layer = np.isin(regions, ("wave", "near_boundary"))
            err = np.abs(vals - targets)
            rows.append({
                "n": cloud.n, "eps": eps, "f_test": cfg.f_test, "seed": cfg.seed,
                "interior_mean_value": _band_mean(vals, interior),
                "interior_mean_err": _band_mean(err, interior),
                "layer_mean_err": _band_mean(err, layer),
                "interior_count": int(interior.sum()),
            })
    out = _outdir(config)
    if out is not None:
        cols = list(rows[0].keys())
        columns = [np.array([r[c] for r in rows]) for c in cols]
        lio._write_table(out / "convergence.csv", ",".join(cols), columns)
    return rows


def run_null_case(config: Optional[ExperimentConfig] = None) -> dict:
    """High-dimensional Gaussian cloud: complex spectrum plus the antisymmetry
    diagnostics (the Bauer-Fike bound from the antisymmetric part). The full
    spectrum is dense: above DENSE_CUTOFF points it raises ValueError, before
    sampling when the sampler returns exactly n points."""
    cfg = config or PRESETS["gaussian_null"]
    if cfg.manifold in _EXACT_N:
        check_dense_cutoff(cfg.n)
    cloud, graph, lle = build_pipeline(cfg)
    spec = eig(lle.weights, ordering="modulus_desc")
    diag = imaginary_diagnostics(lle.weights)
    radius = spectral_radius_report(lle.weights)
    out = _outdir(cfg)
    if out is not None:
        lio.save_spectrum(spec, out / "spectrum.csv")
        lio._write_json(out / "nullcase.json", {
            "n": cloud.n, "p": cloud.ambient_dim, "knn": cfg.knn, "c": lle.c,
            "top_eigenvalue": [float(spec.eigenvalues[0].real),
                               float(spec.eigenvalues[0].imag)],
            **diag, **radius,
        })
    return {"cloud": cloud, "lle": lle, "spectrum": spec,
            "diagnostics": diag, "radius": radius}


def run_indicator(config: ExperimentConfig, tau: Optional[float] = None) -> dict:
    """Indicator, classification, and the (t/eps, B) profile against ground truth.

    Returns the keys ``cloud``, ``report`` and ``summary``. W is not built:
    the indicator runs its own solves, so points without neighbors are
    reported as missing instead of failing the run.
    """
    if config.knn is not None or config.eps is None:
        raise ValueError("the indicator is defined for the epsilon-ball scheme: pass --eps")
    cloud, graph, c = _sample_graph(config)
    report = classify(indicator(cloud, graph, c), tau)
    gt = cloud.ground_truth
    bdist = None if gt is None else gt.boundary_dist
    summary = {"n": cloud.n, "eps": config.eps, "threshold": report.threshold,
               "n_boundary": int(np.sum(report.labels == "boundary")),
               "n_missing": int(np.sum(report.missing))}
    out = _outdir(config)
    if out is not None:
        lio.save_report(report, out / "indicator.csv", bdist=bdist)
        if bdist is not None:
            order = np.argsort(bdist)
            lio._write_table(out / "profile.csv", "t_over_eps,B",
                             [bdist[order] / config.eps, report.b_values[order]])
        lio._write_json(out / "indicator.json", summary)
    return {"cloud": cloud, "report": report, "summary": summary}
