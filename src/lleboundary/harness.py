"""Desk-scale experiment presets and runners.

Wires samplers, graph construction, matrix assembly, spectra, the boundary
indicator and clipping into reproducible runs that emit plot-ready CSV plus a
JSON summary. The convergence sweep reads the operator's coefficients phi1,
phi2 and V off W's rows (lle.row_moments) and checks them against the
closed-form table, with no test function. Presets mirror the standard test
manifolds: the unit interval (eps 0.01), the unit disk (eps 0.1), a
logarithm/cosine space curve (eps 0.01), the graph surface x^2 - y^3 over the
disk, and a truncated torus (eps 0.3).
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
from .lle import LleMatrix, build_lle_matrix, resolve_c, row_moments
from .neighbors import EpsilonBall, Knn, NeighborGraph, build_graph
from .samplers import (PointCloud, sample_curve_m3, sample_disk, sample_gaussian_null,
                       sample_interval, sample_surface, sample_truncated_torus)
from .spectral import (Spectrum, check_dense_cutoff, eig, imaginary_diagnostics,
                       spectral_radius_report)

__all__ = [
    "ExperimentConfig",
    "PRESETS",
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


_FLAT_DENSITY = {"interval": 1.0, "disk": 1.0 / math.pi}


def _wave_eps(config: ExperimentConfig) -> float:
    """config.eps for the wave strip; runners check it before they sample."""
    if config.eps is None:
        raise ValueError("the wave strip needs eps, since its depth t* scales with eps")
    return config.eps


def wave_partition(cloud: PointCloud, graph: NeighborGraph, lle: LleMatrix,
                   config: ExperimentConfig) -> np.ndarray:
    """Region labels at depth t*, using ground truth when the cloud has it and
    the indicator-derived depth proxy otherwise (torus and other clouds
    without an analytic boundary distance)."""
    cf = AnalyticCoeffs(cloud.intrinsic_dim, _wave_eps(config))
    gt = cloud.ground_truth
    if gt is not None and gt.boundary_dist is not None:
        return partition_regions(cloud, config.eps, cf.tstar())
    report = indicator(cloud, graph, config.c_rule, lle=lle)
    return partition_regions(cloud, config.eps, cf.tstar(), report=report)


# --- runners -------------------------------------------------------------------

def _eigfun_csv(out: Path, name: str, cloud: PointCloud, idx: np.ndarray,
                spec: Spectrum) -> None:
    p, k = cloud.ambient_dim, len(spec)
    header = ",".join([f"x{i + 1}" for i in range(p)] + [f"v{j + 1}" for j in range(k)])
    columns = list(cloud.points[idx].T) + list(spec.eigenvectors.real.T)
    lio._write_table(out / name, header, columns)


def run_eigenfunctions(config: ExperimentConfig) -> dict:
    """Leading eigenpairs of W (and of the clipped matrix when requested)."""
    if config.tstar_clip:
        _wave_eps(config)
    cloud, graph, lle = build_pipeline(config)
    regions = wave_partition(cloud, graph, lle, config) if config.tstar_clip else None
    out = config.out
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
    """The operator's coefficients read off W's rows over an (n, eps) sweep.

    For each grid point, W's row moments along the ground-truth outward normal
    give V = m1/eps^2, phi2 = m2n/(2 eps^2) and phi1 = m2t/(2 (d-1) eps^2)
    (nan at d = 1). Their means and mean errors against the reg-0 table
    (its phi1, phi2 and V columns) are taken over the partition_regions bands
    "interior" and "layer" (wave plus near_boundary); an empty band gives nan.
    """
    if config.manifold not in _FLAT_DENSITY:
        raise ValueError("the coefficient table needs a flat constant-density manifold "
                         f"(interval or disk), got {config.manifold!r}")
    for name, values in (("ns", ns), ("eps_values", eps_values)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty: the sweep needs at least one value")
    rows = []
    for n in ns:
        for eps in eps_values:
            cfg = replace(config, n=int(n), eps=float(eps), knn=None)
            cloud, graph, lle = build_pipeline(cfg)
            d, gt = cloud.intrinsic_dim, cloud.ground_truth
            m1, m2n, m2t = row_moments(lle.weights, cloud.points, gt.outward_normal_tangent)
            cf = AnalyticCoeffs(d, eps)
            table = cf.table(gt.boundary_dist, _FLAT_DENSITY[config.manifold])
            measured = {
                "phi1": (m2t / (2 * (d - 1) * eps ** 2) if d > 1 else np.full(cloud.n, np.nan),
                         table["phi1"]),
                "phi2": (m2n / (2 * eps ** 2), table["phi2"]),
                "V": (m1 / eps ** 2, table["V"]),
            }
            regions = partition_regions(cloud, eps, cf.tstar())
            row = {"n": cloud.n, "eps": eps, "seed": cfg.seed}
            for band_name, band in (("interior", regions == "interior"),
                                    ("layer", np.isin(regions, ("wave", "near_boundary")))):
                row[f"{band_name}_count"] = int(band.sum())
                for coef, (value, table) in measured.items():
                    row[f"{band_name}_{coef}"] = _band_mean(value, band)
                    row[f"{band_name}_{coef}_err"] = _band_mean(np.abs(value - table), band)
            rows.append(row)
    out = config.out
    if out is not None:
        cols = list(rows[0].keys())
        columns = [np.array([r[c] for r in rows]) for c in cols]
        lio._write_table(out / "convergence.csv", ",".join(cols), columns)
    return rows


def run_null_case(config: ExperimentConfig) -> dict:
    """High-dimensional Gaussian cloud: complex spectrum plus the antisymmetry
    diagnostics (the Bauer-Fike bound from the antisymmetric part). The full
    spectrum is dense: above DENSE_CUTOFF points it raises ValueError, before
    sampling when the sampler returns exactly n points."""
    if config.manifold in _EXACT_N:
        check_dense_cutoff(config.n)
    cloud, graph, lle = build_pipeline(config)
    spec = eig(lle.weights, ordering="modulus_desc")
    diag = imaginary_diagnostics(lle.weights)
    radius = spectral_radius_report(lle.weights)
    out = config.out
    if out is not None:
        lio.save_spectrum(spec, out / "spectrum.csv")
        lio._write_json(out / "nullcase.json", {
            "n": cloud.n, "p": cloud.ambient_dim, "knn": config.knn, "c": lle.c,
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
    out = config.out
    if out is not None:
        lio.save_report(report, out / "indicator.csv", bdist=bdist)
        if bdist is not None:
            order = np.argsort(bdist)
            lio._write_table(out / "profile.csv", "t_over_eps,B",
                             [bdist[order] / config.eps, report.b_values[order]])
        lio._write_json(out / "indicator.json", summary)
    return {"cloud": cloud, "report": report, "summary": summary}
