"""One-time oracle self-check, run at reduced size before the timed passes.

It shows that the fast paths the passes time agree with the oracles the
program keeps, and that the benchmark's composed pass reproduces the harness
runner a user calls:

* ``build_graph`` equals ``brute_force_neighbors`` exactly, for the eps ball
  and for KNN;
* sampled rows of ``W`` match ``solve_barycentric(path="direct")``;
* the pass reproduces ``run_eigenfunctions(tstar_clip=True)`` (eps
  workloads) or ``run_null_case`` (null case) exactly.

The reduced clouds keep n below ``DENSE_CUTOFF``, where the eigensolver is
the deterministic dense one, so both sides must agree bit for bit. Their
eps is raised where the reduced cloud would otherwise have isolated points.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from lleboundary import (EpsilonBall, Knn, build_graph, run_eigenfunctions, run_null_case,
                         solve_barycentric)
from lleboundary.harness import sample
from lleboundary.neighbors import brute_force_neighbors, local_data_matrix

from workloads import WORKLOADS, Tracer, run_checked_pass

ROW_ORACLE_TOL = 1e-12  # max |w_auto - w_direct| over the sampled rows
ROWS_SAMPLED = 40
KNN_CHECK = 10  # k for the KNN oracle check on the eps clouds

REDUCED = {
    "disk-eigen": {"n": 800, "eps": 0.2},
    "torus-proxy": {"n": 700, "eps": 0.9},
    "interval-io": {"n": 600, "eps": 0.02},
    "null-dense": {"n": 400},
}


def _same_graph(a, b) -> bool:
    return (len(a.neighbors) == len(b.neighbors)
            and all(np.array_equal(x, y) for x, y in zip(a.neighbors, b.neighbors))
            and all(np.array_equal(x, y) for x, y in zip(a.distances, b.distances)))


def _same_matrix(a, b) -> bool:
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


def _same_values(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def self_check(name: str, workdir: Path) -> dict:
    """Named oracle checks for one workload; each value is True when it holds."""
    workload = WORKLOADS[name]
    cfg = replace(workload.config, **REDUCED[name])
    cloud = sample(cfg)
    checks = {}

    schemes = [Knn(cfg.knn)] if cfg.knn else [EpsilonBall(cfg.eps), Knn(KNN_CHECK)]
    for scheme in schemes:
        checks[f"graph_equals_brute_force[{type(scheme).__name__}]"] = _same_graph(
            build_graph(cloud, scheme), brute_force_neighbors(cloud, scheme))

    res = run_checked_pass(workload, cloud, Tracer(False), workdir, config=cfg)
    checks["reduced_pass_ok"] = not res.failed_checks
    if res.failed_checks:
        return checks

    lle = res.artifacts["lle"]
    graph = build_graph(cloud, schemes[0])
    worst = 0.0
    for k in np.linspace(0, cloud.n - 1, ROWS_SAMPLED).astype(int):
        G = local_data_matrix(cloud, graph, k)
        w_direct = solve_barycentric(G, lle.c, path="direct").w
        row = lle.weights.data[lle.weights.indptr[k]:lle.weights.indptr[k + 1]]
        worst = max(worst, float(np.max(np.abs(row - w_direct))))
    checks["rows_match_direct_solve"] = worst <= ROW_ORACLE_TOL

    if cfg.knn:
        ref = run_null_case(cfg)
        checks["pass_reproduces_run_null_case"] = (
            _same_matrix(ref["lle"].weights, lle.weights)
            and _same_values(ref["spectrum"].eigenvalues, res.artifacts["spectrum"].eigenvalues)
            and ref["diagnostics"] == res.artifacts["diagnostics"]
            and ref["radius"] == res.artifacts["radius"])
    else:
        ref = run_eigenfunctions(replace(cfg, tstar_clip=True))
        checks["pass_reproduces_run_eigenfunctions"] = (
            _same_matrix(ref["lle"].weights, lle.weights)
            and _same_values(ref["spectrum"].eigenvalues, res.artifacts["spectrum"].eigenvalues)
            and _same_values(ref["regions"], res.artifacts["regions"])
            and _same_values(ref["kept"], res.artifacts["kept"])
            and _same_values(ref["clipped_spectrum"].eigenvalues,
                             res.artifacts["clipped_spectrum"].eigenvalues))
    return checks
