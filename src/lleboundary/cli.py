"""Command-line front end.

Subcommands: sample, build, spectrum, eigenfunctions, indicator, clip,
convergence, nullcase, sigma-table. A plain-text config file of key=value
lines can seed any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as lio
from .analytic import coefficient_table
from .boundary import clip as clip_matrix
from .harness import (PRESETS, ExperimentConfig, build_pipeline, run_convergence,
                      run_eigenfunctions, run_indicator, run_null_case, sample,
                      wave_partition)
from .spectral import DENSE_CUTOFF, eig

_CONFIG_KEYS = {"manifold", "n", "eps", "knn", "c", "c_rule", "seed", "k_eigs",
                "alpha", "out", "tstar_clip", "scale", "f_test", "tau", "d", "grid"}


def _read_config(path: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise SystemExit(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--manifold", choices=sorted(PRESETS.keys()))
    parser.add_argument("--n", help="sample count (raw draws for rejection samplers)")
    parser.add_argument("--eps", help="epsilon-ball radius")
    parser.add_argument("--knn", help="K for the KNN scheme")
    parser.add_argument("--c", help="explicit regularizer value")
    parser.add_argument("--c-rule", dest="c_rule", choices=["auto", "fixed"],
                        help="'auto' uses c = n * eps^(d+3); 'fixed' uses --c")
    parser.add_argument("--seed", help="integer RNG seed")
    parser.add_argument("--k-eigs", dest="k_eigs", help="number of eigenpairs")
    parser.add_argument("--alpha", help="alpha for the kernel family / DM normalization")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--tstar-clip", dest="tstar_clip", action="store_const", const="1",
                        help="also clip the wave region at depth t*")
    parser.add_argument("--scale", help="divide preset n by this factor")
    parser.add_argument("--f-test", dest="f_test",
                        choices=["constant", "coordinate", "squared_radius", "trig"])
    parser.add_argument("--tau", help="indicator threshold override")


def _merged(args: argparse.Namespace) -> dict:
    merged = dict(_read_config(args.config)) if args.config else {}
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _config_from(merged: dict) -> ExperimentConfig:
    manifold = merged.get("manifold", "interval")
    cfg = PRESETS[manifold]
    if "n" in merged:
        cfg = replace(cfg, n=int(merged["n"]))
    if "eps" in merged:
        cfg = replace(cfg, eps=float(merged["eps"]), knn=None)
    if "knn" in merged:
        cfg = replace(cfg, knn=int(merged["knn"]))
    rule = merged.get("c_rule", "fixed" if "c" in merged else None)
    if rule == "auto":
        cfg = replace(cfg, c_rule="auto")
    elif rule == "fixed" or "c" in merged:
        if "c" not in merged:
            raise SystemExit("--c-rule fixed needs --c")
        cfg = replace(cfg, c_rule=float(merged["c"]))
    if "seed" in merged:
        cfg = replace(cfg, seed=int(merged["seed"]))
    if "k_eigs" in merged:
        cfg = replace(cfg, k_eigs=int(merged["k_eigs"]))
    if "alpha" in merged:
        cfg = replace(cfg, alpha=float(merged["alpha"]))
    if "scale" in merged:
        cfg = replace(cfg, scale=float(merged["scale"]))
    if "f_test" in merged:
        cfg = replace(cfg, f_test=merged["f_test"])
    if merged.get("tstar_clip") in ("1", "true", "yes", True):
        cfg = replace(cfg, tstar_clip=True)
    if "out" in merged:
        cfg = replace(cfg, out=Path(merged["out"]))
    return cfg


def _need_out(cfg: ExperimentConfig) -> Path:
    if cfg.out is None:
        raise SystemExit("this subcommand writes files; pass --out DIR")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lleboundary",
                                     description="boundary-aware LLE toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("sample", "draw a point cloud and write it as CSV"),
        ("build", "assemble the LLE matrix and persist it as triplets"),
        ("spectrum", "eigenvalues (and vectors) of the LLE matrix"),
        ("eigenfunctions", "preset eigenfunction run, optionally clipped"),
        ("indicator", "boundary indicator, classification, profile"),
        ("clip", "clip the wave region and persist the reduced matrix"),
        ("convergence", "operator-error sweep over n and eps"),
        ("nullcase", "high-dimensional Gaussian spectrum diagnostics"),
        ("sigma-table", "dump the analytic coefficient table"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "sigma-table":
            p.add_argument("--d", help="intrinsic dimension", default=None)
            p.add_argument("--grid", help="comma list of t/eps values or COUNT", default=None)
        if name == "convergence":
            p.add_argument("--ns", help="comma list of sample counts")
            p.add_argument("--eps-list", dest="eps_list", help="comma list of eps values")

    args = parser.parse_args(argv)
    merged = _merged(args)
    cfg = _config_from(merged)

    if args.command == "sample":
        out = _need_out(cfg)
        cloud = sample(cfg)
        path = lio.save_cloud(cloud, out / f"{cfg.manifold}_cloud.csv")
        print(f"wrote {path} ({cloud.n} points)")
    elif args.command == "build":
        out = _need_out(cfg)
        if cfg.alpha is not None:
            from .lle import build_alpha_kernel_matrix, resolve_c
            cloud, graph, lle = build_pipeline(cfg)
            c = resolve_c(cloud, graph, cfg.c_rule, cfg.eps)
            mat = build_alpha_kernel_matrix(cloud, graph, c, cfg.alpha)
            path = lio.save_matrix(mat, out / "alpha_kernel_matrix.csv")
            print(f"wrote {path} (n={mat.n}, alpha={cfg.alpha}, c={c:.6g})")
        else:
            cloud, graph, lle = build_pipeline(cfg)
            path = lio.save_matrix(lle, out / "lle_matrix.csv")
            print(f"wrote {path} (n={lle.n}, c={lle.c:.6g})")
    elif args.command == "spectrum":
        out = _need_out(cfg)
        cloud, graph, lle = build_pipeline(cfg)
        k = cfg.k_eigs if lle.n > DENSE_CUTOFF else None
        spec = eig(lle.weights, k=k, ordering="real_desc")
        lio.save_spectrum(spec, out / "spectrum.csv")
        lio.save_eigenvectors(spec, out / "eigenvectors.csv", meta={"seed": cfg.seed})
        print(f"wrote spectrum ({len(spec)} eigenvalues)")
    elif args.command == "eigenfunctions":
        _need_out(cfg)
        result = run_eigenfunctions(cfg)
        top = result["spectrum"].eigenvalues[:3]
        print("top eigenvalues:", ", ".join(f"{v.real:.8f}{v.imag:+.2e}j" for v in top))
    elif args.command == "indicator":
        _need_out(cfg)
        tau = float(merged["tau"]) if "tau" in merged else None
        result = run_indicator(cfg, tau)
        print(json.dumps(result["summary"]))
    elif args.command == "clip":
        out = _need_out(cfg)
        cloud, graph, lle = build_pipeline(cfg)
        regions = wave_partition(cloud, graph, lle, cfg)
        Wr, kept = clip_matrix(lle, regions)
        meta = dict(lle.meta)
        meta["n"] = int(Wr.shape[0])
        lio.save_matrix(Wr, out / "lle_matrix_clipped.csv", meta=meta)
        lio._write_table(out / "kept_indices.csv", "old_index", "%d\n", [kept])
        print(f"clipped {cloud.n - len(kept)} wave points; kept {len(kept)}")
    elif args.command == "convergence":
        _need_out(cfg)
        ns = [int(v) for v in args.ns.split(",")] if args.ns else [cfg.n]
        eps_list = [float(v) for v in args.eps_list.split(",")] if args.eps_list else [cfg.eps]
        rows = run_convergence(cfg, ns, eps_list)
        for row in rows:
            print(json.dumps(row))
    elif args.command == "nullcase":
        result = run_null_case(cfg if cfg.manifold == "gaussian_null"
                               else replace(PRESETS["gaussian_null"],
                                            seed=cfg.seed, out=cfg.out))
        top = result["spectrum"].eigenvalues[0]
        print(f"top eigenvalue {top.real:.12f}{top.imag:+.2e}j, "
              f"max |Im| {result['diagnostics']['max_imag']:.4f}, "
              f"bauer_fike_ok {result['diagnostics']['bauer_fike_ok']}")
    elif args.command == "sigma-table":
        out = _need_out(cfg)
        d = int(merged.get("d", 1))
        eps = cfg.eps if cfg.eps is not None else 1.0
        grid_spec = merged.get("grid", "101")
        if "," in str(grid_spec):
            s_values = [float(v) for v in str(grid_spec).split(",")]
        else:
            s_values = np.linspace(0.0, 1.2, int(grid_spec)).tolist()
        ts = [s * eps for s in s_values]
        table = coefficient_table(d, eps, ts)
        header = "t_over_eps,s0,s1d,s2,s2d,s3,s3d,phi1,phi2,V,B"
        path = Path(out) / "sigma_table.csv"
        lio._write_table(path, header, ",".join(["%.17g"] * table.shape[1]) + "\n",
                         list(table.T))
        print(f"wrote {path} ({len(ts)} rows, d={d}, eps={eps})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
