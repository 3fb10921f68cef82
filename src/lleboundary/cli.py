"""Command-line front end.

Subcommands: sample, build, spectrum, eigenfunctions, indicator, clip,
convergence, nullcase, sigma-table. Every setting is one row of ``_FLAGS``:
its flag, its parser and the ExperimentConfig field it sets (or none, for a
value the subcommand reads itself). ``_COMMANDS`` names the settings each
subcommand reads, and it takes only those: any other flag stops the run.
Arguments can also be read from a file, one per line (``lleboundary build
@run.args``, argparse's ``fromfile_prefix_chars``); they are parsed as if
given inline, so a later argument wins.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import io as lio
from .analytic import TABLE_COLUMNS, coefficient_table
from .boundary import clip as clip_matrix
from .harness import (PRESETS, ExperimentConfig, _wave_eps, build_pipeline, run_convergence,
                      run_eigenfunctions, run_indicator, run_null_case, sample, wave_partition)
from .lle import build_alpha_kernel_matrix
from .spectral import eig


def _one_of(names) -> Callable[[str], str]:
    choices = ", ".join(sorted(names))

    def parse(value: str) -> str:
        if value not in names:
            raise argparse.ArgumentTypeError(f"{value!r} is not one of {choices}")
        return value
    return parse


def _checked(kind, value: str, expected: str, ok=lambda x: True):
    """kind(value) where it converts and passes ok; otherwise a message saying what
    was expected (a bare ValueError would show argparse the parser's name)."""
    try:
        x = kind(value)
    except ValueError:
        pass
    else:
        if ok(x):
            return x
    raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")


def _regularizer(value: str):
    """'auto' (c = n eps^(d+3)) or a positive finite number, as ExperimentConfig.c_rule."""
    if value == "auto":
        return value
    # the check is also false for nan
    return _checked(float, value, "a finite c > 0 or auto", lambda c: 0 < c < np.inf)


def _positive_int(value: str) -> int:
    return _checked(int, value, "an integer >= 1", lambda k: k >= 1)


def _list_of(kind, expected: str) -> Callable[[str], list]:
    def parse(value: str) -> list:
        return _checked(lambda v: [kind(part) for part in v.split(",")], value, expected)
    return parse


def _grid(value: str) -> list:
    """t/eps values: a comma list, or a count >= 1 of them spread over [0, 1.2]."""
    if "," in value:
        return _list_of(float, "a comma list of numbers")(value)
    count = _checked(int, value, "a count >= 1 or a comma list of numbers", lambda m: m >= 1)
    return np.linspace(0.0, 1.2, count).tolist()


class _Flag(NamedTuple):
    field: Optional[str]  # ExperimentConfig field; None: the subcommand reads the value
    parse: Optional[Callable]  # None: an on/off flag, which takes no value
    help: str


_FLAGS = {
    "manifold": _Flag("manifold", _one_of(PRESETS),
                      f"preset: {', '.join(sorted(PRESETS))} "
                      "(default interval; gaussian_null for nullcase)"),
    "n": _Flag("n", int, "sample count (raw draws for rejection samplers)"),
    "eps": _Flag("eps", float, "epsilon-ball radius; replaces the preset's KNN scheme"),
    "knn": _Flag("knn", int, "K for the KNN scheme"),
    "c": _Flag("c_rule", _regularizer,
               "regularizer: a positive finite number, or auto for c = n * eps^(d+3)"),
    "seed": _Flag("seed", int, "integer RNG seed"),
    "k_eigs": _Flag("k_eigs", _positive_int, "number of eigenpairs; n gives the full spectrum"),
    # the check is also false for nan
    "alpha": _Flag(None, lambda v: _checked(float, v, "a number in [0, 1]", lambda a: 0 <= a <= 1),
                   "build the alpha-kernel matrix K^(alpha), alpha in [0, 1], instead of W"),
    "out": _Flag("out", Path, "output directory"),
    "tstar_clip": _Flag("tstar_clip", None, "also clip the wave region at depth t*"),
    "tau": _Flag(None, float, "indicator threshold override"),
    "d": _Flag(None, int, "intrinsic dimension (default 1)"),
    "grid": _Flag(None, _grid, "comma list of t/eps values, or their COUNT on [0, 1.2] "
                  "(default 101)"),
    "ns": _Flag(None, _list_of(int, "a comma list of integers"),
                "comma list of sample counts (default: the preset's)"),
    "eps_list": _Flag(None, _list_of(float, "a comma list of numbers"),
                      "comma list of eps values (default: the preset's)"),
}

_GRAPH = ("manifold", "n", "eps", "knn", "c", "seed", "out")  # sample -> graph -> W

# subcommand: (its help, the settings it reads; the only flags it takes). No --knn
# for indicator, defined on the eps ball, or convergence, whose sweep is --ns by
# --eps-list; the sigma table is a function of --d and --eps alone.
_COMMANDS = {
    "sample": ("draw a point cloud and write it as CSV", ("manifold", "n", "seed", "out")),
    "build": ("assemble the LLE matrix and persist it as triplets", _GRAPH + ("alpha",)),
    "spectrum": ("eigenvalues (and vectors) of the LLE matrix", _GRAPH + ("k_eigs",)),
    "eigenfunctions": ("preset eigenfunction run, optionally clipped",
                       _GRAPH + ("k_eigs", "tstar_clip")),
    "indicator": ("boundary indicator, classification, profile",
                  ("manifold", "n", "eps", "c", "seed", "out", "tau")),
    "clip": ("clip the wave region and persist the reduced matrix", _GRAPH),
    "convergence": ("operator coefficients read off W over n and eps",
                    ("manifold", "c", "seed", "out", "ns", "eps_list")),
    "nullcase": ("high-dimensional Gaussian spectrum diagnostics", _GRAPH),
    "sigma-table": ("dump the analytic coefficient table", ("eps", "out", "d", "grid")),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lleboundary", fromfile_prefix_chars="@",
        description="boundary-aware LLE toolkit; an argument @FILE is replaced by the "
                    "arguments in FILE, one per line (a later argument wins)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, keys) in _COMMANDS.items():
        # unset flags stay out of the namespace (the preset's values show through); no
        # abbreviations, or --n would still reach --ns
        p = sub.add_parser(name, help=helptext, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        for key in keys:
            flag = _FLAGS[key]
            option = "--" + key.replace("_", "-")
            if flag.parse is None:
                p.add_argument(option, action="store_const", const=True, help=flag.help)
            else:
                p.add_argument(option, type=flag.parse, help=flag.help)
    return parser


def _settings(argv) -> tuple:
    """(subcommand, its parsed settings, the ExperimentConfig they make).

    Flags win over the subcommand's default manifold; the rest comes from
    that manifold's preset.
    """
    given = vars(_parser().parse_args(argv))
    command = given.pop("command")
    values = {"manifold": "gaussian_null" if command == "nullcase" else "interval", **given}
    fields = {_FLAGS[key].field: v for key, v in values.items() if _FLAGS[key].field}
    if "eps" in fields:
        fields.setdefault("knn", None)  # an eps-ball graph unless K is given too
    return command, values, replace(PRESETS[fields["manifold"]], **fields)


def main(argv=None) -> int:
    command, values, cfg = _settings(argv)
    try:
        _run(command, values, cfg)
    except ValueError as exc:  # bad input the library refused: report it, no traceback
        print(f"lleboundary {command}: {exc}", file=sys.stderr)
        return 2
    return 0


def _run(command: str, values: dict, cfg: ExperimentConfig) -> None:
    out = cfg.out
    if out is None and command != "nullcase":  # nullcase writes only with --out
        raise ValueError("this subcommand writes files; pass --out DIR")
    if out is not None:  # refused before any work, so nothing is written
        blocked = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
        if blocked is not None:
            raise ValueError(f"--out {out}: {blocked} is a file, not a directory")

    if command == "sample":
        cloud = sample(cfg)
        path = lio.save_cloud(cloud, out / f"{cfg.manifold}_cloud.csv")
        print(f"wrote {path} ({cloud.n} points)")
    elif command == "build":
        cloud, graph, lle = build_pipeline(cfg)
        alpha = values.get("alpha")
        if alpha is None:
            path = lio.save_matrix(lle, out / "lle_matrix.csv")
            print(f"wrote {path} (n={lle.n}, c={lle.c:.6g})")
        else:
            mat = build_alpha_kernel_matrix(lle, alpha)
            path = lio.save_matrix(mat, out / "alpha_kernel_matrix.csv")
            print(f"wrote {path} (n={mat.n}, alpha={alpha}, c={mat.c:.6g})")
    elif command == "spectrum":
        cloud, graph, lle = build_pipeline(cfg)
        spec = eig(lle.weights, k=cfg.k_eigs, ordering="real_desc")
        lio.save_spectrum(spec, out / "spectrum.csv")
        lio.save_eigenvectors(spec, out / "eigenvectors.csv", meta={"seed": cfg.seed})
        print(f"wrote spectrum ({len(spec)} eigenvalues)")
    elif command == "eigenfunctions":
        result = run_eigenfunctions(cfg)
        top = result["spectrum"].eigenvalues[:3]
        print("top eigenvalues:", ", ".join(f"{v.real:.8f}{v.imag:+.2e}j" for v in top))
    elif command == "indicator":
        result = run_indicator(cfg, values.get("tau"))
        print(json.dumps(result["summary"]))
    elif command == "clip":
        _wave_eps(cfg)
        cloud, graph, lle = build_pipeline(cfg)
        regions = wave_partition(cloud, graph, lle, cfg)
        Wr, kept = clip_matrix(lle, regions)
        lio.save_matrix(Wr, out / "lle_matrix_clipped.csv", meta=lle.meta)
        lio._write_table(out / "kept_indices.csv", "old_index", [kept])
        print(f"clipped {cloud.n - len(kept)} wave points; kept {len(kept)}")
    elif command == "convergence":
        rows = run_convergence(cfg, values.get("ns", [cfg.n]), values.get("eps_list", [cfg.eps]))
        for row in rows:  # strict JSON: a nan band mean prints as null
            print(json.dumps({k: v if np.isfinite(v) else None for k, v in row.items()},
                             allow_nan=False))
    elif command == "nullcase":
        result = run_null_case(cfg)
        top = result["spectrum"].eigenvalues[0]
        print(f"top eigenvalue {top.real:.12f}{top.imag:+.2e}j, "
              f"max |Im| {result['diagnostics']['max_imag']:.4f}, "
              f"bauer_fike_ok {result['diagnostics']['bauer_fike_ok']}")
    elif command == "sigma-table":
        d, eps = values.get("d", 1), cfg.eps
        ts = [s * eps for s in values.get("grid", _grid("101"))]
        path = out / "sigma_table.csv"
        lio._write_table(path, ",".join(TABLE_COLUMNS), list(coefficient_table(d, eps, ts).T))
        print(f"wrote {path} ({len(ts)} rows, d={d}, eps={eps})")


if __name__ == "__main__":
    sys.exit(main())
