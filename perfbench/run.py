"""Benchmark of the lleboundary pipeline: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload disk-eigen --seed 1 --seconds 30 --trace 0

The run checks the oracles once at reduced size, then starts one workload
process that runs checked passes for ``--seconds``; untraced, it also times
the reference and the set-up of fresh interpreters (worker.py). With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones, each by name with its
unit; the last line of standard output is the JSON result. A full record
(machine, oracle checks, every pass) goes to ``.perfbench/`` in the root.
See README.md beside this file for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 150
STOP_TIMEOUT_S = 10  # grace for the worker after SIGTERM

# per-layer time metrics: the median over timed passes of a span's self time
SPAN_METRICS = {f"{name}_s": name for name in (
    "neighbors.build_graph", "lle.build", "analytic.coeffs", "boundary.indicator",
    "boundary.classify", "boundary.partition", "boundary.clip", "spectral.eig",
    "spectral.eig_clip", "spectral.imag_diag", "spectral.radius", "io.save_matrix",
    "io.load_matrix", "io.save_spectrum", "io.save_eigenvectors", "bench.check")}
SPAN_METRICS["trace.remainder_s"] = "pass"
COUNT_METRICS = (
    "neighbors.edges", "neighbors.nk_p10", "neighbors.nk_p50", "neighbors.nk_p90",
    "neighbors.nk_max", "neighbors.isolated", "lle.rows_gram", "lle.rows_direct",
    "lle.rows_nonpositive", "boundary.n_boundary", "boundary.wave", "boundary.near_boundary",
    "boundary.transition", "boundary.interior", "boundary.kept")
WRITE_SPANS = ("io.save_matrix", "io.save_spectrum", "io.save_eigenvectors")


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _blas() -> dict:
    """BLAS build of numpy, and the thread count of every OpenBLAS loaded.

    numpy and scipy each bundle their own OpenBLAS; scipy.linalg uses its own.
    """
    import ctypes

    import numpy as np
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"numpy_blas": f"{blas.get('name')} {blas.get('version')}",
              "config": blas.get("openblas configuration"),
              "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                      if k in os.environ},
              "threads": {}}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"][Path(lib).name] = fn()
                break
    return record


def machine_record(seed: int) -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "caches": _cache_sizes(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "seed": seed,
            "loadavg_start": os.getloadavg()}


def _child(env: dict, timeout: float, *args) -> dict:
    """Run worker.py in a fresh interpreter; returns its last stdout line as JSON.

    On a timeout or an interrupt the worker gets SIGTERM, on which it stops
    the set-up probe it may be running, and the run waits for it to end.
    """
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *map(str, args)]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            proc.terminate()
            try:
                proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(out.strip().splitlines()[-1])


def exit_on_sigterm(signum, frame):
    """SIGTERM handler: unwind through ``finally`` blocks, which stop children."""
    raise SystemExit(128 + signum)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(worker: dict, setups: list) -> dict:
    """The bounded metrics, and the raw pass times the ratios come from.

    Pass times in seconds exclude the reference chunks sampled during them.
    """
    timed = worker["passes"][1:]
    return {"wall_ref": _median(p["wall_s"] / p["ref_s"] for p in timed),
            "cpu_ref": _median(p["cpu_s"] / p["ref_s"] for p in timed),
            "setup_s": _median(setups),
            "peak_rss_mb": worker["peak_rss_mb"],
            "wall_s": _median(p["wall_s"] for p in timed),
            "cpu_s": _median(p["cpu_s"] for p in timed),
            "ref_s": _median(p["ref_s"] for p in timed),
            "ref_samples": sum(p["ref_samples"] for p in timed)}


def per_layer(worker: dict) -> dict:
    passes = worker["passes"]
    timed = passes[1:]
    counts, values = passes[0]["counts"], passes[0]["values"]
    out = {"samplers.sample_s": _median(worker["sample_s"]),
           "samplers.points": worker["points"]}
    for metric, span in SPAN_METRICS.items():
        out[metric] = _median(p["self_s"].get(span, 0.0) for p in timed)
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    out["lle.row_sum_err"] = max(p["values"].get("lle.row_sum_err", 0.0) for p in passes)
    out["spectral.arnoldi_calls"] = sum(v for k, v in counts.items() if k.endswith(".arnoldi"))
    out["spectral.dense_calls"] = sum(v for k, v in counts.items() if k.endswith(".dense"))
    out["spectral.max_residual"] = max(p["values"].get("spectral.max_residual", 0.0)
                                       for p in passes)
    out["spectral.dense_flops_computed"] = values.get("spectral.dense_flops_computed", 0.0)
    written, read = values.get("io.bytes_written", 0), values.get("io.bytes_read", 0)
    out["io.bytes_written"], out["io.bytes_read"] = written, read
    out["io.write_mb_s"] = _median(
        written / 1e6 / max(sum(p["self_s"].get(s, 0.0) for s in WRITE_SPANS), 1e-9)
        for p in timed) if written else 0.0
    out["io.read_mb_s"] = _median(
        read / 1e6 / max(p["self_s"].get("io.load_matrix", 0.0), 1e-9)
        for p in timed) if read else 0.0
    out["pass.wall_s"] = _median(p["wall_s"] for p in timed)
    out["trace.overhead_s"] = _median(p["trace_overhead_s"] for p in timed)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, exit_on_sigterm)

    if not (SRC / "lleboundary" / "__init__.py").is_file():
        print(f"perfbench: no lleboundary sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread: with two, OpenBLAS's idle thread spins on the second
    # core, and on a shared 2-core host each wake-up of it can cost
    # milliseconds (README.md, Findings). Children inherit this.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if args.trace == 0 else "per_layer"]

    import oracle
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    machine = machine_record(args.seed)
    with tempfile.TemporaryDirectory(dir=OUT) as wd:
        checks = oracle.self_check(args.workload, Path(wd))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker = _child(env, WORKER_TIMEOUT_S, "--workload", args.workload, "--seed", args.seed,
                    "--mode", "passes", "--seconds", args.seconds, "--trace", args.trace,
                    "--trace-out", OUT / f"{tag}-spans.json", "--workdir", OUT)
    setups = [worker["setup_s"]] + [p["setup_probe_s"] for p in worker["passes"]
                                    if "setup_probe_s" in p]
    machine["loadavg_end"] = os.getloadavg()

    passes = worker["passes"]
    failed = sum(1 for p in passes if p["failed_checks"])
    computed = per_layer(worker) if args.trace else end_to_end(worker, setups)
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    correct = failed == 0 and all(checks.values())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "oracle": checks,
              "attempted": len(passes), "failed": failed, "fail_frac": failed / len(passes),
              "digest": passes[0]["digest"], "counts": passes[0]["counts"],
              "setup_samples_s": setups, "metrics": metrics, "computed": computed,
              "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "ref_s", "ref_samples",
                                               "failed_checks", "digest") if k in p}
                         for p in passes]}
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"(first is warm-up, medians over {len(passes) - 1}), "
          f"fail_frac {failed}/{len(passes)} = {failed / len(passes):.3f}")
    print(f"oracle self-check: {sum(checks.values())}/{len(checks)} hold"
          + "".join(f"; FAILED {k}" for k, ok in checks.items() if not ok))
    for p in passes:
        if p["failed_checks"]:
            print(f"failed pass: {p['failed_checks']}")
    print(f"digest {passes[0]['digest']}")
    if not args.trace:
        print(f"raw medians: pass wall {computed['wall_s']:.4f} s, cpu {computed['cpu_s']:.4f} s, "
              f"reference chunk {computed['ref_s'] * 1e3:.4f} ms "
              f"({computed['ref_samples']} chunks sampled in the timed passes)")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
