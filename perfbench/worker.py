"""One workload process: start-up, input sampling and the checked passes.

``run.py`` starts this script in a fresh interpreter, so its time from
launch to a sampled cloud is the set-up every command-line invocation pays,
and its peak resident memory is the workload's own. Modes:

``--mode setup``
    import and sample, print ``{"setup_s": ...}`` and exit.
``--mode passes``
    then run one warm-up pass and timed passes until ``--seconds`` is spent,
    and print one JSON object with every pass on the last line. Untraced,
    the reference sampler (``reference.py``) runs during each pass, and its
    time is taken out of the pass's; and a set-up probe (this script in
    ``--mode setup``) runs after a pass whenever ``PROBE_EVERY_S`` have gone
    by since the last, so that the set-up samples spread over the run.

``--t0`` is the parent's ``time.monotonic()`` just before launch; on Linux
it is the same clock in both processes.
"""

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from lleboundary.harness import sample

from reference import Reference, Sampler
from workloads import WORKLOADS, Tracer, run_checked_pass

MIN_TIMED_PASSES = 3
SAMPLE_REPEATS = 5  # traced runs re-sample to time samplers.sample_s
PROBE_TIMEOUT_S = 30
PROBE_EVERY_S = 3.0


def exit_on_sigterm(signum, frame):
    """SIGTERM handler: unwind, so that a running set-up probe is stopped."""
    raise SystemExit(128 + signum)


def setup_probe(workload: str, seed: int) -> float:
    """Launch-to-cloud seconds of a fresh interpreter running ``--mode setup``."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                           "--t0", repr(t0), "--mode", "setup"],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _passes(workload, cloud, seconds: float, tracer: Tracer, workdir: Path, probe=None) -> list:
    """Checked passes until ``seconds`` are spent.

    Untraced (``tracer`` disabled), each pass runs under the reference
    sampler, and ``probe``, when given, times a set-up every ``PROBE_EVERY_S``.
    """
    records = []
    sampler = None if tracer.enabled else Sampler(Reference())
    begin = last_probe = time.perf_counter()
    while True:
        tracer.pass_id = len(records)
        with sampler or nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            res = run_checked_pass(workload, cloud, tracer, workdir)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        record = {"wall_s": wall, "cpu_s": cpu}
        if sampler:
            record = {"wall_s": wall - sampler.spent_wall, "cpu_s": cpu - sampler.spent_cpu,
                      "ref_s": sampler.ref_s(), "ref_samples": len(sampler.durations)}
        digest = res.digest()
        if records and digest != records[0]["digest"]:
            res.failed_checks.append("digest_differs_from_first_pass")
        records.append({**record, "failed_checks": res.failed_checks,
                        "digest": digest, "counts": res.counts, "values": res.values,
                        "self_s": tracer.self_times(tracer.pass_id) if tracer.enabled else {},
                        "trace_overhead_s": tracer.overhead.get(tracer.pass_id, 0.0)})
        del res  # its artifacts would otherwise stay alive through the next pass
        if probe is not None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            records[-1]["setup_probe_s"] = probe()
            last_probe = time.perf_counter()
        elapsed = time.perf_counter() - begin
        timed = len(records) - 1  # the first pass is the warm-up
        typical = statistics.median(r["wall_s"] for r in records)
        if timed >= MIN_TIMED_PASSES and elapsed + typical > seconds:
            return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "passes"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, exit_on_sigterm)

    workload = WORKLOADS[args.workload]
    cfg = replace(workload.config, seed=args.seed)
    cloud = sample(cfg)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sample_s = []
    if args.trace:
        for _ in range(SAMPLE_REPEATS):
            t = time.perf_counter()
            sample(cfg)
            sample_s.append(time.perf_counter() - t)
    tracer = Tracer(bool(args.trace))
    with tempfile.TemporaryDirectory(dir=args.workdir) as wd:
        records = _passes(workload, cloud, args.seconds, tracer, Path(wd),
                          None if args.trace else lambda: setup_probe(args.workload, args.seed))
    if args.trace and args.trace_out:
        tracer.dump(args.trace_out)
    print(json.dumps({
        "setup_s": setup_s, "points": cloud.n, "sample_s": sample_s, "passes": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
