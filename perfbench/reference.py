"""A fixed reference computation, sampled during every pass to cancel machine drift.

On a shared host the speed of a core drifts by tens of percent over
fractions of a second to minutes, as other tenants load it, and a run's
median pass time in seconds follows that drift. :class:`Sampler` measures
the drift where it happens: while a pass runs, a timer interrupts it every
``INTERVAL_S`` and times one :meth:`Reference.chunk`, a fixed piece of work
of a few milliseconds. The chunk uses numpy, scipy and the interpreter
only, never ``lleboundary``, so no change to the program can alter it. It
mixes the kinds of work a pass does: interpreted loops
(``partition_regions``), float text formatting and parsing
(``save_matrix``/``load_matrix``), a sparse matrix-vector product
(Arnoldi), small dense solves (the barycentric rows), a small dense
eigensolve (the null case) and an integer sort (the neighbor grid). The
time spent in chunks is taken out of the pass's time.

The interrupts reach Python between bytecodes, so during one long call into
native code (a dense eigensolve) the next sample waits until the call
returns. Samples are therefore dense in interpreted stretches and sparse in
native ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

REF_SEED = 20181110  # fixed: the reference's inputs never depend on --seed
INTERVAL_S = 0.1  # wall seconds between samples while a pass runs


class Reference:
    """Fixed inputs built once; :meth:`chunk` is one piece of work on them."""

    def __init__(self):
        rng = np.random.default_rng(REF_SEED)
        self.sparse = sp.random(5000, 5000, density=4e-3, format="csr",
                                random_state=np.random.default_rng(REF_SEED))
        self.vector = rng.standard_normal(5000)
        self.small = [m @ m.T + 64.0 * np.eye(64) for m in rng.standard_normal((4, 64, 64))]
        self.rhs = rng.standard_normal(64)
        self.dense = rng.standard_normal((40, 40))
        self.floats = rng.standard_normal(300)
        self.keys = rng.integers(0, 512, size=8000)

    def chunk(self) -> float:
        # bisection for x with x + sin(x) = t, as partition_regions inverts b_function
        total = 0.0
        for i in range(150):
            t, lo, hi = 0.04 * i, 0.0, 10.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if mid + math.sin(mid) < t:
                    lo = mid
                else:
                    hi = mid
            total += lo
        text = "\n".join(repr(v) for v in self.floats.tolist())
        total += sum(float(s) for s in text.split("\n"))
        total += float((self.sparse @ self.vector)[0])
        total += sum(float(np.linalg.solve(a, self.rhs)[0]) for a in self.small)
        total += float(np.abs(np.linalg.eigvals(self.dense)).max())
        total += float(np.bincount(np.sort(self.keys), minlength=512)[0])
        return total


class Sampler:
    """While active, times one reference chunk every ``INTERVAL_S`` of wall time.

    ``durations`` holds the wall seconds of each chunk of the last
    activation; ``spent_wall`` and ``spent_cpu`` the time the interrupting
    chunks took, which the caller subtracts from what it timed inside the
    ``with`` block. An activation without any interrupt times one chunk on
    leaving, outside that block, so ``durations`` is never empty.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.durations: list = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False
        self._previous = None

    def _time_chunk(self) -> tuple:
        w0, c0 = time.perf_counter(), time.process_time()
        self.reference.chunk()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.durations.append(wall)
        return wall, cpu

    def _interrupt(self, signum, frame) -> None:
        if self._busy:  # a late interrupt while a chunk still runs
            return
        self._busy = True
        try:
            wall, cpu = self._time_chunk()
            self.spent_wall += wall
            self.spent_cpu += cpu
        finally:
            self._busy = False

    def ref_s(self) -> float:
        """Mean chunk time of the last activation: the host's speed over it."""
        return statistics.fmean(self.durations)

    def __enter__(self) -> "Sampler":
        self.durations, self.spent_wall, self.spent_cpu = [], 0.0, 0.0
        self._previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.durations:
            self._time_chunk()
