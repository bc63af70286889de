"""Host-speed calibration: times rescaled to a fixed reference speed.

On a shared 2-vCPU host the speed of the same deterministic code switches
between phases up to about 2x apart that last from under a second to tens
of seconds, and CPU time drifts exactly as wall time does (the slowdown is
contention for the core, not time spent descheduled). A best-of-K or a
median over the few repetitions that fit in a run cannot remove a phase that
covers the whole run, so the benchmark samples the host's speed while it
measures and reports every timed interval in reference seconds:

    reference seconds = integral over the interval of REF_S[kernel] / k(t)

where k(t) is the time of a fixed ~1 ms calibration kernel run at instant
t. Contention slows interpreter-bound code (and compute-bound BLAS) up to 2x
but barely moves elementwise NumPy passes over arrays that live in L3, so
there are two kernels, and each timed interval uses the one its code
resembles: `memory` (an elementwise max/min pass over a 4.7 MB array) for
the functions in MEMORY_BOUND, which is the max-min closure, and `interp`
(dictionary, integer and small-array work) for everything else. A third, `startup`, is `interp` without the
arrays, for timing the import of NumPy itself. The kernels belong to the benchmark, not to
reqsel, so a change to reqsel cannot move them. Inside a `sampling()` block
a timer signal runs a probe (best of two runs of each kernel) every
INTERVAL_S; probe time is taken out of every interval it falls in. Between
two probes the factor is the mean of theirs. Each REF_S entry is that
kernel's time in a fast phase of the host the benchmark was written on, so
reference seconds read close to wall seconds on an uncontended core.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

PROBE_RUNS = 2
INTERVAL_S = 0.1


def _loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += (i * 7) % 13
    return acc


# Kernel factories: each returns the kernel, with its arrays made, so that a
# probe allocates no array in the middle of the work it measures. Only
# `startup` needs no NumPy, so it alone can time the import of NumPy.
def _startup_kernel():
    return _loop


def _interp_kernel():
    import numpy as np

    array = np.arange(4096, dtype=np.float64)
    scratch = np.empty_like(array)

    def kernel() -> float:
        total = float(_loop())
        for _ in range(20):
            total += float(np.multiply(array, 1.0001, out=scratch).sum())
        return total

    return kernel


def _memory_kernel():
    import numpy as np

    grid = np.random.default_rng(0).random((768, 768))
    col, row = grid[:, :1].copy(), grid[:1, :].copy()
    scratch = np.empty_like(grid)

    def kernel() -> float:
        np.maximum(grid, np.minimum(col, row, out=scratch), out=grid)
        return float(grid[0, 0])

    return kernel


KERNELS = {"startup": _startup_kernel, "interp": _interp_kernel, "memory": _memory_kernel}
REF_S = {"startup": 0.77e-3, "interp": 0.8e-3, "memory": 0.92e-3}
# reqsel functions (named as their spans are) timed against `memory`: the
# max-min closure is elementwise NumPy over an 11.5 MB matrix
MEMORY_BOUND = frozenset({"dependency_graph.propagate_strengths"})


def kernel_for(name: str) -> str:
    return "memory" if name in MEMORY_BOUND else "interp"


class Speed:
    """The calibration probes of one process, in time order."""

    def __init__(self, kernels: tuple[str, ...] = ("interp", "memory")) -> None:
        self.kernels = {name: KERNELS[name]() for name in kernels}
        self.starts: list[float] = []
        self.ends: list[float] = []
        # per kernel, REF_S / kernel time of each probe
        self.factors: dict[str, list[float]] = {name: [] for name in kernels}
        self._probing = False

    @property
    def probe_s(self) -> float:
        return sum(self.ends) - sum(self.starts)

    def probe(self) -> None:
        self._probing = True
        try:
            start = time.perf_counter()
            for name, fn in self.kernels.items():
                best = float("inf")
                for _ in range(PROBE_RUNS):
                    k0 = time.perf_counter()
                    fn()
                    best = min(best, time.perf_counter() - k0)
                self.factors[name].append(REF_S[name] / best)
            self.starts.append(start)
            self.ends.append(time.perf_counter())
        finally:
            self._probing = False

    def _on_alarm(self, signum, frame) -> None:
        # A tick held back by a long native call can land inside the probe
        # it then runs; the handler would re-enter. Probes must not overlap.
        if not self._probing:
            self.probe()

    @contextlib.contextmanager
    def sampling(self):
        """Probe at the start, every INTERVAL_S while the block runs, and at the end."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def measured_seconds(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] outside the probes."""
        return t1 - t0 - sum(
            min(e, t1) - max(s, t0) for s, e in self._overlapping(t0, t1)
        )

    def reference_seconds(self, t0: float, t1: float, kernel: str = "interp") -> float:
        """[t0, t1] outside the probes, weighted by the kernel's speed factor."""
        factors = self.factors[kernel]
        i = bisect.bisect_right(self.ends, t0)  # first probe ending after t0
        if i == 0 or i >= len(factors):
            raise ValueError("interval not bracketed by probes; time it inside sampling()")
        total, t = 0.0, t0
        while t < t1:
            # gap between probe i-1 and probe i, then probe i itself
            gap_end = min(self.starts[i], t1)
            if gap_end > t:
                total += (gap_end - t) * 0.5 * (factors[i - 1] + factors[i])
            t = max(t, self.ends[i])
            i += 1
            if i >= len(factors) and t < t1:
                raise ValueError("interval not bracketed by probes; time it inside sampling()")
        return total

    def _overlapping(self, t0: float, t1: float):
        i = bisect.bisect_right(self.ends, t0)
        while i < len(self.starts) and self.starts[i] < t1:
            yield self.starts[i], self.ends[i]
            i += 1

    def summary(self) -> str:
        return f"probes={len(self.starts)} probe_s={self.probe_s:.3f} " + " ".join(
            f"{k} factor min={min(f):.3f} median={statistics.median(f):.3f} max={max(f):.3f}"
            for k, f in self.factors.items()
        )
