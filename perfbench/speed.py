"""Reference time: wall time scaled by the measured speed of the host.

On a shared host the same code runs up to ~1.8 times slower for stretches
of a second to minutes while other tenants load the machine; CPU time
slows as much as wall time, so neither can be compared between runs made
at different moments.  The benchmark therefore runs a fixed probe between
ops and scales each op's wall time by

    PROBE_REF_S / (mean of the probe times just before and just after the op)

which gives the op's time at the speed at which the probe takes exactly
PROBE_REF_S: "reference seconds".  The probe runs no `mmv` code, so a change
to `mmv` moves reference times in full; the raw wall times are printed too.

The probe is a small numpy kernel of the kind the scanner runs, on integer
arrays of a few hundred KB.  Its slow-downs followed those of all four
workloads (numpy scans, Fraction arithmetic and process start alike) more
closely than a pure-Python loop's did.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# About the probe's best time on the reference host (a 2-core KVM guest,
# "Intel(R) Xeon(R) Processor", 2.0 GHz, Python 3.11, numpy 2.4), so
# reference seconds read close to wall seconds there when it is quiet.
PROBE_REF_S = 2.0e-3
# Op time between two probes: short enough to follow the host's changes of
# speed, long enough that probes cost a few percent of a run.
PROBE_GAP_S = 0.1
PROBE_ROWS = 16384
PROBE_ROUNDS = 2
PROBE_REPEATS = 2


class Probe:
    """Times a fixed kernel: implication, strong conjunction, box, ones mask."""

    def __init__(self) -> None:
        rows = np.arange(PROBE_ROWS * 3, dtype=np.int64).reshape(-1, 3)
        self._a = rows * 7919 % 4
        self._b = rows * 104729 % 4

    def _kernel(self) -> np.ndarray:
        a, b = self._a, self._b
        impl = np.minimum(3, 3 - a + b)
        star = np.maximum(0, a + impl - 3)
        box = star.min(axis=1, keepdims=True)
        return (impl == 3).all(axis=1) & (box[:, 0] < 3)

    def __call__(self) -> float:
        """Seconds the kernel takes now: the best of a few back-to-back runs.

        Garbage collection is off meanwhile, so objects an op left behind
        cannot slow the probe.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(PROBE_REPEATS):
                start = perf_counter()
                for _ in range(PROBE_ROUNDS):
                    self._kernel()
                best = min(best, perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return best


class Clock:
    """Turns the wall times of consecutive ops into reference times.

    Call `add` after each op with its wall time; the op's reference time is
    known once the next probe has run, which `add` does after every
    PROBE_GAP_S of op time and `flush` does at once.
    """

    def __init__(self, on_scaled) -> None:
        self._on_scaled = on_scaled  # called as on_scaled(index, reference_seconds)
        self._probe = Probe()
        self._pending: list[tuple[int, float]] = []
        self._since = 0.0
        self._last = self._probe()
        self.probes = [self._last]

    def add(self, index: int, wall: float) -> None:
        self._pending.append((index, wall))
        self._since += wall
        if self._since >= PROBE_GAP_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = self._probe()
        scale = PROBE_REF_S / ((self._last + now) / 2)
        for index, wall in self._pending:
            self._on_scaled(index, wall * scale)
        self._pending.clear()
        self._since = 0.0
        self._last = now
        self.probes.append(now)
