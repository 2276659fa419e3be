"""Wall time scaled to a reference host speed.

On a shared virtual machine the same code can run up to twice as slowly at
one moment as at another, and the speed changes within seconds.  A
``SpeedGauge`` runs a fixed pure-Python probe every ``PERIOD_S`` seconds
from a thread of its own.  Each stretch of wall time up to a probe counts as its
length times ``REF_PROBE_S`` over that probe's duration.  The sum is the
time the same work would take on a host where the probe takes
``REF_PROBE_S``: the host's speed divides out, while a change in the work
itself still shows in full.  The probe mixes integer arithmetic with
lookups of tuple keys in a dict, the two kinds of work the workloads spend
their time on; either alone tracked the workloads' slow-downs less closely.
The probe runs in a thread, not in a timer signal handler: with any Python
signal handler installed, the ``scale`` workload peaked 36% higher in
resident memory.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.2
REF_PROBE_S = 0.002
TABLE = {(i, i & 7): i for i in range(4096)}


class SpeedGauge:
    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.scaled = 0.0
        self.lock = threading.Lock()
        self.stopping = threading.Event()
        self.thread = threading.Thread(target=self._probe_until_stopped, daemon=True)

    def start(self) -> None:
        self.probe()
        self.thread.start()

    def stop(self) -> None:
        self.stopping.set()
        self.thread.join()

    def _probe_until_stopped(self) -> None:
        while not self.stopping.wait(PERIOD_S):
            self.probe()

    def probe(self) -> float:
        """Run the probe; returns the scaled seconds counted up to its end."""
        with self.lock:
            start = time.perf_counter()
            total = 0
            for i in range(10_000):
                total += i * i % 7
            for i in range(3_000):
                total += TABLE.get((i, i & 7), 1)
            end = time.perf_counter()
            duration = end - start
            if self.ends:
                self.scaled += (end - self.ends[-1]) * REF_PROBE_S / duration
            self.ends.append(end)
            self.durations.append(duration)
            return self.scaled

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time at the first probe's speed."""
        return seconds * REF_PROBE_S / self.durations[0]

    def probe_ms(self) -> float:
        return statistics.median(self.durations) * 1000.0
