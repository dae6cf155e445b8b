"""Real and virtual monotonic clocks.

The simulated transport and the benchmark harness share one clock so that
virtual-clock runs time exactly the delays the simulation injects. Benchmarks
use the real clock; unit tests use the virtual one for determinism.
"""

from __future__ import annotations

import threading
import time


class RealClock:
    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock:
    """A clock that advances only when someone sleeps on it."""

    def __init__(self, start: float = 0.0):
        self._now = start
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if not seconds > 0:  # NaN too, which would stick to the clock for good
            return
        self._lock.acquire()  # cheaper than ``with``: every simulated read and write sleeps
        try:
            self._now += seconds
        finally:
            self._lock.release()
