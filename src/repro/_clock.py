"""The repository's single injectable clock source.

Before this module, the serve stack mixed clock domains: request
deadlines were absolute :func:`time.perf_counter` timestamps (the queue
contract) while the cluster's heartbeat aging and drain watchdogs read
:func:`time.monotonic`.  Both are monotonic, but they are *different
counters with different zeros* — a virtual-clock test could freeze one
domain while the other kept running, and deadline culling could drift
from heartbeat timeouts in ways no test could pin down.

Every serve-layer timestamp — and, since the observability layer
landed, every :mod:`repro.obs` span timestamp and every benchmark
timing loop — flows through :func:`now`.  The default source is
``time.perf_counter`` (preserving the queue's documented deadline
domain); tests inject a fake via :func:`set_clock` /
:func:`clock_override` and deadline culling, worker-health policing,
latency accounting *and* trace span durations advance together,
deterministically.  Scheduling sleeps (``Event.wait`` timeouts) stay on
the real clock — only *measurements and comparisons* go through here.

The module lives at the package root so that :mod:`repro.obs` can use
it without importing the serving layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable

__all__ = ["now", "get_clock", "set_clock", "clock_override", "ManualClock"]

_clock: Callable[[], float] = time.perf_counter


def now() -> float:
    """The serving layer's current time (seconds, monotonic domain)."""
    return _clock()


def get_clock() -> Callable[[], float]:
    """The active clock source callable."""
    return _clock


def set_clock(clock: Callable[[], float] | None) -> None:
    """Install a clock source; ``None`` restores ``time.perf_counter``."""
    global _clock
    _clock = time.perf_counter if clock is None else clock


@contextmanager
def clock_override(clock: Callable[[], float]):
    """Temporarily install a clock source (virtual-clock tests)."""
    prev = _clock
    set_clock(clock)
    try:
        yield clock
    finally:
        set_clock(prev)


class ManualClock:
    """A hand-stepped clock for deterministic time-domain tests.

    Call the instance for the current time; :meth:`advance` steps it.
    Injecting one via :func:`clock_override` drives deadline expiry,
    heartbeat aging and latency accounting from one number.
    """

    def __init__(self, start: float = 0.0):
        self.time = float(start)

    def __call__(self) -> float:
        return self.time

    def advance(self, seconds: float) -> float:
        """Move the clock forward (never backward); returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds} (negative)")
        self.time += seconds
        return self.time
