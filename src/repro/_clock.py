"""The repository's single injectable clock source.

Every serve-layer timestamp and decision — request deadlines, heartbeat
aging, latency accounting — and every :mod:`repro.obs` span and
benchmark timing loop reads :func:`now`.  The default source is
``time.perf_counter``; tests inject a fake via :func:`set_clock` /
:func:`clock_override`, and deadline culling, worker-health policing,
latency accounting and trace spans then advance together,
deterministically.  The serving tiers have one wait
(:meth:`repro.serve.ServeTier._wait_for`): it never sleeps when only
the caller can move the work, and its one wall-clock reading is the
watchdog bounding a real wait on worker processes.

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
