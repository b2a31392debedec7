"""Timing, span recording and failure accounting shared by every workload.

Nothing here touches ``repro``: spans are recorded by the benchmark's own
files around the calls it makes into the program, kept in memory, and
written out only when the run ends.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager

import numpy as np

now = time.perf_counter

OUTCOMES = ("ok", "failed", "refused", "mismatched")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Max RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Tally:
    """Every attempted operation lands in exactly one outcome, per phase.

    ``failed`` = raised an error, ``refused`` = the server declined it
    (admission, backpressure, deadline), ``mismatched`` = completed but
    the oracle or an assertion disagreed.  Anything but ``ok`` counts
    against the run.
    """

    def __init__(self):
        self.phases: dict[str, dict[str, int]] = {}
        self.notes: list[str] = []

    def add(self, phase: str, outcome: str = "ok", n: int = 1) -> None:
        self.phases.setdefault(phase, dict.fromkeys(OUTCOMES, 0))[outcome] += n

    def check(self, phase: str, ok: bool, what: str) -> bool:
        """Count one assertion; a false one is a ``mismatched`` operation."""
        self.add(phase, "ok" if ok else "mismatched")
        if not ok:
            self.notes.append(f"{phase}: {what}")
        return bool(ok)

    def error(self, phase: str, exc: BaseException, refused: bool = False) -> None:
        self.add(phase, "refused" if refused else "failed")
        self.notes.append(f"{phase}: {type(exc).__name__}: {exc}")

    @property
    def attempted(self) -> int:
        return sum(sum(p.values()) for p in self.phases.values())

    @property
    def failed(self) -> int:
        return self.attempted - sum(p["ok"] for p in self.phases.values())

    def render(self) -> list[str]:
        lines = [f"  {phase:<22}" + "  ".join(f"{k} {v}" for k, v in counts.items())
                 for phase, counts in self.phases.items()]
        return lines + [f"  ! {note}" for note in self.notes[:20]]


class Spans:
    """In-memory span log: (name, start, end, parent, workload) per call."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = now()
        try:
            yield
        finally:
            end = now()
            self._stack.pop()
            self.records.append({"name": name, "start": start, "end": end,
                                 "parent": parent, "workload": self.workload})

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def seconds(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def median_ms(self, name: str) -> float:
        return median(self.seconds(name)) * 1e3

    def repeat(self, name: str, fn, inner: int = 1, outer: int = 5) -> float:
        """Inner × outer repeats; seconds per call, median of the outers.

        One untimed call first, so lazy set-up inside ``fn`` is not
        billed to the first outer.
        """
        fn()
        per_call = []
        for _ in range(outer):
            with self.span(name):
                for _ in range(inner):
                    fn()
            rec = self.records[-1]
            rec["inner"] = inner
            per_call.append((rec["end"] - rec["start"]) / inner)
        return median(per_call)
