"""The one counting primitive: :class:`StatBlock`.

Every stats surface of the runtime (server, cluster, net front-end,
router, elastic controller, session pool, chunk cache) is a *declaration*
over this class — which fields it counts, what each one's registry
series is called — and nothing else.  The contract:

* the **instance block** is the per-object store: plain integer
  attributes (``stats.completed``), what :meth:`StatBlock.snapshot` and
  the tests read, alive even while metrics collection is switched off;
* the process-global :class:`~repro.obs.MetricsRegistry` is the
  **fleet-wide sum** of every block declared over the same series;
* :meth:`StatBlock.bump` is the only place the two move, so they cannot
  drift.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from .metrics import get_registry

__all__ = ["latency_summary", "StatBlock"]


def latency_summary(latencies) -> dict:
    """Mean/p50/p95 of a latency sample, NaN-safe on empty input.

    Shared by every per-block snapshot and the cluster-level merge so
    all of them report the same fields from the same math.
    """
    lat = np.asarray(latencies, dtype=np.float64)
    return {
        "latency_mean_s": float(lat.mean()) if lat.size else float("nan"),
        "latency_p50_s": (float(np.percentile(lat, 50))
                          if lat.size else float("nan")),
        "latency_p95_s": (float(np.percentile(lat, 95))
                          if lat.size else float("nan")),
    }


class StatBlock:
    """Per-instance integer counters mirrored into the metrics registry.

    A subclass declares its surface with class attributes: ``COUNTERS``
    maps a field to the help text of its ``{PREFIX}_{field}_total``
    counter, ``LABELED`` maps a field to the ``(metric, help, label,
    value)`` of one series in a labeled counter family, and ``LATENCY``
    (``(metric, help)`` or ``None``) gives the block a bounded latency
    window feeding that histogram.  Fields read as plain attributes and
    appear in :meth:`state_dict` / :meth:`snapshot` in declaration
    order (``COUNTERS`` first).
    """

    PREFIX = ""
    COUNTERS: dict = {}
    LABELED: dict = {}
    LATENCY: tuple | None = None

    def __init__(self):
        registry = get_registry()
        self._series = {
            f: (registry.counter(f"{self.PREFIX}_{f}_total", help_), {})
            for f, help_ in self.COUNTERS.items()}
        for f, (metric, help_, label, value) in self.LABELED.items():
            self._series[f] = (registry.counter(metric, help_,
                                                labels=(label,)),
                               {label: value})
        for f in self._series:
            setattr(self, f, 0)
        if self.LATENCY is not None:
            self.latencies: deque = deque(maxlen=4096)
            # appended by the serving loop, copied by snapshot() callers
            # on other threads; iterating a deque during an append
            # raises, so both sides lock
            self._latency_lock = threading.Lock()
            self._latency_histogram = registry.histogram(*self.LATENCY)

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the field ``name`` and to its registry series."""
        counter, labels = self._series[name]
        setattr(self, name, getattr(self, name) + n)
        counter.inc(n, **labels)

    def record_latency(self, seconds: float) -> None:
        """Append one latency sample to the window and the histogram."""
        with self._latency_lock:
            self.latencies.append(seconds)
        self._latency_histogram.observe(seconds)

    def state_dict(self) -> dict:
        """Picklable raw state: every field, plus the latency samples.

        What a cluster worker ships to the router for merging — unlike
        :meth:`snapshot` it keeps the raw latency list, because
        percentiles of percentiles are not percentiles.
        """
        state = {f: getattr(self, f) for f in self._series}
        if self.LATENCY is not None:
            with self._latency_lock:
                state["latencies"] = list(self.latencies)
        return state

    @classmethod
    def merge(cls, states) -> dict:
        """Merge :meth:`state_dict` dicts into one :meth:`snapshot` view.

        Fields sum (a missing one counts 0) and latency percentiles are
        computed over the concatenated samples.
        """
        states = list(states)
        counts = {f: sum(s.get(f, 0) for s in states)
                  for f in (*cls.COUNTERS, *cls.LABELED)}
        return cls._view(counts, [x for s in states
                                  for x in s.get("latencies", ())])

    @classmethod
    def _view(cls, counts: dict, latencies) -> dict:
        """Summed fields → snapshot dict; subclasses add derived keys."""
        if cls.LATENCY is not None:
            counts.update(latency_summary(latencies))
        return counts

    def snapshot(self) -> dict:
        """Plain-dict view of this block (what the ``stats`` verbs print)."""
        return self.merge([self.state_dict()])
