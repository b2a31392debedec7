"""Request intake for the serving layer: futures, deadlines, backpressure.

A serving request is *asynchronous by contract*: ``InferenceServer.submit``
returns a :class:`ServeFuture` immediately and the answer materializes when
the batcher flushes the batch containing the request.  The queue between
``submit`` and the batcher is where a production system meets overload, so
it is bounded: once ``max_depth`` requests are pending, further submissions
are rejected *with a reason* (:class:`QueueFullError` carries the depth and
the configured bound) instead of growing without limit — callers can shed
load or retry rather than watch latency climb.

Deadlines are absolute timestamps on the serving clock
(:func:`repro._clock.now` — ``time.perf_counter`` unless a test
injects a fake).  An expired
request is never executed: ``drain`` completes its future with
:class:`DeadlineExceededError` and reports it so the server's stats count
it.  All operations are thread-safe — the queue is the hand-off point
between caller threads and the server's worker loop.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .. import _clock

__all__ = [
    "ServeError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "ServeFuture",
    "Request",
    "RequestQueue",
]


class ServeError(RuntimeError):
    """Base class for serving-layer errors."""


class QueueFullError(ServeError):
    """Submission rejected: the request queue is at its bound.

    ``reason`` spells out the rejection (depth vs. bound) so callers and
    logs never see a bare "queue full".
    """

    def __init__(self, depth: int, max_depth: int):
        self.depth = depth
        self.max_depth = max_depth
        self.reason = (f"queue holds {depth} pending requests, "
                       f"bounded at max_depth={max_depth}")
        super().__init__(f"rejected: {self.reason}")


class DeadlineExceededError(ServeError):
    """The request's deadline passed before it could be executed."""


class ServerClosedError(ServeError):
    """Submission rejected: the server has been closed."""


class ServeFuture:
    """Write-once result slot for one request.

    The consumer half of the contract: ``done()`` polls, ``result(timeout)``
    blocks until the server resolves the request (returning the value or
    raising the recorded exception).  The producer half (``set_result`` /
    ``set_exception``) is called exactly once by the serving loop.
    """

    def __init__(self):
        self._event = threading.Event()
        self._value: Any = None
        self._exception: BaseException | None = None
        #: The dataset ``graph_version`` the result was computed at, or
        #: ``None`` (unresolved, failed, or a version-less workload).
        #: Clients compare it against the submit-time version to detect
        #: results computed against stale topology — the streaming
        #: staleness contract (docs/streaming.md).
        self.graph_version: int | None = None
        #: Serving-clock instant the producer resolved this future, or
        #: ``None`` while pending (load generators read it to compute
        #: per-request latency under a virtual clock).
        self.resolved_at: float | None = None

    def done(self) -> bool:
        """True once the request has resolved (result or exception)."""
        return self._event.is_set()

    def set_result(self, value: Any, graph_version: int | None = None) -> None:
        """Resolve with a value (producer side; exactly once).

        ``graph_version`` stamps the result with the dataset version it
        was computed at (readable as ``future.graph_version``).
        """
        if self._event.is_set():
            raise ServeError("future already resolved")
        self._value = value
        self.graph_version = graph_version
        self._event.set()

    def set_exception(self, exc: BaseException) -> None:
        """Resolve with an exception (producer side; exactly once)."""
        if self._event.is_set():
            raise ServeError("future already resolved")
        self._exception = exc
        self._event.set()

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; the recorded exception, or ``None``."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        return self._exception

    def result(self, timeout: float | None = None) -> Any:
        """Block until resolved; the value, or raise what the server set."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        if self._exception is not None:
            raise self._exception
        return self._value


@dataclass
class Request:
    """One enqueued inference request.

    ``config_key`` is the :func:`~repro.serve.pool.config_key` hash of the
    request's :class:`~repro.api.RunConfig` — with the queried graph's
    identity it forms the micro-batcher's coalescing key
    (:attr:`batch_key`).  ``kind`` is ``"nodes"`` (node-level logits),
    ``"graphs"`` (per-graph outputs for ``indices``), or ``"mutate"``
    (a :class:`~repro.stream.GraphDelta` application, carried in
    ``delta``).  ``deadline`` is an absolute serving-clock timestamp
    (:func:`repro._clock.now`) or ``None``; expiry is inclusive
    (see :meth:`expired`).

    ``trace`` is the request's root :class:`~repro.obs.TraceContext`
    (``None`` unless tracing was on at submit); the pipeline stamps
    ``drained_at`` when the request leaves the queue so the
    ``queue_wait`` / ``batch`` span boundary is exact.
    """

    id: int
    config: Any  # RunConfig (kept untyped to avoid an api import cycle)
    config_key: str
    kind: str
    nodes: np.ndarray | None = None
    indices: np.ndarray | None = None
    enqueued_at: float = 0.0
    deadline: float | None = None
    future: ServeFuture = field(default_factory=ServeFuture)
    delta: Any = None  # GraphDelta for kind == "mutate"
    expected_version: int | None = None  # mutate exactly-once guard
    strict_version: bool = False  # refuse (not stamp over) version gaps
    min_version: int | None = None  # version-pinned read (replica steering)
    trace: Any = None  # TraceContext when tracing is enabled
    drained_at: float = 0.0  # when the queue handed the request onward

    @property
    def batch_key(self) -> tuple[str, str, str]:
        """The micro-batching coalescing key (config × kind × graph).

        The graph is the full dataset graph or this exact node array
        (values *and* order are hashed) — requests coalesce only when
        their answers are bitwise interchangeable.
        """
        graph = ("full-graph" if self.nodes is None else
                 hashlib.sha1(self.nodes.tobytes()).hexdigest()[:16])
        return (self.config_key, self.kind, graph)

    def expired(self, now: float) -> bool:
        """Whether the deadline (if any) has passed at time ``now``.

        The boundary is **inclusive**: at ``now == deadline`` the
        request is expired.  A deadline is the first instant the result
        is no longer useful, and an open-loop virtual clock stepping
        exactly onto it must agree with a wall clock that sailed past —
        the strict ``>`` it once used made that one instant disagree.
        """
        return self.deadline is not None and now >= self.deadline


class RequestQueue:
    """Bounded, thread-safe FIFO of :class:`Request` with deadline culling."""

    def __init__(self, max_depth: int = 256):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._items: deque[Request] = deque()
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def push(self, request: Request, now: float | None = None) -> None:
        """Enqueue or reject-with-reason (:class:`QueueFullError`)."""
        now = _clock.now() if now is None else now
        with self._cond:
            if len(self._items) >= self.max_depth:
                raise QueueFullError(len(self._items), self.max_depth)
            request.enqueued_at = now
            self._items.append(request)
            self._cond.notify()

    def drain(self, now: float | None = None,
              max_items: int | None = None,
              on_expired: Callable[[Request], None] | None = None,
              ) -> list[Request]:
        """Pop up to ``max_items`` live requests, resolving expired ones.

        Expired requests get :class:`DeadlineExceededError` set on their
        future and are handed to ``on_expired`` (for stats) instead of
        being returned.
        """
        now = _clock.now() if now is None else now
        out: list[Request] = []
        with self._cond:
            while self._items and (max_items is None or len(out) < max_items):
                req = self._items.popleft()
                if req.expired(now):
                    req.future.set_exception(DeadlineExceededError(
                        f"request {req.id} missed its deadline by "
                        f"{now - req.deadline:.4f}s before execution"))
                    req.future.resolved_at = now
                    if on_expired is not None:
                        on_expired(req)
                    continue
                out.append(req)
        return out

    def wait_nonempty(self, timeout: float | None = None) -> bool:
        """Block until a request is queued (worker-loop idle wait)."""
        with self._cond:
            if self._items:
                return True
            return self._cond.wait(timeout)
