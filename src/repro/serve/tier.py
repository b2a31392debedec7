"""The serving-backend contract shared by every request tier.

:class:`~repro.serve.InferenceServer` and
:class:`~repro.serve.ServingCluster` are the same contract one level
apart, so what a caller can observe of a *tier* is written here once:
:class:`ServeTier` owns the intake (``submit``), the exactly-once
resolve, the driven/threaded loop (``run_until_idle``, ``start`` /
``stop``), the close order and the operator surface (``wal_for``,
``replica_lag``, ``set_tracing``, ``trace_spans``, ``obs_snapshot``); a
concrete tier adds ``step``, ``submit_delta``, ``graph_version``,
``pending``, ``stats_snapshot`` and three private hooks.  Anything that
is a :class:`ServeTier` can sit behind :class:`~repro.net.NetServer`,
the CLI or the load generators without the caller knowing which one it
holds (the method table is in ``docs/serving.md``).

:class:`ThreadDriven` is the thread scaffold alone — also what
:class:`~repro.net.NetServer`, a loop but not a request tier, is built
on.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from .. import _clock
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer, set_tracing
from .pool import config_key
from .queue import (
    DeadlineExceededError,
    Request,
    RequestQueue,
    ServeFuture,
    ServerClosedError,
)

__all__ = ["ThreadDriven", "ServeTier"]


class ThreadDriven:
    """Run an object's ``_loop_once()`` rounds on a background thread.

    A subclass is *driven* by calling its own round method directly
    (deterministic — tests, load generators, benchmarks) or *threaded*
    through :meth:`start` / :meth:`stop`, which spin the same rounds on
    a daemon thread.  ``with obj:`` closes on exit.
    """

    def __init__(self):
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    def start(self):
        """Run the rounds on a background thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-{type(self).__name__}",
            daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop_event.is_set():
            self._loop_once()

    def stop(self) -> None:
        """Stop the background thread (a no-op when none is running)."""
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join()
        self._thread = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServeTier(ThreadDriven):
    """Base of the request tiers: one intake, one resolve, one loop.

    Owns the bounded :class:`~repro.serve.RequestQueue`, the request-id
    counter and the closed flag.  ``stats`` is the tier's
    :class:`~repro.obs.stats.StatBlock`, declaring the ``submitted`` /
    ``rejected`` / ``completed`` / ``expired`` / ``failed`` counters
    and a latency window — all the shared paths count into.
    """

    #: The tier's single :class:`~repro.stream.MutationLog`, for tiers
    #: that hold exactly one (see :meth:`wal_for`).
    wal = None

    def __init__(self, stats, max_queue_depth: int):
        super().__init__()
        self.queue = RequestQueue(max_depth=max_queue_depth)
        self.stats = stats
        self._ids = itertools.count()  # next() is atomic: no lock needed
        self._closed = False
        self._submit_lock = threading.Lock()

    # -- intake ----------------------------------------------------------- #
    def submit(self, config, nodes: np.ndarray | None = None,
               indices: np.ndarray | None = None,
               timeout: float | None = None,
               now: float | None = None, trace=None,
               min_version: int | None = None) -> ServeFuture:
        """Enqueue one inference request; returns its future immediately.

        Node-level configs take ``nodes`` (a node-id array; ``None`` =
        full-graph logits), graph-level configs take ``indices`` (graph
        ids; ``None`` = every graph) — the same contract as
        :meth:`repro.api.Session.predict`.  ``timeout`` (seconds from
        submission) sets the request deadline: a request still queued
        past it resolves with :class:`DeadlineExceededError` instead of
        executing, and a result that arrives past it is dropped the
        same way.  Raises :class:`~repro.serve.queue.QueueFullError`
        (backpressure) or :class:`ServerClosedError` synchronously.

        ``trace`` parents the request's trace under an upstream
        :class:`~repro.obs.TraceContext` (a network front-end's span,
        or the router's dispatch span across a process boundary).
        ``min_version`` pins the read to a graph version: rejected
        synchronously (``ValueError``) when the tier has not reached
        it.  A single server always serves its newest version, so a
        satisfiable pin is a no-op there; a cluster may steer the read
        to a caught-up read replica.
        """
        now = _clock.now() if now is None else now
        kind = "nodes" if config.data.task_kind == "node" else "graphs"
        if min_version is not None:
            min_version = int(min_version)
            if min_version < 0:
                raise ValueError(
                    f"min_version must be non-negative, got {min_version}")
            if kind != "nodes":
                raise ValueError(
                    "min_version applies to node-level configs (graph-"
                    "level datasets are frozen)")
            current = self.graph_version(config)
            if min_version > current:
                raise ValueError(
                    f"min_version {min_version} is ahead of the version "
                    f"this tier serves ({current})")
        if kind == "nodes" and indices is not None:
            raise ValueError("indices= applies to graph-level configs; "
                             "use nodes= for node-level configs")
        if kind == "graphs" and nodes is not None:
            raise ValueError("nodes= applies to node-level configs; "
                             "use indices= for graph-level configs")
        if nodes is not None:
            nodes = np.asarray(nodes, dtype=np.int64)
        if indices is not None:
            indices = np.asarray(indices, dtype=np.int64)
        return self._new_request(config, kind, now, timeout, trace,
                                 nodes=nodes, indices=indices,
                                 min_version=min_version)

    def submit_delta(self, config, delta, timeout: float | None = None,
                     now: float | None = None,
                     expected_version: int | None = None,
                     trace=None, strict_version: bool = False) -> ServeFuture:
        """Enqueue one :class:`~repro.stream.GraphDelta`; its future
        resolves with the ``graph_version`` the delta produced."""
        raise NotImplementedError

    @staticmethod
    def _require_node_config(config) -> None:
        if config.data.task_kind != "node":
            raise ValueError(
                "submit_delta supports node-level configs; graph-level "
                "datasets are collections of independent frozen graphs")

    def _check_open(self) -> None:
        """Refuse intake once closed (call holding ``_submit_lock``)."""
        if self._closed:
            self.stats.bump("rejected")
            raise ServerClosedError(
                f"{type(self).__name__} is closed; submissions rejected")

    def _new_request(self, config, kind: str, now: float,
                     timeout: float | None, trace, **fields) -> ServeFuture:
        """Mint one request and queue it, as a single atomic step:
        :meth:`close` sets the closed flag under the same lock and then
        drains, so a request can never slip into the queue after the
        final drain and hang its future."""
        with self._submit_lock:
            self._check_open()
            request = Request(
                id=next(self._ids), config=config,
                config_key=config_key(config), kind=kind,
                deadline=None if timeout is None else now + timeout,
                **fields)
            tracer = get_tracer()
            if tracer.enabled:
                request.trace = tracer.new_context(parent=trace)
            try:
                self.queue.push(request, now=now)
            except Exception:
                self.stats.bump("rejected")
                raise
        self.stats.bump("submitted")
        return request.future

    def _on_expired(self, request: Request) -> None:
        # fired by queue.drain: the deadline passed while still queued,
        # so the request resolved before any execution
        self.stats.bump("expired")

    # -- resolve ---------------------------------------------------------- #
    def _resolve(self, request: Request, now: float, value=None,
                 version: int | None = None,
                 error: BaseException | None = None) -> int:
        """Settle one request's future exactly once; 1 if this call did.

        A future already settled (expired in the queue, answered by a
        faster duplicate) is left alone.  Otherwise, in order:
        ``expired`` when ``now`` is at or past the deadline (the late
        result is dropped), ``failed`` with ``error``, else
        ``completed`` with ``value`` stamped ``graph_version=version``
        — which also feeds the latency window and, when tracing, closes
        the request's ``queue_wait`` and ``request`` spans.
        """
        future = request.future
        if future.done():
            return 0
        if request.expired(now):
            error = DeadlineExceededError(
                f"request {request.id} completed after its deadline; "
                "result dropped")
            outcome = "expired"
        else:
            outcome = "completed" if error is None else "failed"
        if error is None:
            future.set_result(value, graph_version=version)
        else:
            future.set_exception(error)
        future.resolved_at = now
        self.stats.bump(outcome)
        if error is not None:
            return 1
        self.stats.record_latency(now - request.enqueued_at)
        tracer = get_tracer()
        if tracer.enabled and request.trace is not None:
            tracer.record("queue_wait", request.enqueued_at,
                          request.drained_at or request.enqueued_at,
                          parent=request.trace)
            tracer.record("request", request.enqueued_at, now,
                          ctx=request.trace,
                          attrs={"id": request.id, "kind": request.kind})
        return 1

    # -- scheduling ------------------------------------------------------- #
    def pending(self) -> int:
        """Requests accepted but not yet resolved by this tier."""
        raise NotImplementedError

    def run_until_idle(self, now: float | None = None,
                       timeout_s: float = 300.0) -> int:
        """Step until nothing is pending; returns completions.

        ``now`` threads a virtual clock into every round
        (``_drain_round(now)``, which must make progress whenever work
        is ready).  The ``timeout_s`` watchdog is a real-time liveness
        bound, so it stays on the wall clock even under an injected
        fake serving clock — a frozen :class:`~repro.serve.ManualClock`
        must not turn work that cannot finish into an infinite spin.
        """
        deadline = time.monotonic() + timeout_s
        done = 0
        while self.pending():
            progressed = self._drain_round(now)
            done += progressed
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{type(self).__name__} not idle after {timeout_s}s "
                    f"({self.pending()} pending)")
            if not progressed and self.pending():
                time.sleep(0.001)  # waiting on someone else's progress
        return done

    def _loop(self) -> None:
        super()._loop()
        self.run_until_idle()  # a stopped thread leaves nothing behind

    # -- lifecycle -------------------------------------------------------- #
    def _teardown(self) -> None:
        """Release what the tier owns, after the final drain."""

    def close(self) -> None:
        """Reject new submissions, drain pending work, tear down."""
        with self._submit_lock:
            self._closed = True
        self.stop()
        try:
            # also catches anything enqueued between the thread's final
            # drain and the closed flag taking effect
            self.run_until_idle(timeout_s=60.0)
        except TimeoutError:
            pass  # wedged work must not keep the teardown from running
        self._teardown()

    # -- operator surface ------------------------------------------------- #
    def graph_version(self, config) -> int:
        """The served dataset's current mutation version for ``config``."""
        raise NotImplementedError

    def wal_for(self, config):
        """The :class:`~repro.stream.MutationLog` backing ``config``
        (``None`` when its dataset is not logged)."""
        return self.wal

    def replica_lag(self, config) -> int | None:
        """Worst read-replica lag (versions) for ``config``; ``None`` =
        no replica reports (always, for a tier without replicas)."""
        return None

    def set_tracing(self, enabled: bool) -> None:
        """Toggle span collection on every process of this tier."""
        set_tracing(enabled)

    def trace_spans(self, trace_id: str | None = None):
        """Buffered spans (see :meth:`~repro.obs.Tracer.spans`)."""
        return get_tracer().spans(trace_id)

    def obs_snapshot(self) -> dict:
        """The metrics-registry snapshot covering the whole tier."""
        return get_registry().snapshot()
