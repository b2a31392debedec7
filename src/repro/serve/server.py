"""The :class:`InferenceServer` — queue → batcher → warm pool → Session.

The serving pipeline in one object::

    submit(config, nodes=…)          # returns a ServeFuture immediately
      └─ RequestQueue                # bounded; rejects-with-reason when full
           └─ MicroBatcher           # coalesce by (config-hash, graph identity)
                └─ SessionPool       # warm Session per config (LRU)
                     └─ Session._predict_nodes / _predict_graphs

Node-level requests with the same config and the same queried graph
(the full dataset graph, or one exact node set) coalesce into a single
forward pass whose result fans out to every waiting future — the
repeated-query workload a serving tier actually sees.  Graph-level
requests are exploded into per-graph work units, deduplicated, and
bucketed by sequence length so one batch never pads small graphs to a
pathological length.

The server runs in two modes: *driven* (call :meth:`step` /
:meth:`run_until_idle` yourself — deterministic, what the tests, the
load generator and the benchmarks use) and *threaded*
(:meth:`start` / :meth:`stop` — a background worker drains the queue
with ``max_wait_s``-bounded sleeps).  Every request's latency and every
batch's occupancy land in :class:`ServerStats`, exposed as a
:meth:`stats` snapshot dict.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import nullcontext

import numpy as np

from .. import _clock
from ..obs import hooks as _hooks
from ..obs.metrics import get_registry
from ..obs.stats import StatBlock
from ..obs.trace import get_tracer
from .batcher import BatchPolicy, MicroBatch, MicroBatcher, seq_len_bucket
from .pool import SessionPool, config_key
from .queue import (
    DeadlineExceededError,
    Request,
    RequestQueue,
    ServeFuture,
    ServerClosedError,
)

__all__ = ["ServerStats", "InferenceServer"]


class ServerStats(StatBlock):
    """Counters + sliding latency window for one server lifetime.

    A :class:`~repro.obs.stats.StatBlock` over the
    ``repro_serve_*_total`` counters; latencies land in the
    ``repro_serve_request_latency_seconds`` histogram and batch sizes in
    ``repro_serve_batch_occupancy``.
    """

    PREFIX = "repro_serve"
    COUNTERS = {
        "submitted": "requests accepted into the serve queue",
        "completed": "requests resolved with a result",
        "rejected": "submissions refused (backpressure or closed)",
        "expired": "requests that missed their deadline",
        "failed": "requests resolved with an error",
        "batches": "micro-batches executed",
        "batched_requests": "requests executed inside micro-batches",
        "shared_computes": "requests answered from another request's forward",
        "mutations": "GraphDeltas applied",
        "mutations_ignored": "version-guarded duplicate delta deliveries",
    }
    LATENCY = ("repro_serve_request_latency_seconds",
               "submit-to-complete latency per request")

    def __init__(self):
        super().__init__()
        self._obs_occupancy = get_registry().histogram(
            "repro_serve_batch_occupancy",
            "requests per executed micro-batch",
            bounds=tuple(float(2 ** e) for e in range(0, 11)))

    def record_batch(self, occupancy: int) -> None:
        """Count one executed micro-batch of ``occupancy`` requests."""
        self.bump("batches")
        self.bump("batched_requests", occupancy)
        self._obs_occupancy.observe(occupancy)

    @property
    def mean_occupancy(self) -> float:
        """Average requests per executed micro-batch (0.0 before any)."""
        return self.batched_requests / self.batches if self.batches else 0.0

    @classmethod
    def _view(cls, counts: dict, latencies) -> dict:
        """Occupancy is re-derived from the summed totals and replaces
        the raw ``batched_requests`` sum in every view."""
        batched, batches = counts.pop("batched_requests"), counts["batches"]
        counts["mean_batch_occupancy"] = round(
            batched / batches if batches else 0.0, 3)
        return super()._view(counts, latencies)

    def snapshot(self) -> dict:
        """A plain-dict view (what ``repro serve``'s ``stats`` prints)."""
        snap = super().snapshot()
        # one server lists occupancy right after ``batches``; the merged
        # view lists it after the counters — consumers print both as is
        keys = list(snap)
        keys.insert(keys.index("batches") + 1,
                    keys.pop(keys.index("mean_batch_occupancy")))
        return {k: snap[k] for k in keys}


class _GraphScatter:
    """Reassembly state for one graph-level request split across batches."""

    def __init__(self, request: Request, num_slots: int):
        self.request = request
        self.outputs: list[np.ndarray | None] = [None] * num_slots
        self.remaining = num_slots

    def fill(self, slot: int, value: np.ndarray) -> bool:
        """Record one per-graph output; True once every slot is filled."""
        self.outputs[slot] = value
        self.remaining -= 1
        return self.remaining == 0


class InferenceServer:
    """Batched inference serving over warm :class:`~repro.api.Session`\\ s."""

    def __init__(self, pool: SessionPool | None = None,
                 policy: BatchPolicy | None = None,
                 max_queue_depth: int = 256, wal=None):
        # explicit None check: an *empty* SessionPool is falsy (len 0),
        # and replacing an injected-but-empty pool would silently drop
        # its seeded datasets and checkpoint registrations
        self.pool = pool if pool is not None else SessionPool()
        # optional MutationLog: every applied delta is appended (write-
        # ahead) and snapshotted at the log's cadence.  Skipped when the
        # session or its dataset already self-logs through the same log.
        self.wal = wal
        self.policy = policy or BatchPolicy()
        self.queue = RequestQueue(max_depth=max_queue_depth)
        self.batcher = MicroBatcher(self.policy)
        self.stats = ServerStats()
        self._next_id = 0
        self._closed = False
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
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
        executing.  Raises :class:`~repro.serve.queue.QueueFullError`
        (backpressure) or :class:`ServerClosedError` synchronously.

        ``trace`` optionally parents the request's trace under an
        upstream :class:`~repro.obs.TraceContext` (the cluster router's
        dispatch span, when the request crossed a process boundary).

        ``min_version`` pins the read to a graph version: the request
        is rejected synchronously (``ValueError``) if the served
        dataset has not reached it — a single server always serves the
        newest version, so a satisfiable pin is a no-op here; the
        cluster tier uses the same field to steer reads to replicas.
        """
        now = _clock.now() if now is None else now
        kind = "nodes" if config.data.task_kind == "node" else "graphs"
        if min_version is not None:
            min_version = int(min_version)
            if min_version < 0:
                raise ValueError(
                    f"min_version must be non-negative, got {min_version}")
            current = self.graph_version(config)
            if min_version > current:
                raise ValueError(
                    f"min_version {min_version} is ahead of the served "
                    f"graph_version {current}")
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
        # the closed check and the push are one atomic step: close() sets
        # _closed under this lock and then drains, so a request can never
        # slip into the queue after the final drain and hang its future
        with self._submit_lock:
            if self._closed:
                raise ServerClosedError(
                    "server is closed; submissions rejected")
            request = Request(
                id=self._next_id, config=config,
                config_key=config_key(config),
                kind=kind, nodes=nodes, indices=indices,
                graph_key=self._graph_key(nodes),
                deadline=None if timeout is None else now + timeout,
                min_version=min_version,
            )
            tracer = get_tracer()
            if tracer.enabled:
                request.trace = tracer.new_context(parent=trace)
            self._next_id += 1
            try:
                self.queue.push(request, now=now)
            except Exception:
                self.stats.bump("rejected")
                raise
        self.stats.bump("submitted")
        return request.future

    def submit_delta(self, config, delta, timeout: float | None = None,
                     now: float | None = None,
                     expected_version: int | None = None,
                     trace=None, strict_version: bool = False) -> ServeFuture:
        """Enqueue a :class:`~repro.stream.GraphDelta` mutation request.

        The delta shares the request queue with inference submissions,
        so it is **serialized against in-flight batches**: every batch
        drained before it executes against the pre-delta graph, every
        request after it sees the post-delta graph — a mutation never
        lands inside a half-executed batch.  The returned future
        resolves with the new ``graph_version`` (also stamped on
        ``future.graph_version``).

        ``expected_version`` is the exactly-once guard for cluster
        redelivery: the version this delta is expected to produce.  A
        worker whose dataset already reached it treats the delivery as
        a duplicate and acks without re-applying (node additions are
        not idempotent, so re-application must be impossible).

        ``strict_version`` tightens the guard for WAL-tailing replicas:
        a delta whose ``expected_version`` is more than one ahead of
        the dataset fails instead of being applied and stamped across
        the gap — a replica missing history must report its true
        version, never claim the head while serving a partial graph.
        """
        now = _clock.now() if now is None else now
        if config.data.task_kind != "node":
            raise ValueError(
                "submit_delta supports node-level configs; graph-level "
                "datasets are collections of independent frozen graphs")
        with self._submit_lock:
            if self._closed:
                raise ServerClosedError(
                    "server is closed; submissions rejected")
            request = Request(
                id=self._next_id, config=config,
                config_key=config_key(config),
                kind="mutate", delta=delta,
                expected_version=expected_version,
                strict_version=strict_version,
                deadline=None if timeout is None else now + timeout,
            )
            tracer = get_tracer()
            if tracer.enabled:
                request.trace = tracer.new_context(parent=trace)
            self._next_id += 1
            try:
                self.queue.push(request, now=now)
            except Exception:
                self.stats.bump("rejected")
                raise
        self.stats.bump("submitted")
        return request.future

    def graph_version(self, config) -> int:
        """The served dataset's current mutation version for ``config``.

        Acquires (and warms, on a cold pool) the config's session — the
        version is a property of the live dataset, not of the server.
        """
        return self.pool.acquire(config).graph_version

    @staticmethod
    def _graph_key(nodes: np.ndarray | None) -> str:
        """Identity of the queried graph: full graph, or this node set.

        The exact array (values *and* order) is hashed — requests
        coalesce only when their answers are bitwise interchangeable.
        """
        if nodes is None:
            return "full-graph"
        return hashlib.sha1(nodes.tobytes()).hexdigest()[:16]

    # -- scheduling ------------------------------------------------------- #
    def step(self, now: float | None = None, force_flush: bool = False) -> int:
        """One scheduling round: drain → coalesce → execute ready batches.

        Returns the number of requests completed (including failures).
        ``now`` threads a virtual clock through for deterministic
        open-loop simulation; default is the serving clock.

        Mutations are serialization points: when the drain hits a
        ``"mutate"`` request, everything batched so far is force-flushed
        and executed against the pre-delta graph, then the delta
        applies, then draining resumes — so no micro-batch ever spans a
        topology change, and per-round memoized forwards never leak
        across a mutation.
        """
        now = _clock.now() if now is None else now
        done = 0
        # a node group larger than max_batch_size flushes as several
        # chunks, but its items are identical queries by construction —
        # memoize the forward within this round so each key computes once
        node_results: dict = {}
        for request in self.queue.drain(now=now, on_expired=self._on_expired):
            request.drained_at = now
            if request.kind == "mutate":
                done += self._run_ready(now, True, node_results)
                node_results.clear()  # pre-delta forwards are stale now
                done += self._execute_mutation(request, now)
            elif request.kind == "nodes":
                self.batcher.add(request.batch_key, request,
                                 enqueued_at=request.enqueued_at,
                                 deadline=request.deadline)
            else:
                self._expand_graph_request(request)
        done += self._run_ready(now, force_flush, node_results)
        return done

    def _run_ready(self, now: float, force: bool, node_results: dict) -> int:
        """Execute every batch the batcher considers ready."""
        done = 0
        for batch in self.batcher.ready(now=now, force=force):
            done += self._execute(batch, now, node_results)
        return done

    def run_until_idle(self, now: float | None = None) -> int:
        """Drain and execute everything pending; returns completions."""
        done = 0
        while len(self.queue) or len(self.batcher):
            done += self.step(now=now, force_flush=True)
        return done

    def _on_expired(self, request: Request) -> None:
        self.stats.bump("expired")

    def _expand_graph_request(self, request: Request) -> None:
        """Split a graph-level request into bucketed per-graph work units."""
        try:
            session = self.pool.acquire(request.config, key=request.config_key)
            ds = session.dataset
            idx = (np.arange(ds.num_graphs, dtype=np.int64)
                   if request.indices is None else request.indices)
            sizes = [ds.graphs[int(i)].num_nodes for i in idx]
        except Exception as exc:  # bad indices, dataset mismatch, …
            request.future.set_exception(exc)
            self.stats.bump("failed")
            return
        scatter = _GraphScatter(request, num_slots=len(idx))
        if not len(idx):
            request.future.set_result(
                np.empty((0, 0), dtype=np.float64))
            self.stats.bump("completed")
            return
        for slot, (i, size) in enumerate(zip(idx, sizes)):
            key = (request.config_key, "graphs", seq_len_bucket(size))
            self.batcher.add(key, (scatter, slot, int(i)),
                             enqueued_at=request.enqueued_at,
                             deadline=request.deadline)

    # -- execution -------------------------------------------------------- #
    def _execute(self, batch: MicroBatch, now: float,
                 node_results: dict | None = None) -> int:
        if batch.key[1] == "nodes":
            return self._execute_nodes(batch, now,
                                       {} if node_results is None
                                       else node_results)
        return self._execute_graphs(batch, now)

    def _execute_nodes(self, batch: MicroBatch, now: float,
                       node_results: dict) -> int:
        """One forward for the whole group, fanned out to every future."""
        requests: list[Request] = batch.items
        self.stats.record_batch(len(requests))
        first = requests[0]
        tracer = get_tracer()
        tracing = tracer.enabled and first.trace is not None
        timed = tracing or _hooks.active("on_batch_end")
        _hooks.fire("on_batch_start", key=batch.key, size=len(requests))
        shared = batch.key in node_results
        t0 = _clock.now() if timed else 0.0
        if shared:
            logits, version = node_results[batch.key]
        else:
            try:
                session = self.pool.acquire(first.config,
                                            key=first.config_key)
                # activate the first request's context so spans recorded
                # deeper in the stack (chunk fetches, compiled replay)
                # nest under this request's trace
                with (tracer.activate(first.trace) if tracing
                      else nullcontext()):
                    logits = session.predict(nodes=first.nodes)
                version = session.graph_version
            except Exception as exc:
                return self._fail_all(requests, exc)
            node_results[batch.key] = (logits, version)
        t1 = _clock.now() if timed else 0.0
        _hooks.fire("on_batch_end", key=batch.key, size=len(requests),
                    seconds=t1 - t0)
        if tracing:
            for request in requests:
                if request.trace is None:
                    continue
                tracer.record("batch", request.drained_at, batch.flushed_at,
                              parent=request.trace,
                              attrs={"size": len(requests)})
                tracer.record("compute", t0, t1, parent=request.trace,
                              attrs={"shared": shared})
        done = 0
        for request in requests:
            # fan-out: every future owns its own copy — the pristine
            # original stays in the memo, immune to client mutation
            done += self._complete(request, logits.copy(), now,
                                   version=version)
        self.stats.bump("shared_computes", len(requests) - (0 if shared else 1))
        return done

    def _execute_graphs(self, batch: MicroBatch, now: float) -> int:
        """Dedup graph indices, run one predict, scatter to requests."""
        items: list[tuple[_GraphScatter, int, int]] = batch.items
        self.stats.record_batch(len(items))
        first = items[0][0].request
        unique = sorted({i for _, _, i in items})
        tracer = get_tracer()
        roots: list[Request] = []
        if tracer.enabled:
            seen_scatters: set[int] = set()
            for scatter, _, _ in items:
                if (id(scatter) in seen_scatters
                        or scatter.request.trace is None):
                    continue
                seen_scatters.add(id(scatter))
                roots.append(scatter.request)
        tracing = bool(roots)
        timed = tracing or _hooks.active("on_batch_end")
        _hooks.fire("on_batch_start", key=batch.key, size=len(items))
        t0 = _clock.now() if timed else 0.0
        try:
            session = self.pool.acquire(first.config, key=first.config_key)
            with (tracer.activate(first.trace) if tracing
                  and first.trace is not None else nullcontext()):
                outs = session.predict(
                    indices=np.asarray(unique, dtype=np.int64))
            version = session.graph_version
        except Exception as exc:
            seen: set[int] = set()
            failed = 0
            for scatter, _, _ in items:
                if id(scatter) in seen:
                    continue
                seen.add(id(scatter))
                if not scatter.request.future.done():
                    scatter.request.future.set_exception(exc)
                    self.stats.bump("failed")
                    failed += 1
            return failed
        t1 = _clock.now() if timed else 0.0
        _hooks.fire("on_batch_end", key=batch.key, size=len(items),
                    seconds=t1 - t0)
        for request in roots:
            tracer.record("batch", request.drained_at, batch.flushed_at,
                          parent=request.trace,
                          attrs={"size": len(items)})
            tracer.record("compute", t0, t1, parent=request.trace,
                          attrs={"graphs": len(unique)})
        by_index = {i: outs[pos] for pos, i in enumerate(unique)}
        self.stats.bump("shared_computes", len(items) - len(unique))
        done = 0
        for scatter, slot, i in items:
            if scatter.fill(slot, by_index[i].copy()):
                done += self._complete(
                    scatter.request, np.stack(scatter.outputs), now,
                    version=version)
        return done

    def _execute_mutation(self, request: Request, now: float) -> int:
        """Apply one GraphDelta through the config's warm session.

        Every pooled session sharing the dataset object observes the
        change via the bumped ``graph_version`` (their cached contexts
        miss lazily).  With ``expected_version`` set, a dataset already
        at (or past) it means this is a redelivered duplicate — acked
        with the current version, never re-applied.
        """
        try:
            session = self.pool.acquire(request.config,
                                        key=request.config_key)
            expected = request.expected_version
            log = self.wal
            if log is not None and (
                    getattr(session, "_wal", None) is log
                    or getattr(session.dataset, "wal", None) is log):
                log = None  # the session/dataset self-logs; no double append
            if expected is not None and session.graph_version >= expected:
                self.stats.bump("mutations_ignored")
            else:
                if (request.strict_version and expected is not None
                        and int(session.graph_version) != expected - 1):
                    from ..stream.wal import WalError

                    raise WalError(
                        f"version gap: dataset at "
                        f"{session.graph_version}, delta produces "
                        f"{expected} — refusing to apply across "
                        f"missing versions")
                if log is not None:
                    # refuse an unapplyable delta before the durable
                    # append — a poisoned record would wedge every
                    # later append and replay of this log
                    request.delta.validate(session.dataset)
                    log.append(request.delta,
                               expected if expected is not None
                               else int(session.graph_version) + 1)
                session.apply_delta(request.delta)
                if (expected is not None
                        and session.graph_version < expected):
                    # a previously failed apply left this replica behind;
                    # snap to the authority's version so later redelivery
                    # guards stay aligned (without this, a requeued delta
                    # could be applied twice — node additions are not
                    # idempotent)
                    session.dataset.graph_version = expected
                if log is not None:
                    log.maybe_snapshot(session.dataset)
                self.stats.bump("mutations")
            version = session.graph_version
        except Exception as exc:
            if not request.future.done():
                request.future.set_exception(exc)
                self.stats.bump("failed")
            return 1
        return self._complete(request, version, now, version=version)

    def _complete(self, request: Request, value, now: float,
                  version: int | None = None) -> int:
        if request.future.done():  # e.g. already expired elsewhere
            return 0
        if request.expired(now):
            request.future.set_exception(DeadlineExceededError(
                f"request {request.id} completed after its deadline; "
                "result dropped"))
            request.future.resolved_at = now
            self.stats.bump("expired")
            return 1
        request.future.set_result(value, graph_version=version)
        request.future.resolved_at = now
        self.stats.bump("completed")
        self.stats.record_latency(now - request.enqueued_at)
        tracer = get_tracer()
        if tracer.enabled and request.trace is not None:
            drained = request.drained_at or request.enqueued_at
            tracer.record("queue_wait", request.enqueued_at, drained,
                          parent=request.trace)
            tracer.record("request", request.enqueued_at, now,
                          ctx=request.trace,
                          attrs={"id": request.id, "kind": request.kind})
        return 1

    def _fail_all(self, requests: list[Request], exc: Exception) -> int:
        for request in requests:
            if not request.future.done():
                request.future.set_exception(exc)
                self.stats.bump("failed")
        return len(requests)

    # -- threaded mode ---------------------------------------------------- #
    def start(self) -> "InferenceServer":
        """Run the scheduling loop on a background worker thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._stop_event.clear()
        self._thread = threading.Thread(target=self._worker_loop,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def _worker_loop(self) -> None:
        while not self._stop_event.is_set():
            self.step()
            due = self.batcher.next_flush_due()
            if due is not None:
                if due > 0:
                    self._stop_event.wait(min(due, 0.05))
            else:
                self.queue.wait_nonempty(timeout=0.05)
        self.run_until_idle()

    def stop(self) -> None:
        """Stop the worker thread, draining everything still pending."""
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join()
        self._thread = None

    def close(self) -> None:
        """Reject new submissions, drain pending work, stop the worker."""
        with self._submit_lock:
            self._closed = True
        if self._thread is not None:
            self.stop()
        # catch anything enqueued between the worker's final drain and
        # the _closed flag taking effect
        self.run_until_idle()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection ---------------------------------------------------- #
    def stats_snapshot(self) -> dict:
        """Counters + occupancy + latency percentiles + pool stats."""
        snap = self.stats.snapshot()
        snap["pool_sessions"] = len(self.pool)
        snap["pool_hit_rate"] = round(self.pool.stats.hit_rate, 4)
        snap["pool_evictions"] = self.pool.stats.evictions
        if self.wal is not None:
            snap["wal_records"] = self.wal.record_count
            snap["wal_last_version"] = self.wal.last_version
        return snap
