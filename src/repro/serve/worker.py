"""Worker side of the serving cluster: the process that runs inference.

Each cluster worker owns one :class:`~repro.serve.InferenceServer` over a
warm :class:`~repro.serve.SessionPool` and speaks a small message
protocol with the router over a duplex pipe:

* ``("work", WorkUnit)`` — one inference request (arrays framed with
  :func:`repro.distributed.pack_array`, configs as their canonical JSON);
* ``("ping", seq)`` → ``("pong", seq, worker_id)`` — heartbeat;
* ``("stats", seq)`` → ``("stats", seq, worker_id, state)`` — raw
  :meth:`~repro.serve.server.ServerStats.state_dict` + pool counters +
  the worker's :meth:`~repro.obs.MetricsRegistry.state_dict` for
  cluster-level merging;
* ``("trace", enabled)`` — toggle span collection in the worker (the
  router broadcasts it so ``trace on`` reaches the whole fleet);
* ``("shutdown",)`` → drain, ``("bye", worker_id)``, exit.

The wire format is versioned (:data:`WIRE_PROTOCOL_VERSION`): the
router stamps the version it speaks into each :class:`WorkerInit` and
the worker refuses to start on a mismatch — a stale worker binary
silently dropping the trace field would be worse than a loud error.

The loop batches naturally: it keeps draining the pipe while messages
are available and only executes once the pipe goes momentarily quiet,
so every request that arrived in one burst coalesces inside the
worker's micro-batcher exactly as it would in a single-process server.

Two :class:`WorkerHandle` implementations wrap the protocol for the
cluster: :class:`ProcessWorker` runs :func:`worker_main` in a real
``multiprocessing`` child (spawn-safe: the entry point is a top-level
function and everything shipped to it is picklable), and
:class:`InlineWorker` runs the identical :class:`WorkerRuntime` in
process — deterministic for tests, with explicit failure injection
(``fail()``) for death/requeue scenarios.
"""

from __future__ import annotations

import multiprocessing
import pickle
from collections import deque
from dataclasses import dataclass, field

from ..distributed.comm import pack_array, unpack_array
from ..obs.metrics import get_registry
from ..obs.trace import TraceContext, get_tracer, set_tracing
from .batcher import BatchPolicy
from .pool import SessionPool
from .server import InferenceServer

__all__ = [
    "WIRE_PROTOCOL_VERSION",
    "WorkUnit",
    "WorkResult",
    "WorkerInit",
    "WorkerRuntime",
    "worker_main",
    "ProcessWorker",
    "InlineWorker",
]

#: Version of the router↔worker pipe protocol.  v2 added the optional
#: ``trace`` field on :class:`WorkUnit`, ``spans`` on
#: :class:`WorkResult`, the ``("trace", enabled)`` message, and the
#: ``"obs"`` key in the stats reply.  v3 added ``wal_tails`` on
#: :class:`WorkerInit` (read-replica workers tailing a
#: :class:`~repro.stream.MutationLog`) and a fourth ``versions``
#: element on pong replies — ``{config_json: graph_version}`` for every
#: tailed config — which the router folds into its replica-lag view.
WIRE_PROTOCOL_VERSION = 3


@dataclass(frozen=True)
class WorkUnit:
    """One routed request, in wire form (picklable, process-agnostic).

    ``config_json`` is the request's canonical
    :meth:`~repro.api.RunConfig.to_json` string (the worker caches the
    parse per distinct config); ``payload`` is the node-id / graph-index
    array framed by :func:`repro.distributed.pack_array` (``None`` for
    the full node / graph set) — or, for ``kind == "mutate"``, a
    :meth:`~repro.stream.GraphDelta.to_payload` byte string.
    ``expected_version`` is the mutation exactly-once guard: the
    ``graph_version`` the delta produces; a worker already at (or past)
    it acks a redelivery without re-applying.

    ``trace`` (protocol v2) is the router's preallocated dispatch-span
    context in :meth:`~repro.obs.TraceContext.to_wire` form — the
    worker parents its request spans under it, stitching one span tree
    across the process boundary.  ``None`` when tracing is off.
    """

    id: int
    config_json: str
    kind: str  # "nodes" | "graphs" | "mutate"
    payload: bytes | None = None
    expected_version: int | None = None
    trace: tuple | None = None  # (trace_id, span_id) wire context


@dataclass(frozen=True)
class WorkResult:
    """One unit's outcome: framed logits on success, an error otherwise.

    ``graph_version`` carries the dataset version the result was
    computed at (stamped by the worker's server) back across the pipe,
    so the router can re-stamp the caller's future — the cluster end of
    the streaming staleness contract.  ``spans`` (protocol v2) carries
    the worker-side trace spans of this unit's trace as
    :meth:`~repro.obs.Span.to_dict` rows, for the router to
    :meth:`~repro.obs.Tracer.ingest` — empty when tracing is off.
    """

    id: int
    worker_id: str
    ok: bool
    payload: bytes | None = None
    error: str | None = None
    graph_version: int | None = None
    spans: tuple = ()

    def value(self):
        """Decode the framed logits array (success results only)."""
        if not self.ok:
            raise ValueError(f"result {self.id} is an error: {self.error}")
        return unpack_array(self.payload)


@dataclass(frozen=True)
class WorkerInit:
    """Everything a worker needs at startup, shipped once per worker.

    ``datasets`` holds ``(config_json, pickled_dataset)`` pairs — the
    cluster serializes each distinct dataset **once** and broadcasts the
    same bytes to every worker, which installs them into its pool via
    :meth:`~repro.serve.SessionPool.put_dataset` so admission never
    re-synthesizes broadcast data.  ``stores`` holds
    ``(config_json, store_path)`` pairs instead of pickled bytes: each
    worker opens the shared :mod:`repro.store` directory itself
    (read-only — deltas overlay in worker RAM, the shared files stay
    pristine), so startup ships O(manifest) bytes per worker no matter
    how large the dataset is.  ``checkpoints`` maps configs (by JSON)
    to checkpoint paths loaded on admission.

    ``protocol`` stamps the wire version the router speaks
    (:data:`WIRE_PROTOCOL_VERSION`); the runtime refuses a mismatch.
    ``trace_enabled`` makes a worker spawned while tracing is already
    on start collecting immediately (later toggles arrive as
    ``("trace", enabled)`` messages).

    ``wal_tails`` (protocol v3) makes the worker a **read replica**:
    ``(config_json, wal_path)`` pairs, each opened as a follower-mode
    :class:`~repro.stream.MutationLog` and polled whenever the worker
    goes idle — new records are applied through the exact mutate path
    (version-guarded, exactly once), so the replica converges on the
    primary's ``graph_version`` at a lag bounded by its poll interval.
    """

    worker_id: str
    pool_size: int = 4
    max_batch_size: int = 32
    max_wait_s: float = 0.0
    queue_depth: int = 4096
    datasets: tuple = ()      # ((config_json, dataset_blob), ...)
    stores: tuple = ()        # ((config_json, store_path), ...)
    checkpoints: tuple = ()   # ((config_json, path), ...)
    protocol: int = WIRE_PROTOCOL_VERSION
    trace_enabled: bool = False
    wal_tails: tuple = ()     # ((config_json, wal_path), ...)


class WorkerRuntime:
    """The inference state a worker drives: pool + server + config cache.

    Shared verbatim by the process worker loop and the inline handle so
    both execute requests through exactly the same code path.
    """

    def __init__(self, init: WorkerInit):
        from ..api import RunConfig

        if init.protocol != WIRE_PROTOCOL_VERSION:
            raise ValueError(
                f"worker {init.worker_id}: wire protocol mismatch — "
                f"router speaks v{init.protocol}, this worker speaks "
                f"v{WIRE_PROTOCOL_VERSION}")
        self.worker_id = init.worker_id
        self.pool = SessionPool(max_sessions=init.pool_size)
        for cfg_json, blob in init.datasets:
            self.pool.put_dataset(RunConfig.from_json(cfg_json),
                                  pickle.loads(blob))
        for cfg_json, store_path in init.stores:
            from ..store import open_store

            self.pool.put_dataset(RunConfig.from_json(cfg_json),
                                  open_store(store_path))
        for cfg_json, path in init.checkpoints:
            self.pool.add_checkpoint(RunConfig.from_json(cfg_json), path)
        self.server = InferenceServer(
            pool=self.pool,
            policy=BatchPolicy(max_batch_size=init.max_batch_size,
                               max_wait_s=init.max_wait_s),
            max_queue_depth=init.queue_depth)
        self._configs: dict[str, object] = {}  # config_json -> RunConfig
        self.pending: list = []  # (unit, future) submitted, not yet executed
        self._tails: list = []
        for cfg_json, wal_path in init.wal_tails:
            from ..stream import MutationLog

            # prime=False: the cursor starts at byte 0, so the boot
            # poll below applies the log's entire existing backlog —
            # a replica joining a long-lived WAL must replay history,
            # not just watch new records arrive
            self._tails.append(
                (cfg_json, MutationLog(wal_path, mode="r", prime=False)))
        if self._tails:
            self.poll_wal()  # catch up to the log head before serving

    def _config_for(self, cfg_json: str):
        from ..api import RunConfig

        config = self._configs.get(cfg_json)
        if config is None:
            config = RunConfig.from_json(cfg_json)
            self._configs[cfg_json] = config
        return config

    def poll_wal(self) -> int:
        """Apply any WAL records appended since the last poll (replicas).

        Each new record goes through the server's version-guarded
        mutate path, so a record the replica somehow already holds is
        acked without re-application.  Returns the number of records
        applied; 0 for non-replica workers.
        """
        applied = 0
        for cfg_json, log in self._tails:
            config = self._config_for(cfg_json)
            for version, delta in log.tail():
                # strict: a replica must never be stamped across a
                # version gap — a record it cannot apply in sequence
                # fails loudly and the replica's reported version
                # (and therefore its lag) stays honest
                self.server.submit_delta(config, delta,
                                         expected_version=version,
                                         strict_version=True)
                applied += 1
        if applied:
            self.server.run_until_idle()
        return applied

    def versions(self) -> dict:
        """``{config_json: graph_version}`` for every tailed config.

        What a replica's pong carries (protocol v3) so the router can
        measure replica lag; empty for primary workers — the router
        already knows the authoritative version it assigned them.
        """
        return {cfg_json: self.server.graph_version(
                    self._config_for(cfg_json))
                for cfg_json, _ in self._tails}

    def submit(self, unit: WorkUnit):
        """Enqueue one unit; returns ``(unit, future_or_error_result)``.

        Submission errors (bad payloads, unknown configs) resolve to an
        error :class:`WorkResult` immediately instead of killing the
        worker loop.
        """
        try:
            config = self._config_for(unit.config_json)
            # the router's preallocated dispatch span parents this
            # worker's request spans — one tree, two processes
            parent = TraceContext.from_wire(unit.trace)
            if unit.kind == "mutate":
                from ..stream import GraphDelta

                future = self.server.submit_delta(
                    config, GraphDelta.from_payload(unit.payload),
                    expected_version=unit.expected_version,
                    trace=parent)
            else:
                payload = (None if unit.payload is None
                           else unpack_array(unit.payload))
                kwargs = ({"nodes": payload} if unit.kind == "nodes"
                          else {"indices": payload})
                future = self.server.submit(config, trace=parent, **kwargs)
        except Exception as exc:
            return unit, WorkResult(id=unit.id, worker_id=self.worker_id,
                                    ok=False, error=repr(exc))
        return unit, future

    def execute(self, pending) -> list[WorkResult]:
        """Run everything submitted so far; one result per pending unit.

        With tracing on, the spans each unit's trace produced here are
        removed from the worker's buffer and shipped back on its
        result (:attr:`WorkResult.spans`) for the router to ingest.
        """
        self.server.run_until_idle()
        tracer = get_tracer()
        span_map: dict[str, list] = {}
        if tracer.enabled:
            wanted = {unit.trace[0] for unit, _ in pending
                      if unit.trace is not None}
            for row in tracer.take(wanted):
                span_map.setdefault(row["trace_id"], []).append(row)
        results = []
        for unit, fut in pending:
            spans = (() if unit.trace is None
                     else tuple(span_map.get(unit.trace[0], ())))
            if isinstance(fut, WorkResult):  # submission already failed
                results.append(fut)
                continue
            exc = fut.exception(timeout=0)
            if exc is not None:
                results.append(WorkResult(id=unit.id,
                                          worker_id=self.worker_id,
                                          ok=False, error=repr(exc),
                                          spans=spans))
            else:
                results.append(WorkResult(id=unit.id,
                                          worker_id=self.worker_id, ok=True,
                                          payload=pack_array(fut.result()),
                                          graph_version=fut.graph_version,
                                          spans=spans))
        return results

    def state(self) -> dict:
        """Raw stats for cluster merging: server state_dict + pool view.

        ``"obs"`` carries this process's whole
        :meth:`~repro.obs.MetricsRegistry.state_dict`; its ``source``
        id lets the router's merge count an inline worker (sharing the
        router's registry) exactly once.
        """
        return {
            "worker_id": self.worker_id,
            "server": self.server.stats.state_dict(),
            "obs": get_registry().state_dict(),
            "pool": {"sessions": len(self.pool),
                     **self.pool.stats.state_dict()},
        }

    def handle(self, msg) -> tuple[list, bool]:
        """Apply one router message; returns ``(replies, stop)``.

        The whole protocol ladder, shared by the process loop and the
        inline handle so they differ only in transport.  Work is
        buffered (bursts coalesce into one batch at the next
        :meth:`flush`); ``stop`` is true on ``("shutdown",)``.
        """
        kind = msg[0]
        if kind == "work":
            self.pending.append(self.submit(msg[1]))
        elif kind == "ping":
            return [("pong", msg[1], self.worker_id, self.versions())], False
        elif kind == "stats":
            return [("stats", msg[1], self.worker_id, self.state())], False
        elif kind == "trace":
            set_tracing(msg[1])
        return [], kind == "shutdown"

    def flush(self) -> list:
        """Execute the buffered batch; returns its ``("result", …)`` replies.

        With nothing buffered, an idle replica catches up on its log
        instead.
        """
        if self.pending:
            pending, self.pending = self.pending, []
            return [("result", r) for r in self.execute(pending)]
        if self._tails:
            self.poll_wal()
        return []


def worker_main(init: WorkerInit, conn) -> None:
    """Entry point of one worker process (top-level, spawn-safe).

    Drains the pipe while messages are available, executes the batch
    when it goes quiet, and answers heartbeats/stats in between.  Exits
    on ``("shutdown",)`` or when the router end of the pipe closes.
    """
    runtime = WorkerRuntime(init)
    if init.trace_enabled:
        set_tracing(True)
    stop = False
    while not stop:
        try:
            ready = conn.poll(0.0 if runtime.pending else 0.2)
        except (EOFError, OSError):
            break
        if ready:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            replies, stop = runtime.handle(msg)
            for reply in replies:
                conn.send(reply)
            continue  # keep draining so bursts coalesce into one batch
        for reply in runtime.flush():
            conn.send(reply)
    if runtime.pending:  # answer work accepted before the shutdown message
        for reply in runtime.flush():
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    try:
        conn.send(("bye", init.worker_id))
    except (BrokenPipeError, OSError):
        pass
    conn.close()


class ProcessWorker:
    """A worker running :func:`worker_main` in a spawned child process."""

    def __init__(self, init: WorkerInit, start_method: str = "spawn"):
        self.id = init.worker_id
        ctx = multiprocessing.get_context(start_method)
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=worker_main, args=(init, child),
                                   name=f"repro-serve-{init.worker_id}",
                                   daemon=True)
        self.process.start()
        child.close()  # our copy; the child owns its end now

    def send(self, msg) -> None:
        """Ship one protocol message (raises if the pipe is broken)."""
        self.conn.send(msg)

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a message (or EOF) is readable within ``timeout``."""
        try:
            return self.conn.poll(timeout)
        except (EOFError, OSError):
            return False

    def recv(self):
        """Read one protocol message (raises EOFError on a closed pipe)."""
        return self.conn.recv()

    def alive(self) -> bool:
        """Whether the child process is still running."""
        return self.process.is_alive()

    def waitables(self) -> tuple:
        """The pipe and the process sentinel (ready on reply or exit)."""
        return self.conn, self.process.sentinel

    def terminate(self) -> None:
        """Hard-kill the child and reap it."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        self.conn.close()

    def join(self, timeout: float | None = None) -> None:
        """Wait for a clean exit."""
        self.process.join(timeout)


class InlineWorker:
    """An in-process worker speaking the same protocol, for determinism.

    ``auto=True`` (the default, what ``backend="inline"`` clusters use)
    executes buffered work lazily whenever the cluster polls.  With
    ``auto=False`` a test drives :meth:`step_worker` explicitly, which
    makes death/requeue interleavings exact: :meth:`fail` simulates a
    crash, optionally *holding* already-computed results
    (``hold_results=True``) to model a pipe whose data arrives after the
    death was detected — the duplicate-delivery scenario.
    """

    def __init__(self, init: WorkerInit, auto: bool = True):
        self.id = init.worker_id
        self.auto = auto
        self.runtime = WorkerRuntime(init)
        self._inbox: deque = deque()
        self._outbox: deque = deque()
        self._held: deque = deque()
        self._dead = False
        self._stopped = False
        self.units_routed: list[WorkUnit] = []  # every unit sent here
        self.units_seen: list[WorkUnit] = []    # every unit executed here

    def send(self, msg) -> None:
        """Buffer one protocol message (raises once the worker died)."""
        if self._dead:
            raise BrokenPipeError(f"worker {self.id} is dead")
        if msg[0] == "work":
            self.units_routed.append(msg[1])
        self._inbox.append(msg)

    def step_worker(self) -> None:
        """Process buffered messages, then execute the accumulated batch."""
        if self._dead:
            return
        while self._inbox:
            msg = self._inbox.popleft()
            if msg[0] == "work":
                self.units_seen.append(msg[1])
            replies, stop = self.runtime.handle(msg)
            self._outbox.extend(replies)
            self._stopped |= stop
        self._outbox.extend(self.runtime.flush())
        if self._stopped:
            self._outbox.append(("bye", self.id))
            self._dead = True

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a reply is readable (auto mode executes lazily)."""
        if self.auto and not self._dead:
            self.step_worker()
        return bool(self._outbox)

    def recv(self):
        """Read one buffered reply."""
        return self._outbox.popleft()

    def alive(self) -> bool:
        """False once the worker failed or shut down."""
        return not self._dead

    def waitables(self) -> tuple:
        """Nothing: an inline worker moves only when the cluster polls it."""
        return ()

    def fail(self, deliver_pending: bool = False,
             hold_results: bool = False) -> None:
        """Simulate a crash.

        ``deliver_pending`` executes buffered work first (its results sit
        in the outbox, like pipe data flushed before death);
        ``hold_results`` additionally hides the outbox until
        :meth:`release` — the late-arrival duplicate scenario.
        """
        if deliver_pending:
            self.step_worker()
        else:
            self._inbox.clear()
            self.runtime.pending = []
        if hold_results:
            self._held.extend(self._outbox)
            self._outbox.clear()
        self._dead = True

    def release(self) -> None:
        """Make held results readable (the late pipe flush arriving)."""
        self._outbox.extend(self._held)
        self._held.clear()

    def terminate(self) -> None:
        """Mark the worker dead (protocol parity with ProcessWorker)."""
        self._dead = True

    def join(self, timeout: float | None = None) -> None:
        """No-op (inline workers have no process to reap)."""
