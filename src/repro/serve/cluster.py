"""Multi-worker sharded serving: one router, N inference workers.

The scale-out tier above :class:`~repro.serve.InferenceServer`.  A
:class:`ServingCluster` owns N workers (separate processes by default,
``backend="inline"`` for deterministic in-process twins), routes every
request to a worker by **consistent hash of its config key** — so a
given config's warm sessions stay sticky to one worker and the fleet's
aggregate warm-session capacity scales with the worker count — and
spills to the least-loaded worker when the sticky one is overloaded
(:mod:`repro.serve.router`).

Lifecycle of one request::

    submit(config, nodes=…)           # ServeFuture, same contract as the server
      └─ RequestQueue                 # bounded; deadline culling *before* dispatch
           └─ Router                  # consistent-hash sticky, spill on overload
                └─ WorkerHandle pipe  # WorkUnit out, WorkResult back
                     └─ worker's InferenceServer (batching, warm pool)

Fault model: workers are expected to die.  Each worker answers
heartbeat pings and is additionally watched via its process handle;
when one is declared dead, its in-flight requests are **requeued** to
surviving workers with the dead worker in their ``excluded`` set, and
late results that still trickle out of a dead worker's pipe are
delivered at most once (a request's future resolves exactly once — any
second copy is counted as ``duplicates_ignored``, never re-delivered).

Determinism: a worker's answer is a pure function of (config, dataset,
payload) — sessions rebuilt after eviction or on another worker after a
requeue produce bitwise-identical logits, so cluster placement, spills,
deaths and retries never change the bytes a client receives (asserted
end-to-end by ``benchmarks/bench_serve_cluster.py``).

At startup, each **distinct dataset** among ``warm_configs`` is loaded
and pickled once, and the same bytes are broadcast to every worker's
init payload — workers install them via
:meth:`~repro.serve.SessionPool.put_dataset` (pinned, so LRU churn never
re-synthesizes broadcast data).
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from dataclasses import dataclass, field

from .. import _clock
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.stats import StatBlock
from ..obs.trace import get_tracer
from .batcher import BatchPolicy
from .pool import PoolStats, config_key, dataset_identity
from .queue import Request, ServeError, ServeFuture, ServerClosedError
from .router import NoWorkersError, Router
from .server import ServerStats
from .tier import ServeTier
from .worker import (
    InlineWorker,
    ProcessWorker,
    WorkerInit,
    WorkResult,
    WorkUnit,
)

__all__ = ["ClusterStats", "ServingCluster"]


class ClusterStats(StatBlock):
    """Router-side counters + end-to-end latency for one cluster lifetime.

    ``requeued`` counts units re-dispatched after a worker death;
    ``duplicates_ignored`` counts late results for already-completed
    requests (the at-most-once delivery guard firing).  A
    :class:`~repro.obs.stats.StatBlock` over the
    ``repro_cluster_*_total`` counters (latencies into
    ``repro_cluster_request_latency_seconds``).
    """

    PREFIX = "repro_cluster"
    COUNTERS = {
        "submitted": "requests accepted into the router queue",
        "completed": "requests resolved with a worker result",
        "rejected": "submissions refused (backpressure or closed)",
        "expired": "requests that missed their deadline router-side",
        "failed": "requests resolved with an error",
        "dispatched": "work units shipped to a worker pipe",
        "requeued": "units re-dispatched after a worker death",
        "worker_deaths": "workers declared dead",
        "duplicates_ignored": "late results dropped by at-most-once delivery",
        "mutations": "GraphDelta broadcasts submitted",
        "mutations_applied": "broadcasts acked by every live worker",
        "workers_spawned": "workers added after startup (elastic scale-up)",
        "workers_retired": "workers drained and removed (elastic scale-down)",
        "replica_reads": "version-pinned reads steered to a read replica",
    }
    LATENCY = ("repro_cluster_request_latency_seconds",
               "submit-to-complete latency per request, router side")


@dataclass
class _Dispatch:
    """Router-side tracking for one in-flight unit.

    ``trace`` is the preallocated dispatch-span context (its wire form
    rides on the unit); ``sent_at`` is when the unit first hit a worker
    pipe, so the span covers ship-to-result including any requeues.
    ``mutation`` is the broadcast a ``"mutate"`` unit belongs to.
    """

    request: Request
    unit: WorkUnit
    worker_id: str
    attempts: int = 1
    excluded: set = field(default_factory=set)
    trace: object = None
    sent_at: float = 0.0
    mutation: "_Mutation | None" = None


@dataclass
class _Mutation:
    """Router-side tracking for one delta broadcast.

    A mutation fans out as one ``"mutate"`` unit per live worker;
    ``pending`` holds the unit ids still awaiting an ack.  The caller's
    future resolves with the new ``graph_version`` once every ack
    lands (or with the first worker error once none are pending).
    """

    future: "ServeFuture"
    version: int
    pending: set = field(default_factory=set)
    error: BaseException | None = None


class ServingCluster(ServeTier):
    """N sharded inference workers behind one submit/step facade.

    ``warm_configs`` declares the configs the cluster expects to serve:
    their datasets are loaded and serialized once, broadcast to every
    worker at startup, and their checkpoints (``checkpoints``: a
    sequence of ``(config, path)`` pairs) registered for pool
    admission.  ``datasets`` (``(config, dataset)`` pairs) injects
    already-loaded datasets into the broadcast.  ``stores``
    (``(config, store_path)`` pairs) switches those configs to
    shared-store mode: workers receive only the :mod:`repro.store`
    directory path and mmap-open it themselves, so startup transfers
    O(manifest) bytes per worker instead of the pickled dataset, and
    the router's version authority resumes from the store's persisted
    ``graph_version``.  ``pool_size``,
    ``policy`` and ``worker_queue_depth`` configure each worker's
    server; ``max_queue_depth`` bounds the router's own intake queue
    (backpressure happens here, before any dispatch).

    ``backend="process"`` spawns real worker processes;
    ``backend="inline"`` runs protocol-identical in-process workers
    (deterministic tests, single-process debugging).  Driven and
    threaded operation, intake and close are the shared
    :class:`~repro.serve.tier.ServeTier` contract.

    ``wal_dir`` turns on durable streaming: one
    :class:`~repro.stream.MutationLog` per served node dataset, with
    the router as the log writer (append-then-broadcast; a restarted
    router re-broadcasts records past the store's persisted version).
    ``snapshot_every`` cuts a :mod:`repro.store` snapshot from a
    router-side mirror every N appended deltas.  ``replicas`` spawns
    that many **read replicas** outside the routing ring: they tail
    the WAL at a bounded lag and serve only version-pinned reads
    (``submit(..., min_version=N)``) the router steers to them.
    """

    def __init__(self, num_workers: int = 2, *,
                 warm_configs=(),
                 checkpoints=None,
                 pool_size: int = 4,
                 policy: BatchPolicy | None = None,
                 max_queue_depth: int = 1024,
                 worker_queue_depth: int = 4096,
                 backend: str = "process",
                 start_method: str = "spawn",
                 spill_threshold: int | None = None,
                 heartbeat_interval_s: float = 1.0,
                 heartbeat_timeout_s: float = 10.0,
                 datasets=None,
                 stores=None,
                 auto_inline: bool = True,
                 wal_dir=None,
                 replicas: int = 0,
                 snapshot_every: int = 0):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if backend not in ("process", "inline"):
            raise ValueError(f"backend must be 'process' or 'inline', "
                             f"got {backend!r}")
        if replicas and wal_dir is None:
            raise ValueError("read replicas tail the WAL; replicas > 0 "
                             "requires wal_dir")
        super().__init__(ClusterStats(), max_queue_depth)
        self.policy = policy or BatchPolicy()
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._inflight: dict[int, _Dispatch] = {}
        self._dataset_versions: dict[tuple, int] = {}  # dataset id → version
        self._config_json: dict[str, str] = {}
        self._stats_replies: dict[int, dict[str, dict]] = {}
        self._seq = itertools.count(1)  # ping / stats round-trip ids
        # serializes pipe reads + _inflight/router mutation between the
        # start() router thread and direct callers (stats_snapshot, a
        # driven step from another thread); reentrant because close()
        # and run_until_idle() nest through step()
        self._lock = threading.RLock()

        # shared-store mode: configs covered by a store ship only the
        # directory path (O(manifest) bytes per worker); each worker
        # mmap-opens the store itself.  The router's version authority
        # resumes from the store's persisted graph_version so the
        # exactly-once guard keeps working across a store reopen.
        store_pairs = []
        store_ids = set()
        for cfg, store_path in (stores or ()):
            from ..store import load_manifest

            store_pairs.append((cfg.to_json(), str(store_path)))
            ds_id = dataset_identity(cfg)
            store_ids.add(ds_id)
            self._dataset_versions[ds_id] = int(
                load_manifest(store_path).graph_version)
        dataset_blobs = self._broadcast_payload(warm_configs, datasets or (),
                                                skip=store_ids)
        checkpoint_pairs = tuple(
            (cfg.to_json(), path) for cfg, path in (checkpoints or ()))

        # durable streaming: with a wal_dir, the router is the log
        # writer — every delta broadcast is appended to a per-dataset
        # MutationLog *before* it ships, so a restarted router replays
        # unacked deltas and the version authority survives the crash.
        # With snapshot_every > 0, a router-side mirror dataset tracks
        # the log head so periodic repro.store snapshots can be cut.
        self._wals: dict[tuple, object] = {}           # ds_id → MutationLog
        self._wal_configs: dict[tuple, object] = {}    # ds_id → RunConfig
        self._wal_mirrors: dict[tuple, object] = {}    # ds_id → dataset
        self._json_ds_id: dict[str, tuple] = {}        # config_json → ds_id
        self.replica_ids: list[str] = []
        self._replica_load: dict[str, int] = {}
        self._replica_versions: dict[tuple, int] = {}  # (wid, ds_id) → v
        self.wal_dir = None if wal_dir is None else str(wal_dir)
        if wal_dir is not None:
            import os

            from ..stream import MutationLog

            node_cfgs: dict[tuple, object] = {}
            for cfg, _path in (stores or ()):
                node_cfgs.setdefault(dataset_identity(cfg), cfg)
            for cfg, _ds in (datasets or ()):
                if cfg.data.task_kind == "node":
                    node_cfgs.setdefault(dataset_identity(cfg), cfg)
            for cfg in warm_configs:
                if cfg.data.task_kind == "node":
                    node_cfgs.setdefault(dataset_identity(cfg), cfg)
            store_by_id = {dataset_identity(cfg): str(path)
                           for cfg, path in (stores or ())}
            blob_by_json = dict(dataset_blobs)
            for ds_id, cfg in node_cfgs.items():
                log = MutationLog(
                    os.path.join(str(wal_dir), self._wal_slug(ds_id)),
                    snapshot_every=snapshot_every)
                self._wals[ds_id] = log
                self._wal_configs[ds_id] = cfg
                self._json_ds_id[cfg.to_json()] = ds_id
                if snapshot_every > 0:
                    mirror = self._open_mirror(ds_id, cfg, store_by_id,
                                               blob_by_json, log)
                    if mirror is not None:
                        log.replay(mirror)  # catch up to the log head
                        self._wal_mirrors[ds_id] = mirror
        # everything a worker needs at birth, kept so spawn_worker() can
        # mint protocol-identical workers after startup (elastic tier)
        self._worker_template = dict(
            pool_size=pool_size,
            max_batch_size=self.policy.max_batch_size,
            max_wait_s=self.policy.max_wait_s,
            queue_depth=worker_queue_depth,
            datasets=dataset_blobs,
            stores=tuple(store_pairs),
            checkpoints=checkpoint_pairs)
        self._backend = backend
        self._start_method = start_method
        self._auto_inline = auto_inline
        self._next_worker_idx = num_workers
        worker_ids = [f"w{i}" for i in range(num_workers)]
        self.workers: dict[str, object] = {}
        for wid in worker_ids:
            self.workers[wid] = self._make_worker(wid)
        self.router = Router(
            worker_ids,
            spill_threshold=(spill_threshold if spill_threshold is not None
                             else 4 * self.policy.max_batch_size))
        self._dead: set[str] = set()
        # heartbeat = outstanding-ping age, never wall-clock idleness: a
        # driven cluster may legitimately not step for minutes (REPL at
        # a prompt), and workers must not be declared dead for it
        self._ping_outstanding: dict[str, float | None] = {
            wid: None for wid in worker_ids}
        self._last_ping = _clock.now()

        # read replicas: extra workers OUTSIDE the routing ring that
        # tail the WAL (follower mode) and serve only version-pinned
        # reads the router steers to them explicitly
        if replicas:
            tails = tuple((cfg.to_json(), self._wals[ds_id].path)
                          for ds_id, cfg in self._wal_configs.items())
            for i in range(replicas):
                rid = f"r{i}"
                self.workers[rid] = self._make_worker(rid, wal_tails=tails)
                self.replica_ids.append(rid)
                self._replica_load[rid] = 0
                self._ping_outstanding[rid] = None

        # a restarted router replays deltas the previous incarnation
        # appended but whose broadcast may not have reached the fleet:
        # workers boot at the store/broadcast base version, so every
        # record past it is re-broadcast (the expected_version guard
        # turns any already-applied one into a no-op ack)
        self._replay_wal_pending()

    def _wal_slug(self, ds_id: tuple) -> str:
        """Filesystem-safe per-dataset WAL directory name."""
        return "-".join(str(part) for part in ds_id).replace("/", "_")

    def _open_mirror(self, ds_id, cfg, store_by_id, blob_by_json, log):
        """Open the router-side mirror dataset backing WAL snapshots."""
        if ds_id in store_by_id:
            from ..store import open_store

            return open_store(store_by_id[ds_id])  # read-only; overlays
        blob = blob_by_json.get(cfg.to_json())
        if blob is not None:
            return pickle.loads(blob)
        base = log.latest_snapshot()
        if base is not None:
            return log.recover()
        return None

    def _replay_wal_pending(self) -> None:
        """Re-broadcast WAL records past each dataset's base version."""
        for ds_id, log in self._wals.items():
            base = self._dataset_versions.get(ds_id, 0)
            with self._lock:
                for version, delta in log.records(after_version=base):
                    self._broadcast_delta(self._wal_configs[ds_id], delta,
                                          version)
            self._dataset_versions[ds_id] = max(base, log.last_version)
        self.run_until_idle()

    def _make_worker(self, wid: str, wal_tails: tuple = ()):
        """Build one worker handle from the stored birth template."""
        init = WorkerInit(worker_id=wid,
                          trace_enabled=get_tracer().enabled,
                          wal_tails=wal_tails,
                          **self._worker_template)
        if self._backend == "process":
            return ProcessWorker(init, start_method=self._start_method)
        return InlineWorker(init, auto=self._auto_inline)

    # -- elastic membership ------------------------------------------------ #
    def spawn_worker(self) -> str:
        """Add one worker to the fleet after startup; returns its id.

        The newcomer is built from the same init payload as the startup
        fleet (same datasets/stores/checkpoints, same batch policy), is
        inserted into the consistent-hash ring, and starts receiving
        routed work on the next dispatch round.  Used by
        :class:`~repro.serve.elastic.ElasticController` on sustained
        queue depth.
        """
        if self._closed:
            raise ServerClosedError("cluster is closed; cannot spawn")
        with self._lock:
            wid = f"w{self._next_worker_idx}"
            self._next_worker_idx += 1
            self.workers[wid] = self._make_worker(wid)
            self.router.add_worker(wid)
            self._ping_outstanding[wid] = None
            self.stats.bump("workers_spawned")
        return wid

    def retire_worker(self, wid: str) -> bool:
        """Gracefully remove one worker from the fleet.

        The worker leaves the routing ring immediately; any unit still
        in flight on it is requeued to a survivor with the retiree in
        its ``excluded`` set — the same exactly-once path a worker
        *death* takes, so a retire racing an in-flight dispatch never
        drops or double-delivers a request (late results from the
        retiree hit the at-most-once guard).  Returns ``False`` when
        ``wid`` is not a live routed worker or is the last one.
        """
        with self._lock:
            if wid in self._dead or wid not in self.router.workers():
                return False
            if len(self.router.workers()) <= 1:
                return False  # never retire the last worker
            self.router.mark_dead(wid)
            self.stats.bump("workers_retired")
            self._requeue_orphans(wid)
            self._ping_outstanding.pop(wid, None)
            self._send(wid, ("shutdown",))
        return True

    def pending(self) -> int:
        """Requests queued or in flight — the elastic tier's depth signal."""
        with self._lock:
            return len(self.queue) + len(self._inflight)

    @staticmethod
    def _broadcast_payload(warm_configs, datasets, skip=frozenset()) -> tuple:
        """Serialize each distinct dataset once: ((config_json, blob), …).

        ``datasets`` is a sequence of ``(config, dataset)`` pairs naming
        already-loaded dataset objects (skipping the load); any other
        warm config's dataset is loaded here.  Deduplication is by
        :func:`~repro.serve.pool.dataset_identity` so a sweep of many
        configs over one graph broadcasts one blob.  Identities in
        ``skip`` (covered by a shared store path) are excluded entirely
        — their data never crosses the pipe.
        """
        from ..graph import load_graph_dataset, load_node_dataset

        loaded = {dataset_identity(cfg): (cfg, ds)
                  for cfg, ds in datasets
                  if dataset_identity(cfg) not in skip}
        for cfg in warm_configs:
            ds_id = dataset_identity(cfg)
            if ds_id in loaded or ds_id in skip:
                continue
            loader = (load_node_dataset if cfg.data.task_kind == "node"
                      else load_graph_dataset)
            loaded[ds_id] = (cfg, loader(cfg.data.name, scale=cfg.data.scale,
                                         seed=ds_id[2]))
        return tuple((cfg.to_json(), pickle.dumps(ds))
                     for cfg, ds in loaded.values())

    # -- intake ----------------------------------------------------------- #
    def submit_delta(self, config, delta, timeout: float | None = None,
                     now: float | None = None,
                     expected_version: int | None = None,
                     trace=None, strict_version: bool = False) -> ServeFuture:
        """Broadcast a :class:`~repro.stream.GraphDelta` to the fleet.

        The router is the version authority: it assigns the delta the
        next ``graph_version`` for the config's dataset and ships one
        ``"mutate"`` unit to **every** live worker (each worker holds
        its own replica of the broadcast dataset) over the
        :func:`repro.distributed.pack_arrays` wire framing.  Everything
        already queued is dispatched first, so per-pipe FIFO order
        serializes the mutation after all previously-submitted requests;
        worker-side, each server force-flushes its in-flight batches at
        the mutation boundary.

        The returned future resolves with the new version once every
        live worker acks.  A worker dying with the delta pending has
        its unit requeued (exactly once, like any in-flight unit) to a
        survivor, where the ``expected_version`` guard turns the
        redelivery into a no-op ack — a delta is never applied twice.

        The single server's signature, read by a router: a client
        ``expected_version`` is rejected (``ValueError`` — the router
        assigns versions, and silently dropping the guard would be
        worse), and a broadcast carries **no deadline** — ``timeout``
        is not applied, because a half-expired broadcast would leave
        replicas disagreeing; bound the *wait* with
        ``future.result(timeout=…)`` instead.  ``strict_version`` has
        nothing to tighten: router versions are contiguous.

        With a ``wal_dir`` configured the router is also the **log
        writer**: the delta is fsynced into the dataset's
        :class:`~repro.stream.MutationLog` *before* any worker sees it
        (append-then-broadcast), so a router crash after the append
        re-broadcasts the delta on restart instead of losing it.
        """
        self._require_node_config(config)
        if expected_version is not None:
            raise ValueError(
                "expected_version is not supported for cluster-backed "
                "mutates; the router assigns versions")
        now = _clock.now() if now is None else now
        with self._submit_lock:
            self._check_open()
        with self._lock:
            # ship the queue first: the mutation must land after every
            # request submitted before it, on every worker pipe
            self._dispatch(now)
            ds_id = dataset_identity(config)
            version = self._dataset_versions.get(ds_id, 0) + 1
            log = self._wals.get(ds_id)
            mirror = (self._wal_mirrors.get(ds_id) if log is not None
                      else None)
            if mirror is not None:
                from ..stream.wal import log_apply

                try:
                    log_apply(log, mirror, delta, version)
                except Exception:
                    if log.last_version != version:
                        # refused before it became durable (a delta that
                        # cannot apply must never poison the log):
                        # nothing was assigned, nothing ships
                        raise
                    # the record is durable and will re-broadcast on
                    # restart; a mirror that failed mid-apply can no
                    # longer cut trustworthy snapshots — retire it
                    self._wal_mirrors.pop(ds_id, None)
            elif log is not None:
                # append-then-broadcast with no mirror to validate
                # against: once the record is fsynced, the delta
                # survives a router crash even if no worker saw it —
                # the restart replays it from here
                log.append(delta, version)
            # the version authority advances with the append no matter
            # what happens downstream, so the counter and the log stay
            # contiguous and later submissions keep flowing
            self._dataset_versions[ds_id] = version
            return self._broadcast_delta(config, delta, version, now=now)

    def _config_json_for(self, request: Request) -> str:
        """The request's canonical config JSON, serialized once per key."""
        text = self._config_json.get(request.config_key)
        if text is None:
            text = self._config_json[request.config_key] = \
                request.config.to_json()
        return text

    def _broadcast_delta(self, config, delta, version: int,
                         now: float | None = None) -> ServeFuture:
        """Fan one versioned delta out to every ring worker (hold _lock)."""
        outer = ServeFuture()
        payload = delta.to_payload()
        now = _clock.now() if now is None else now
        mutation = _Mutation(future=outer, version=version)
        key = config_key(config)
        for wid in list(self.router.workers()):
            request = Request(
                id=next(self._ids), config=config, config_key=key,
                kind="mutate", delta=delta, expected_version=version)
            request.enqueued_at = now
            unit = WorkUnit(id=request.id,
                            config_json=self._config_json_for(request),
                            kind="mutate", payload=payload,
                            expected_version=version)
            if not self._send(wid, ("work", unit)):
                continue
            self.router.assign(wid)
            self._inflight[request.id] = _Dispatch(
                request=request, unit=unit, worker_id=wid, mutation=mutation)
            mutation.pending.add(request.id)
        self.stats.bump("mutations")
        if not mutation.pending:
            outer.set_exception(NoWorkersError(
                "no live worker received the delta broadcast"))
            self.stats.bump("failed")
        return outer

    def graph_version(self, config) -> int:
        """The router-side version of the config's dataset (0 = as loaded)."""
        return self._dataset_versions.get(dataset_identity(config), 0)

    def _settle_mutation(self, dispatch: _Dispatch,
                         error: BaseException | None = None) -> None:
        """Record one mutate-unit outcome; resolve the broadcast when done."""
        mutation = dispatch.mutation
        mutation.pending.discard(dispatch.request.id)
        if error is not None and mutation.error is None:
            mutation.error = error
        if mutation.pending or mutation.future.done():
            return
        if mutation.error is not None:
            mutation.future.set_exception(mutation.error)
            self.stats.bump("failed")
        else:
            mutation.future.set_result(mutation.version,
                                       graph_version=mutation.version)
            self.stats.bump("mutations_applied")

    # -- scheduling ------------------------------------------------------- #
    def step(self, now: float | None = None) -> int:
        """One router round: receive results → police workers → dispatch.

        Returns the number of requests completed this round.  ``now``
        threads a virtual clock into deadline culling; heartbeat aging
        reads the same serving clock (:mod:`repro._clock`), so an
        injected fake clock drives both domains together.
        """
        with self._lock:
            done = self._receive(now)
            self._check_workers()
            self._dispatch(now)
        return done

    def _drain_round(self, now: float | None) -> int:
        return self.step(now=now)

    def _loop_once(self) -> None:
        self.step()
        if not self.pending():
            self.queue.wait_nonempty(timeout=0.05)

    def _dispatch(self, now: float | None) -> None:
        self._maybe_ping()
        now = _clock.now() if now is None else now
        tracer = get_tracer()
        for request in self.queue.drain(now=now, on_expired=self._on_expired):
            request.drained_at = now
            dispatch_ctx = None
            if tracer.enabled and request.trace is not None:
                # preallocate the dispatch span's id so the worker can
                # parent its spans under it before the span is recorded
                dispatch_ctx = tracer.new_context(parent=request.trace)
            unit = WorkUnit(
                id=request.id,
                config_json=self._config_json_for(request),
                kind=request.kind,
                payload=self._pack_payload(request),
                trace=(None if dispatch_ctx is None
                       else dispatch_ctx.to_wire()))
            dispatch = _Dispatch(request=request, unit=unit, worker_id="",
                                 trace=dispatch_ctx, sent_at=now)
            if self._steer_to_replica(dispatch) or self._send_unit(dispatch):
                self._inflight[request.id] = dispatch
                self.stats.bump("dispatched")

    def _steer_to_replica(self, dispatch: _Dispatch) -> bool:
        """Ship a version-pinned read to a caught-up read replica.

        Eligible when the request carries ``min_version`` and some live
        replica's last-reported version satisfies it (versions only
        grow, so the report can only be stale in the safe direction).
        Least-loaded caught-up replica wins.  Returns False — fall back
        to normal ring routing — when no replica qualifies.
        """
        request = dispatch.request
        if request.min_version is None or not self.replica_ids:
            return False
        ds_id = dataset_identity(request.config)
        candidates = [
            rid for rid in self.replica_ids
            if rid not in self._dead and rid not in dispatch.excluded
            and self._replica_versions.get((rid, ds_id), -1)
            >= request.min_version]
        while candidates:
            rid = min(candidates, key=lambda r: self._replica_load.get(r, 0))
            if not self._send(rid, ("work", dispatch.unit)):
                dispatch.excluded.add(rid)
                candidates.remove(rid)
                continue
            dispatch.worker_id = rid
            self._replica_load[rid] = self._replica_load.get(rid, 0) + 1
            self.stats.bump("replica_reads")
            return True
        return False

    @staticmethod
    def _pack_payload(request: Request) -> bytes | None:
        from ..distributed.comm import pack_array

        arr = request.nodes if request.kind == "nodes" else request.indices
        return None if arr is None else pack_array(arr)

    def _send(self, wid: str, msg) -> bool:
        """Ship one pipe message; False when the worker is gone.

        The only place a worker pipe is written: a broken pipe is a
        death, so the worker is declared dead (its in-flight units
        requeue) and the caller just sees that nothing was delivered.
        """
        try:
            self.workers[wid].send(msg)
        except (BrokenPipeError, OSError):
            self._declare_dead(wid)
            return False
        return True

    def _send_unit(self, dispatch: _Dispatch) -> bool:
        """Route + ship one unit, failing over past broken workers.

        Returns False (future failed) when no live worker remains.
        """
        while True:
            try:
                wid = self.router.route(dispatch.request.config_key,
                                        excluded=dispatch.excluded)
            except NoWorkersError as exc:
                if dispatch.mutation is not None:
                    # the broadcast's failure is counted once, when the
                    # outer future settles — not once per dead unit
                    self._settle_mutation(dispatch, error=exc)
                else:
                    self._resolve(dispatch.request, _clock.now(), error=exc)
                return False
            if not self._send(wid, ("work", dispatch.unit)):
                # (the route's in-flight slot went with the dead worker)
                dispatch.excluded.add(wid)
                continue
            dispatch.worker_id = wid
            return True

    # -- receive side ----------------------------------------------------- #
    def _receive(self, now: float | None = None) -> int:
        done = 0
        for wid, handle in list(self.workers.items()):
            while handle.poll(0.0):
                try:
                    msg = handle.recv()
                except (EOFError, OSError):
                    # the pipe is done; a retired (or dead) worker's
                    # handle must not be polled forever — reap it so a
                    # long-lived elastic fleet doesn't leak processes
                    if wid not in self.router.workers():
                        self._reap_worker(wid)
                    break
                kind = msg[0]
                if kind == "result":
                    done += self._on_result(msg[1], now)
                elif kind == "pong":
                    self._ping_outstanding[msg[2]] = None
                    if len(msg) > 3 and msg[3]:
                        # protocol v3: a replica's pong reports the
                        # graph_version of every config it tails
                        self._ingest_replica_versions(msg[2], msg[3])
                elif kind == "stats":
                    self._ping_outstanding[msg[2]] = None
                    # only seqs a live stats_snapshot() registered are
                    # kept — a reply landing after its caller timed out
                    # must not accumulate forever
                    bucket = self._stats_replies.get(msg[1])
                    if bucket is not None:
                        bucket[msg[2]] = msg[3]
                elif kind == "bye":
                    # a clean shutdown goodbye: everything the worker had
                    # to say came before it, so an unrouted sender can be
                    # reaped immediately (inline pipes never EOF)
                    if wid not in self.router.workers():
                        self._reap_worker(wid)
                    break
        return done

    def _reap_worker(self, wid: str) -> None:
        """Drop a retired/dead worker's handle once its pipe is exhausted."""
        handle = self.workers.pop(wid, None)
        if handle is None:
            return
        self._ping_outstanding.pop(wid, None)
        handle.join(timeout=1.0)
        handle.terminate()  # no-op on a clean exit; also closes the pipe

    def _on_result(self, result: WorkResult, now: float | None) -> int:
        tracer = get_tracer()
        if result.spans:
            # worker-side spans for this unit's trace (no-op when
            # tracing was switched off while the unit was in flight)
            tracer.ingest(result.spans)
        dispatch = self._inflight.pop(result.id, None)
        if dispatch is None:
            # the request was already answered (e.g. a late result from a
            # worker declared dead after its requeue completed) — deliver
            # at most once, count the duplicate
            self.stats.bump("duplicates_ignored")
            return 0
        if dispatch.worker_id in self._replica_load:
            self._replica_load[dispatch.worker_id] = max(
                0, self._replica_load[dispatch.worker_id] - 1)
        self.router.complete(dispatch.worker_id)
        request = dispatch.request
        if dispatch.mutation is not None:
            # one worker's ack (or error) for a delta broadcast: advance
            # the broadcast's pending set; its outer future settles last
            self._settle_mutation(dispatch, error=None if result.ok else (
                ServeError(f"worker {result.worker_id} failed to apply "
                           f"delta {request.id}: {result.error}")))
            return 0
        now = _clock.now() if now is None else now
        if dispatch.trace is not None and not request.future.done():
            # preallocated at dispatch, so it precedes the request's
            # closing spans in the buffer and parents the worker's
            tracer.record("dispatch", dispatch.sent_at, now,
                          ctx=dispatch.trace,
                          attrs={"worker": result.worker_id,
                                 "attempts": dispatch.attempts})
        if not result.ok:
            return self._resolve(request, now, error=ServeError(
                f"worker {result.worker_id} failed request "
                f"{result.id}: {result.error}"))
        return self._resolve(request, now, value=result.value(),
                             version=result.graph_version)

    def _ingest_replica_versions(self, wid: str, versions: dict) -> None:
        """Fold a replica pong's per-config versions into the lag view."""
        from ..api import RunConfig

        for cfg_json, version in versions.items():
            ds_id = self._json_ds_id.get(cfg_json)
            if ds_id is None:
                ds_id = dataset_identity(RunConfig.from_json(cfg_json))
                self._json_ds_id[cfg_json] = ds_id
            self._replica_versions[(wid, ds_id)] = int(version)
        # one fleet-wide gauge: the worst lag across *every* tracked
        # dataset, not whichever dataset this pong happened to list last
        lags = [self._dataset_versions.get(d, 0) - v
                for (rid, d), v in self._replica_versions.items()
                if rid not in self._dead]
        if lags:
            get_registry().gauge(
                "repro_wal_replica_lag",
                "versions the slowest caught-up read replica trails "
                "the version authority").set(max(0, max(lags)))

    def replica_lag(self, config) -> int | None:
        """Worst replica lag (versions) for ``config``; None = no reports."""
        ds_id = dataset_identity(config)
        authority = self._dataset_versions.get(ds_id, 0)
        lags = [authority - v
                for (rid, d), v in self._replica_versions.items()
                if d == ds_id and rid not in self._dead]
        return max(0, max(lags)) if lags else None

    def wal_for(self, config):
        """The per-dataset :class:`~repro.stream.MutationLog` backing
        ``config`` (``None`` without a ``wal_dir`` or for an unlogged
        dataset)."""
        return self._wals.get(dataset_identity(config))

    # -- worker health ---------------------------------------------------- #
    def _heartbeat_targets(self) -> list:
        return list(self.router.workers()) + [
            rid for rid in self.replica_ids if rid not in self._dead]

    def _maybe_ping(self) -> None:
        wall = _clock.now()
        if wall - self._last_ping < self.heartbeat_interval_s:
            return
        self._last_ping = wall
        seq = next(self._seq)
        for wid in self._heartbeat_targets():
            if (self._send(wid, ("ping", seq))
                    and self._ping_outstanding.get(wid) is None):
                self._ping_outstanding[wid] = wall

    def _check_workers(self) -> None:
        wall = _clock.now()
        for wid in self._heartbeat_targets():
            handle = self.workers[wid]
            sent = self._ping_outstanding.get(wid)
            hung = (sent is not None
                    and wall - sent > self.heartbeat_timeout_s)
            if not handle.alive() or hung:
                self._declare_dead(wid)

    def _declare_dead(self, wid: str) -> None:
        """Remove a worker from routing and requeue its in-flight units."""
        if wid in self._dead:
            return
        self._dead.add(wid)
        self.stats.bump("worker_deaths")
        self.router.mark_dead(wid)
        self._requeue_orphans(wid)

    def _requeue_orphans(self, wid: str) -> None:
        """Re-dispatch every unit in flight on ``wid``, excluding it.

        The one exactly-once path a departing worker's work takes,
        whether it died or was retired: late results from ``wid`` for a
        unit answered elsewhere hit the at-most-once guard.
        """
        orphans = [d for d in self._inflight.values() if d.worker_id == wid]
        for dispatch in orphans:
            dispatch.excluded.add(wid)
            dispatch.attempts += 1
            if self._send_unit(dispatch):
                self.stats.bump("requeued")
            else:
                self._inflight.pop(dispatch.request.id, None)

    # -- observability ---------------------------------------------------- #
    def set_tracing(self, enabled: bool) -> None:
        """Toggle span collection router-side and on every live worker.

        Read replicas live outside the routing ring but serve pinned
        reads, so they get the toggle too.  Process workers receive a
        ``("trace", enabled)`` message over their pipe (FIFO with work,
        so the toggle lands between batches); inline workers share this
        process's tracer and are covered by the local switch alone.
        """
        super().set_tracing(enabled)
        with self._lock:
            for wid in self._heartbeat_targets():
                self._send(wid, ("trace", bool(enabled)))

    def obs_snapshot(self) -> dict:
        """The fleet-merged registry: every worker's plus the router's."""
        return self.stats_snapshot()["obs"]

    # -- stats ------------------------------------------------------------ #
    def stats_snapshot(self, timeout_s: float = 5.0) -> dict:
        """Cluster counters + merged per-worker server/pool statistics.

        Round-trips a stats request to every live worker (late workers
        are reported as missing rather than blocking forever), merges
        their :meth:`~repro.serve.server.ServerStats.state_dict` via
        :meth:`~repro.serve.server.ServerStats.merge`, and sums pool
        counters.  ``"obs"`` is the fleet-wide
        :meth:`~repro.obs.MetricsRegistry.merge` of every worker's
        registry state plus the router's own (inline workers share the
        router's registry and its merge dedups by source, so they are
        never double-counted).  Shape::

            {"cluster": {...}, "router": {...}, "workers": {merged...},
             "pool": {...}, "per_worker": {wid: {...}},
             "workers_alive": N, "obs": {merged registry...}}
        """
        with self._lock:
            seq = next(self._seq)
            live = self._heartbeat_targets()
            replies = self._stats_replies.setdefault(seq, {})
            for wid in live:
                self._send(wid, ("stats", seq))
        # real-time liveness bound: stays on the wall clock even under
        # an injected fake serving clock (see run_until_idle)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                self._receive()
                self._check_workers()
                if all(w in replies for w in self._heartbeat_targets()
                       if w in live):
                    break
            time.sleep(0.001)
        with self._lock:
            states = self._stats_replies.pop(seq, {})
        pools = [s["pool"] for s in states.values()]
        obs_states = [s["obs"] for s in states.values() if "obs" in s]
        obs_states.append(get_registry().state_dict())
        snap = {
            "obs": MetricsRegistry.merge(obs_states),
            "cluster": self.stats.snapshot(),
            "router": self.router.stats.snapshot(),
            "workers": ServerStats.merge(
                [s["server"] for s in states.values()]),
            "pool": {"sessions": sum(p["sessions"] for p in pools),
                     **PoolStats.merge(pools)},
            "per_worker": {wid: {"server": s["server"], "pool": s["pool"]}
                           for wid, s in sorted(states.items())},
            "workers_alive": len(self.router.workers()),
            "replicas_alive": len([r for r in self.replica_ids
                                   if r not in self._dead]),
        }
        if self._wals:
            wal = {}
            for ds_id, log in self._wals.items():
                cfg = self._wal_configs[ds_id]
                wal[self._wal_slug(ds_id)] = {
                    "records": log.record_count,
                    "last_version": log.last_version,
                    "graph_version": self._dataset_versions.get(ds_id, 0),
                    "replica_lag": self.replica_lag(cfg),
                    "replica_versions": {
                        rid: v
                        for (rid, d), v in sorted(
                            self._replica_versions.items())
                        if d == ds_id},
                }
            snap["wal"] = wal
        return snap

    # -- lifecycle -------------------------------------------------------- #
    def _teardown(self) -> None:
        """Shut every worker down, reap processes, close the logs."""
        with self._lock:
            for wid in list(self.workers):
                if wid not in self._dead:
                    self._send(wid, ("shutdown",))
        for handle in self.workers.values():
            handle.join(timeout=5.0)
            if handle.alive():
                handle.terminate()
        for log in self._wals.values():
            log.close()
