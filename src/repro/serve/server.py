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

Intake, the exactly-once resolve, the driven/threaded loop and the
close order are the shared :class:`~repro.serve.tier.ServeTier`
contract; this module adds what is particular to a single server —
batching, execution and the mutation serialization point.  Every
request's latency and every batch's occupancy land in
:class:`ServerStats`, exposed by :meth:`InferenceServer.stats_snapshot`.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .. import _clock
from ..obs import hooks as _hooks
from ..obs.metrics import get_registry
from ..obs.stats import StatBlock
from ..obs.trace import get_tracer
from .batcher import BatchPolicy, MicroBatch, MicroBatcher, seq_len_bucket
from .pool import SessionPool
from .queue import Request, ServeFuture
from .tier import ServeTier

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


class InferenceServer(ServeTier):
    """Batched inference serving over warm :class:`~repro.api.Session`\\ s."""

    def __init__(self, pool: SessionPool | None = None,
                 policy: BatchPolicy | None = None,
                 max_queue_depth: int = 256, wal=None):
        super().__init__(ServerStats(), max_queue_depth)
        # explicit None check: an *empty* SessionPool is falsy (len 0),
        # and replacing an injected-but-empty pool would silently drop
        # its seeded datasets and checkpoint registrations
        self.pool = pool if pool is not None else SessionPool()
        # optional MutationLog: every applied delta is committed through
        # it (validate, append, apply, snapshot at the log's cadence)
        self.wal = wal
        self.policy = policy or BatchPolicy()
        self.batcher = MicroBatcher(self.policy)

    # -- intake ----------------------------------------------------------- #
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
        self._require_node_config(config)
        return self._new_request(config, "mutate", now, timeout, trace,
                                 delta=delta,
                                 expected_version=expected_version,
                                 strict_version=strict_version)

    def graph_version(self, config) -> int:
        """The served dataset's current mutation version for ``config``.

        Acquires (and warms, on a cold pool) the config's session — the
        version is a property of the live dataset, not of the server.
        """
        return self.pool.acquire(config).graph_version

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
                done += self._expand_graph_request(request, now)
        done += self._run_ready(now, force_flush, node_results)
        return done

    def _run_ready(self, now: float, force: bool, node_results: dict) -> int:
        """Execute every batch the batcher considers ready."""
        done = 0
        for batch in self.batcher.ready(now=now, force=force):
            done += self._execute(batch, now, node_results)
        return done

    def pending(self) -> int:
        """Requests queued or sitting in an unflushed micro-batch."""
        return len(self.queue) + len(self.batcher)

    def _drain_round(self, now: float | None) -> int:
        return self.step(now=now, force_flush=True)

    def _loop_once(self) -> None:
        self.step()
        due = self.batcher.next_flush_due()
        if due is not None:
            if due > 0:
                self._stop_event.wait(min(due, 0.05))
        else:
            self.queue.wait_nonempty(timeout=0.05)

    def _expand_graph_request(self, request: Request, now: float) -> int:
        """Split a graph-level request into bucketed per-graph work units.

        Returns how many requests it resolved on the spot (a request
        that cannot be expanded, or one that asks for no graphs).
        """
        try:
            session = self.pool.acquire(request.config, key=request.config_key)
            ds = session.dataset
            idx = (np.arange(ds.num_graphs, dtype=np.int64)
                   if request.indices is None else request.indices)
            sizes = [ds.graphs[int(i)].num_nodes for i in idx]
        except Exception as exc:  # bad indices, dataset mismatch, …
            return self._resolve(request, now, error=exc)
        if not len(idx):
            return self._resolve(request, now,
                                 value=np.empty((0, 0), dtype=np.float64))
        scatter = _GraphScatter(request, num_slots=len(idx))
        for slot, (i, size) in enumerate(zip(idx, sizes)):
            key = (request.config_key, "graphs", seq_len_bucket(size))
            self.batcher.add(key, (scatter, slot, int(i)),
                             enqueued_at=request.enqueued_at,
                             deadline=request.deadline)
        return 0

    # -- execution -------------------------------------------------------- #
    def _execute(self, batch: MicroBatch, now: float,
                 node_results: dict) -> int:
        if batch.key[1] == "nodes":
            return self._execute_nodes(batch, now, node_results)
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
                return sum(self._resolve(request, now, error=exc)
                           for request in requests)
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
            done += self._resolve(request, now, value=logits.copy(),
                                  version=version)
        self.stats.bump("shared_computes", len(requests) - (0 if shared else 1))
        return done

    def _execute_graphs(self, batch: MicroBatch, now: float) -> int:
        """Dedup graph indices, run one predict, scatter to requests."""
        items: list[tuple[_GraphScatter, int, int]] = batch.items
        self.stats.record_batch(len(items))
        first = items[0][0].request
        unique = sorted({i for _, _, i in items})
        # one entry per distinct request in the batch, in arrival order
        owners = list({id(scatter): scatter.request
                       for scatter, _, _ in items}.values())
        tracer = get_tracer()
        roots = ([r for r in owners if r.trace is not None]
                 if tracer.enabled else [])
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
            return sum(self._resolve(request, now, error=exc)
                       for request in owners)
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
                done += self._resolve(
                    scatter.request, now, value=np.stack(scatter.outputs),
                    version=version)
        return done

    def _execute_mutation(self, request: Request, now: float) -> int:
        """Apply one GraphDelta through the config's warm session.

        Every pooled session sharing the dataset object observes the
        change via the bumped ``graph_version`` (their cached contexts
        miss lazily).  With ``expected_version`` set, a dataset already
        at (or past) it means this is a redelivered duplicate — acked
        with the current version, never re-applied.  The commit itself
        (log, apply, version alignment) is
        :meth:`repro.api.Session.apply_delta`'s.
        """
        try:
            session = self.pool.acquire(request.config,
                                        key=request.config_key)
            expected = request.expected_version
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
                session.apply_delta(request.delta, log=self.wal,
                                    version=expected)
                self.stats.bump("mutations")
            version = session.graph_version
        except Exception as exc:
            return self._resolve(request, now, error=exc)
        return self._resolve(request, now, value=version, version=version)

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
