"""Batched inference serving: queue → micro-batcher → warm pool → Session.

The request layer over :mod:`repro.api`: an :class:`InferenceServer`
accepts asynchronous per-request submissions (futures, deadlines,
bounded-queue backpressure), coalesces them into micro-batches keyed by
(config hash, graph identity), and executes them on warm
:class:`~repro.api.Session` objects cached in an LRU
:class:`SessionPool` — so a stream of requests pays engine planning,
pattern construction and dataset synthesis once per config instead of
once per call.  :mod:`repro.serve.loadgen` drives it with seeded
closed-/open-loop load for benchmarking (``repro bench-serve``).

Above the single server sits the sharded tier
(:mod:`repro.serve.cluster`): a :class:`ServingCluster` routes requests
to N worker processes by consistent hash of the config key
(:mod:`repro.serve.router`), each worker running its own server over a
warm pool (:mod:`repro.serve.worker`), with heartbeat death detection
and exactly-once requeue of in-flight work — ``repro serve --workers N``
and ``repro bench-serve --workers N`` on the CLI.

Both tiers are one :class:`ServeTier` contract
(:mod:`repro.serve.tier`: intake, exactly-once resolve, driven/threaded
loop, close order), so callers hold "a tier" and never ask which.

Both tiers accept **online graph mutations** (:mod:`repro.stream`):
``submit_delta`` serializes a :class:`~repro.stream.GraphDelta` against
in-flight micro-batches (single server) or broadcasts it version-guarded
to every worker (cluster), and every result future carries the
``graph_version`` it was computed at so clients can detect staleness.
All serve-layer timestamps flow through one injectable clock source
(:mod:`repro._clock`): deadlines, heartbeat aging and latency
accounting advance together, on the wall clock or a test's
:class:`ManualClock`.
"""

from .._clock import ManualClock, clock_override
from ..obs.stats import latency_summary
from .batcher import BatchPolicy, MicroBatch, MicroBatcher, seq_len_bucket
from .cluster import ClusterStats, ServingCluster
from .elastic import ElasticController, ElasticPolicy, ElasticStats
from .loadgen import (
    LoadReport,
    TenantSpec,
    compare_cluster_scaling,
    compare_with_naive,
    make_churn_workload,
    make_graph_workload,
    make_mixed_config_workload,
    make_node_workload,
    make_tenant_arrivals,
    run_churn_loop,
    run_closed_loop,
    run_cluster_closed_loop,
    run_multitenant_loop,
    run_open_loop,
)
from .pool import PoolStats, SessionPool, config_key, dataset_identity
from .router import HashRing, NoWorkersError, Router, RouterStats
from .queue import (
    DeadlineExceededError,
    QueueFullError,
    Request,
    RequestQueue,
    ServeError,
    ServeFuture,
    ServerClosedError,
)
from .server import InferenceServer, ServerStats
from .tier import ServeTier, ThreadDriven
from .worker import (
    InlineWorker,
    ProcessWorker,
    WorkerInit,
    WorkerRuntime,
    WorkResult,
    WorkUnit,
)

__all__ = [
    "ManualClock",
    "clock_override",
    "BatchPolicy",
    "MicroBatch",
    "MicroBatcher",
    "seq_len_bucket",
    "SessionPool",
    "PoolStats",
    "config_key",
    "dataset_identity",
    "RequestQueue",
    "Request",
    "ServeFuture",
    "ServeError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "ThreadDriven",
    "ServeTier",
    "InferenceServer",
    "ServerStats",
    "latency_summary",
    "HashRing",
    "Router",
    "RouterStats",
    "NoWorkersError",
    "ServingCluster",
    "ClusterStats",
    "ElasticPolicy",
    "ElasticStats",
    "ElasticController",
    "WorkUnit",
    "WorkResult",
    "WorkerInit",
    "WorkerRuntime",
    "InlineWorker",
    "ProcessWorker",
    "LoadReport",
    "TenantSpec",
    "make_node_workload",
    "make_graph_workload",
    "make_mixed_config_workload",
    "make_churn_workload",
    "make_tenant_arrivals",
    "run_churn_loop",
    "run_closed_loop",
    "run_open_loop",
    "run_multitenant_loop",
    "run_cluster_closed_loop",
    "compare_with_naive",
    "compare_cluster_scaling",
]
