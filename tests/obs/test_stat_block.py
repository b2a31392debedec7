"""StatBlock: one counting primitive under all seven stats surfaces.

Two halves.  The contract tests run the same checks over every surface
declared on :class:`~repro.obs.stats.StatBlock` (server, cluster, net,
router, elastic, pool, chunk cache): a bump moves attribute, snapshot
and registry series together; instances stay separate while the
registry sums them; the instance still counts with collection off;
``merge`` of N states equals one block that saw every bump.  The golden
pins were computed on the commit *before* the seven hand-rolled classes
were folded into ``StatBlock`` — snapshot key order and the Prometheus
``# HELP`` / ``# TYPE`` lines are what operators and the REPL see.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.api import (
    DataConfig,
    EngineConfig,
    ModelConfig,
    RunConfig,
    TrainConfig,
)
from repro.graph import load_node_dataset
from repro.net import NetServerStats
from repro.obs import get_registry, set_metrics_enabled, to_prometheus
from repro.obs.stats import StatBlock
from repro.serve import (
    BatchPolicy,
    ClusterStats,
    ElasticStats,
    ManualClock,
    PoolStats,
    RouterStats,
    ServerStats,
    ServingCluster,
    clock_override,
    config_key,
)
from repro.serve.worker import WorkerInit, WorkerRuntime
from repro.store.chunks import ChunkCache
from repro.stream import make_churn_deltas

SURFACES = [ServerStats, ClusterStats, NetServerStats, RouterStats,
            ElasticStats, PoolStats, ChunkCache]
WITH_LATENCY = [cls for cls in SURFACES if cls.LATENCY is not None]


def fields(cls):
    return (*cls.COUNTERS, *cls.LABELED)


def view(block) -> dict:
    """The surface's human-facing dict (the cache calls it ``stats``)."""
    return block.stats() if isinstance(block, ChunkCache) else block.snapshot()


def series_value(cls, field):
    """The registry series a declared field is mirrored into."""
    if field in cls.COUNTERS:
        return get_registry().get(f"{cls.PREFIX}_{field}_total").value()
    metric, _, label, value = cls.LABELED[field]
    return get_registry().get(metric).value(**{label: value})


def bump_all(block, scale=1):
    """Bump every declared field by a distinct amount; returns the amounts."""
    amounts = {f: scale * (i + 2) for i, f in enumerate(fields(type(block)))}
    for f, n in amounts.items():
        block.bump(f, n)
    return amounts


@pytest.mark.parametrize("cls", SURFACES)
class TestContract:
    def test_every_surface_is_a_stat_block(self, cls):
        assert issubclass(cls, StatBlock) and fields(cls)

    def test_bump_moves_attribute_snapshot_and_series_together(self, cls):
        block = cls()
        amounts = bump_all(block)
        snap, state = view(block), block.state_dict()
        hidden = set()
        for f, n in amounts.items():
            assert getattr(block, f) == n
            assert state[f] == n
            assert series_value(cls, f) == n
            if f in snap:
                assert snap[f] == n
            else:
                hidden.add(f)
        # only the server hides a field: the raw occupancy sum is shown
        # as the derived mean instead
        assert hidden == ({"batched_requests"} if cls is ServerStats
                          else set())

    def test_instances_stay_separate_and_the_registry_sums_them(self, cls):
        a, b = cls(), cls()
        first, second = bump_all(a), bump_all(b, scale=10)
        for f in fields(cls):
            assert getattr(a, f) == first[f]
            assert getattr(b, f) == second[f]
            assert series_value(cls, f) == first[f] + second[f]

    def test_instance_counts_while_collection_is_off(self, cls):
        block = cls()
        set_metrics_enabled(False)
        try:
            amounts = bump_all(block)
            if cls.LATENCY is not None:
                block.record_latency(0.5)
        finally:
            set_metrics_enabled(True)
        for f, n in amounts.items():
            assert getattr(block, f) == n
            assert series_value(cls, f) == 0
        if cls.LATENCY is not None:
            assert list(block.latencies) == [0.5]
            assert get_registry().get(cls.LATENCY[0]).count() == 0

    def test_merge_equals_one_block_that_saw_every_bump(self, cls):
        parts, whole = [cls() for _ in range(3)], cls()
        for i, part in enumerate(parts):
            for f, n in bump_all(part, scale=i + 1).items():
                whole.bump(f, n)
            if cls.LATENCY is not None:
                part.record_latency(0.1 * (i + 1))
                whole.record_latency(0.1 * (i + 1))
        merged = cls.merge([p.state_dict() for p in parts])
        assert merged == whole.snapshot()

    def test_undeclared_field_is_refused_before_anything_moves(self, cls):
        block = cls()
        before = block.state_dict()
        with pytest.raises(KeyError):
            block.bump("latencies")
        assert block.state_dict() == before


@pytest.mark.parametrize("cls", WITH_LATENCY)
class TestLatencyWindow:
    def test_snapshot_never_raises_against_a_latency_writer(self, cls):
        """Iterating a deque during an append raises: both sides lock."""
        stats = cls()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                stats.record_latency(i * 1e-4)
                i += 1

        def reader():
            try:
                for _ in range(1500):
                    assert not (stats.snapshot()["latency_p50_s"] < 0.0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            w = threading.Thread(target=writer)
            r = threading.Thread(target=reader)
            w.start()
            r.start()
            r.join(timeout=60.0)
            stop.set()
            w.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not r.is_alive() and not w.is_alive()
        assert not errors

    def test_window_is_bounded_and_feeds_the_histogram(self, cls):
        stats = cls()
        for i in range(4100):
            stats.record_latency(float(i))
        assert len(stats.latencies) == 4096
        assert stats.latencies[0] == 4.0
        assert get_registry().get(cls.LATENCY[0]).count() == 4100
        assert stats.snapshot()["latency_p50_s"] == np.percentile(
            np.arange(4.0, 4100.0), 50)


# --------------------------------------------------------------------- #
# golden pins, computed on the parent of the StatBlock refactor
# --------------------------------------------------------------------- #
LATENCY_KEYS = ["latency_mean_s", "latency_p50_s", "latency_p95_s"]
GOLDEN_KEYS = {
    "server": ["submitted", "completed", "rejected", "expired", "failed",
               "batches", "mean_batch_occupancy", "shared_computes",
               "mutations", "mutations_ignored", *LATENCY_KEYS],
    "server_state": ["submitted", "completed", "rejected", "expired",
                     "failed", "batches", "batched_requests",
                     "shared_computes", "mutations", "mutations_ignored",
                     "latencies"],
    "merge": ["submitted", "completed", "rejected", "expired", "failed",
              "batches", "shared_computes", "mutations",
              "mutations_ignored", "mean_batch_occupancy", *LATENCY_KEYS],
    "cluster": ["submitted", "completed", "rejected", "expired", "failed",
                "dispatched", "requeued", "worker_deaths",
                "duplicates_ignored", "mutations", "mutations_applied",
                "workers_spawned", "workers_retired", "replica_reads",
                *LATENCY_KEYS],
    "net": ["connections", "disconnects", "requests", "responses",
            "rejected_quota", "rejected_shed", "rejected_backpressure",
            "protocol_errors", "read_timeouts", "bytes_in", "bytes_out",
            *LATENCY_KEYS],
    "router": ["routed", "sticky", "spills", "reroutes"],
    "elastic": ["spawned", "retired"],
    "chunks": ["hits", "misses", "evictions", "cached_chunks",
               "cached_bytes", "pinned_chunks", "budget_bytes"],
    "worker_state": ["worker_id", "server", "obs", "pool"],
    "pool": ["sessions", "hits", "misses", "evictions", "checkpoint_loads"],
    "cluster_snapshot": ["obs", "cluster", "router", "workers", "pool",
                         "per_worker", "workers_alive", "replicas_alive"],
}
SURFACE_PREFIXES = ("repro_serve_", "repro_cluster_", "repro_net_",
                    "repro_pool_", "repro_router_", "repro_elastic_",
                    "repro_store_chunk_")
#: sha256 over the 94 ``# HELP`` / ``# TYPE`` lines of those families
GOLDEN_EXPOSITION = ("c31befdc35c5284116c75181e000b8ea"
                     "2fcea6bdf1eec028e1be12cee71b6869")
GOLDEN_LABELS = {"repro_elastic_actions_total": ["action"],
                 "repro_net_bytes_total": ["direction"],
                 "repro_router_decisions_total": ["decision"]}

CONFIG = RunConfig(data=DataConfig("ogbn-arxiv", scale=0.1, seed=0),
                   model=ModelConfig("graphormer-slim", num_layers=2,
                                     hidden_dim=16, num_heads=4,
                                     dropout=0.0),
                   engine=EngineConfig("gp-raw"),
                   train=TrainConfig(epochs=1), seed=0)


def scripted_session() -> dict:
    """Submit, mutate, expire and requeue on an inline cluster."""
    dataset = load_node_dataset("ogbn-arxiv", scale=0.1, seed=0)
    clock = ManualClock()
    with clock_override(clock), ServingCluster(
            num_workers=2, warm_configs=[CONFIG],
            datasets=[(CONFIG, dataset)], backend="inline",
            auto_inline=False,
            policy=BatchPolicy(max_batch_size=8, max_wait_s=0.0),
            heartbeat_interval_s=1e9) as cluster:
        victim = cluster.router.ring.lookup(config_key(CONFIG))
        survivor = (set(cluster.workers) - {victim}).pop()
        delta = make_churn_deltas(dataset, 1, edges_per_delta=4, seed=3)[0]
        mutated = cluster.submit_delta(CONFIG, delta)
        cluster.step()
        for handle in cluster.workers.values():
            handle.step_worker()
        cluster.run_until_idle()
        assert mutated.result(timeout=5.0) == 1
        late = cluster.submit(CONFIG, nodes=np.arange(4), timeout=1.0)
        clock.advance(2.0)
        cluster.step()  # culled router-side, never dispatched
        futures = [cluster.submit(CONFIG, nodes=np.arange(8))
                   for _ in range(2)]
        cluster.step()  # units sit in the victim's inbox
        cluster.workers[victim].fail()
        cluster.step()  # death detected -> requeue to the survivor
        cluster.workers[survivor].step_worker()
        cluster.run_until_idle()
        for f in futures:
            f.result(timeout=5.0)
        assert late.exception(timeout=1.0) is not None
        cluster.workers[survivor].auto = True  # answer the stats request
        return cluster.stats_snapshot()


class TestGoldenPins:
    def test_snapshot_key_order(self):
        runtime = WorkerRuntime(WorkerInit(worker_id="w0"))
        got = {
            "server": ServerStats().snapshot(),
            "server_state": ServerStats().state_dict(),
            "merge": ServerStats.merge([ServerStats().state_dict()]),
            "cluster": ClusterStats().snapshot(),
            "net": NetServerStats().snapshot(),
            "router": RouterStats().snapshot(),
            "elastic": ElasticStats().snapshot(),
            "chunks": ChunkCache().stats(),
            "worker_state": runtime.state(),
            "pool": runtime.state()["pool"],
        }
        for name, snap in got.items():
            assert list(snap) == GOLDEN_KEYS[name], name

    def test_scripted_cluster_session(self):
        # the net, elastic and chunk families register on construction
        NetServerStats(), ElasticStats(), ChunkCache()
        snap = scripted_session()
        assert list(snap) == GOLDEN_KEYS["cluster_snapshot"]
        assert list(snap["cluster"]) == GOLDEN_KEYS["cluster"]
        assert list(snap["workers"]) == GOLDEN_KEYS["merge"]
        assert list(snap["pool"]) == GOLDEN_KEYS["pool"]
        # the counts the parent commit produced for the same script
        counts = {k: v for k, v in snap["cluster"].items()
                  if k not in LATENCY_KEYS}
        assert counts == {
            "submitted": 3, "completed": 2, "rejected": 0, "expired": 1,
            "failed": 0, "dispatched": 2, "requeued": 2,
            "worker_deaths": 1, "duplicates_ignored": 0, "mutations": 1,
            "mutations_applied": 1, "workers_spawned": 0,
            "workers_retired": 0, "replica_reads": 0}
        assert snap["router"] == {"routed": 4, "sticky": 4, "spills": 0,
                                  "reroutes": 0}
        workers = {k: v for k, v in snap["workers"].items()
                   if k not in LATENCY_KEYS}
        assert workers == {
            "submitted": 3, "completed": 3, "rejected": 0, "expired": 0,
            "failed": 0, "batches": 1, "shared_computes": 1,
            "mutations": 1, "mutations_ignored": 0,
            "mean_batch_occupancy": 2.0}
        assert snap["pool"] == {"sessions": 1, "hits": 1, "misses": 1,
                                "evictions": 0, "checkpoint_loads": 0}

        obs = snap["obs"]
        heads = [line for line in to_prometheus(obs).splitlines()
                 if line.startswith("# ")
                 and line.split()[2].startswith(SURFACE_PREFIXES)]
        digest = hashlib.sha256("\n".join(heads).encode()).hexdigest()
        assert (len(heads), digest) == (94, GOLDEN_EXPOSITION), "\n".join(
            heads)
        labels = {name: entry["label_names"] for name, entry in obs.items()
                  if name.startswith(SURFACE_PREFIXES)
                  and entry["label_names"]}
        assert labels == GOLDEN_LABELS
