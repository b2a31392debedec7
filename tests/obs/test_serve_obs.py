"""Observability through the serving tiers: spans, counters, hooks.

Covers the tentpole wiring (per-request span trees on both the single
server and the cluster, registry twins of the ad-hoc stats dicts) and
two satellite guarantees: snapshot reads are safe against concurrent
writer threads, and worker death/requeue never double-counts a request
in the registry (including the late-pipe-flush delivery).
"""

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
from repro.obs import add_hook, get_registry, get_tracer, set_tracing
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    ManualClock,
    ServingCluster,
    SessionPool,
    clock_override,
    config_key,
)
from repro.serve.cluster import ClusterStats
from repro.serve.worker import WIRE_PROTOCOL_VERSION, WorkerInit, WorkerRuntime
from tests.helpers import snapshot_with_append_inside

MODEL = ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                    num_heads=4, dropout=0.0)
SCALE = 0.1


def make_config(seed: int) -> RunConfig:
    return RunConfig(data=DataConfig("ogbn-arxiv", scale=SCALE, seed=0),
                     model=MODEL, engine=EngineConfig("gp-raw"),
                     train=TrainConfig(epochs=1), seed=seed)


@pytest.fixture(scope="module")
def dataset():
    return load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)


@pytest.fixture(scope="module")
def configs():
    return [make_config(s) for s in range(2)]


def make_server(configs, dataset) -> InferenceServer:
    pool = SessionPool(max_sessions=4)
    pool.put_dataset(configs[0], dataset)
    return InferenceServer(pool=pool,
                           policy=BatchPolicy(max_batch_size=8,
                                              max_wait_s=0.0))


def inline_cluster(configs, dataset, *, auto=True, **kw):
    kw.setdefault("policy", BatchPolicy(max_batch_size=8, max_wait_s=0.0))
    return ServingCluster(num_workers=2, warm_configs=configs,
                          datasets=[(configs[0], dataset)],
                          backend="inline", auto_inline=auto, **kw)


def span_tree(spans):
    """{trace_id: {span_id: span}} with parent links sanity-checked."""
    traces = {}
    for s in spans:
        traces.setdefault(s.trace_id, {})[s.span_id] = s
    for members in traces.values():
        for s in members.values():
            if s.parent_id is not None:
                assert s.parent_id in members, (
                    f"span {s.name} has dangling parent {s.parent_id}")
    return traces


class TestServerSpans:
    def test_single_request_span_tree(self, configs, dataset):
        set_tracing(True)
        server = make_server(configs, dataset)
        fut = server.submit(configs[0], nodes=np.array([1, 2, 3]))
        server.run_until_idle()
        fut.result(timeout=5.0)
        server.close()

        traces = span_tree(get_tracer().spans())
        assert len(traces) == 1
        (members,) = traces.values()
        by_name = {s.name: s for s in members.values()}
        assert set(by_name) >= {"request", "queue_wait", "batch", "compute"}
        root = by_name["request"]
        assert root.parent_id is None
        assert root.attrs["kind"] == "nodes"
        for name in ("queue_wait", "batch", "compute"):
            assert by_name[name].parent_id == root.span_id

    def test_manual_clock_pins_segment_durations(self, configs, dataset):
        set_tracing(True)
        clock = ManualClock(start=10.0)
        with clock_override(clock):
            server = make_server(configs, dataset)
            fut = server.submit(configs[0], nodes=np.array([0, 1]),
                                now=10.0)
            clock.advance(0.25)  # the request sits queued for 0.25 s
            server.step(now=10.25)
            fut.result(timeout=5.0)
            server.close()
        by_name = {s.name: s for s in get_tracer().spans()}
        assert by_name["queue_wait"].duration == pytest.approx(0.25)
        assert by_name["queue_wait"].start == 10.0
        # batch span: drain -> flush, zero elapsed on the frozen clock
        assert by_name["batch"].duration == 0.0

    def test_tracing_off_records_nothing(self, configs, dataset):
        server = make_server(configs, dataset)
        fut = server.submit(configs[0], nodes=np.array([1, 2]))
        server.run_until_idle()
        fut.result(timeout=5.0)
        server.close()
        assert get_tracer().spans() == []


class TestClusterSpans:
    def test_cluster_span_tree_crosses_worker_boundary(self, configs,
                                                       dataset):
        set_tracing(True)
        with inline_cluster(configs, dataset) as cluster:
            fut = cluster.submit(configs[0], nodes=np.array([1, 2, 3]))
            cluster.run_until_idle()
            fut.result(timeout=5.0)
            spans = cluster.trace_spans()

        traces = span_tree(spans)
        assert len(traces) == 1
        (members,) = traces.values()
        names = sorted(s.name for s in members.values())
        # router side: request root, queue_wait, dispatch; worker side:
        # its own request/queue_wait plus batch and compute — >= 5 spans
        # under one trace_id as the acceptance gate requires
        assert len(members) >= 5
        assert {"request", "queue_wait", "dispatch", "batch",
                "compute"} <= set(names)
        roots = [s for s in members.values() if s.parent_id is None]
        assert len(roots) == 1
        assert roots[0].name == "request"

    def test_set_tracing_toggles_fleet(self, configs, dataset):
        with inline_cluster(configs, dataset) as cluster:
            cluster.set_tracing(True)
            fut = cluster.submit(configs[0])
            cluster.run_until_idle()
            fut.result(timeout=5.0)
            assert cluster.trace_spans()
            cluster.set_tracing(False)
            get_tracer().clear()
            fut = cluster.submit(configs[0])
            cluster.run_until_idle()
            fut.result(timeout=5.0)
            assert cluster.trace_spans() == []


class TestRegistryTwins:
    def test_cluster_counters_mirror_snapshot(self, configs, dataset):
        with inline_cluster(configs, dataset) as cluster:
            futures = [cluster.submit(configs[0]) for _ in range(3)]
            cluster.run_until_idle()
            for f in futures:
                f.result(timeout=5.0)
            snap = cluster.stats_snapshot()
        obs = snap["obs"]
        assert (obs["repro_cluster_submitted_total"]["series"][0]["value"]
                == snap["cluster"]["submitted"] == 3)
        assert (obs["repro_cluster_completed_total"]["series"][0]["value"]
                == snap["cluster"]["completed"] == 3)
        # inline workers share the router's registry: the merged view
        # must count the shared registry once, not once per worker
        assert (obs["repro_serve_submitted_total"]["series"][0]["value"]
                == 3)
        latency = obs["repro_cluster_request_latency_seconds"]["series"][0]
        assert latency["count"] == 3

    def test_router_decision_labels(self, configs, dataset):
        with inline_cluster(configs, dataset) as cluster:
            futures = [cluster.submit(configs[0]) for _ in range(4)]
            cluster.run_until_idle()
            for f in futures:
                f.result(timeout=5.0)
            snap = cluster.stats_snapshot()
        series = {s["labels"]["decision"]: s["value"]
                  for s in snap["obs"]
                  ["repro_router_decisions_total"]["series"]}
        assert sum(series.values()) == snap["router"]["routed"] == 4


class TestDeathRequeue:
    def test_requeue_does_not_double_count(self, configs, dataset):
        set_tracing(True)
        with inline_cluster(configs, dataset, auto=False) as cluster:
            cfg = configs[0]
            victim = cluster.router.ring.lookup(config_key(cfg))
            futures = [cluster.submit(cfg) for _ in range(3)]
            cluster.step()  # units sit in the victim's inbox
            cluster.workers[victim].fail()  # crash before executing
            cluster.step()  # death detected -> requeue to survivor
            survivor = ({w for w in cluster.workers} - {victim}).pop()
            cluster.workers[survivor].step_worker()
            cluster.run_until_idle()
            for f in futures:
                f.result(timeout=5.0)
            spans = cluster.trace_spans()
            snap = cluster.stats_snapshot()
        obs = snap["obs"]

        def total(name):
            series = obs[name]["series"]
            return series[0]["value"] if series else 0

        assert total("repro_cluster_completed_total") == 3
        assert total("repro_cluster_requeued_total") == 3
        assert total("repro_cluster_worker_deaths_total") == 1
        assert total("repro_cluster_duplicates_ignored_total") == 0
        # despite the requeue, each request has exactly one root span
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 3
        assert all(s.name == "request" for s in roots)

    def test_late_pipe_flush_counts_once(self, configs, dataset):
        set_tracing(True)
        with inline_cluster(configs, dataset, auto=False) as cluster:
            cfg = configs[0]
            victim = cluster.router.ring.lookup(config_key(cfg))
            survivor = ({w for w in cluster.workers} - {victim}).pop()
            futures = [cluster.submit(cfg) for _ in range(2)]
            cluster.step()  # dispatch to victim
            # victim computes but "dies" before its pipe flushes
            cluster.workers[victim].fail(deliver_pending=True,
                                         hold_results=True)
            cluster.step()  # death detected -> requeued to survivor
            cluster.workers[survivor].step_worker()
            cluster.workers[victim].release()  # late flush lands
            cluster.run_until_idle()
            for f in futures:
                f.result(timeout=5.0)
            spans = cluster.trace_spans()
            snap = cluster.stats_snapshot()
        obs = snap["obs"]

        def total(name):
            return obs[name]["series"][0]["value"]

        # two answers arrived per request; the registry counts each
        # request complete exactly once and the extras as duplicates
        assert total("repro_cluster_completed_total") == 2
        assert total("repro_cluster_duplicates_ignored_total") == 2
        assert snap["cluster"]["duplicates_ignored"] == 2
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 2
        assert all(s.name == "request" for s in roots)


class TestSnapshotRaces:
    def test_cluster_stats_snapshot_vs_latency_writer(self):
        """Regression: snapshot() copied the latency deque while another
        thread appended — iteration over a mutating deque raises.  The
        append is forced inside the copy."""
        snap, errors, writer = snapshot_with_append_inside(ClusterStats())
        assert not writer.is_alive()
        assert not errors
        assert not (snap["latency_p50_s"] < 0.0)

    def test_snapshot_hammered_during_threaded_serving(self, configs,
                                                       dataset):
        server = make_server(configs, dataset).start()
        errors = []

        def hammer():
            try:
                for _ in range(300):
                    server.stats_snapshot()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        futures = [server.submit(configs[0], nodes=np.array([i, i + 1]))
                   for i in range(8)]
        for f in futures:
            f.result(timeout=30.0)
        for t in threads:
            t.join()
        server.stop()
        server.close()
        assert not errors
        assert server.stats.completed == 8


class TestWireProtocol:
    def test_protocol_mismatch_rejected(self):
        init = WorkerInit(worker_id="w0",
                          protocol=WIRE_PROTOCOL_VERSION + 1)
        with pytest.raises(ValueError, match="wire protocol mismatch"):
            WorkerRuntime(init)

    def test_current_protocol_accepted(self):
        runtime = WorkerRuntime(WorkerInit(worker_id="w0"))
        assert runtime.worker_id == "w0"


class TestHooks:
    def test_raising_hook_is_suppressed_and_counted(self):
        from repro.store.chunks import ChunkCache

        def bad_hook(**kwargs):
            raise RuntimeError("boom")

        add_hook("on_chunk_miss", bad_hook)
        cache = ChunkCache(budget_bytes=1 << 20)
        arr = np.arange(16, dtype=np.float64)
        got = cache.get(("features", 0), lambda: arr)
        np.testing.assert_array_equal(got, arr)  # the fetch survives the hook
        errors = get_registry().get("repro_obs_hook_errors_total")
        assert errors is not None
        assert errors.value(hook="on_chunk_miss") == 1

    def test_chunk_miss_hook_and_store_counters(self):
        from repro.store.chunks import ChunkCache

        misses = []
        add_hook("on_chunk_miss",
                 lambda key, nbytes: misses.append((key, nbytes)))
        cache = ChunkCache(budget_bytes=1 << 20)
        arr = np.zeros(16, dtype=np.float64)
        cache.get(("features", 0), lambda: arr)  # miss
        cache.get(("features", 0), lambda: arr)  # hit
        assert misses == [(("features", 0), arr.nbytes)]
        reg = get_registry()
        assert reg.get("repro_store_chunk_misses_total").value() == 1
        assert reg.get("repro_store_chunk_hits_total").value() == 1
        assert reg.get("repro_store_cached_bytes").value() == arr.nbytes
