"""Online mutations through the serving tier: server and cluster."""

import numpy as np
import pytest

from repro.api import (
    DataConfig,
    EngineConfig,
    ModelConfig,
    RunConfig,
    Session,
    TrainConfig,
)
from repro.graph import load_node_dataset
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    ServerClosedError,
    ServingCluster,
    SessionPool,
    make_churn_workload,
    run_churn_loop,
)
from repro.stream import GraphDelta, full_rebuild
from tests.helpers import count_prepares

SCALE = 0.12
MODEL = ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                    num_heads=4, dropout=0.0)


def node_config(seed: int = 0) -> RunConfig:
    return RunConfig(data=DataConfig("ogbn-arxiv", scale=SCALE, seed=0),
                     model=MODEL, engine=EngineConfig("gp-raw"),
                     train=TrainConfig(epochs=1), seed=seed)


@pytest.fixture
def dataset():
    return load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)


def make_server(config, dataset) -> InferenceServer:
    pool = SessionPool()
    pool.put_dataset(config, dataset)
    return InferenceServer(pool=pool,
                           policy=BatchPolicy(max_batch_size=8,
                                              max_wait_s=0.0))


class TestServerMutations:
    def test_mutation_serialized_between_batches(self, dataset):
        cfg = node_config()
        server = make_server(cfg, dataset)
        delta = make_churn_workload(dataset, 1, edges_per_delta=4,
                                    seed=1)[0]
        pre = server.submit(cfg)
        mutation = server.submit_delta(cfg, delta)
        post = server.submit(cfg)
        server.run_until_idle()
        # pre-delta and post-delta requests in one drain: the pre read
        # is computed at version 0, the post read at version 1
        assert pre.graph_version == 0
        assert mutation.result(timeout=5.0) == 1
        assert post.graph_version == 1
        assert server.graph_version(cfg) == 1
        assert not np.array_equal(pre.result(timeout=5.0),
                                  post.result(timeout=5.0))

    def test_post_delta_results_bitwise_vs_rebuild(self, dataset):
        cfg = node_config()
        server = make_server(cfg, dataset)
        deltas = make_churn_workload(dataset, 3, edges_per_delta=4,
                                     add_node_every=3, seed=2)
        report = run_churn_loop(server, cfg, deltas, reads_per_delta=1)
        assert report.failed == 0
        assert report.completed == 6

        ref_ds = load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)
        references = {0: Session(cfg, dataset=ref_ds).predict()}
        for v, d in enumerate(deltas, start=1):
            full_rebuild(ref_ds, d)
            references[v] = Session(node_config(), dataset=ref_ds).predict()
        for version, logits in report.results:
            np.testing.assert_array_equal(logits, references[version])

    def test_expected_version_guard_ignores_duplicates(self, dataset):
        cfg = node_config()
        server = make_server(cfg, dataset)
        delta = GraphDelta(add_edges=[[0, 1]])
        first = server.submit_delta(cfg, delta, expected_version=1)
        dup = server.submit_delta(cfg, delta, expected_version=1)
        server.run_until_idle()
        assert first.result(timeout=5.0) == 1
        assert dup.result(timeout=5.0) == 1  # acked, not re-applied
        assert server.stats.mutations == 1
        assert server.stats.mutations_ignored == 1

    def test_lagging_replica_snaps_to_expected_version(self, dataset):
        # a replica that missed a broadcast (worker-side apply error)
        # is one version behind the router authority; applying the next
        # delta must snap it to the expected version so a later
        # redelivered copy no-ops instead of double-applying — node
        # additions are not idempotent
        cfg = node_config()
        server = make_server(cfg, dataset)
        n_before = dataset.num_nodes
        delta = GraphDelta(num_new_nodes=1, new_features=np.zeros(
            (1, dataset.features.shape[1])))
        first = server.submit_delta(cfg, delta, expected_version=2)
        redelivery = server.submit_delta(cfg, delta, expected_version=2)
        server.run_until_idle()
        assert first.result(timeout=5.0) == 2  # snapped past the gap
        assert redelivery.result(timeout=5.0) == 2
        assert server.stats.mutations == 1
        assert server.stats.mutations_ignored == 1
        session = server.pool.acquire(cfg)
        assert session.dataset.num_nodes == n_before + 1  # applied once

    def test_graph_level_config_rejected(self):
        cfg = RunConfig(data=DataConfig("zinc", scale=0.05), model=MODEL,
                        engine=EngineConfig("gp-sparse"),
                        train=TrainConfig(epochs=1), seed=0)
        server = InferenceServer()
        with pytest.raises(ValueError, match="node-level"):
            server.submit_delta(cfg, GraphDelta(add_edges=[[0, 1]]))

    def test_closed_server_rejects_mutations(self, dataset):
        cfg = node_config()
        server = make_server(cfg, dataset)
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit_delta(cfg, GraphDelta(add_edges=[[0, 1]]))

    def test_invalid_delta_fails_future_not_server(self, dataset):
        cfg = node_config()
        server = make_server(cfg, dataset)
        bad = GraphDelta(add_edges=[[0, 10 ** 6]])
        future = server.submit_delta(cfg, bad)
        ok = server.submit(cfg)
        server.run_until_idle()
        with pytest.raises(ValueError):
            future.result(timeout=5.0)
        assert ok.result(timeout=5.0) is not None
        assert server.stats.failed == 1

    def test_mutation_invalidates_only_this_datasets_sessions(
            self, dataset, monkeypatch):
        # two configs over two datasets in one pool: a delta to one must
        # not cold-start the other (its cached context stays)
        cfg_a, cfg_b = node_config(seed=0), RunConfig(
            data=DataConfig("flickr", scale=0.2, seed=0), model=MODEL,
            engine=EngineConfig("gp-raw"), train=TrainConfig(epochs=1),
            seed=0)
        pool = SessionPool()
        pool.put_dataset(cfg_a, dataset)
        server = InferenceServer(pool=pool)
        fa = server.submit(cfg_a)
        fb = server.submit(cfg_b)
        server.run_until_idle()
        session_b = pool.acquire(cfg_b)
        prepares_b = count_prepares(session_b, monkeypatch)
        mutation = server.submit_delta(
            cfg_a, GraphDelta(add_edges=[[0, 1]]))
        server.run_until_idle()
        assert mutation.result(timeout=5.0) == 1
        again_b = server.submit(cfg_b)
        server.run_until_idle()
        # b's cached context is untouched by the delta: served warm
        np.testing.assert_array_equal(again_b.result(timeout=5.0),
                                      fb.result(timeout=5.0))
        assert prepares_b == []


class TestClusterMutations:
    def make_cluster(self, configs, dataset, **kw):
        kw.setdefault("policy", BatchPolicy(max_batch_size=8,
                                            max_wait_s=0.0))
        return ServingCluster(num_workers=2, warm_configs=configs,
                              datasets=[(configs[0], dataset)],
                              backend="inline", **kw)

    def test_broadcast_applies_on_every_worker(self, dataset):
        cfg = node_config()
        delta = make_churn_workload(dataset, 1, edges_per_delta=4,
                                    seed=3)[0]
        with self.make_cluster([cfg], dataset) as cluster:
            mutation = cluster.submit_delta(cfg, delta)
            cluster.run_until_idle()
            assert mutation.result(timeout=5.0) == 1
            assert mutation.graph_version == 1
            assert cluster.graph_version(cfg) == 1
            snap = cluster.stats_snapshot()
            assert snap["cluster"]["mutations"] == 1
            assert snap["cluster"]["mutations_applied"] == 1
            assert snap["workers"]["mutations"] == 2  # one per worker
            post = cluster.submit(cfg)
            cluster.run_until_idle()
            assert post.graph_version == 1

        ref_ds = load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)
        full_rebuild(ref_ds, delta)
        reference = Session(cfg, dataset=ref_ds).predict()
        np.testing.assert_array_equal(post.result(timeout=5.0), reference)

    def test_churn_loop_matches_references(self, dataset):
        cfg = node_config()
        deltas = make_churn_workload(dataset, 2, edges_per_delta=4, seed=4)
        with self.make_cluster([cfg], dataset) as cluster:
            report = run_churn_loop(cluster, cfg, deltas,
                                    reads_per_delta=1)
        assert report.failed == 0
        ref_ds = load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)
        references = {0: Session(cfg, dataset=ref_ds).predict()}
        for v, d in enumerate(deltas, start=1):
            full_rebuild(ref_ds, d)
            references[v] = Session(node_config(), dataset=ref_ds).predict()
        for version, logits in report.results:
            np.testing.assert_array_equal(logits, references[version])

    def test_graph_level_config_rejected(self, dataset):
        cfg = node_config()
        graph_cfg = RunConfig(data=DataConfig("zinc", scale=0.05),
                              model=MODEL, engine=EngineConfig("gp-sparse"),
                              train=TrainConfig(epochs=1), seed=0)
        with self.make_cluster([cfg], dataset) as cluster:
            with pytest.raises(ValueError, match="node-level"):
                cluster.submit_delta(graph_cfg,
                                     GraphDelta(add_edges=[[0, 1]]))

    def test_closed_cluster_rejects_mutations(self, dataset):
        cfg = node_config()
        cluster = self.make_cluster([cfg], dataset)
        cluster.close()
        with pytest.raises(ServerClosedError):
            cluster.submit_delta(cfg, GraphDelta(add_edges=[[0, 1]]))


class TestClusterMutationsProcessBackend:
    def test_mutation_round_trip_over_real_processes(self, dataset):
        cfg = node_config()
        delta = make_churn_workload(dataset, 1, edges_per_delta=4,
                                    seed=5)[0]
        with ServingCluster(num_workers=2, warm_configs=[cfg],
                            datasets=[(cfg, dataset)], backend="process",
                            policy=BatchPolicy(max_batch_size=8,
                                               max_wait_s=0.0)) as cluster:
            pre = cluster.submit(cfg)
            cluster.run_until_idle()
            mutation = cluster.submit_delta(cfg, delta)
            cluster.run_until_idle()
            assert mutation.result(timeout=30.0) == 1
            post = cluster.submit(cfg)
            cluster.run_until_idle()
            assert post.graph_version == 1
            assert pre.graph_version == 0
        ref_ds = load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)
        full_rebuild(ref_ds, delta)
        reference = Session(cfg, dataset=ref_ds).predict()
        np.testing.assert_array_equal(post.result(timeout=5.0), reference)
