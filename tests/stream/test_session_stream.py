"""Session.apply_delta: bitwise parity, lazy invalidation, cache audit."""

import copy

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
from repro.stream import GraphDelta, full_rebuild, make_churn_deltas
from tests.helpers import count_prepares

SCALE = 0.15
MODEL = ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                    num_heads=4, dropout=0.0)


def node_config(seed: int = 0, engine: str = "torchgt") -> RunConfig:
    return RunConfig(data=DataConfig("ogbn-arxiv", scale=SCALE, seed=0),
                     model=MODEL, engine=EngineConfig(engine),
                     train=TrainConfig(epochs=1), seed=seed)


@pytest.fixture
def dataset():
    return load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)


class TestApplyDelta:
    def test_post_delta_logits_match_from_scratch_rebuild(self, dataset):
        deltas = make_churn_deltas(dataset, 4, edges_per_delta=5,
                                   add_node_every=2, seed=1)
        live = Session(node_config(), dataset=dataset)
        live.predict()  # warm cache that every delta must invalidate
        for d in deltas:
            live.apply_delta(d)
        assert live.graph_version == 4

        ref_ds = load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)
        for d in deltas:
            full_rebuild(ref_ds, d)
        reference = Session(node_config(), dataset=ref_ds).predict()
        np.testing.assert_array_equal(live.predict(), reference)

    def test_delta_through_one_session_invalidates_the_other(self, dataset):
        # two sessions (different model seeds) share one dataset object,
        # as in a warm SessionPool; a delta applied through the first
        # must lazily invalidate the second's cached context
        a = Session(node_config(seed=0), dataset=dataset)
        b = Session(node_config(seed=7), dataset=dataset)
        b.predict()
        delta = make_churn_deltas(dataset, 1, edges_per_delta=5, seed=2)[0]
        a.apply_delta(delta)

        ref_ds = load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)
        full_rebuild(ref_ds, delta)
        reference = Session(node_config(seed=7), dataset=ref_ds).predict()
        np.testing.assert_array_equal(b.predict(), reference)

    def test_repeated_predict_after_delta_hits_fresh_cache(self, dataset,
                                                           monkeypatch):
        s = Session(node_config(), dataset=dataset)
        s.predict()
        s.apply_delta(GraphDelta(add_edges=[[0, 1]]))
        calls = count_prepares(s, monkeypatch)
        first = s.predict()
        again = s.predict()
        assert len(calls) == 1  # same version → cache hit
        np.testing.assert_array_equal(first, again)

    def test_graph_level_session_rejects_deltas(self):
        cfg = RunConfig(data=DataConfig("zinc", scale=0.05), model=MODEL,
                        engine=EngineConfig("gp-sparse"),
                        train=TrainConfig(epochs=1), seed=0)
        with pytest.raises(ValueError, match="node-level"):
            Session(cfg).apply_delta(GraphDelta(add_edges=[[0, 1]]))

    def test_delta_rejected_mid_fit(self, dataset):
        from repro.train import Callback

        s = Session(node_config(), dataset=dataset)

        class MutateMidFit(Callback):
            def on_epoch_end(self, epoch, record):
                s.apply_delta(GraphDelta(add_edges=[[0, 1]]))

        with pytest.raises(RuntimeError, match="fit"):
            s.fit(callbacks=MutateMidFit())

    def test_new_nodes_get_logits(self, dataset):
        n, feat = dataset.num_nodes, dataset.features.shape[1]
        s = Session(node_config(), dataset=dataset)
        s.apply_delta(GraphDelta(
            num_new_nodes=1, new_features=np.zeros((1, feat)),
            add_edges=[[n, 0]]))
        logits = s.predict()
        assert logits.shape[0] == n + 1


class TestWeightMutationAudit:
    def test_checkpoint_into_live_session_serves_fresh_logits(
            self, dataset, tmp_path):
        # the stale-logits regression: a warm session whose weights are
        # swapped by a checkpoint load must serve the new weights'
        # logits, bitwise equal to a cold session loading the same file
        path = str(tmp_path / "w.npz")
        trained = Session(node_config(seed=3), dataset=dataset)
        trained.fit()
        trained.save_checkpoint(path)

        live = Session(node_config(seed=3), dataset=dataset)
        before = live.predict()  # warms the inference cache
        live.load_weights(path)
        after = live.predict()

        cold = Session(node_config(seed=3), dataset=dataset)
        cold.load_weights(path)
        np.testing.assert_array_equal(after, cold.predict())
        assert not np.array_equal(before, after)

    def test_pool_admission_loads_through_the_audited_path(
            self, dataset, tmp_path):
        from repro.serve import SessionPool

        path = str(tmp_path / "w.npz")
        trained = Session(node_config(seed=3), dataset=dataset)
        trained.fit()
        trained.save_checkpoint(path)

        cfg = node_config(seed=3)
        pool = SessionPool()
        pool.add_checkpoint(cfg, path)
        pool.put_dataset(cfg, dataset)
        admitted = pool.acquire(cfg)
        assert pool.stats.checkpoint_loads == 1
        np.testing.assert_array_equal(admitted.predict(), trained.predict())
