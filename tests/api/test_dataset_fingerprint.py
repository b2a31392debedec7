"""Fingerprint-keyed Session caches: stable identity across store handles.

Regression suite for the move from ``id(dataset)`` to
:func:`repro.graph.dataset_fingerprint` in the Session inference-cache
keys.  With ``id()`` keys, two handles onto the same on-disk store never
shared a prepared context, and a recycled object id could in principle
serve a context built for different topology.
"""
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
from repro.graph import dataset_fingerprint, load_node_dataset
from repro.store import open_store, write_store
from tests.helpers import count_prepares


@pytest.fixture
def dataset():
    return load_node_dataset("ogbn-arxiv", scale=0.2, seed=3)


@pytest.fixture
def store_dir(dataset, tmp_path):
    d = tmp_path / "arxiv.store"
    write_store(d, dataset, chunk_rows=64)
    return str(d)


@pytest.fixture
def run_config():
    return RunConfig(
        data=DataConfig("ogbn-arxiv", scale=0.2, seed=3),
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=0.0),
        engine=EngineConfig("gp-raw"),
        train=TrainConfig(epochs=1),
        seed=0,
    )


class TestFingerprintFunction:
    def test_store_handles_share_content_identity(self, store_dir):
        a = dataset_fingerprint(open_store(store_dir))
        b = dataset_fingerprint(open_store(store_dir))
        assert a == b
        assert a[0] == "content"

    def test_in_ram_datasets_keep_object_identity(self):
        a = load_node_dataset("ogbn-arxiv", scale=0.2, seed=3)
        b = load_node_dataset("ogbn-arxiv", scale=0.2, seed=3)
        assert dataset_fingerprint(a)[0] == "object"
        # equal content but distinct live objects: never conflated
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_different_content_different_fingerprint(self, dataset,
                                                     tmp_path):
        other = load_node_dataset("ogbn-arxiv", scale=0.2, seed=4)
        write_store(tmp_path / "a.store", dataset, chunk_rows=64)
        write_store(tmp_path / "b.store", other, chunk_rows=64)
        assert dataset_fingerprint(open_store(tmp_path / "a.store")) \
            != dataset_fingerprint(open_store(tmp_path / "b.store"))


class TestSessionCacheKeys:
    def test_full_graph_context_survives_handle_swap(self, run_config,
                                                     store_dir,
                                                     monkeypatch):
        session = Session(run_config, dataset=open_store(store_dir))
        calls = count_prepares(session, monkeypatch)
        ref = session.predict()
        assert len(calls) == 1
        # a fresh handle onto the same bytes: with id() keys this missed
        session._dataset = open_store(store_dir)
        out = session.predict()
        assert len(calls) == 1  # prepared context was reused
        assert out.tobytes() == ref.tobytes()

    def test_in_ram_swap_still_misses(self, run_config, dataset,
                                      monkeypatch):
        session = Session(run_config, dataset=dataset)
        calls = count_prepares(session, monkeypatch)
        session.predict()
        session._dataset = load_node_dataset("ogbn-arxiv", scale=0.2,
                                             seed=3)
        session.predict()
        # object-identity fallback: a different live object must re-prepare
        assert len(calls) == 2

    def test_subset_cache_shared_across_handles(self, run_config,
                                                store_dir, monkeypatch):
        # subset entries carry the fingerprint in their keys too; the
        # fused backend adds a compiled program to the same entry
        import dataclasses

        run_config = dataclasses.replace(
            run_config,
            engine=dataclasses.replace(run_config.engine, backend="fused"))
        nodes = np.array([3, 17, 41, 90])
        session = Session(run_config, dataset=open_store(store_dir))
        calls = count_prepares(session, monkeypatch)
        ref = session.predict(nodes=nodes)
        prepared = len(calls)
        session._dataset = open_store(store_dir)
        out = session.predict(nodes=nodes)
        assert len(calls) == prepared  # cache hit, no re-prepare
        assert out.tobytes() == ref.tobytes()

    def test_version_bump_still_invalidates(self, run_config, store_dir,
                                            monkeypatch):
        from repro.stream import GraphDelta, apply_delta

        st = open_store(store_dir)
        session = Session(run_config, dataset=st)
        calls = count_prepares(session, monkeypatch)
        before = session.predict()
        apply_delta(st, GraphDelta(add_edges=[[0, 5]]))
        after = session.predict()
        assert len(calls) == 2  # same fingerprint path, new graph_version
        assert after.tobytes() != before.tobytes()
