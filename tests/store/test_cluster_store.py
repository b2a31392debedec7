"""Shared-store serving cluster: path broadcast, versions, parity."""
import pickle

import numpy as np

from repro.serve import ServingCluster
from repro.serve.worker import WorkerInit
from repro.store import open_store, write_store
from repro.stream import GraphDelta, apply_delta


def make_cluster(run_config, store_dir, **kwargs):
    return ServingCluster(num_workers=2, backend="inline",
                          stores=[(run_config, store_dir)], **kwargs)


class TestSharedStoreStartup:
    def test_no_dataset_blob_is_broadcast(self, dataset, run_config,
                                          store_dir):
        with make_cluster(run_config, store_dir) as cluster:
            for worker in cluster.workers.values():
                assert worker.runtime is not None  # opened the store

            init_store = WorkerInit(worker_id="w0",
                                    stores=((run_config.to_json(),
                                             store_dir),))
            init_blob = WorkerInit(
                worker_id="w0",
                datasets=((run_config.to_json(),
                           pickle.dumps(dataset)),))
            # the store init ships a path; orders of magnitude below any
            # serialized dataset — the O(manifest) startup contract
            assert len(pickle.dumps(init_store)) \
                < len(pickle.dumps(init_blob)) / 10

    def test_warm_config_covered_by_store_not_loaded(self, run_config,
                                                     store_dir):
        blobs = ServingCluster._broadcast_payload(
            [run_config], (), skip={("ogbn-arxiv", 0.2, 3)})
        assert blobs == ()

    def test_cluster_predict_matches_in_ram(self, dataset, run_config,
                                            store_dir):
        from repro.api import Session

        ref = Session(run_config, dataset=dataset).predict(
            nodes=np.arange(12))
        with make_cluster(run_config, store_dir) as cluster:
            fut = cluster.submit(run_config, nodes=np.arange(12))
            cluster.run_until_idle()
            assert fut.result(timeout=30).tobytes() == ref.tobytes()


class TestSharedStoreMutation:
    def test_delta_broadcast_applies_on_every_worker(self, run_config,
                                                     store_dir):
        with make_cluster(run_config, store_dir) as cluster:
            fut = cluster.submit(run_config, nodes=np.arange(8))
            cluster.run_until_idle()
            before = fut.result(timeout=30)
            mfut = cluster.submit_delta(run_config,
                                        GraphDelta(add_edges=[[0, 3]]))
            cluster.run_until_idle()
            assert mfut.result(timeout=30) == 1
            assert cluster.graph_version(run_config) == 1
            fut = cluster.submit(run_config, nodes=np.arange(8))
            cluster.run_until_idle()
            assert fut.result(timeout=30).tobytes() != before.tobytes()

    def test_version_authority_resumes_from_manifest(self, dataset,
                                                     run_config, tmp_path):
        # a store written at version 1 (what a WAL snapshot cuts), then
        # a fresh cluster: the router must continue the version history,
        # not restart at 0
        apply_delta(dataset, GraphDelta(add_edges=[[0, 1]]))
        assert dataset.graph_version == 1
        store_dir = str(tmp_path / "v1.store")
        write_store(store_dir, dataset, chunk_rows=64)
        with make_cluster(run_config, store_dir) as cluster:
            assert cluster.graph_version(run_config) == 1
            mfut = cluster.submit_delta(run_config,
                                        GraphDelta(add_edges=[[1, 3]]))
            cluster.run_until_idle()
            assert mfut.result(timeout=30) == 2

    def test_shared_files_stay_pristine_under_mutation(self, run_config,
                                                       store_dir):
        with make_cluster(run_config, store_dir) as cluster:
            mfut = cluster.submit_delta(run_config,
                                        GraphDelta(add_edges=[[0, 3]]))
            cluster.run_until_idle()
            mfut.result(timeout=30)
        # workers hold read-only opens: their overlays never reach disk
        assert open_store(store_dir).graph_version == 0
