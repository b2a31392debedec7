"""GraphDelta through the store: in-RAM overlays over read-only chunks."""
import os

import numpy as np

from repro.store import open_store
from repro.stream import GraphDelta, apply_delta, make_churn_deltas

from .conftest import assert_store_matches


def churn(dataset, n=4, seed=5):
    return make_churn_deltas(dataset, n, edges_per_delta=4,
                             feature_updates_per_delta=2,
                             add_node_every=2, seed=seed)


class TestReadOnlyOverlay:
    def test_overlay_matches_in_ram_apply(self, dataset, store_dir):
        st = open_store(store_dir)
        for d in churn(dataset):
            r_ram = apply_delta(dataset, d)
            r_st = apply_delta(st, d)
            assert r_ram.graph_version == r_st.graph_version
            np.testing.assert_array_equal(r_ram.touched_rows,
                                          r_st.touched_rows)
        assert_store_matches(st, dataset)
        assert st.features.overlay_rows > 0

    def test_files_stay_untouched(self, dataset, store_dir):
        before = {f: os.path.getmtime(os.path.join(store_dir, "chunks", f))
                  for f in os.listdir(os.path.join(store_dir, "chunks"))}
        st = open_store(store_dir)
        for d in churn(dataset):
            apply_delta(st, d)
        after = {f: os.path.getmtime(os.path.join(store_dir, "chunks", f))
                 for f in os.listdir(os.path.join(store_dir, "chunks"))}
        assert before == after
        assert open_store(store_dir).graph_version == 0

    def test_update_after_append_lands_in_tail(self, dataset, store_dir):
        st = open_store(store_dir)
        n, dim = dataset.num_nodes, dataset.features.shape[1]
        apply_delta(st, GraphDelta(num_new_nodes=1,
                                   new_features=np.zeros((1, dim)),
                                   add_edges=[[n, 0]]))
        apply_delta(st, GraphDelta(update_nodes=[n],
                                   update_features=np.ones((1, dim))))
        np.testing.assert_array_equal(st.features[n], np.ones(dim))

    def test_overlay_deltas_reach_stream_metrics(self, dataset, store_dir):
        from repro.obs.metrics import get_registry

        def metric(name):
            found = get_registry().get(name)
            return 0 if found is None else found.value()

        st = open_store(store_dir)
        deltas = churn(dataset)
        before = metric("repro_stream_deltas_total")
        for d in deltas:
            apply_delta(st, d)
        assert metric("repro_stream_deltas_total") == before + len(deltas)
        assert metric("repro_stream_graph_version") == len(deltas)


class TestServingIntegration:
    def test_server_mutation_on_store_session(self, store_dir, run_config):
        from repro.serve import InferenceServer, SessionPool

        pool = SessionPool()
        pool.put_dataset(run_config, open_store(store_dir))
        server = InferenceServer(pool=pool)
        before = server.submit(run_config, nodes=np.arange(8))
        server.run_until_idle()
        ref = before.result(timeout=30)
        fut = server.submit_delta(run_config,
                                  GraphDelta(add_edges=[[0, 2]]))
        server.run_until_idle()
        assert fut.result(timeout=30) == 1
        after = server.submit(run_config, nodes=np.arange(8))
        server.run_until_idle()
        assert after.result(timeout=30).tobytes() != ref.tobytes()
        server.close()
