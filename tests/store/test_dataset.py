"""StoredNodeDataset: NodeDataset parity, indexing, caching, engines."""
import numpy as np
import pytest

from repro.graph import dataset_fingerprint
from repro.store import open_store

from .conftest import assert_store_matches


class TestRoundTrip:
    def test_every_array_matches_bitwise(self, dataset, store_dir):
        assert_store_matches(open_store(store_dir), dataset)

    def test_metadata_round_trips(self, dataset, store_dir):
        st = open_store(store_dir)
        assert st.name == dataset.name
        assert st.paper == dataset.paper
        assert st.graph_version == 0

    def test_indexing_variants_match(self, dataset, store_dir):
        st = open_store(store_dir)
        n = dataset.num_nodes
        rows = np.array([3, 0, n - 1, 17, 17])
        np.testing.assert_array_equal(st.features[rows],
                                      dataset.features[rows])
        np.testing.assert_array_equal(st.features[5],
                                      dataset.features[5])
        np.testing.assert_array_equal(st.features[-2],
                                      dataset.features[-2])
        np.testing.assert_array_equal(st.features[10:90:3],
                                      dataset.features[10:90:3])
        mask = np.zeros(n, dtype=bool)
        mask[::5] = True
        np.testing.assert_array_equal(st.features[mask],
                                      dataset.features[mask])
        np.testing.assert_array_equal(st.features[rows, 2],
                                      dataset.features[rows, 2])

    def test_out_of_range_rows_raise(self, store_dir):
        st = open_store(store_dir)
        with pytest.raises(IndexError):
            st.features[st.num_nodes]
        with pytest.raises(IndexError):
            st.features[np.array([0, st.num_nodes])]
        with pytest.raises(IndexError):
            st.features[np.zeros(3, dtype=bool)]

    def test_shape_dtype_surface(self, dataset, store_dir):
        st = open_store(store_dir)
        assert st.features.shape == dataset.features.shape
        assert st.features.dtype == dataset.features.dtype
        assert st.features.ndim == 2
        assert len(st.features) == dataset.num_nodes
        assert st.features.nbytes == dataset.features.nbytes


class TestReadOnlySafety:
    def test_setitem_raises(self, store_dir):
        st = open_store(store_dir)
        with pytest.raises(TypeError, match="read-only"):
            st.features[0] = 1.0

    def test_mmap_chunks_are_write_protected(self, store_dir):
        st = open_store(store_dir)
        chunk = st.features.chunk(0)
        with pytest.raises(ValueError):
            chunk[0, 0] = 42.0

    def test_bad_mode_rejected(self, store_dir):
        # handles are read-only: there is no mode to ask for
        with pytest.raises(TypeError, match="mode"):
            open_store(store_dir, mode="w")

    def test_missing_chunk_file_reported(self, store_dir, tmp_path):
        import os

        st = open_store(store_dir)
        ref = st.manifest.arrays["features"].chunks[0]
        os.remove(os.path.join(store_dir, ref.file))
        with pytest.raises(ValueError, match="missing or truncated"):
            st.features[0]


class TestCacheIntegration:
    def test_budget_bounds_resident_bytes(self, dataset, store_dir):
        budget = dataset.features.nbytes // 4
        st = open_store(store_dir, cache_bytes=budget)
        np.asarray(st.features)          # stream every chunk through
        st.labels                        # plus the small arrays
        stats = st.cache_stats()
        assert stats["evictions"] > 0
        assert stats["cached_bytes"] <= budget + \
            max(c.nbytes for c in st.manifest.arrays["features"].chunks)

    def test_repeated_reads_hit(self, store_dir):
        st = open_store(store_dir)
        st.features[np.arange(10)]
        misses = st.cache_stats()["misses"]
        st.features[np.arange(10)]
        assert st.cache_stats()["misses"] == misses
        assert st.cache_stats()["hits"] > 0

    def test_gather_pins_released_after_read(self, store_dir):
        st = open_store(store_dir)
        np.asarray(st.features)
        assert st.cache_stats()["pinned_chunks"] == 0


class TestFingerprint:
    def test_two_opens_share_identity(self, store_dir):
        assert dataset_fingerprint(open_store(store_dir)) \
            == dataset_fingerprint(open_store(store_dir))

    def test_in_ram_datasets_fall_back_to_object_identity(self, dataset):
        key = dataset_fingerprint(dataset)
        assert key[0] == "object"
        assert key == dataset_fingerprint(dataset)

    def test_content_fingerprint_matches_manifest(self, store_dir):
        st = open_store(store_dir)
        assert st.content_fingerprint == st.manifest.fingerprint()


class TestEngineParity:
    def test_session_predict_bitwise_identical(self, dataset, store_dir,
                                               run_config):
        from repro.api import Session

        ram = Session(run_config, dataset=dataset)
        stored = Session(run_config, dataset=open_store(store_dir))
        assert ram.predict().tobytes() == stored.predict().tobytes()
        nodes = np.array([3, 41, 7, 120])
        assert ram.predict(nodes=nodes).tobytes() \
            == stored.predict(nodes=nodes).tobytes()

    def test_fit_on_store_matches_in_ram(self, dataset, store_dir,
                                         run_config):
        from repro.api import Session

        rec_ram = Session(run_config, dataset=dataset).fit()
        rec_stored = Session(run_config,
                             dataset=open_store(store_dir)).fit()
        assert rec_ram.best_test == rec_stored.best_test
        np.testing.assert_array_equal(rec_ram.train_loss,
                                      rec_stored.train_loss)
