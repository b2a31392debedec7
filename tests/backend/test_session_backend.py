"""Session-level fused backend: bitwise serving, cache keys, invalidation."""

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
from repro.serve import config_key
from repro.stream import GraphDelta


def _config(backend: str, engine: str = "torchgt", seed: int = 3) -> RunConfig:
    return RunConfig(
        data=DataConfig("ogbn-arxiv", scale=0.08, seed=7),
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=0.0),
        engine=EngineConfig(engine, backend=backend),
        train=TrainConfig(epochs=1, lr=3e-3),
        seed=seed,
    )


@pytest.fixture()
def pair():
    """(numpy session, fused session) over one shared dataset."""
    ref = Session(_config("numpy"))
    fused = Session(_config("fused"), dataset=ref.dataset)
    return ref, fused


@pytest.mark.parametrize("engine", ["gp-raw", "gp-sparse", "torchgt"])
def test_predict_bitwise_identical_across_backends(engine):
    ref = Session(_config("numpy", engine=engine))
    fused = Session(_config("fused", engine=engine), dataset=ref.dataset)
    assert np.array_equal(ref.predict(), fused.predict())
    nodes = np.random.default_rng(0).choice(ref.dataset.num_nodes, 24,
                                            replace=False)
    assert np.array_equal(ref.predict(nodes=nodes),
                          fused.predict(nodes=nodes))
    assert fused.compiled_stats()["programs"] >= 1


def test_subset_order_restored(pair):
    ref, fused = pair
    nodes = np.array([31, 2, 17, 5, 40, 11])
    assert np.array_equal(ref.predict(nodes=nodes),
                          fused.predict(nodes=nodes))


def test_numpy_backend_never_compiles(pair):
    ref, fused = pair
    ref.predict()
    assert ref.compiled_stats() == {"entries": 0, "programs": 0}


def test_seq_len_buckets_get_distinct_programs(pair):
    ref, fused = pair
    small = np.arange(16)
    large = np.arange(40)
    for nodes in (small, large):
        assert np.array_equal(ref.predict(nodes=nodes),
                              fused.predict(nodes=nodes))
    stats = fused.compiled_stats()
    assert stats["entries"] == 2  # one serving plan per sequence bucket
    # both stay warm and still replay correctly
    assert np.array_equal(ref.predict(nodes=small),
                          fused.predict(nodes=small))


def test_compiled_cache_is_lru_bounded(pair):
    _, fused = pair
    cap = Session._COMPILED_CAP
    for i in range(cap + 3):
        fused.predict(nodes=np.arange(8 + i))
    assert fused.compiled_stats()["entries"] <= cap


def test_fit_drops_compiled_programs(pair):
    ref, fused = pair
    before = fused.predict()
    fused.fit()
    ref.fit()
    # the program traced at the pre-fit weights is re-traced, not replayed
    after = fused.predict()
    assert not np.array_equal(before, after)
    assert np.array_equal(ref.predict(), after)
    assert fused.compiled_stats()["programs"] >= 1


def test_load_weights_drops_compiled_programs(tmp_path, pair):
    ref, fused = pair
    ref.fit()
    ckpt = str(tmp_path / "w.npz")
    ref.save_checkpoint(ckpt)
    before = fused.predict()
    assert fused.compiled_stats()["programs"] >= 1
    fused.load_weights(ckpt)
    after = fused.predict()
    # new weights actually serve (programs fold weights as constants, so a
    # stale program would keep returning `before`)
    assert not np.array_equal(before, after)
    assert np.array_equal(after, ref.predict())
    cold = Session(_config("fused"), dataset=ref.dataset)
    cold.load_weights(ckpt)
    assert np.array_equal(after, cold.predict())


def test_apply_delta_drops_compiled_programs(pair):
    ref, fused = pair
    before = fused.predict()
    delta = GraphDelta(add_edges=np.array([[0, 9], [1, 13]]))
    fused.apply_delta(delta)
    # the shared dataset mutated underneath ref too; both rebuild and agree
    after = fused.predict()
    assert np.array_equal(ref.predict(), after)
    assert not np.array_equal(before, after)
    assert np.array_equal(
        Session(_config("numpy"), dataset=ref.dataset).predict(), after)
    assert fused.compiled_stats()["programs"] >= 1


def test_bf16_engine_serves_on_reference_path():
    ref = Session(_config("numpy", engine="gp-flash"))
    fused = Session(_config("fused", engine="gp-flash"), dataset=ref.dataset)
    assert np.array_equal(ref.predict(), fused.predict())
    assert fused.compiled_stats()["entries"] == 0  # bf16: fast path declined


def test_config_key_separates_backends():
    assert config_key(_config("numpy")) != config_key(_config("fused"))


def test_config_roundtrip_preserves_backend():
    cfg = _config("fused")
    assert RunConfig.from_dict(cfg.to_dict()).engine.backend == "fused"
    assert RunConfig.from_json(cfg.to_json()).engine.backend == "fused"


def test_unknown_backend_rejected_at_config_time():
    with pytest.raises(ValueError):
        EngineConfig("gp-raw", backend="no-such-backend")
