"""Session lifecycle: fit parity with the legacy free functions,
reproducible replay, batched inference, callbacks."""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    Callback,
    DataConfig,
    EarlyStoppingCallback,
    EngineConfig,
    ModelConfig,
    RunConfig,
    Session,
    TrainConfig,
)
from tests.helpers import count_prepares


def node_config(**kw):
    defaults = dict(
        data=DataConfig("ogbn-arxiv", scale=0.1),
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=0.0),
        engine=EngineConfig("gp-raw"),
        train=TrainConfig(epochs=3, lr=2e-3),
        seed=0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestFit:
    def test_matches_legacy_free_function(self):
        """Session.fit() is the legacy pipeline, not a reimplementation."""
        from repro.core import make_engine
        from repro.graph import load_node_dataset
        from repro.models import build_model
        from repro.train import train_node_classification

        cfg = node_config()
        rec_api = Session(cfg).fit()

        ds = load_node_dataset("ogbn-arxiv", scale=0.1, seed=0)
        model = build_model("graphormer-slim", ds.features.shape[1],
                            ds.num_classes, seed=0, num_layers=2,
                            hidden_dim=16, num_heads=4, dropout=0.0)
        engine = make_engine("gp-raw", num_layers=2, hidden_dim=16)
        rec_legacy = train_node_classification(model, ds, engine, epochs=3,
                                               lr=2e-3, seed=0)
        assert rec_api.train_loss == rec_legacy.train_loss
        assert rec_api.test_metric == rec_legacy.test_metric

    def test_fit_stores_record(self):
        s = Session(node_config())
        assert s.record is None
        rec = s.fit()
        assert s.record is rec
        assert len(rec.train_loss) == 3

    def test_graph_task(self):
        cfg = RunConfig(
            data=DataConfig("zinc", scale=0.05),
            model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                              num_heads=4, dropout=0.0),
            engine=EngineConfig("gp-sparse"),
            train=TrainConfig(epochs=2, lr=3e-3))
        s = Session(cfg)
        rec = s.fit()
        assert s.task == "regression"
        assert rec.metric_name == "mae"
        assert len(rec.train_loss) == 2

    def test_batched_training_via_seq_len(self):
        cfg = node_config(train=TrainConfig(epochs=2, lr=2e-3, seq_len=48))
        rec = Session(cfg).fit()
        assert "[S=48]" in rec.dataset
        assert len(rec.train_loss) == 2

    def test_torchgt_engine_gets_run_seed(self):
        s = Session(node_config(engine=EngineConfig("torchgt"), seed=11))
        assert s.engine.seed == 11

    def test_session_requires_runconfig(self):
        with pytest.raises(TypeError):
            Session({"data": {"name": "ogbn-arxiv"}})


class TestReproducibility:
    def test_same_config_same_record(self):
        cfg = node_config(
            model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                              num_heads=4),  # default dropout>0: noise streams
            seed=3)
        a, b = Session(cfg).fit(), Session(cfg).fit()
        assert a.train_loss == b.train_loss
        assert a.test_metric == b.test_metric

    def test_different_seed_different_trajectory(self):
        mk = lambda s: node_config(
            model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                              num_heads=4), seed=s)
        a, b = Session(mk(1)).fit(), Session(mk(2)).fit()
        assert a.train_loss != b.train_loss

    def test_saved_config_replays_identically(self, tmp_path):
        path = str(tmp_path / "run.json")
        s = Session(node_config(seed=5))
        rec = s.fit()
        s.save_config(path)
        replay = Session.from_config_file(path).fit()
        assert replay.train_loss == rec.train_loss
        assert replay.val_metric == rec.val_metric
        assert replay.test_metric == rec.test_metric


class TestPredictEvaluate:
    @pytest.fixture(scope="class")
    def fitted(self):
        s = Session(node_config())
        s.fit()
        return s

    def test_predict_all_nodes(self, fitted):
        logits = fitted.predict()
        ds = fitted.dataset
        assert logits.shape == (ds.num_nodes, ds.num_classes)

    def test_predict_respects_caller_node_order(self, fitted):
        nodes = np.array([9, 2, 17])
        out = fitted.predict(nodes=nodes)
        flipped = fitted.predict(nodes=nodes[::-1].copy())
        assert out.shape[0] == 3
        np.testing.assert_allclose(out, flipped[::-1])

    def test_predict_batched(self, fitted):
        full = fitted.predict(batch_size=32)
        assert full.shape == fitted.predict().shape

    def test_predict_reordering_engine_restores_original_order(self):
        """TorchGT cluster-reorders internally; predict must undo it."""
        s = Session(node_config(engine=EngineConfig("torchgt")))
        s.fit()
        logits = s.predict()
        acc_direct = s.evaluate("test")["accuracy"]
        ds = s.dataset
        manual = (logits.argmax(1) == ds.labels)[ds.test_mask].mean()
        assert acc_direct == pytest.approx(manual)

    def test_evaluate_splits(self, fitted):
        for split in ("train", "val", "test"):
            metrics = fitted.evaluate(split)
            assert 0.0 <= metrics["accuracy"] <= 1.0
        with pytest.raises(ValueError, match="unknown split"):
            fitted.evaluate("holdout")

    def test_graph_predict_and_evaluate(self):
        cfg = RunConfig(
            data=DataConfig("zinc", scale=0.05),
            model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                              num_heads=4, dropout=0.0),
            engine=EngineConfig("gp-sparse"),
            train=TrainConfig(epochs=1, lr=3e-3))
        s = Session(cfg)
        s.fit()
        ds = s.dataset
        preds = s.predict(indices=ds.test_idx)
        assert preds.shape[0] == len(ds.test_idx)
        assert "mae" in s.evaluate("test")
        with pytest.raises(ValueError, match="node-level"):
            s.predict(batch_size=16)

    def test_graph_evaluate_prepares_each_graph_once(self, monkeypatch):
        import repro.api.session as session_mod

        cfg = RunConfig(
            data=DataConfig("zinc", scale=0.05),
            model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                              num_heads=4, dropout=0.0),
            engine=EngineConfig("gp-sparse"),
            train=TrainConfig(epochs=1, lr=3e-3))
        s = Session(cfg)
        calls, prepare = [], session_mod.prepare_inputs

        def counting(*args, **kw):
            calls.append(args)
            return prepare(*args, **kw)

        monkeypatch.setattr(session_mod, "prepare_inputs", counting)
        first = s.evaluate("test")
        assert s.evaluate("test") == first
        assert len(s.dataset.test_idx) == 3
        assert len(calls) == 3  # the second evaluate is all cache hits
        np.testing.assert_array_equal(
            s.predict(indices=s.dataset.test_idx),
            s.predict(indices=s.dataset.test_idx[::-1])[::-1])

    def test_graph_evaluate_past_the_cache_cap_prepares_once(self, monkeypatch):
        # more test graphs than Session._COMPILED_CAP: the collection is
        # one cache entry, so the second evaluate does not re-prepare
        import repro.api.session as session_mod

        cfg = RunConfig(
            data=DataConfig("zinc", scale=0.2),
            model=ModelConfig("graphormer-slim", num_layers=1, hidden_dim=8,
                              num_heads=2, dropout=0.0),
            engine=EngineConfig("gp-sparse"),
            train=TrainConfig(epochs=1))
        s = Session(cfg)
        assert len(s.dataset.test_idx) == 11 > Session._COMPILED_CAP
        calls, prepare = [], session_mod.prepare_inputs

        def counting(*args, **kw):
            calls.append(args)
            return prepare(*args, **kw)

        monkeypatch.setattr(session_mod, "prepare_inputs", counting)
        first = s.evaluate("test")
        assert len(calls) == 11
        assert s.evaluate("test") == first
        assert len(calls) == 11  # the second evaluate is all cache hits
        # any order, repeat or subset of prepared graphs reuses them
        idx = s.dataset.test_idx
        np.testing.assert_array_equal(s.predict(indices=idx[::-1]),
                                      s.predict(indices=idx)[::-1])
        s.predict(indices=np.concatenate([idx, idx[:2]]))
        s.predict(indices=idx[3:7])
        assert len(calls) == 11

    def test_graph_batch_unions_prepare_each_graph_once(self, monkeypatch):
        # a serving micro-batch predicts the union of its requests' graphs;
        # overlapping unions prepare only the graphs not seen before
        import repro.api.session as session_mod

        s = Session(RunConfig(
            data=DataConfig("zinc", scale=0.2),
            model=ModelConfig("graphormer-slim", num_layers=1, hidden_dim=8,
                              num_heads=2, dropout=0.0),
            engine=EngineConfig("gp-sparse"),
            train=TrainConfig(epochs=1)))
        calls, prepare = [], session_mod.prepare_inputs

        def counting(*args, **kw):
            calls.append(args)
            return prepare(*args, **kw)

        monkeypatch.setattr(session_mod, "prepare_inputs", counting)
        seen = set()
        for union in ([0, 1], [1, 2, 3], [0, 3, 4, 5], [2, 5], [6, 7, 0, 1],
                      [4, 6], [8, 9], [3, 8, 10], [0, 10, 11]):
            out = s.predict(indices=np.array(union))
            seen.update(union)
            assert len(calls) == len(seen)
            for row, i in zip(out, union):
                np.testing.assert_array_equal(
                    row, s.predict(indices=np.array([i]))[0])

    def test_node_task_rejects_graph_kwargs(self, fitted):
        with pytest.raises(ValueError, match="graph-level"):
            fitted.predict(indices=np.array([0]))

    def test_out_of_range_node_ids_rejected(self, fitted):
        n = fitted.dataset.num_nodes
        # unchecked, numpy indexing wraps -1 around to node n-1, and ids
        # from n up fail with a bare IndexError deep in subgraph extraction
        for bad in ([-1, 4], [n], [10 ** 6], [0.5, 2.0]):
            with pytest.raises(ValueError, match="node ids"):
                fitted.predict(nodes=np.array(bad))

    def test_server_fails_only_the_out_of_range_request(self, fitted):
        from repro.serve import InferenceServer, SessionPool

        pool = SessionPool()
        pool.put(fitted)
        server = InferenceServer(pool=pool)
        bad = server.submit(fitted.config, nodes=np.array([-1, 4]))
        good = server.submit(fitted.config, nodes=np.array([0, 4]))
        server.run_until_idle()
        with pytest.raises(ValueError, match="node ids"):
            bad.result(timeout=5.0)
        np.testing.assert_array_equal(good.result(timeout=5.0),
                                      fitted.predict(nodes=np.array([0, 4])))


class TestCallbacks:
    def test_on_epoch_end_fires_every_epoch(self):
        seen = []

        class Spy(Callback):
            def on_epoch_end(self, epoch, record):
                seen.append((epoch, len(record.train_loss)))

        Session(node_config()).fit(callbacks=Spy())
        assert seen == [(0, 1), (1, 2), (2, 3)]

    def test_callback_can_stop_training(self):
        class StopAfterOne(Callback):
            def on_epoch_end(self, epoch, record):
                return True

        rec = Session(node_config()).fit(callbacks=StopAfterOne())
        assert len(rec.train_loss) == 1

    def test_early_stopping_callback(self):
        # lr so small the val metric never moves: stop = 1 best + patience
        cb = EarlyStoppingCallback(patience=2)
        cfg = node_config(train=TrainConfig(epochs=30, lr=1e-12))
        rec = Session(cfg).fit(callbacks=cb)
        assert len(rec.train_loss) == 3
        assert cb.stopped_epoch == 2

    def test_patience_does_not_mutate_callers_callback_list(self):
        from repro.api import CallbackList

        shared = CallbackList([])
        cfg = node_config(train=TrainConfig(epochs=2, lr=2e-3, patience=30))
        Session(cfg).fit(callbacks=shared)
        Session(cfg).fit(callbacks=shared)
        assert shared.callbacks == []  # stoppers stayed run-local

    def test_batched_path_honors_patience(self):
        # frozen lr: metrics never improve, so patience=2 stops at epoch 3
        cfg = node_config(train=TrainConfig(epochs=30, lr=1e-12, seq_len=48,
                                            patience=2))
        rec = Session(cfg).fit()
        assert len(rec.train_loss) == 3

    def test_eval_every_applies_to_every_task(self):
        sampled = node_config(train=TrainConfig(epochs=4, lr=2e-3, seq_len=48,
                                                eval_every=2))
        graph = RunConfig(
            data=DataConfig("zinc", scale=0.05),
            model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                              num_heads=4, dropout=0.0),
            engine=EngineConfig("gp-sparse"),
            train=TrainConfig(epochs=4, lr=3e-3, eval_every=2))
        for cfg in (sampled, graph):
            rec = Session(cfg).fit()
            assert len(rec.train_loss) == 4
            assert len(rec.val_metric) == len(rec.test_metric) == 2

    def test_repeated_predict_reuses_prepared_context(self, monkeypatch):
        s = Session(node_config(engine=EngineConfig("torchgt")))
        s.fit()
        calls = count_prepares(s, monkeypatch)
        first = s.predict()
        again = s.predict()
        assert len(calls) == 1
        np.testing.assert_array_equal(first, again)

    def test_fit_invalidates_inference_cache(self):
        s = Session(node_config())
        before = s.predict()
        s.fit()
        fresh = Session(node_config())
        fresh.fit()
        after = s.predict()
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, fresh.predict())

    def test_cache_built_by_mid_fit_callback_is_dropped(self):
        cfg = node_config(engine=EngineConfig("torchgt"))
        s = Session(cfg)

        class PredictMidFit(Callback):
            def on_epoch_end(self, epoch, record):
                s.predict()  # populates the cache with mid-run state

        s.fit(callbacks=PredictMidFit())
        fresh = Session(cfg)
        fresh.fit()
        # never served stale after fit: the mid-run entries are keyed on
        # the tuner state they were built at
        np.testing.assert_array_equal(s.predict(), fresh.predict())

    def test_dataset_injection(self):
        from repro.graph import load_node_dataset

        ds = load_node_dataset("ogbn-arxiv", scale=0.1, seed=0)
        s = Session(node_config(), dataset=ds)
        assert s.dataset is ds
        rec = s.fit()
        assert len(rec.train_loss) == 3
        with pytest.raises(ValueError, match="does not match"):
            Session(node_config(), dataset=load_node_dataset(
                "flickr", scale=0.1, seed=0))

    def test_prepare_inference_preserves_tuner_bookkeeping(self):
        """An inference prepare between epochs must not overwrite the β
        the training context was reformed with (it would suppress the
        next refresh()-triggered re-reformation)."""
        from repro.core import make_engine
        from repro.graph import load_node_dataset

        ds = load_node_dataset("ogbn-arxiv", scale=0.1, seed=0)
        eng = make_engine("torchgt", num_layers=2, hidden_dim=16)
        eng.prepare_graph(ds.graph)  # training-side prepare records β
        recorded = eng._beta_in_use
        eng.prepare_inference(ds.graph)  # Session.predict() path
        assert eng._beta_in_use == recorded

        # predict() from a fit callback goes through that path end to end
        s = Session(node_config(engine=EngineConfig("torchgt")))

        class PredictEveryEpoch(Callback):
            def on_epoch_end(self, epoch, record):
                s.predict()

        rec = s.fit(callbacks=PredictEveryEpoch())
        assert len(rec.train_loss) == 3

    def test_prepare_inference_before_fit_leaves_tuner_unconfigured(self):
        """predict() on a subgraph before training must not pin the
        scheduler/Auto-Tuner to that subgraph's statistics."""
        s = Session(node_config(engine=EngineConfig("torchgt")))
        s.predict(nodes=np.arange(8))  # tiny subgraph, before any fit
        assert s.engine.scheduler is None
        assert s.engine.autotuner is None
        rec = s.fit()  # training then configures them from the full graph
        assert len(rec.train_loss) == 3

    def test_early_stopping_callback_is_reusable_across_runs(self):
        cb = EarlyStoppingCallback(patience=2)
        cfg = node_config(train=TrainConfig(epochs=30, lr=1e-12))
        a = Session(cfg).fit(callbacks=cb)
        b = Session(cfg).fit(callbacks=cb)  # same instance, fresh run
        assert len(a.train_loss) == len(b.train_loss) == 3

    def test_graph_task_honors_patience(self):
        # lr ~0: MAE frozen, so patience=2 stops at epoch 3 (min mode)
        cfg = RunConfig(
            data=DataConfig("zinc", scale=0.05),
            model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                              num_heads=4, dropout=0.0),
            engine=EngineConfig("gp-sparse"),
            train=TrainConfig(epochs=30, lr=1e-12, patience=2))
        rec = Session(cfg).fit()
        assert len(rec.train_loss) == 3

    def test_callback_exception_does_not_leak_precision(self):
        from repro.tensor import get_precision

        class Boom(Callback):
            def on_epoch_end(self, epoch, record):
                raise RuntimeError("boom")

        prev = get_precision()
        s = Session(node_config(engine=EngineConfig("gp-flash")))  # bf16
        with pytest.raises(RuntimeError, match="boom"):
            s.fit(callbacks=Boom())
        assert get_precision() == prev

    def test_fit_start_and_end_hooks(self):
        events = []

        class Spy(Callback):
            def on_fit_start(self, record):
                events.append("start")

            def on_fit_end(self, record):
                events.append("end")

        Session(node_config()).fit(callbacks=[Spy()])
        assert events == ["start", "end"]


class TestInferCacheDatasetIdentity:
    """The inference cache is keyed by dataset identity, not just lifecycle:
    a session whose dataset object changes (shared-dataset sweeps swap
    instances of the same named dataset) must never serve a (ctx, enc)
    built for different data."""

    def test_swapped_dataset_invalidates_cached_context(self):
        from repro.graph import load_node_dataset

        ds_a = load_node_dataset("ogbn-arxiv", scale=0.1, seed=0)
        ds_b = load_node_dataset("ogbn-arxiv", scale=0.1, seed=99)
        assert not np.array_equal(ds_a.features, ds_b.features)

        s = Session(node_config(), dataset=ds_a)
        out_a = s.predict()

        s._dataset = ds_b  # same name/scale, different data
        out_b = s.predict()
        # the cache was rebuilt for ds_b, so the result matches a fresh
        # session over ds_b exactly — not the stale ds_a context
        fresh = Session(node_config(), dataset=ds_b).predict()
        np.testing.assert_array_equal(out_b, fresh)
        assert not np.array_equal(out_a, out_b)

    def test_same_dataset_still_hits_the_cache(self, monkeypatch):
        s = Session(node_config(engine=EngineConfig("torchgt")))
        calls = count_prepares(s, monkeypatch)
        first = s.predict()
        np.testing.assert_array_equal(s.predict(), first)
        assert len(calls) == 1

