"""Training loops and metrics."""

import numpy as np
import pytest

from repro.core import make_engine
from repro.graph import load_graph_dataset, load_node_dataset
from repro.models import GRAPHORMER_SLIM, GT_BASE, GT, Graphormer
from repro.train import (
    TrainingRecord,
    accuracy,
    mae,
    train_graph_task,
    train_node_classification,
)


class TestMetrics:
    def test_accuracy_basic(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_accuracy_masked(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 0])
        mask = np.array([True, False])
        assert accuracy(logits, labels, mask) == 1.0

    def test_accuracy_empty_mask(self):
        assert accuracy(np.ones((2, 2)), np.zeros(2, dtype=int),
                        np.zeros(2, dtype=bool)) == 0.0

    def test_mae(self):
        assert mae(np.array([1.0, 3.0]), np.array([0.0, 0.0])) == 2.0


class TestTrainingRecord:
    def test_best_test_accuracy(self):
        r = TrainingRecord("e", "d", test_metric=[0.5, 0.8, 0.7])
        assert r.best_test == 0.8
        assert r.final_test == 0.7

    def test_best_test_mae(self):
        r = TrainingRecord("e", "d", test_metric=[0.5, 0.2, 0.3],
                           metric_name="mae")
        assert r.best_test == 0.2

    def test_mean_epoch_skips_warmup(self):
        r = TrainingRecord("e", "d", epoch_times=[10.0, 1.0, 1.0])
        assert r.mean_epoch_time == 1.0

    def test_empty_record(self):
        r = TrainingRecord("e", "d")
        assert np.isnan(r.final_test)
        assert np.isnan(r.mean_epoch_time)

    def test_cumulative_time(self):
        r = TrainingRecord("e", "d", epoch_times=[1.0, 2.0])
        np.testing.assert_allclose(r.cumulative_time(), [1.0, 3.0])


@pytest.fixture(scope="module")
def tiny_node_ds():
    return load_node_dataset("ogbn-arxiv", scale=0.1, seed=2)


class TestNodeTraining:
    def test_all_engines_complete(self, tiny_node_ds):
        ds = tiny_node_ds
        for name in ("gp-raw", "gp-flash", "gp-sparse", "torchgt"):
            eng = make_engine(name, num_layers=2, hidden_dim=32)
            cfg = GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes)
            from dataclasses import replace
            cfg = replace(cfg, num_layers=2, hidden_dim=32, num_heads=4)
            m = Graphormer(cfg)
            rec = train_node_classification(m, ds, eng, epochs=3, lr=2e-3)
            assert len(rec.train_loss) == 3
            assert len(rec.test_metric) == 3
            assert rec.engine == name
            assert all(t > 0 for t in rec.epoch_times)

    def test_loss_decreases_over_training(self, tiny_node_ds):
        ds = tiny_node_ds
        eng = make_engine("gp-sparse", num_layers=2)
        from dataclasses import replace
        cfg = replace(GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes),
                      num_layers=2, dropout=0.0)
        m = Graphormer(cfg)
        rec = train_node_classification(m, ds, eng, epochs=10, lr=3e-3)
        assert rec.train_loss[-1] < rec.train_loss[0]

    def test_precision_restored_after_training(self, tiny_node_ds):
        from repro.tensor import get_precision
        ds = tiny_node_ds
        eng = make_engine("gp-flash", num_layers=2)  # bf16 engine
        from dataclasses import replace
        cfg = replace(GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes),
                      num_layers=2)
        train_node_classification(Graphormer(cfg), ds, eng, epochs=1)
        assert get_precision() == "fp32"

    def test_gt_model_trains(self, tiny_node_ds):
        ds = tiny_node_ds
        eng = make_engine("gp-sparse", num_layers=2)
        from dataclasses import replace
        cfg = replace(GT_BASE(ds.features.shape[1], ds.num_classes),
                      num_layers=2, hidden_dim=32)
        rec = train_node_classification(GT(cfg), ds, eng, epochs=3)
        assert len(rec.test_metric) == 3

    def test_preprocess_time_recorded(self, tiny_node_ds):
        eng = make_engine("torchgt", num_layers=2, hidden_dim=32)
        ds = tiny_node_ds
        from dataclasses import replace
        cfg = replace(GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes),
                      num_layers=2, hidden_dim=32, num_heads=4)
        rec = train_node_classification(Graphormer(cfg), ds, eng, epochs=1)
        assert rec.preprocess_seconds > 0


class TestGraphTraining:
    def test_regression_task(self):
        ds = load_graph_dataset("zinc", scale=0.08, seed=1)
        eng = make_engine("gp-sparse", num_layers=2)
        from dataclasses import replace
        cfg = replace(GRAPHORMER_SLIM(ds.features[0].shape[1], 0, task="regression"),
                      num_layers=2, hidden_dim=32, num_heads=4, dropout=0.0)
        rec = train_graph_task(Graphormer(cfg), ds, eng, epochs=4, lr=3e-3)
        assert rec.metric_name == "mae"
        assert rec.train_loss[-1] < rec.train_loss[0] * 1.5
        assert len(rec.test_metric) == 4

    def test_classification_task(self):
        ds = load_graph_dataset("malnet", scale=0.15, seed=1)
        eng = make_engine("torchgt", num_layers=2, hidden_dim=32,
                          reorder_min_nodes=64)
        from dataclasses import replace
        cfg = replace(GRAPHORMER_SLIM(ds.features[0].shape[1], ds.num_classes,
                                      task="graph-classification"),
                      num_layers=2, hidden_dim=32, num_heads=4)
        rec = train_graph_task(Graphormer(cfg), ds, eng, epochs=2)
        assert rec.metric_name == "accuracy"
        assert 0.0 <= rec.final_test <= 1.0
        assert rec.preprocess_seconds > 0


class TestEarlyStoppingIntegration:
    def test_patience_halts_before_max_epochs(self):
        from dataclasses import replace
        from repro.core import GPSparseEngine
        from repro.graph import load_node_dataset
        from repro.models import GRAPHORMER_SLIM, Graphormer
        from repro.train import train_node_classification

        ds = load_node_dataset("ogbn-arxiv", scale=0.15, seed=0)
        cfg = replace(GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes),
                      num_layers=2, hidden_dim=16, num_heads=2, dropout=0.0)
        # tiny patience on a run that will plateau quickly
        rec = train_node_classification(
            Graphormer(cfg, seed=0), ds, GPSparseEngine(num_layers=2),
            epochs=50, lr=3e-3, patience=3)
        # stopped early: fewer than the 50 requested epochs recorded
        assert len(rec.train_loss) < 50
        assert len(rec.train_loss) == len(rec.test_metric)

    def test_no_patience_runs_all_epochs(self):
        from dataclasses import replace
        from repro.core import GPSparseEngine
        from repro.graph import load_node_dataset
        from repro.models import GRAPHORMER_SLIM, Graphormer
        from repro.train import train_node_classification

        ds = load_node_dataset("ogbn-arxiv", scale=0.1, seed=0)
        cfg = replace(GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes),
                      num_layers=2, hidden_dim=16, num_heads=2, dropout=0.0)
        rec = train_node_classification(
            Graphormer(cfg, seed=0), ds, GPSparseEngine(num_layers=2),
            epochs=6, lr=3e-3)
        assert len(rec.train_loss) == 6


class TestSeedThreading:
    """The trainer ``seed`` pins training-time noise (it used to be
    silently discarded)."""

    def _run(self, trainer_seed):
        from dataclasses import replace

        ds = load_node_dataset("ogbn-arxiv", scale=0.1, seed=0)
        # dropout > 0 so training actually consumes noise streams
        cfg = replace(GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes),
                      num_layers=2, hidden_dim=16, num_heads=2, dropout=0.2)
        model = Graphormer(cfg, seed=0)
        eng = make_engine("gp-raw", num_layers=2, hidden_dim=16)
        return train_node_classification(model, ds, eng, epochs=3, lr=2e-3,
                                         seed=trainer_seed)

    def test_same_seed_is_bitwise_reproducible(self):
        a, b = self._run(4), self._run(4)
        assert a.train_loss == b.train_loss
        assert a.test_metric == b.test_metric

    def test_different_seed_changes_trajectory(self):
        a, b = self._run(4), self._run(5)
        assert a.train_loss != b.train_loss

    def test_seed_stochastic_modules_reseeds_dropout(self):
        from dataclasses import replace

        from repro.tensor import Dropout
        from repro.train import seed_stochastic_modules

        cfg = replace(GRAPHORMER_SLIM(8, 4), num_layers=2, hidden_dim=16,
                      num_heads=2, dropout=0.5)
        model = Graphormer(cfg, seed=0)
        seed_stochastic_modules(model, 1)
        first = [m.rng.integers(2**31)
                 for m in model.modules() if isinstance(m, Dropout)]
        seed_stochastic_modules(model, 1)
        again = [m.rng.integers(2**31)
                 for m in model.modules() if isinstance(m, Dropout)]
        assert first == again
        # streams are per-module independent, not one shared generator
        assert len(set(first)) > 1


class TestTrainerCallbacks:
    def test_graph_task_callbacks_fire(self):
        from dataclasses import replace

        from repro.train import Callback

        ds = load_graph_dataset("zinc", scale=0.05, seed=0)
        cfg = replace(GRAPHORMER_SLIM(ds.features[0].shape[1], 0,
                                      task="regression"),
                      num_layers=2, hidden_dim=16, num_heads=2, dropout=0.0)
        epochs_seen = []

        class Spy(Callback):
            def on_epoch_end(self, epoch, record):
                epochs_seen.append(epoch)
                return epoch >= 1  # stop after the second epoch

        rec = train_graph_task(Graphormer(cfg, seed=0), ds,
                               make_engine("gp-sparse", num_layers=2),
                               epochs=5, lr=3e-3, callbacks=Spy())
        assert epochs_seen == [0, 1]
        assert len(rec.train_loss) == 2

    def test_epoch_logger_reports_only_fresh_metrics(self, capsys):
        from dataclasses import replace

        from repro.train import EpochLogger

        ds = load_node_dataset("ogbn-arxiv", scale=0.1, seed=0)
        cfg = replace(GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes),
                      num_layers=2, hidden_dim=16, num_heads=2, dropout=0.0)
        train_node_classification(Graphormer(cfg, seed=0), ds,
                                  make_engine("gp-raw", num_layers=2),
                                  epochs=2, lr=2e-3, eval_every=2,
                                  callbacks=EpochLogger())
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("epoch")]
        assert len(lines) == 2
        assert "test" not in lines[0]  # epoch 1: no eval ran
        assert "test accuracy" in lines[1]  # epoch 2: fresh metric

    def test_on_reform_fires_before_that_epochs_eval(self, capsys):
        """A stub engine whose refresh re-reforms after epoch 2 (no tuner,
        no wall time): ``on_reform`` fires once, for that epoch, after its
        training step and before its evaluation and ``on_epoch_end``."""
        from dataclasses import replace

        from repro.core import GPRawEngine
        from repro.train import Callback, EpochLogger

        class ReformsOnce(GPRawEngine):
            def __init__(self, at):
                super().__init__(num_layers=2)
                self.at, self.refreshes = at, 0

            def refresh(self, ctx):
                if self.refreshes == self.at:
                    ctx.reformed = object()
                self.refreshes += 1
                return ctx

        events = []

        class Spy(Callback):
            def on_reform(self, epoch, record):
                events.append(("reform", epoch, len(record.val_metric)))

            def on_epoch_end(self, epoch, record):
                events.append(("end", epoch, len(record.val_metric)))

        ds = load_node_dataset("ogbn-arxiv", scale=0.1, seed=0)
        cfg = replace(GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes),
                      num_layers=2, hidden_dim=16, num_heads=2, dropout=0.0)
        train_node_classification(Graphormer(cfg, seed=0), ds, ReformsOnce(1),
                                  epochs=3, lr=2e-3,
                                  callbacks=[Spy(), EpochLogger()])
        assert events == [("end", 0, 1), ("reform", 1, 1), ("end", 1, 2),
                          ("end", 2, 3)]
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("epoch")]
        assert lines[1] == "epoch   2  [pattern re-reformed]"
        assert len(lines) == 4
