"""Checkpoint round-trips through the public API: mid-``fit()`` resume is
bit-compatible with the uninterrupted run, and ``save_checkpoint`` weights
round-trip into fresh sessions (the serving-pool admission path)."""

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
from repro.train import load_checkpoint


def node_config(epochs, dropout=0.0, seed=3, seq_len=None, engine="gp-raw",
                eval_every=1):
    return RunConfig(
        data=DataConfig("ogbn-arxiv", scale=0.1),
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=dropout),
        engine=EngineConfig(engine),
        train=TrainConfig(epochs=epochs, lr=2e-3, seq_len=seq_len,
                          eval_every=eval_every),
        seed=seed,
    )


def assert_same_weights(a: Session, b: Session):
    sa, sb = a.model.state_dict(), b.model.state_dict()
    assert sa.keys() == sb.keys()
    for key in sa:
        np.testing.assert_array_equal(sa[key], sb[key], err_msg=key)


class TestResumeMidFit:
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_bit_compatible_final_weights(self, tmp_path, dropout):
        """Interrupt at epoch 2 of 5, resume, and match the uninterrupted
        run bitwise — optimizer moments AND dropout noise-stream positions
        both survive the round-trip."""
        full = Session(node_config(5, dropout=dropout))
        full.fit()

        ck = str(tmp_path / "mid.npz")
        interrupted = Session(node_config(2, dropout=dropout))
        interrupted.fit(checkpoint_path=ck)
        resumed = Session(node_config(5, dropout=dropout))
        record = resumed.resume(ck)

        assert len(record.train_loss) == 3  # only the resumed epochs
        assert_same_weights(full, resumed)

    def test_resumed_losses_match_tail_of_full_run(self, tmp_path):
        full = Session(node_config(5)).fit()
        ck = str(tmp_path / "mid.npz")
        Session(node_config(2)).fit(checkpoint_path=ck)
        resumed = Session(node_config(5)).resume(ck)
        np.testing.assert_allclose(resumed.train_loss, full.train_loss[2:])

    def test_batched_trainer_resume_replays_sampling(self, tmp_path):
        """The sampled-sequence trainer fast-forwards its partition RNG on
        resume, so resumed epochs draw the partitions the uninterrupted
        run would have."""
        full = Session(node_config(4, seq_len=48))
        full.fit()
        ck = str(tmp_path / "mid.npz")
        Session(node_config(2, seq_len=48)).fit(checkpoint_path=ck)
        resumed = Session(node_config(4, seq_len=48))
        record = resumed.resume(ck)
        np.testing.assert_allclose(record.train_loss, full.record.train_loss[2:])
        assert_same_weights(full, resumed)

    def test_batched_resume_seeks_past_the_evals_that_ran(self, tmp_path):
        """With ``eval_every=2``, a run cut after epoch 3 drew three
        training partitions and one eval partition; the resumed run
        seeks past exactly those and evaluates on the same epochs."""
        full = Session(node_config(5, seq_len=48, eval_every=2))
        full.fit()
        ck = str(tmp_path / "mid.npz")
        Session(node_config(3, seq_len=48, eval_every=2)).fit(checkpoint_path=ck)
        resumed = Session(node_config(5, seq_len=48, eval_every=2))
        record = resumed.resume(ck)
        assert record.train_loss == full.record.train_loss[3:]
        assert record.val_metric == full.record.val_metric[1:]
        assert record.test_metric == full.record.test_metric[1:]
        assert_same_weights(full, resumed)

    def test_graph_task_resume(self, tmp_path):
        mk = lambda epochs: RunConfig(
            data=DataConfig("zinc", scale=0.05),
            model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                              num_heads=4, dropout=0.0),
            engine=EngineConfig("gp-sparse"),
            train=TrainConfig(epochs=epochs, lr=3e-3))
        full = Session(mk(3))
        full.fit()
        ck = str(tmp_path / "mid.npz")
        Session(mk(1)).fit(checkpoint_path=ck)
        resumed = Session(mk(3))
        record = resumed.resume(ck)
        assert len(record.train_loss) == 2
        assert_same_weights(full, resumed)

    def test_checkpoint_records_epoch_counter(self, tmp_path):
        ck = str(tmp_path / "mid.npz")
        s = Session(node_config(3))
        s.fit(checkpoint_path=ck)
        info = load_checkpoint(ck, s.model)
        assert info["epoch"] == 3
        assert info["metadata"]["dataset"] == "ogbn-arxiv"


class TestSaveCheckpoint:
    def test_weights_round_trip_into_fresh_session(self, tmp_path):
        trained = Session(node_config(2))
        trained.fit()
        path = str(tmp_path / "weights.npz")
        trained.save_checkpoint(path)

        fresh = Session(node_config(2))
        load_checkpoint(path, fresh.model)
        assert_same_weights(trained, fresh)
        np.testing.assert_array_equal(trained.predict(), fresh.predict())

    def test_embeds_config_and_epochs_metadata(self, tmp_path):
        s = Session(node_config(2))
        s.fit()
        path = str(tmp_path / "weights.npz")
        s.save_checkpoint(path)
        info = load_checkpoint(path, Session(node_config(2)).model)
        assert info["epoch"] == 2
        assert info["metadata"]["config"] == s.config.to_dict()
        # the embedded config round-trips through the validator
        replay = RunConfig.from_dict(info["metadata"]["config"])
        assert replay == s.config

    def test_unfitted_session_saves_epoch_zero(self, tmp_path):
        s = Session(node_config(2))
        path = str(tmp_path / "w.npz")
        s.save_checkpoint(path)
        assert load_checkpoint(path, s.model)["epoch"] == 0

    def test_epoch_counts_pre_resume_history(self, tmp_path):
        """A checkpoint saved after resume() reports the model's full
        training history, not just the resumed epochs."""
        ck = str(tmp_path / "mid.npz")
        Session(node_config(2)).fit(checkpoint_path=ck)
        resumed = Session(node_config(5))
        record = resumed.resume(ck)
        assert record.start_epoch == 2
        assert record.epochs_trained == 5
        path = str(tmp_path / "w.npz")
        resumed.save_checkpoint(path)
        assert load_checkpoint(path, resumed.model)["epoch"] == 5
