"""Loss and metric bytes of ``Session.fit`` on every training task.

``test_prepare_inputs.PARENT`` pins the full-graph node fit.  These pins
cover what it does not: graph-level regression (MAE) and classification
(accuracy), sampled-sequence training, and a full-graph fit that
evaluates every other epoch and early-stops.  Each digest is the sha256
of a list's float64 bytes; a loop refactor that keeps every step's
arithmetic keeps them.  ``torchgt`` fits stay within 11 epochs: from the
12th the Auto Tuner reads measured epoch time, and the bytes would not be
a function of the config.
"""

import pytest

from repro.api import (DataConfig, EngineConfig, ModelConfig, RunConfig,
                       Session, TrainConfig)
from tests.api.test_prepare_inputs import PARENT_BLAS, _blas_fingerprint
from tests.helpers import array_sha256


def _config(data, engine, **train):
    return RunConfig(
        data=data,
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=0.1),
        engine=EngineConfig(engine), train=TrainConfig(**train), seed=1)


CONFIGS = {
    "zinc": _config(DataConfig("zinc", scale=0.05), "torchgt",
                    epochs=3, lr=3e-3),
    "malnet": _config(DataConfig("malnet", scale=0.1), "gp-flash",
                      epochs=3, lr=3e-3),
    "sampled": _config(DataConfig("ogbn-arxiv", scale=0.1), "torchgt",
                       epochs=3, lr=2e-3, seq_len=48),
    "early-stop": _config(DataConfig("ogbn-arxiv", scale=0.1), "torchgt",
                          epochs=11, lr=2e-3, eval_every=2, patience=2),
}

# (len, sha256) of train_loss, val_metric and test_metric
PINS = {
    "zinc": (
        (3, "c603e6baaf227548278a6b0facbd0c3e9f60a6a9da4ea63e5000ed38d5acb24a"),
        (3, "68da2141559f38945f0707e1bdefb6b9c4290f12f2c6029fb76ba8ac9ea41854"),
        (3, "05407e7eedb0985165e487b708ed24bf1de9bbc15b19cf14fb7a0e1b0a37c15d")),
    "malnet": (
        (3, "e7008279fe702faefb4a9c627cb8d6144835e0a1a579e80501cc2fb7c2a8d07c"),
        (3, "c43957724680b110e64ceb6bfceeadda2b4d97903d17ab9dc79a824b33edd0e8"),
        (3, "274157bf93321da0c3d38a0bccb9e6ddb987c65bb4d6d477cb491c30c0730a9c")),
    "sampled": (
        (3, "f074f5a4057d348a68fc9615c931092e27d4a63036aca34985e0210bb44c0c05"),
        (3, "cf5544600e9bb4484f882b7042bb54b77ef2c0044cef39cc6fcba18ca72ff2a9"),
        (3, "349123ff27a294e611db35f6756da1ea98848fd11b7ab566b4f53fd57bf3950d")),
    # stops at epoch 10 of 11: evals at epochs 2, 4, 6, 8, 10, the last
    # two without improvement
    "early-stop": (
        (10, "35de036bb344d6cc3fb796ea1f64078dbbeb594d92fc42e43a4fb5df6f175c87"),
        (5, "e4316b65266a326a29630a602548f17ba206d4e8e5605a43d40e63be6f1a6ce2"),
        (5, "90caddff5ca5cea4cf4ee0f60fba243ef52f02ad5c3020b297245c460d93904a")),
}


def _digests(record):
    return tuple((len(values), array_sha256(values, "float64"))
                 for values in (record.train_loss, record.val_metric,
                                record.test_metric))


@pytest.mark.skipif(_blas_fingerprint() != PARENT_BLAS,
                    reason="float32 BLAS rounds differently from the machine "
                           "the digests were taken on")
@pytest.mark.parametrize("case", list(CONFIGS))
def test_fit_bytes_are_pinned(case):
    assert _digests(Session(CONFIGS[case]).fit()) == PINS[case]
