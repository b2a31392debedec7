"""Early stopping: ``EarlyStoppingCallback`` fed one validation point per
epoch, the way the epoch loop feeds it."""

import pytest

from repro.train import EarlyStoppingCallback, TrainingRecord


def verdicts(cb, values):
    """Run ``cb`` over one fit whose epochs evaluate to ``values``."""
    record = TrainingRecord("engine", "dataset")
    cb.on_fit_start(record)
    out = []
    for epoch, value in enumerate(values):
        record.val_metric.append(value)
        out.append(cb.on_epoch_end(epoch, record))
    return out


class TestEarlyStopping:
    def test_stops_after_patience(self):
        cb = EarlyStoppingCallback(patience=3, mode="max")
        # the third bad epoch stops
        assert verdicts(cb, [0.5, 0.4, 0.4, 0.3]) == [False, False, False, True]
        assert cb.stopped_epoch == 3

    def test_improvement_resets_patience(self):
        cb = EarlyStoppingCallback(patience=2, mode="max")
        got = verdicts(cb, [0.5, 0.4, 0.6, 0.5, 0.5])
        assert got == [False, False, False, False, True]  # 0.6 improved

    def test_min_mode(self):
        cb = EarlyStoppingCallback(patience=2, mode="min")
        assert verdicts(cb, [1.0, 0.8, 0.9, 0.85]) == [False, False, False, True]

    def test_min_delta_requires_real_improvement(self):
        cb = EarlyStoppingCallback(patience=1, mode="max", min_delta=0.05)
        # 0.52 is within delta: not an improvement
        assert verdicts(cb, [0.5, 0.52]) == [False, True]

    def test_best_epoch_tracked(self):
        cb = EarlyStoppingCallback(patience=10, mode="max")
        verdicts(cb, [0.2, 0.7, 0.5, 0.6])
        assert cb.best == pytest.approx(0.7)
        assert cb.best_epoch == 1
        assert cb.stopped_epoch is None

    def test_nan_counts_against_patience(self):
        cb = EarlyStoppingCallback(patience=2, mode="max")
        got = verdicts(cb, [0.5, float("nan"), float("nan")])
        assert got == [False, False, True]
        assert cb.best == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStoppingCallback(patience=0)
        with pytest.raises(ValueError):
            EarlyStoppingCallback(patience=2, mode="sideways")
