"""Training callbacks — the hook protocol the epoch loop fires during a run.

A callback observes one training run: the epoch loop
(:func:`~repro.train.trainer.run_epochs`) calls ``on_fit_start``
once, ``on_epoch_end`` after every optimizer epoch (returning a truthy
value stops training), ``on_reform`` whenever the engine's runtime
feedback actually re-reformed the attention pattern (the TorchGT Auto
Tuner moving β_thre), and ``on_fit_end`` after the loop.  The
:class:`~repro.train.trainer.TrainingRecord` being built is passed to
every hook, so callbacks read metrics without private state.

Early stopping is implemented as a callback
(:class:`EarlyStoppingCallback`) rather than loop-internal logic; the
``patience=`` argument just installs one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .trainer import TrainingRecord

__all__ = ["Callback", "CallbackList", "EarlyStoppingCallback",
           "EpochLogger"]


class Callback:
    """Base class: every hook is a no-op; override what you need."""

    def on_fit_start(self, record: "TrainingRecord") -> None:
        """Called once before the first epoch."""

    def on_epoch_end(self, epoch: int, record: "TrainingRecord") -> bool | None:
        """Called after each epoch; return truthy to stop training."""

    def on_reform(self, epoch: int, record: "TrainingRecord") -> None:
        """Called when the engine re-reformed its attention pattern."""

    def on_fit_end(self, record: "TrainingRecord") -> None:
        """Called once after the final epoch (even on early stop)."""


class CallbackList(Callback):
    """Fan a hook call out to several callbacks (stop if any asks).

    ``callbacks`` is one callback, an iterable of them, another
    ``CallbackList`` or None; the list is always copied, so the loop
    appending its run-local ``patience`` stopper never mutates a list the
    caller reuses across runs.
    """

    def __init__(self, callbacks: Iterable[Callback] | Callback | None = None):
        if isinstance(callbacks, CallbackList):
            callbacks = callbacks.callbacks
        elif isinstance(callbacks, Callback):
            callbacks = [callbacks]
        self.callbacks: list[Callback] = list(callbacks or ())

    def append(self, cb: Callback) -> None:
        """Add one callback to the fan-out list."""
        self.callbacks.append(cb)

    def on_fit_start(self, record) -> None:
        for cb in self.callbacks:
            cb.on_fit_start(record)

    def on_epoch_end(self, epoch, record) -> bool:
        stop = False
        for cb in self.callbacks:
            stop = bool(cb.on_epoch_end(epoch, record)) or stop
        return stop

    def on_reform(self, epoch, record) -> None:
        for cb in self.callbacks:
            cb.on_reform(epoch, record)

    def on_fit_end(self, record) -> None:
        for cb in self.callbacks:
            cb.on_fit_end(record)


class EarlyStoppingCallback(Callback):
    """Stop after ``patience`` validation points without improvement.

    ``mode="max"`` for accuracy-like metrics, ``"min"`` for losses/MAE;
    an improvement must beat ``best`` by more than ``min_delta``.  Only
    *new* validation points count, so epochs without an eval
    (``eval_every > 1``) don't count against patience.  A NaN metric is
    never an improvement but does count: a diverged run should stop, not
    spin.  ``best`` and ``best_epoch`` record the checkpoint worth
    keeping; ``stopped_epoch`` is the epoch training stopped after.
    """

    best: float | None = None
    best_epoch = -1
    stopped_epoch: int | None = None
    _bad = _seen = 0

    def __init__(self, patience: int, mode: str = "max",
                 min_delta: float = 0.0):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        self.patience = patience
        self.mode = mode
        self.min_delta = min_delta

    def on_fit_start(self, record) -> None:
        # fresh state per run: a reused callback instance must not judge
        # the new run against the previous run's best metric
        self.best, self.best_epoch, self.stopped_epoch = None, -1, None
        self._bad, self._seen = 0, len(record.val_metric)

    def _improved(self, value: float) -> bool:
        if np.isnan(value):
            return False
        if self.best is None:
            return True
        if self.mode == "max":
            return value > self.best + self.min_delta
        return value < self.best - self.min_delta

    def on_epoch_end(self, epoch, record) -> bool:
        stop = False
        for value in record.val_metric[self._seen:]:
            self._seen += 1
            if self._improved(value):
                self.best, self.best_epoch, self._bad = value, epoch, 0
            else:
                self._bad += 1
                stop = stop or self._bad >= self.patience
        if stop:
            self.stopped_epoch = epoch
        return stop


class EpochLogger(Callback):
    """Print one line per epoch — ``repro train``'s live progress output."""

    def __init__(self, stream=None, every: int = 1):
        self.stream = stream
        self.every = max(every, 1)
        self._metrics_seen = 0

    def on_fit_start(self, record) -> None:
        self._metrics_seen = len(record.test_metric)

    def on_epoch_end(self, epoch, record) -> None:
        fresh_metric = len(record.test_metric) > self._metrics_seen
        self._metrics_seen = len(record.test_metric)
        if (epoch + 1) % self.every:
            return
        loss = record.train_loss[-1] if record.train_loss else float("nan")
        line = f"epoch {epoch + 1:>3}  loss {loss:>8.4f}"
        # only report a test metric produced *this* epoch — on epochs the
        # loop skipped evaluation, repeating the old value would read
        # as a current result
        if fresh_metric:
            line += f"  test {record.metric_name} {record.test_metric[-1]:.4f}"
        print(line, file=self.stream)

    def on_reform(self, epoch, record) -> None:
        if (epoch + 1) % self.every:  # honor the same throttle as epochs
            return
        print(f"epoch {epoch + 1:>3}  [pattern re-reformed]", file=self.stream)
