"""Engine-agnostic training: one epoch loop and the tasks it runs.

The loop (:func:`run_epochs`) owns optimization and bookkeeping; a
:class:`Task` owns what one kind of training does inside it (full-graph
node, graph-level, or sampled-sequence node training); the engine owns
the system plan (which attention kernel, which pattern).  Every epoch
records wall-clock time, train loss, and val/test metrics, producing the
convergence curves of Figures 8/10/11 and the accuracy columns of Tables
V/VII/VIII.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..core.engine import Engine, SequenceContext
from ..graph.csr import CSRGraph
from ..graph.datasets import GraphDataset, NodeDataset
from ..models.encodings import GraphEncodings, compute_encodings
from ..tensor import AdamW, Tensor, clip_grad_norm, no_grad, precision_scope
from ..tensor import functional as F
from .callbacks import Callback, CallbackList, EarlyStoppingCallback
from .checkpointing import load_checkpoint, noise_streams, save_checkpoint
from .metrics import accuracy, mae

__all__ = ["TrainingRecord", "planned_forward", "prepare_inputs",
           "seed_stochastic_modules", "Task", "FullGraphTask", "GraphTask",
           "run_epochs", "train_node_classification", "train_graph_task"]


@dataclass
class TrainingRecord:
    """Per-epoch training history plus preprocessing cost."""

    engine: str
    dataset: str
    train_loss: list[float] = field(default_factory=list)
    val_metric: list[float] = field(default_factory=list)
    test_metric: list[float] = field(default_factory=list)
    epoch_times: list[float] = field(default_factory=list)
    preprocess_seconds: float = 0.0
    metric_name: str = "accuracy"
    start_epoch: int = 0  # >0 when the run resumed from a checkpoint

    @property
    def epochs_trained(self) -> int:
        """Total epochs the model has seen, counting pre-resume ones."""
        return self.start_epoch + len(self.train_loss)

    @property
    def final_test(self) -> float:
        return self.test_metric[-1] if self.test_metric else float("nan")

    @property
    def best_test(self) -> float:
        if not self.test_metric:
            return float("nan")
        return max(self.test_metric) if self.metric_name == "accuracy" \
            else min(self.test_metric)

    @property
    def mean_epoch_time(self) -> float:
        # skip the first (warmup) epoch like the paper's measurement protocol
        times = self.epoch_times[1:] or self.epoch_times
        return float(np.mean(times)) if times else float("nan")

    def cumulative_time(self) -> np.ndarray:
        return np.cumsum(self.epoch_times)


def seed_stochastic_modules(model, seed: int) -> None:
    """Re-seed every stochastic submodule (dropout, gumbel noise) of ``model``.

    Model *initialization* is already deterministic (each model seeds its
    weight RNG at construction); this pins the *training-time* noise
    streams, so two runs with the same trainer ``seed`` are bitwise
    identical — and two runs with different seeds actually differ.  Each
    module's stream is keyed by ``(seed, traversal index)`` alone, so a
    module keeps its stream as long as its position does not move.
    """
    for i, kind, module, attr in noise_streams(model):
        setattr(module, attr,
                np.random.default_rng([seed, i, int(kind == "gumbel")]))


def planned_forward(model, engine: Engine, ctx: SequenceContext,
                    feats: np.ndarray, enc: GraphEncodings, train: bool):
    """One planned forward pass — the single train/eval call site.

    Asks the engine for its training plan (which advances interleave
    state) or its stateless eval plan, and applies it to the model call.
    """
    plan = engine.plan(ctx) if train else engine.eval_plan(ctx)
    return model(feats, enc, backend=plan.kernel, pattern=plan.pattern,
                 use_bias=plan.use_bias)


def prepare_inputs(engine: Engine, model, g: CSRGraph, lap_pe_dim: int,
                   train: bool) -> tuple[SequenceContext, GraphEncodings]:
    """Engine preprocessing plus structural encodings — the one prepare site.

    ``train`` picks ``prepare_graph`` (may advance tuner state) or the stateless
    ``prepare_inference``; ``ctx.preprocess_seconds`` gains the encoding time.
    Each encoding is computed only where it is read: the Laplacian
    eigensolve for a ``model`` whose ``reads_lap_pe`` is true or absent,
    the SPD matrix for one whose ``reads_spd`` is true or absent, under
    an engine whose plans may carry a bias (``engine.plans_bias``).
    """
    ctx = engine.prepare_graph(g) if train else engine.prepare_inference(g)
    if not getattr(model, "reads_lap_pe", True):
        lap_pe_dim = 0
    with_spd = engine.plans_bias and getattr(model, "reads_spd", True)
    t0 = time.perf_counter()
    enc = compute_encodings(ctx.graph, lap_pe_dim=lap_pe_dim, with_spd=with_spd)
    ctx.preprocess_seconds += time.perf_counter() - t0
    return ctx, enc


class Task:
    """What one kind of training supplies to :func:`run_epochs`.

    A task defines ``steps(epoch)``, which yields one loss per optimizer
    step, and ``evaluate()`` → ``(val, test)``.  :meth:`prepare` runs
    inside the engine's precision scope; it and :meth:`seek` and
    :meth:`refresh` default to doing nothing.  The loop fills
    ``record`` and stamps ``metadata`` into every checkpoint it writes,
    so a task serves one run.
    """

    def __init__(self, model, dataset, engine: Engine, lap_pe_dim: int = 8):
        self.model, self.dataset, self.engine = model, dataset, engine
        self.lap_pe_dim = lap_pe_dim
        self.record = TrainingRecord(engine=engine.name, dataset=dataset.name)
        self.metadata = {"dataset": dataset.name, "engine": engine.name}

    def prepare(self) -> None:
        """Engine preprocessing, before the first epoch."""

    def seek(self, epochs: int, evals: int) -> None:
        """Move the task's own streams past a checkpoint's ``epochs``
        completed epochs, ``evals`` of which evaluated."""

    def refresh(self) -> bool:
        """Re-derive the plan after the engine observed an epoch; returns
        whether the attention pattern was re-reformed."""
        return False


def run_epochs(task: Task, epochs: int, lr: float = 1e-3,
               weight_decay: float = 1e-4, grad_clip: float = 5.0,
               eval_every: int = 1, seed: int = 0,
               patience: int | None = None,
               callbacks: Sequence[Callback] | Callback | None = None,
               checkpoint_path: str | None = None,
               resume_path: str | None = None) -> TrainingRecord:
    """Train ``task`` for ``epochs`` epochs: the one epoch loop.

    Each epoch takes one clipped AdamW step per loss the task yields and
    records their mean and its wall time.  The engine then observes the
    epoch (TorchGT's Auto Tuner) and the task refreshes its plan, firing
    ``on_reform`` before the epoch's evaluation if the pattern was
    re-reformed.  Only the full-graph task refreshes: on graph-level
    tasks the tuner moves β_thre but no graph is re-reformed, because
    ``TorchGTEngine.refresh`` tracks a single β_thre in use.  Epochs
    ``eval_every``, ``2 * eval_every``, … of the whole run evaluate.

    ``seed`` pins the noise streams (:func:`seed_stochastic_modules`);
    ``patience`` installs an
    :class:`~repro.train.callbacks.EarlyStoppingCallback` (minimizing
    MAE, maximizing accuracy).  ``checkpoint_path`` is rewritten after
    every epoch; ``resume_path`` restores one, the task seeks past its
    epochs, and the run continues bit for bit as if uninterrupted (for
    engines without runtime tuner state), recording only those epochs.
    """
    model, engine, record = task.model, task.engine, task.record
    seed_stochastic_modules(model, seed)
    with precision_scope(engine.precision):
        task.prepare()
        opt = AdamW(model.parameters(), lr=lr, weight_decay=weight_decay)
        if resume_path is not None:
            record.start_epoch = load_checkpoint(resume_path, model, opt)["epoch"]
            task.seek(record.start_epoch, record.start_epoch // eval_every)
        cbs = CallbackList(callbacks)
        if patience:
            cbs.append(EarlyStoppingCallback(
                patience, mode="min" if record.metric_name == "mae" else "max"))
        cbs.on_fit_start(record)

        for epoch in range(record.start_epoch, epochs):
            t0 = time.perf_counter()
            model.train()
            total, steps = 0.0, 0
            for loss in task.steps(epoch):
                opt.zero_grad()
                loss.backward()
                clip_grad_norm(opt.params, grad_clip)
                opt.step()
                total += loss.item()
                steps += 1
            epoch_time = time.perf_counter() - t0
            record.train_loss.append(total / max(steps, 1))
            record.epoch_times.append(epoch_time)
            engine.observe_epoch(record.train_loss[-1], epoch_time)
            if task.refresh():
                cbs.on_reform(epoch, record)

            if (epoch + 1) % eval_every == 0:
                model.eval()
                with no_grad():
                    val, test = task.evaluate()
                record.val_metric.append(val)
                record.test_metric.append(test)
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, model, opt, epoch=epoch + 1,
                                metadata=task.metadata)
            if cbs.on_epoch_end(epoch, record):
                break
        cbs.on_fit_end(record)
        return record


class FullGraphTask(Task):
    """Full-graph node classification: the sequence is all N nodes, and
    an epoch is one optimizer step."""

    def prepare(self) -> None:
        ds = self.dataset
        self.ctx, self.enc = prepare_inputs(self.engine, self.model, ds.graph,
                                            self.lap_pe_dim, train=True)
        self.record.preprocess_seconds = self.ctx.preprocess_seconds
        arrays = (ds.features, ds.labels, ds.train_mask, ds.val_mask,
                  ds.test_mask)
        inv = self.ctx.node_permutation_inverse()
        if inv is not None:  # carry the node arrays through the reordering
            arrays = tuple(a[inv] for a in arrays)
        self.feats, self.labels, *self.masks = arrays
        self.train_labels = np.where(self.masks[0], self.labels, -1)

    def _forward(self, train: bool):
        return planned_forward(self.model, self.engine, self.ctx, self.feats,
                               self.enc, train)

    def steps(self, epoch: int) -> Iterator[Tensor]:
        yield F.cross_entropy(self._forward(train=True), self.train_labels,
                              ignore_index=-1)

    def evaluate(self) -> tuple[float, float]:
        out = self._forward(train=False).data
        return tuple(accuracy(out, self.labels, m) for m in self.masks[1:])

    def refresh(self) -> bool:
        reformed_before = self.ctx.reformed
        self.ctx = self.engine.refresh(self.ctx)
        return self.ctx.reformed is not reformed_before


class GraphTask(Task):
    """Graph-level classification (accuracy) or regression (MAE, for a
    dataset without classes).

    Each graph is one input sequence and one optimizer step (batch size
    1), matching the long-sequence regime the paper targets for
    MalNet-scale graphs.
    """

    def prepare(self) -> None:
        self.regression = self.dataset.num_classes == 0
        self.record.metric_name = "mae" if self.regression else "accuracy"
        # preprocessing: one context + encodings per graph
        self.prepared = [prepare_inputs(self.engine, self.model, g,
                                        self.lap_pe_dim, train=True)
                         for g in self.dataset.graphs]
        self.record.preprocess_seconds = sum(ctx.preprocess_seconds
                                             for ctx, _ in self.prepared)

    def _forward(self, i: int, train: bool):
        ctx, enc = self.prepared[i]
        feats = self.dataset.features[i]
        inv = ctx.node_permutation_inverse()
        if inv is not None:
            feats = feats[inv]
        return planned_forward(self.model, self.engine, ctx, feats, enc, train)

    def steps(self, epoch: int) -> Iterator[Tensor]:
        loss = F.l1_loss if self.regression else F.cross_entropy
        for i in self.dataset.train_idx:
            yield loss(self._forward(i, train=True),
                       np.array([self.dataset.targets[i]]))

    def _score(self, idx: np.ndarray) -> float:
        preds = [self._forward(i, train=False).data.reshape(-1) for i in idx]
        if self.regression:
            return mae(np.array([p[0] for p in preds]), self.dataset.targets[idx])
        return accuracy(np.stack(preds), self.dataset.targets[idx])

    def evaluate(self) -> tuple[float, float]:
        return (self._score(self.dataset.val_idx),
                self._score(self.dataset.test_idx))


def train_node_classification(
        model, dataset: NodeDataset, engine: Engine, epochs: int = 30,
        lr: float = 1e-3, weight_decay: float = 1e-4, grad_clip: float = 5.0,
        lap_pe_dim: int = 8, eval_every: int = 1, seed: int = 0,
        patience: int | None = None,
        callbacks: Sequence[Callback] | Callback | None = None,
        checkpoint_path: str | None = None,
        resume_path: str | None = None) -> TrainingRecord:
    """Full-graph node classification (the sequence is all N nodes).

    :class:`FullGraphTask` under :func:`run_epochs`.
    """
    return run_epochs(FullGraphTask(model, dataset, engine, lap_pe_dim), epochs,
                      lr, weight_decay, grad_clip, eval_every, seed, patience,
                      callbacks, checkpoint_path, resume_path)


def train_graph_task(
        model, dataset: GraphDataset, engine: Engine, epochs: int = 20,
        lr: float = 1e-3, weight_decay: float = 1e-4, grad_clip: float = 5.0,
        lap_pe_dim: int = 8, seed: int = 0, patience: int | None = None,
        callbacks: Sequence[Callback] | Callback | None = None,
        checkpoint_path: str | None = None,
        resume_path: str | None = None) -> TrainingRecord:
    """Graph-level classification or regression (one graph per step).

    :class:`GraphTask` under :func:`run_epochs`, evaluating every epoch.
    """
    return run_epochs(GraphTask(model, dataset, engine, lap_pe_dim), epochs,
                      lr, weight_decay, grad_clip, seed=seed, patience=patience,
                      callbacks=callbacks, checkpoint_path=checkpoint_path,
                      resume_path=resume_path)
