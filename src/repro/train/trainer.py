"""Engine-agnostic training loops for node-level and graph-level tasks.

The trainer owns the optimization loop; the engine owns the system plan
(which attention kernel, which pattern).  Every epoch records wall-clock
time, train loss, and val/test metrics, producing the convergence curves
of Figures 8/10/11 and the accuracy columns of Tables V/VII/VIII.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.engine import Engine, SequenceContext
from ..graph.csr import CSRGraph
from ..graph.datasets import GraphDataset, NodeDataset
from ..models.encodings import GraphEncodings, compute_encodings
from ..tensor import AdamW, Dropout, clip_grad_norm, precision_scope
from ..tensor import functional as F
from .callbacks import Callback, EarlyStoppingCallback, as_callback_list
from .checkpointing import load_checkpoint, save_checkpoint
from .metrics import accuracy, mae

__all__ = ["TrainingRecord", "planned_forward", "prepare_inputs",
           "seed_stochastic_modules", "train_node_classification",
           "train_graph_task"]


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
    for i, m in enumerate(model.modules()):
        if isinstance(m, Dropout):
            m.rng = np.random.default_rng([seed, i, 0])
        if hasattr(m, "_gumbel_rng"):
            m._gumbel_rng = np.random.default_rng([seed, i, 1])


def planned_forward(model, engine: Engine, ctx: SequenceContext,
                    feats: np.ndarray, enc: GraphEncodings, train: bool):
    """One planned forward pass — the single train/eval call site.

    Asks the engine for its training plan (which advances interleave
    state) or its stateless eval plan, and applies it to the model call.
    """
    plan = engine.plan(ctx) if train else engine.eval_plan(ctx)
    return model(feats, enc, backend=plan.kernel, pattern=plan.pattern,
                 use_bias=plan.use_bias)


def prepare_inputs(engine: Engine, g: CSRGraph, lap_pe_dim: int,
                   train: bool) -> tuple[SequenceContext, GraphEncodings]:
    """Engine preprocessing plus structural encodings — the one prepare site.

    ``train`` picks ``prepare_graph`` (may advance tuner state) or the memoised
    ``prepare_inference``; ``ctx.preprocess_seconds`` gains the encoding time.
    """
    ctx = engine.prepare_graph(g) if train else engine.prepare_inference(g)
    t0 = time.perf_counter()
    enc = compute_encodings(ctx.graph, lap_pe_dim=lap_pe_dim)
    ctx.preprocess_seconds += time.perf_counter() - t0
    return ctx, enc


def train_node_classification(
    model,
    dataset: NodeDataset,
    engine: Engine,
    epochs: int = 30,
    lr: float = 1e-3,
    weight_decay: float = 1e-4,
    grad_clip: float = 5.0,
    lap_pe_dim: int = 8,
    eval_every: int = 1,
    seed: int = 0,
    patience: int | None = None,
    callbacks: Sequence[Callback] | Callback | None = None,
    checkpoint_path: str | None = None,
    resume_path: str | None = None,
) -> TrainingRecord:
    """Full-graph node classification (the sequence is all N nodes).

    ``seed`` pins the training-time noise streams (dropout) via
    :func:`seed_stochastic_modules`, so a run is reproducible end to end
    given the same model-init seed.  ``patience`` (optional) enables
    early stopping on validation accuracy: training halts after
    ``patience`` consecutive epochs with no improvement, and the record
    holds only the epochs actually run.  ``callbacks`` receive
    ``on_epoch_end`` / ``on_reform`` hooks (see
    :mod:`repro.train.callbacks`).

    ``checkpoint_path`` writes a full training checkpoint (model +
    optimizer + noise-stream positions + epoch counter) after every
    epoch; ``resume_path`` restores one and continues from its epoch —
    bit-compatible with the uninterrupted run for engines without
    runtime tuner state (the record then holds only the resumed epochs).
    """
    seed_stochastic_modules(model, seed)
    with precision_scope(engine.precision):
        ctx, enc = prepare_inputs(engine, dataset.graph, lap_pe_dim, train=True)
        feats, labels = dataset.features, dataset.labels
        train_m, val_m, test_m = dataset.train_mask, dataset.val_mask, dataset.test_mask
        inv = ctx.node_permutation_inverse()
        if inv is not None:  # carry the node arrays through the reordering
            feats, labels = feats[inv], labels[inv]
            train_m, val_m, test_m = train_m[inv], val_m[inv], test_m[inv]
        record = TrainingRecord(engine=engine.name, dataset=dataset.name,
                                preprocess_seconds=ctx.preprocess_seconds)
        opt = AdamW(model.parameters(), lr=lr, weight_decay=weight_decay)
        start_epoch = 0
        if resume_path is not None:
            start_epoch = load_checkpoint(resume_path, model, opt)["epoch"]
            record.start_epoch = start_epoch
        masked_labels = np.where(train_m, labels, -1)
        cbs = as_callback_list(callbacks)
        if patience:
            cbs.append(EarlyStoppingCallback(patience, mode="max"))
        cbs.on_fit_start(record)

        for epoch in range(start_epoch, epochs):
            t0 = time.perf_counter()
            model.train()
            logits = planned_forward(model, engine, ctx, feats, enc, train=True)
            loss = F.cross_entropy(logits, masked_labels, ignore_index=-1)
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(opt.params, grad_clip)
            opt.step()
            epoch_time = time.perf_counter() - t0
            record.train_loss.append(loss.item())
            record.epoch_times.append(epoch_time)
            engine.observe_epoch(loss.item(), epoch_time)
            reformed_before = ctx.reformed
            ctx = engine.refresh(ctx)
            if ctx.reformed is not reformed_before:
                cbs.on_reform(epoch, record)

            if len(record.train_loss) % eval_every == 0:
                model.eval()
                from ..tensor import no_grad
                with no_grad():
                    out = planned_forward(model, engine, ctx, feats, enc, train=False)
                record.val_metric.append(accuracy(out.data, labels, val_m))
                record.test_metric.append(accuracy(out.data, labels, test_m))
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, model, opt, epoch=epoch + 1,
                                metadata={"dataset": dataset.name,
                                          "engine": engine.name})
            if cbs.on_epoch_end(epoch, record):
                break
        cbs.on_fit_end(record)
        return record


def train_graph_task(
    model,
    dataset: GraphDataset,
    engine: Engine,
    epochs: int = 20,
    lr: float = 1e-3,
    weight_decay: float = 1e-4,
    grad_clip: float = 5.0,
    lap_pe_dim: int = 8,
    seed: int = 0,
    patience: int | None = None,
    callbacks: Sequence[Callback] | Callback | None = None,
    checkpoint_path: str | None = None,
    resume_path: str | None = None,
) -> TrainingRecord:
    """Graph-level classification or regression (one graph per step).

    Each graph is one input sequence; gradients are applied per graph
    (batch size 1), matching the long-sequence regime the paper targets
    for MalNet-scale graphs.  ``seed`` pins training-time noise streams;
    ``patience`` early-stops on the validation metric (minimized for
    regression MAE, maximized for accuracy); ``callbacks`` receive the
    :mod:`repro.train.callbacks` hooks.  ``checkpoint_path`` /
    ``resume_path`` save/restore per-epoch training state exactly as in
    :func:`train_node_classification`.
    """
    seed_stochastic_modules(model, seed)
    with precision_scope(engine.precision):
        is_regression = dataset.num_classes == 0
        metric_name = "mae" if is_regression else "accuracy"

        # preprocessing: one context + encodings per graph
        contexts: list[SequenceContext] = []
        encodings: list[GraphEncodings] = []
        preproc = 0.0
        for g in dataset.graphs:
            ctx, enc = prepare_inputs(engine, g, lap_pe_dim, train=True)
            preproc += ctx.preprocess_seconds
            contexts.append(ctx)
            encodings.append(enc)

        record = TrainingRecord(engine=engine.name, dataset=dataset.name,
                                preprocess_seconds=preproc, metric_name=metric_name)
        opt = AdamW(model.parameters(), lr=lr, weight_decay=weight_decay)

        def graph_features(i: int) -> np.ndarray:
            feats = dataset.features[i]
            inv = contexts[i].node_permutation_inverse()
            return feats[inv] if inv is not None else feats

        def evaluate(idx: np.ndarray) -> float:
            from ..tensor import no_grad
            model.eval()
            preds = []
            with no_grad():
                for i in idx:
                    out = planned_forward(model, engine, contexts[i], graph_features(i),
                                   encodings[i], train=False)
                    preds.append(out.data.reshape(-1))
            if is_regression:
                return mae(np.array([p[0] for p in preds]), dataset.targets[idx])
            logits = np.stack([p for p in preds])
            return accuracy(logits, dataset.targets[idx])

        start_epoch = 0
        if resume_path is not None:
            start_epoch = load_checkpoint(resume_path, model, opt)["epoch"]
            record.start_epoch = start_epoch
        cbs = as_callback_list(callbacks)
        if patience:
            cbs.append(EarlyStoppingCallback(
                patience, mode="min" if is_regression else "max"))
        cbs.on_fit_start(record)
        for epoch in range(start_epoch, epochs):
            t0 = time.perf_counter()
            model.train()
            epoch_loss = 0.0
            for i in dataset.train_idx:
                out = planned_forward(model, engine, contexts[i], graph_features(i),
                               encodings[i], train=True)
                if is_regression:
                    loss = F.l1_loss(out, np.array([dataset.targets[i]]))
                else:
                    loss = F.cross_entropy(out, np.array([dataset.targets[i]]))
                opt.zero_grad()
                loss.backward()
                clip_grad_norm(opt.params, grad_clip)
                opt.step()
                epoch_loss += loss.item()
            epoch_time = time.perf_counter() - t0
            record.train_loss.append(epoch_loss / max(len(dataset.train_idx), 1))
            record.epoch_times.append(epoch_time)
            engine.observe_epoch(record.train_loss[-1], epoch_time)
            record.val_metric.append(evaluate(dataset.val_idx))
            record.test_metric.append(evaluate(dataset.test_idx))
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, model, opt, epoch=epoch + 1,
                                metadata={"dataset": dataset.name,
                                          "engine": engine.name})
            if cbs.on_epoch_end(epoch, record):
                break
        cbs.on_fit_end(record)
        return record
