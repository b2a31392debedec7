"""Mini-batch (sampled-sequence) training for node-level tasks.

§II-B's node-level setting: "the input sequences can either encode all
nodes in the graph or a mini-batch of nodes", and Figure 1 sweeps that
mini-batch size S as the *sequence length*.  This module is the library
form of that mode: each step samples S nodes, induces their subgraph,
runs the engine's plan over it, and applies the loss on the batch's
training nodes.  Evaluation batches the same way (deployment-matched
inference), so accuracy reflects the context size actually used.

The engine preprocesses *per batch* — cluster reordering and pattern
construction happen on the induced subgraph, exactly as TorchGT would
process a sampled sequence — and engine preprocessing time is summed
into the record like the full-graph trainer does.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.engine import Engine
from ..graph.datasets import NodeDataset
from ..tensor import AdamW, clip_grad_norm, no_grad, precision_scope
from ..tensor import functional as F
from .callbacks import Callback, EarlyStoppingCallback, as_callback_list
from .checkpointing import load_checkpoint, save_checkpoint
from .metrics import accuracy
from .trainer import (TrainingRecord, planned_forward, prepare_inputs,
                      seed_stochastic_modules)

__all__ = ["batched_node_predictions", "train_node_classification_batched"]


def _batches(n: int, seq_len: int, rng: np.random.Generator,
             min_batch: int = 4) -> list[np.ndarray]:
    """Random node partition into sorted batches of ≈ ``seq_len``."""
    order = rng.permutation(n)
    out = []
    for lo in range(0, n, seq_len):
        nodes = np.sort(order[lo:lo + seq_len])
        if len(nodes) >= min_batch:
            out.append(nodes)
    return out


def batched_node_predictions(model, dataset: NodeDataset, engine: Engine,
                             seq_len: int, rng: np.random.Generator,
                             lap_pe_dim: int = 8) -> np.ndarray:
    """Predict every node in mini-batches of ``seq_len`` (eval mode)."""
    model.eval()
    logits = np.zeros((dataset.num_nodes, dataset.num_classes))
    with no_grad():
        for nodes in _batches(dataset.num_nodes, seq_len, rng, min_batch=1):
            sub, _ = dataset.graph.subgraph(nodes)
            ctx, enc = prepare_inputs(engine, sub, lap_pe_dim, train=False)
            feats = dataset.features[nodes]
            inv = ctx.node_permutation_inverse()
            batch_to_orig = nodes[inv] if inv is not None else nodes
            if inv is not None:
                feats = feats[inv]
            out = planned_forward(model, engine, ctx, feats, enc,
                                  train=False)
            logits[batch_to_orig] = out.data
    return logits


def train_node_classification_batched(
    model,
    dataset: NodeDataset,
    engine: Engine,
    seq_len: int,
    epochs: int = 10,
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
    """Node classification with sampled sequences of length ``seq_len``.

    One epoch = one random partition of all nodes into batches, one
    optimizer step per batch containing training nodes.  Returns the
    same :class:`~repro.train.trainer.TrainingRecord` as the full-graph
    trainer, with ``seq_len`` stamped into the dataset name.
    ``patience`` / ``callbacks`` behave exactly as in the full-graph
    trainer.  ``checkpoint_path`` / ``resume_path`` save/restore
    per-epoch training state; on resume the batch-sampling stream is
    fast-forwarded past the completed epochs, so the resumed run draws
    the same node partitions the uninterrupted run would have.
    """
    if seq_len < 2:
        raise ValueError("seq_len must be >= 2")
    seed_stochastic_modules(model, seed)
    with precision_scope(engine.precision):
        rng = np.random.default_rng(seed)
        record = TrainingRecord(engine=engine.name,
                                dataset=f"{dataset.name}[S={seq_len}]")
        opt = AdamW(model.parameters(), lr=lr, weight_decay=weight_decay)
        start_epoch = 0
        if resume_path is not None:
            start_epoch = load_checkpoint(resume_path, model, opt)["epoch"]
            record.start_epoch = start_epoch
            for _ in range(start_epoch):
                # each completed epoch consumed two permutations: one for
                # the training partition, one for batched eval
                rng.permutation(dataset.num_nodes)
                rng.permutation(dataset.num_nodes)
        cbs = as_callback_list(callbacks)
        if patience:
            cbs.append(EarlyStoppingCallback(patience, mode="max"))
        cbs.on_fit_start(record)

        for epoch in range(start_epoch, epochs):
            t0 = time.perf_counter()
            model.train()
            epoch_loss, steps = 0.0, 0
            for nodes in _batches(dataset.num_nodes, seq_len, rng):
                labels = np.where(dataset.train_mask[nodes],
                                  dataset.labels[nodes], -1)
                if (labels != -1).sum() == 0:
                    continue
                sub, _ = dataset.graph.subgraph(nodes)
                ctx, enc = prepare_inputs(engine, sub, lap_pe_dim, train=True)
                record.preprocess_seconds += ctx.preprocess_seconds
                feats = dataset.features[nodes]
                inv = ctx.node_permutation_inverse()
                if inv is not None:
                    feats, labels = feats[inv], labels[inv]
                logits = planned_forward(model, engine, ctx, feats, enc,
                                         train=True)
                loss = F.cross_entropy(logits, labels, ignore_index=-1)
                opt.zero_grad()
                loss.backward()
                clip_grad_norm(opt.params, grad_clip)
                opt.step()
                epoch_loss += loss.item()
                steps += 1
            epoch_time = time.perf_counter() - t0
            record.train_loss.append(epoch_loss / max(steps, 1))
            record.epoch_times.append(epoch_time)
            engine.observe_epoch(record.train_loss[-1], epoch_time)

            logits = batched_node_predictions(model, dataset, engine, seq_len,
                                              rng, lap_pe_dim)
            record.val_metric.append(
                accuracy(logits, dataset.labels, dataset.val_mask))
            record.test_metric.append(
                accuracy(logits, dataset.labels, dataset.test_mask))
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, model, opt, epoch=epoch + 1,
                                metadata={"dataset": dataset.name,
                                          "engine": engine.name,
                                          "seq_len": seq_len})
            if cbs.on_epoch_end(epoch, record):
                break
        cbs.on_fit_end(record)
        return record
