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
into the record as the full-graph task does.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..core.engine import Engine
from ..graph.datasets import NodeDataset
from ..tensor import Tensor, no_grad
from ..tensor import functional as F
from .callbacks import Callback
from .metrics import accuracy
from .trainer import (Task, TrainingRecord, planned_forward, prepare_inputs,
                      run_epochs)

__all__ = ["batched_node_predictions", "SampledSequenceTask",
           "train_node_classification_batched"]


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


def _forward_batch(model, dataset: NodeDataset, engine: Engine,
                   nodes: np.ndarray, lap_pe_dim: int, train: bool):
    """Planned forward over the subgraph induced by ``nodes``; returns
    ``(out, order, ctx)``, where row ``r`` of ``out`` is node ``order[r]``."""
    sub, _ = dataset.graph.subgraph(nodes)
    ctx, enc = prepare_inputs(engine, model, sub, lap_pe_dim, train=train)
    inv = ctx.node_permutation_inverse()
    order = nodes[inv] if inv is not None else nodes
    out = planned_forward(model, engine, ctx, dataset.features[order], enc,
                          train=train)
    return out, order, ctx


def batched_node_predictions(model, dataset: NodeDataset, engine: Engine,
                             seq_len: int, rng: np.random.Generator,
                             lap_pe_dim: int = 8) -> np.ndarray:
    """Predict every node in mini-batches of ``seq_len`` (eval mode)."""
    model.eval()
    logits = np.zeros((dataset.num_nodes, dataset.num_classes))
    with no_grad():
        for nodes in _batches(dataset.num_nodes, seq_len, rng, min_batch=1):
            out, order, _ = _forward_batch(model, dataset, engine, nodes,
                                           lap_pe_dim, train=False)
            logits[order] = out.data
    return logits


class SampledSequenceTask(Task):
    """Node classification with sampled sequences of length ``seq_len``.

    One epoch = one random partition of all nodes into batches, one
    optimizer step per batch containing training nodes; every evaluation
    predicts over a fresh partition.  Both draw from one stream seeded
    by ``seed``, which :meth:`seek` fast-forwards on resume, so a resumed
    run draws the same node partitions the uninterrupted run would have.
    """

    def __init__(self, model, dataset: NodeDataset, engine: Engine,
                 seq_len: int, lap_pe_dim: int = 8, seed: int = 0):
        if seq_len < 2:
            raise ValueError("seq_len must be >= 2")
        super().__init__(model, dataset, engine, lap_pe_dim)
        self.seq_len = seq_len
        self.rng = np.random.default_rng(seed)
        self.train_labels = np.where(dataset.train_mask, dataset.labels, -1)
        self.record.dataset = f"{dataset.name}[S={seq_len}]"
        self.metadata["seq_len"] = seq_len

    def seek(self, epochs: int, evals: int) -> None:
        # every training partition and every eval drew one permutation
        for _ in range(epochs + evals):
            self.rng.permutation(self.dataset.num_nodes)

    def steps(self, epoch: int) -> Iterator[Tensor]:
        for nodes in _batches(self.dataset.num_nodes, self.seq_len, self.rng):
            if (self.train_labels[nodes] == -1).all():
                continue
            logits, order, ctx = _forward_batch(self.model, self.dataset,
                                                self.engine, nodes,
                                                self.lap_pe_dim, train=True)
            self.record.preprocess_seconds += ctx.preprocess_seconds
            yield F.cross_entropy(logits, self.train_labels[order],
                                  ignore_index=-1)

    def evaluate(self) -> tuple[float, float]:
        ds = self.dataset
        logits = batched_node_predictions(self.model, ds, self.engine,
                                          self.seq_len, self.rng,
                                          self.lap_pe_dim)
        return (accuracy(logits, ds.labels, ds.val_mask),
                accuracy(logits, ds.labels, ds.test_mask))


def train_node_classification_batched(
        model, dataset: NodeDataset, engine: Engine, seq_len: int,
        epochs: int = 10, lr: float = 1e-3, weight_decay: float = 1e-4,
        grad_clip: float = 5.0, lap_pe_dim: int = 8, seed: int = 0,
        patience: int | None = None,
        callbacks: Sequence[Callback] | Callback | None = None,
        checkpoint_path: str | None = None,
        resume_path: str | None = None) -> TrainingRecord:
    """Node classification with sampled sequences of length ``seq_len``.

    :class:`SampledSequenceTask` under
    :func:`~repro.train.trainer.run_epochs`, evaluating every epoch.
    """
    task = SampledSequenceTask(model, dataset, engine, seq_len, lap_pe_dim,
                               seed)
    return run_epochs(task, epochs, lr, weight_decay, grad_clip, seed=seed,
                      patience=patience, callbacks=callbacks,
                      checkpoint_path=checkpoint_path, resume_path=resume_path)
