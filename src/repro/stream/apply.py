"""Applying deltas to live datasets: incremental, versioned, auditable.

:func:`apply_delta` is the single mutation point for a
:class:`~repro.graph.NodeDataset`: it routes topology changes through
the incremental CSR rebuild (:meth:`~repro.graph.CSRGraph.apply_edge_delta`
— only touched rows are recomputed), extends the feature/label/split
arrays for fresh nodes, applies in-place feature updates, and bumps the
dataset's monotonic ``graph_version``.  :func:`full_rebuild` applies the
*same* semantics through a from-scratch
:meth:`~repro.graph.CSRGraph.from_edges` rebuild — the reference path
the streaming benchmark proves bitwise-identical (and ≥3× slower for
small deltas).

:func:`make_churn_deltas` generates a seeded sequence of valid deltas
against an evolving graph (removals always name live edges, additions
always name absent ones) — the churn workload the serving layer's
streaming tests and ``benchmarks/bench_stream_updates.py`` replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..obs.metrics import get_registry
from .delta import GraphDelta

__all__ = ["DeltaReport", "apply_delta", "full_rebuild", "make_churn_deltas"]


@dataclass(frozen=True)
class DeltaReport:
    """What one applied delta changed (returned by :func:`apply_delta`)."""

    graph_version: int          # the dataset's version after the apply
    touched_rows: np.ndarray    # row ids whose adjacency was recomputed
    num_nodes: int              # node count after the apply
    num_edges: int              # directed CSR entries after the apply
    nodes_added: int
    features_updated: int

    @property
    def touched_fraction(self) -> float:
        """Touched rows over total rows — the locality of the delta."""
        return len(self.touched_rows) / self.num_nodes if self.num_nodes \
            else 0.0


def finish_delta(dataset, delta: GraphDelta, graph: CSRGraph,
                 touched: np.ndarray) -> DeltaReport:
    """Tail every apply path shares once features are in place.

    Extends the per-node arrays (labels, split masks, blocks) for the
    delta's fresh nodes, installs ``graph``, bumps ``graph_version``,
    records the ``repro_stream_*`` metrics and returns the report.
    """
    k = delta.num_new_nodes
    if k:
        labels = (delta.new_labels if delta.new_labels is not None
                  else np.zeros(k, dtype=np.int64))
        dataset.labels = np.concatenate([dataset.labels, labels])
        pad = np.zeros(k, dtype=bool)
        dataset.train_mask = np.concatenate([dataset.train_mask, pad])
        dataset.val_mask = np.concatenate([dataset.val_mask, pad])
        dataset.test_mask = np.concatenate([dataset.test_mask, pad])
        if dataset.blocks is not None:
            dataset.blocks = np.concatenate(
                [dataset.blocks, -np.ones(k, dtype=dataset.blocks.dtype)])
    dataset.graph = graph
    dataset.graph_version = int(getattr(dataset, "graph_version", 0)) + 1
    registry = get_registry()
    registry.counter(
        "repro_stream_deltas_total",
        "GraphDeltas applied to a live dataset").inc()
    registry.gauge(
        "repro_stream_graph_version",
        "latest dataset graph_version observed in this process",
    ).set(dataset.graph_version)
    return DeltaReport(
        graph_version=dataset.graph_version,
        touched_rows=touched,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        nodes_added=k,
        features_updated=(0 if delta.update_nodes is None
                          else len(delta.update_nodes)),
    )


def _finish(dataset, delta: GraphDelta, graph: CSRGraph,
            touched: np.ndarray) -> DeltaReport:
    """In-memory feature step, then the shared :func:`finish_delta`."""
    if delta.num_new_nodes:
        dataset.features = np.concatenate(
            [dataset.features, delta.new_features])
    if delta.update_nodes is not None:
        dataset.features[delta.update_nodes] = delta.update_features
    return finish_delta(dataset, delta, graph, touched)


def apply_delta(dataset, delta: GraphDelta) -> DeltaReport:
    """Apply ``delta`` to a node-level dataset **incrementally**, in place.

    Only CSR rows touched by the delta are recomputed; untouched rows
    are bulk-copied.  The mutated dataset object keeps its identity
    (sessions and pools holding it observe the change through the
    bumped ``graph_version``), and the resulting graph is bitwise
    identical to what :func:`full_rebuild` produces.

    Datasets that hold features elsewhere (anything exposing an
    ``apply_delta`` method, e.g. :class:`repro.store.StoredNodeDataset`)
    are dispatched to — the store overlays its feature rows in RAM and
    finishes through the same :func:`finish_delta`.
    """
    own_apply = getattr(dataset, "apply_delta", None)
    if own_apply is not None:
        return own_apply(delta)
    delta.validate(dataset)
    graph, touched = dataset.graph.apply_edge_delta(
        delta.add_edges, delta.remove_edges,
        num_new_nodes=delta.num_new_nodes)
    return _finish(dataset, delta, graph, touched)


def full_rebuild(dataset, delta: GraphDelta) -> DeltaReport:
    """Apply ``delta`` via a from-scratch edge-set rebuild (reference path).

    Semantically identical to :func:`apply_delta` — the updated directed
    edge set is materialized and re-sorted wholesale through
    :meth:`~repro.graph.CSRGraph.from_edges`.  This is what "reload the
    dataset" used to mean; the streaming benchmark measures its cost
    against the incremental path and asserts the results match bitwise.
    """
    delta.validate(dataset)
    n = dataset.num_nodes + delta.num_new_nodes
    old = dataset.graph.edge_array()
    add = np.concatenate([delta.add_edges, delta.add_edges[:, ::-1]])
    rem = np.concatenate([delta.remove_edges, delta.remove_edges[:, ::-1]])
    lin_old = old[:, 0] * n + old[:, 1]
    lin_rem = rem[:, 0] * n + rem[:, 1]
    lin_add = add[:, 0] * n + add[:, 1]
    lin = np.union1d(lin_old[~np.isin(lin_old, lin_rem)], lin_add)
    edges = np.stack([lin // n, lin % n], axis=1)
    graph = CSRGraph.from_edges(n, edges, symmetrize=False)
    touched = np.unique(np.concatenate(
        [add.reshape(-1), rem.reshape(-1)])).astype(np.int64)
    return _finish(dataset, delta, graph, touched)


def make_churn_deltas(dataset, num_deltas: int, edges_per_delta: int = 8,
                      feature_updates_per_delta: int = 0,
                      add_node_every: int = 0,
                      seed: int = 0) -> list[GraphDelta]:
    """A seeded churn sequence: valid deltas against the *evolving* graph.

    Each delta removes ``edges_per_delta`` currently-live undirected
    edges (never self-loops) and adds the same number of currently-absent
    ones, so every operation is meaningful at its position in the
    sequence.  ``feature_updates_per_delta`` adds in-place feature
    rewrites; every ``add_node_every``-th delta (0 = never) appends one
    fresh node wired to a random existing one.  The generator tracks the
    evolving topology itself — the caller's dataset is **not** mutated.
    """
    if num_deltas < 0:
        raise ValueError(f"num_deltas must be >= 0, got {num_deltas}")
    rng = np.random.default_rng(seed)
    graph = dataset.graph
    feat_dim = dataset.features.shape[1]
    deltas: list[GraphDelta] = []
    for i in range(num_deltas):
        edges = graph.edge_array()
        undirected = edges[edges[:, 0] < edges[:, 1]]
        k_rem = min(edges_per_delta, len(undirected))
        remove = (undirected[rng.choice(len(undirected), size=k_rem,
                                        replace=False)]
                  if k_rem else np.empty((0, 2), dtype=np.int64))
        add_rows = []
        attempts = 0
        while len(add_rows) < edges_per_delta and attempts < 50:
            cand = rng.integers(0, graph.num_nodes,
                                size=(4 * edges_per_delta, 2))
            cand = cand[cand[:, 0] != cand[:, 1]]
            for u, v in cand:
                if len(add_rows) >= edges_per_delta:
                    break
                if not graph.has_edge(int(u), int(v)):
                    add_rows.append((int(u), int(v)))
            attempts += 1
        add = np.asarray(add_rows, dtype=np.int64).reshape(-1, 2)
        num_new = 1 if add_node_every and (i + 1) % add_node_every == 0 else 0
        new_feats = None
        if num_new:
            anchor = int(rng.integers(0, graph.num_nodes))
            add = np.concatenate(
                [add, [[graph.num_nodes, anchor]]]).astype(np.int64)
            new_feats = rng.standard_normal((1, feat_dim))
        upd_nodes = upd_feats = None
        if feature_updates_per_delta:
            upd_nodes = rng.choice(graph.num_nodes,
                                   size=min(feature_updates_per_delta,
                                            graph.num_nodes),
                                   replace=False).astype(np.int64)
            upd_feats = rng.standard_normal((len(upd_nodes), feat_dim))
        delta = GraphDelta(add_edges=add, remove_edges=remove,
                           num_new_nodes=num_new, new_features=new_feats,
                           update_nodes=upd_nodes,
                           update_features=upd_feats)
        deltas.append(delta)
        graph, _ = graph.apply_edge_delta(add, remove,
                                          num_new_nodes=num_new)
    return deltas
