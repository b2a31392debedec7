"""Inputs of the four workloads: sizes, the bridged graph, configs, requests.

The graph, the model and ``RunConfig.seed`` are fixed; ``--seed`` drives
only the generated request stream (hot/cold node sets, config picks,
churn deltas).  The program under test receives just the generated
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import (DataConfig, EngineConfig, ModelConfig, RunConfig,
                       Session, TrainConfig)
from repro.graph import load_node_dataset
from repro.graph.algorithms import connected_components, is_connected
from repro.stream import GraphDelta

DATASET = "ogbn-arxiv"
MODEL = ModelConfig("graphormer-slim", num_layers=3, hidden_dim=32,
                    num_heads=4, dropout=0.0)


@dataclass(frozen=True)
class Size:
    """Everything that fixes how much work one run does."""

    scale: float            # dataset scale: S = 1200 * scale nodes
    sessions: int           # set-up → measure → restart repeats per run
    subset: int             # nodes per subset predict
    hot_sets: int
    sparse_epochs: int      # per fit() on train_sparse (see README: <= 11)
    flash_epochs: int       # per fit() on train_flash
    churn_cycles: int       # cap on mutate cycles per session
    full_every: int         # serve_churn: full-graph predict every N cycles
    min_full: int           # serve_read: least full-graph predicts per session
    snapshot_every: int
    trace_requests: int     # traced pass: subset predicts in the counted traffic sample
    trace_blocks: int       # traced pass: off/on pairs of 30-request tracing blocks
    trace_deltas: int       # traced pass: deltas replayed through stream and WAL


FULL = Size(scale=1.0, sessions=3, subset=48, hot_sets=6, sparse_epochs=11,
            flash_epochs=2, churn_cycles=64, full_every=8, min_full=6,
            snapshot_every=8, trace_requests=200, trace_blocks=4, trace_deltas=16)
SMOKE = Size(scale=0.25, sessions=1, subset=16, hot_sets=3, sparse_epochs=8,
             flash_epochs=2, churn_cycles=4, full_every=2, min_full=2,
             snapshot_every=2, trace_requests=30, trace_blocks=1, trace_deltas=4)


def run_config(size: Size, engine: str = "torchgt", backend: str = "numpy",
               epochs: int = 1) -> RunConfig:
    return RunConfig(data=DataConfig(DATASET, scale=size.scale, seed=0),
                     model=MODEL, engine=EngineConfig(engine, backend=backend),
                     train=TrainConfig(epochs=epochs, lr=3e-3), seed=0)


def bridged_dataset(size: Size):
    """The synthetic dataset with every component tied to the giant one.

    Every built-in node dataset has a few isolated nodes, which makes
    ``TorchGTEngine.prepare_graph`` report ``sparse_ok=False`` and run
    dense attention on every iteration.  One edge per stray component,
    added through the public ``GraphDelta`` path, restores the paper's
    sparse path.  Returns ``(dataset, bridge_edges)``; the dataset is at
    ``graph_version`` 1.
    """
    ds = load_node_dataset(DATASET, scale=size.scale, seed=0)
    n_comp, label = connected_components(ds.graph)
    giant = int(np.argmax(np.bincount(label)))
    anchor = int(np.flatnonzero(label == giant)[0])
    edges = [[int(np.flatnonzero(label == c)[0]), anchor]
             for c in range(n_comp) if c != giant]
    if edges:
        Session(run_config(size), dataset=ds).apply_delta(
            GraphDelta(add_edges=edges))
    return ds, len(edges)


def hot_node_sets(rng: np.random.Generator, num_nodes: int, size: Size):
    return [rng.choice(num_nodes, size.subset, replace=False)
            for _ in range(size.hot_sets)]


def read_requests(rng: np.random.Generator, num_nodes: int, hot, size: Size):
    """Endless serve_read phase-1 stream: ``(config index, nodes)``.

    Blocks of 20 in seeded order, each exactly 7 hot A, 7 hot B, 3 cold A
    and 3 cold B: config A/B 50/50, 70% of requests on a hot set, 30%
    cold (a fresh node set never asked before).  Fixing the shares per
    block keeps the seed from moving the mix itself; it still picks the
    sets and the order.
    """
    block = [(cfg, is_hot) for cfg in (0, 1) for is_hot in [True] * 7 + [False] * 3]
    while True:
        for i in rng.permutation(len(block)):
            cfg, is_hot = block[i]
            yield cfg, (hot[int(rng.integers(len(hot)))] if is_hot
                        else rng.choice(num_nodes, size.subset, replace=False))


def churn_deltas(rng: np.random.Generator, dataset, count: int,
                 edges: int = 8, feature_updates: int = 4) -> list[GraphDelta]:
    """Seeded churn that keeps the graph connected; ``dataset`` is not mutated.

    Each delta removes ``edges`` live edges, adds as many absent ones and
    rewrites ``feature_updates`` feature rows.  ``repro.serve.
    make_churn_workload`` removes edges blindly and within a few deltas
    strands a low-degree node, after which the engine serves every
    full-graph predict with dense attention (about twice the time) from a
    seed-dependent version on.  Removals here spare low-degree endpoints
    and a delta that would disconnect the graph is drawn again, so the
    plan mix is the same for every seed — the oracle asserts it.
    """
    graph, n = dataset.graph, dataset.num_nodes
    feat_dim = dataset.features.shape[1]
    deltas = []
    for _ in range(count):
        while True:
            live = graph.edge_array()
            live = live[live[:, 0] < live[:, 1]]
            degree = graph.degrees()
            safe = live[(degree[live[:, 0]] > 2) & (degree[live[:, 1]] > 2)]
            remove = safe[rng.choice(len(safe), size=edges, replace=False)]
            add = []
            while len(add) < edges:
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                if u != v and not graph.has_edge(u, v) and (u, v) not in add:
                    add.append((u, v))
            after, _ = graph.apply_edge_delta(np.asarray(add), remove)
            if is_connected(after):
                break
        nodes = rng.choice(n, size=feature_updates, replace=False).astype(np.int64)
        deltas.append(GraphDelta(
            add_edges=add, remove_edges=remove, update_nodes=nodes,
            update_features=rng.standard_normal((feature_updates, feat_dim))))
        graph = after
    return deltas


def churn_cycle_requests(rng: np.random.Generator, num_nodes: int, hot,
                         size: Size):
    """The six subset predicts of one churn cycle: 4 hot then 2 cold, configs AB AA AB.

    Right after a delta every plan is stale, so nearly every predict
    recomputes; A recomputes in about half the time B does (B also
    recompiles).  Four A to two B keeps the median inside the A mass and
    the 95th percentile inside the B mass — a 50/50 split would put the
    median on the boundary between the two, where it jumps run to run.
    """
    out = []
    for j in range(6):
        nodes = (hot[int(rng.integers(len(hot)))] if j < 4
                 else rng.choice(num_nodes, size.subset, replace=False))
        out.append((int(j in (1, 5)), nodes))
    return out
