"""Synthetic stand-ins for the paper's evaluation datasets (Table III).

The original evaluation uses OGB graphs up to 111M nodes plus ZINC and
MalNet.  Offline and at laptop scale we regenerate each dataset as a
*statistically shaped* synthetic graph: matched average degree, degree
skew, planted community structure, feature dimensionality and class count,
at a configurable ``scale`` shrinking the node count.  The registry keeps
the **paper-scale statistics** alongside, because the analytic hardware
model (Table V / Fig. 9 reproductions) computes memory and kernel times at
the paper's true N and E while the convergence experiments train on the
scaled instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import CSRGraph
from .generators import dc_sbm, molecule_like

__all__ = [
    "PaperStats",
    "NodeDataset",
    "GraphDataset",
    "NODE_DATASET_SPECS",
    "GRAPH_DATASET_SPECS",
    "load_node_dataset",
    "load_graph_dataset",
    "available_datasets",
    "dataset_fingerprint",
]


def dataset_fingerprint(dataset) -> tuple:
    """A stable cache-key component identifying a dataset's content.

    Store-backed datasets (anything exposing ``content_fingerprint``,
    e.g. :class:`repro.store.StoredNodeDataset`) are identified by that
    content hash, so two handles onto the same store bytes — or the
    same store reopened across processes — coalesce in
    :class:`~repro.api.Session`'s derivation cache.  Plain in-RAM
    datasets fall back to object identity, preserving the previous
    behaviour exactly (mutating an in-RAM dataset in place also bumps
    its ``graph_version``, which the cache keys carry separately).
    """
    fp = getattr(dataset, "content_fingerprint", None)
    if fp is not None:
        return ("content", fp)
    return ("object", id(dataset))


@dataclass(frozen=True)
class PaperStats:
    """Full-scale statistics as reported in Table III of the paper."""

    num_nodes: int
    num_edges: int
    feature_dim: int
    num_classes: int
    task: str  # "node-classification" | "graph-classification" | "regression"

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.num_edges / max(self.num_nodes, 1)

    @property
    def sparsity(self) -> float:
        """β_G: fraction of nonzeros in the full adjacency."""
        n = self.num_nodes
        return 2.0 * self.num_edges / float(n * n) if n else 0.0


@dataclass
class NodeDataset:
    """A node-level task instance: one big graph + per-node labels."""

    name: str
    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    blocks: np.ndarray = field(default=None)  # planted community labels
    paper: PaperStats = field(default=None)
    # monotonic topology/feature version: 0 at load, bumped by every
    # applied :class:`~repro.stream.GraphDelta` — the staleness token
    # the serving layer stamps on results (see docs/streaming.md)
    graph_version: int = 0

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


@dataclass
class GraphDataset:
    """A graph-level task instance: many small graphs + per-graph targets."""

    name: str
    graphs: list[CSRGraph]
    features: list[np.ndarray]
    targets: np.ndarray  # int labels for classification, float for regression
    num_classes: int  # 0 for regression
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    paper: PaperStats = field(default=None)

    @property
    def num_graphs(self) -> int:
        return len(self.graphs)


# --------------------------------------------------------------------- #
# specs: (paper stats, generator knobs)
# --------------------------------------------------------------------- #
# knobs: base_nodes at scale=1.0, avg_degree, planted blocks, skew exponent,
# community strength (p_in/p_out), label homophily (how strongly the label
# follows the planted block).
NODE_DATASET_SPECS: dict[str, dict] = {
    "ogbn-arxiv": dict(
        paper=PaperStats(169_343, 1_166_243, 128, 40, "node-classification"),
        base_nodes=1200, avg_degree=13.8, blocks=8, skew=2.3,
        p_ratio=6.0, homophily=0.75,
    ),
    "ogbn-products": dict(
        paper=PaperStats(2_449_029, 61_859_140, 100, 47, "node-classification"),
        base_nodes=1600, avg_degree=16.0, blocks=16, skew=2.1,
        p_ratio=25.0, homophily=0.85,
    ),
    "ogbn-papers100M": dict(
        paper=PaperStats(111_059_956, 1_615_685_872, 128, 2, "node-classification"),
        base_nodes=2000, avg_degree=14.0, blocks=24, skew=2.2,
        p_ratio=30.0, homophily=0.9,
    ),
    "amazon": dict(
        paper=PaperStats(1_598_960, 132_169_734, 200, 107, "node-classification"),
        base_nodes=1400, avg_degree=18.0, blocks=20, skew=2.0,
        p_ratio=22.0, homophily=0.8,
    ),
    "flickr": dict(
        paper=PaperStats(89_250, 899_756, 500, 7, "node-classification"),
        base_nodes=900, avg_degree=10.0, blocks=7, skew=2.4,
        p_ratio=10.0, homophily=0.7,
    ),
    "pokec": dict(
        paper=PaperStats(1_632_803, 30_622_564, 65, 2, "node-classification"),
        base_nodes=1500, avg_degree=15.0, blocks=12, skew=2.2,
        p_ratio=15.0, homophily=0.8,
    ),
    "aminer-cs": dict(
        paper=PaperStats(593_486, 6_217_004, 100, 18, "node-classification"),
        base_nodes=1100, avg_degree=9.0, blocks=18, skew=2.3,
        p_ratio=12.0, homophily=0.75,
    ),
}

GRAPH_DATASET_SPECS: dict[str, dict] = {
    "zinc": dict(
        paper=PaperStats(23, 25, 28, 0, "regression"),
        num_graphs=240, avg_nodes=23.2, node_sigma=5.0, num_classes=0,
        feature_dim=28,
    ),
    "ogbg-molpcba": dict(
        paper=PaperStats(26, 28, 9, 128, "graph-classification"),
        num_graphs=240, avg_nodes=26.0, node_sigma=6.0, num_classes=2,
        feature_dim=9,
    ),
    "malnet": dict(
        paper=PaperStats(15_378, 35_167, 16, 5, "graph-classification"),
        num_graphs=60, avg_nodes=220.0, node_sigma=80.0, num_classes=5,
        feature_dim=16,
    ),
}


def available_datasets() -> dict[str, list[str]]:
    """Names of all registered synthetic datasets by task family."""
    return {
        "node": sorted(NODE_DATASET_SPECS),
        "graph": sorted(GRAPH_DATASET_SPECS),
    }


def _make_splits(n: int, rng: np.random.Generator,
                 frac=(0.6, 0.2, 0.2)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    n_train = int(frac[0] * n)
    n_val = int(frac[1] * n)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:n_train]] = True
    val[perm[n_train:n_train + n_val]] = True
    test[perm[n_train + n_val:]] = True
    return train, val, test


def load_node_dataset(name: str, scale: float = 1.0, seed: int = 0) -> NodeDataset:
    """Generate the synthetic stand-in for a node-level dataset.

    ``scale`` multiplies the baseline node count (≈1–2K at scale 1.0) so
    tests can run at scale 0.1 and experiments at scale 2–10.  Labels are
    drawn to follow the planted communities with probability ``homophily``
    and features are class-informative Gaussians plus structural signals
    (degree), so that attention over the real topology genuinely helps —
    the property the convergence experiments depend on.
    """
    if name not in NODE_DATASET_SPECS:
        raise KeyError(f"unknown node dataset {name!r}; have {sorted(NODE_DATASET_SPECS)}")
    spec = NODE_DATASET_SPECS[name]
    paper: PaperStats = spec["paper"]
    rng = np.random.default_rng(seed)
    n = max(int(spec["base_nodes"] * scale), 32)
    blocks_k = min(spec["blocks"], max(n // 16, 2))
    g, blocks = dc_sbm(
        n, blocks_k, spec["avg_degree"], rng,
        p_in_over_p_out=spec["p_ratio"], power_law_exponent=spec["skew"],
    )

    num_classes = min(paper.num_classes, max(blocks_k, 2))
    # label = block-derived class with prob homophily, else uniform noise
    block_to_class = rng.integers(0, num_classes, size=blocks_k)
    labels = block_to_class[blocks]
    noise = rng.random(n) > spec["homophily"]
    labels = np.where(noise, rng.integers(0, num_classes, size=n), labels)

    feat_dim = min(paper.feature_dim, 64)
    # class centers confined to a low-rank subspace with modest separation:
    # a node's own features are only weakly class-informative, so models
    # that aggregate neighbourhood information (homophilous) genuinely
    # beat feature-only classifiers — the property Table I demonstrates
    rank = 3
    centers = (rng.standard_normal((num_classes, rank))
               @ rng.standard_normal((rank, feat_dim))) * 0.30
    features = centers[labels] + rng.standard_normal((n, feat_dim))
    # append (standardized) log-degree as a structural feature channel
    deg = np.log1p(g.degrees().astype(np.float64))
    deg = (deg - deg.mean()) / (deg.std() + 1e-9)
    features[:, -1] = deg

    train, val, test = _make_splits(n, rng)
    return NodeDataset(
        name=name, graph=g, features=features.astype(np.float64),
        labels=labels.astype(np.int64), num_classes=num_classes,
        train_mask=train, val_mask=val, test_mask=test,
        blocks=blocks, paper=paper,
    )


def load_graph_dataset(name: str, scale: float = 1.0, seed: int = 0) -> GraphDataset:
    """Generate the synthetic stand-in for a graph-level dataset.

    ZINC-style regression targets are a smooth function of graph structure
    (size, ring count proxy, degree variance) so that models that read the
    topology can fit them; classification labels are derived from similar
    structural statistics with added noise.
    """
    if name not in GRAPH_DATASET_SPECS:
        raise KeyError(f"unknown graph dataset {name!r}; have {sorted(GRAPH_DATASET_SPECS)}")
    spec = GRAPH_DATASET_SPECS[name]
    rng = np.random.default_rng(seed)
    num_graphs = max(int(spec["num_graphs"] * scale), 12)
    feat_dim = spec["feature_dim"]

    graphs: list[CSRGraph] = []
    feats: list[np.ndarray] = []
    struct = np.zeros((num_graphs, 3))
    for i in range(num_graphs):
        size = max(int(rng.normal(spec["avg_nodes"], spec["node_sigma"])), 4)
        g = molecule_like(size, rng)
        graphs.append(g)
        deg = g.degrees().astype(np.float64)
        struct[i] = [size, deg.var(), g.num_edges / 2 - (size - 1)]
        # atom-type-like categorical feature, one-hot-ish embedding
        types = rng.integers(0, feat_dim, size=size)
        f = np.zeros((size, feat_dim))
        f[np.arange(size), types] = 1.0
        f += 0.1 * rng.standard_normal((size, feat_dim))
        feats.append(f)

    if spec["num_classes"] == 0:
        # regression: normalized structural score + noise (ZINC-like)
        z = (struct - struct.mean(axis=0)) / (struct.std(axis=0) + 1e-9)
        targets = (0.6 * z[:, 0] + 0.3 * z[:, 1] + 0.4 * z[:, 2]
                   + 0.1 * rng.standard_normal(num_graphs))
        num_classes = 0
    else:
        num_classes = spec["num_classes"]
        z = (struct - struct.mean(axis=0)) / (struct.std(axis=0) + 1e-9)
        score = 0.8 * z[:, 0] + 0.5 * z[:, 1]
        qs = np.quantile(score, np.linspace(0, 1, num_classes + 1)[1:-1])
        targets = np.digitize(score, qs)
        flip = rng.random(num_graphs) < 0.1
        targets = np.where(flip, rng.integers(0, num_classes, num_graphs), targets)

    idx = rng.permutation(num_graphs)
    n_train = int(0.6 * num_graphs)
    n_val = int(0.2 * num_graphs)
    return GraphDataset(
        name=name, graphs=graphs, features=feats,
        targets=targets.astype(np.float64 if num_classes == 0 else np.int64),
        num_classes=num_classes,
        train_idx=idx[:n_train], val_idx=idx[n_train:n_train + n_val],
        test_idx=idx[n_train + n_val:], paper=spec["paper"],
    )
