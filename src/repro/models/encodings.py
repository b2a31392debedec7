"""Graph structural encodings for graph transformers.

Precomputes, per input graph, everything the models' forward passes need:

* degree buckets for Graphormer's centrality encoding (Eq. 2);
* truncated shortest-path-distance buckets for the SPD attention bias
  (Eq. 3), both as a dense (S, S) bucket matrix for fully-connected
  attention and gathered per-entry for sparse patterns;
* Laplacian positional encodings for the GT model.

Encodings are a preprocessing artifact: the §IV-E benchmark measures their
cost against training time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention.patterns import AttentionPattern
from ..graph.algorithms import truncated_spd_matrix
from ..graph.csr import CSRGraph
from ..graph.laplacian import laplacian_positional_encoding

__all__ = ["GraphEncodings", "compute_encodings"]


@dataclass
class GraphEncodings:
    """Precomputed structural encodings for one graph/sequence."""

    degree_buckets: np.ndarray  # (S,) int, clipped to max_degree
    spd_buckets: np.ndarray | None  # (S, S) int16 or None if skipped
    lap_pe: np.ndarray | None  # (S, k) float or None
    max_degree: int
    max_spd: int

    def spd_for_pattern(self, pattern: AttentionPattern) -> np.ndarray:
        """Per-entry SPD buckets for a sparse pattern, shape (E,).

        When the dense SPD matrix was computed it is gathered; otherwise
        entries are bucketed structurally: self-loops → 0, everything else
        in a topology pattern is a graph edge → 1.
        """
        rows, cols = pattern.rows, pattern.cols
        if self.spd_buckets is not None:
            return self.spd_buckets[rows, cols].astype(np.int64)
        out = np.ones(pattern.num_entries, dtype=np.int64)
        out[rows == cols] = 0
        return out


def compute_encodings(
    g: CSRGraph,
    max_degree: int = 64,
    max_spd: int = 8,
    with_spd: bool = True,
    lap_pe_dim: int = 0,
    spd_node_limit: int = 5000,
) -> GraphEncodings:
    """Compute all structural encodings for graph ``g``.

    ``with_spd`` and the ``spd_node_limit`` guard the O(N²) SPD matrix:
    above the limit the dense matrix is skipped and sparse patterns fall
    back to structural bucketing (edge=1/self=0).  That is exact for a
    pure topology pattern only: an ECR-reformed pattern also holds
    non-edges, which then get bucket 1 instead of their true distance.
    """
    deg = np.minimum(g.degrees(), max_degree - 1).astype(np.int64)
    spd = None
    if with_spd and g.num_nodes <= spd_node_limit:
        spd = truncated_spd_matrix(g, max_spd)
    lap = laplacian_positional_encoding(g, lap_pe_dim) if lap_pe_dim > 0 else None
    return GraphEncodings(degree_buckets=deg, spd_buckets=spd, lap_pe=lap,
                          max_degree=max_degree, max_spd=max_spd)
