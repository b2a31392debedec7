"""Compressed-sparse-row graph structure.

The CSR layout is the backbone of every sparse component in the repro: the
topology-induced attention pattern (§III-B), the METIS-substitute
partitioner, and the cluster-sparse reformation (§III-D) all operate on
``indptr`` / ``indices`` arrays directly, which keeps memory contiguous and
lets every traversal be a vectorized numpy slice instead of a Python loop.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["CSRGraph"]


class CSRGraph:
    """An (optionally weighted) graph in CSR form.

    Stored undirected-as-symmetric: builders always insert both edge
    directions, so ``indptr``/``indices`` describe a symmetric adjacency.
    Self-loops are allowed and tracked (condition C1 of Dual-interleaved
    Attention requires each node to attend to itself).

    Attributes
    ----------
    indptr, indices:
        Standard CSR row pointers and column indices (sorted per row).
    num_nodes, num_edges:
        ``num_edges`` counts *directed* entries, i.e. twice the number of
        undirected edges plus the number of self-loops.
    """

    __slots__ = ("indptr", "indices", "num_nodes")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, num_nodes: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.num_nodes = int(num_nodes)
        if len(self.indptr) != self.num_nodes + 1:
            raise ValueError("indptr length must be num_nodes + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_edges(num_nodes: int, edges: np.ndarray, symmetrize: bool = True,
                   add_self_loops: bool = False) -> "CSRGraph":
        """Build from an ``(E, 2)`` array of endpoints.

        Duplicate edges are merged. With ``symmetrize`` both directions are
        inserted (the standard form used throughout the repro).
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        src, dst = edges[:, 0], edges[:, 1]
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if add_self_loops:
            loop = np.arange(num_nodes, dtype=np.int64)
            src, dst = np.concatenate([src, loop]), np.concatenate([dst, loop])
        if len(src) and (src.max() >= num_nodes or dst.max() >= num_nodes):
            raise ValueError("edge endpoint out of range")
        if len(src) and (src.min() < 0 or dst.min() < 0):
            raise ValueError("negative edge endpoint")
        mat = sp.csr_matrix(
            (np.ones(len(src), dtype=np.int8), (src, dst)),
            shape=(num_nodes, num_nodes),
        )
        mat.sum_duplicates()
        mat.sort_indices()
        return CSRGraph(mat.indptr.astype(np.int64), mat.indices.astype(np.int64), num_nodes)

    @staticmethod
    def from_scipy(mat: sp.spmatrix) -> "CSRGraph":
        """Wrap a scipy sparse matrix (made symmetric & binary)."""
        m = sp.csr_matrix(mat)
        m = ((m + m.T) > 0).astype(np.int8).tocsr()
        m.sort_indices()
        return CSRGraph(m.indptr.astype(np.int64), m.indices.astype(np.int64), m.shape[0])

    @staticmethod
    def from_dense(adj: np.ndarray) -> "CSRGraph":
        """Build from a dense boolean adjacency matrix (symmetrized)."""
        adj = np.asarray(adj)
        adj = (adj != 0) | (adj.T != 0)
        return CSRGraph.from_scipy(sp.csr_matrix(adj))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of directed CSR entries (2 × undirected + self-loops)."""
        return int(len(self.indices))

    def degrees(self) -> np.ndarray:
        """Out-degree of every node (== in-degree for symmetric graphs)."""
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node`` (zero-copy CSR slice)."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < len(nbrs) and nbrs[pos] == v)

    def self_loop_counts(self) -> np.ndarray:
        """Self-loop entries per node (0 or 1: duplicate entries are merged)."""
        src = np.repeat(np.arange(self.num_nodes), self.degrees())
        return np.bincount(src[src == self.indices], minlength=self.num_nodes)

    def has_all_self_loops(self) -> bool:
        """Whether every node has a self-loop (condition C1)."""
        return bool(self.self_loop_counts().all())

    def sparsity(self) -> float:
        """Proportion of nonzero entries in the N×N adjacency (β_G)."""
        n = self.num_nodes
        return self.num_edges / float(n * n) if n else 0.0

    def edge_array(self) -> np.ndarray:
        """Return directed edges as an ``(E, 2)`` array."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
        return np.stack([src, self.indices], axis=1)

    # ------------------------------------------------------------------ #
    # conversions & transforms
    # ------------------------------------------------------------------ #
    def to_scipy(self) -> sp.csr_matrix:
        """View as a binary scipy CSR matrix."""
        return sp.csr_matrix(
            (np.ones(self.num_edges, dtype=np.int8), self.indices, self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )

    def to_dense(self) -> np.ndarray:
        """Dense boolean adjacency; only sensible for small graphs."""
        if self.num_nodes > 20_000:
            raise MemoryError(
                f"refusing to densify a {self.num_nodes}-node graph")
        out = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        src = np.repeat(np.arange(self.num_nodes), self.degrees())
        out[src, self.indices] = True
        return out

    def with_self_loops(self) -> "CSRGraph":
        """Return a copy with a self-loop on every node."""
        return CSRGraph.from_edges(
            self.num_nodes, self.edge_array(), symmetrize=False, add_self_loops=True)

    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel nodes: new id of old node ``v`` is ``perm[v]``.

        This is the reordering hook used by cluster-locality layout
        (§III-C): METIS-style cluster ids become contiguous node ranges.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.num_nodes,) or not np.array_equal(
                np.sort(perm), np.arange(self.num_nodes)):
            raise ValueError("perm must be a permutation of range(num_nodes)")
        edges = self.edge_array()
        new_edges = perm[edges]
        return CSRGraph.from_edges(self.num_nodes, new_edges, symmetrize=False)

    def apply_edge_delta(self, add_edges: np.ndarray | None = None,
                         remove_edges: np.ndarray | None = None,
                         num_new_nodes: int = 0,
                         symmetrize: bool = True,
                         ) -> tuple["CSRGraph", np.ndarray]:
        """Incrementally apply an edge/node delta, rebuilding only touched rows.

        ``add_edges`` / ``remove_edges`` are ``(E, 2)`` endpoint arrays
        (symmetrized like :meth:`from_edges` unless ``symmetrize=False``);
        ``num_new_nodes`` appends that many fresh (initially isolated)
        nodes, which ``add_edges`` may reference.  Removals of absent
        edges are ignored; additions of existing edges deduplicate — a
        delta is therefore idempotent at the edge level.  Additions win
        over removals: an edge both removed and added ends up present.

        Returns ``(new_graph, touched_rows)`` where ``touched_rows`` are
        the row ids whose adjacency was recomputed.  The result is
        **bitwise identical** (same ``indptr``/``indices`` bytes) to a
        from-scratch :meth:`from_edges` rebuild over the updated edge
        set, but only touched rows pay re-sort/dedup cost — untouched
        row segments are bulk-copied.
        """
        if num_new_nodes < 0:
            raise ValueError(f"num_new_nodes must be >= 0, got {num_new_nodes}")
        n_old = self.num_nodes
        n = n_old + num_new_nodes
        add = (np.empty((0, 2), dtype=np.int64) if add_edges is None
               else np.asarray(add_edges, dtype=np.int64).reshape(-1, 2))
        rem = (np.empty((0, 2), dtype=np.int64) if remove_edges is None
               else np.asarray(remove_edges, dtype=np.int64).reshape(-1, 2))
        if len(add) and (add.min() < 0 or add.max() >= n):
            raise ValueError("add_edges endpoint out of range")
        if len(rem) and (rem.min() < 0 or rem.max() >= n_old):
            raise ValueError("remove_edges endpoint out of range")
        if symmetrize:
            add = np.concatenate([add, add[:, ::-1]])
            rem = np.concatenate([rem, rem[:, ::-1]])

        touched = np.sort(np.concatenate([add[:, 0], rem[:, 0]]))
        if len(touched):
            touched = touched[np.concatenate(
                [[True], touched[1:] != touched[:-1]])]
        touched_old = touched[touched < n_old]

        # merged entries of every touched row, via row-major linear ids
        # (sorted linear order == CSR order, so segments come out sorted);
        # lin_old is globally sorted by construction, which lets removal
        # membership use searchsorted instead of hash-based isin
        counts_old = np.diff(self.indptr)
        lens = counts_old[touched_old]
        starts = self.indptr[touched_old]
        total = int(lens.sum())
        if total:
            seg_off = np.repeat(np.concatenate([[0], np.cumsum(lens)[:-1]]),
                                lens)
            gather = np.repeat(starts, lens) + np.arange(total) - seg_off
            lin_old = (np.repeat(touched_old, lens) * n
                       + self.indices[gather])
        else:
            lin_old = np.empty(0, dtype=np.int64)
        if len(rem) and len(lin_old):
            lin_rem = np.sort(rem[:, 0] * n + rem[:, 1])
            pos = np.searchsorted(lin_rem, lin_old)
            pos[pos == len(lin_rem)] = 0
            lin_old = lin_old[lin_rem[pos] != lin_old]
        lin_add = add[:, 0] * n + add[:, 1]
        merged = np.sort(np.concatenate([lin_old, lin_add]))
        if len(merged):
            merged = merged[np.concatenate(
                [[True], merged[1:] != merged[:-1]])]
        rows_m = merged // n
        cols_m = merged % n

        counts_m = np.bincount(rows_m, minlength=n)
        new_counts = np.concatenate(
            [counts_old, np.zeros(num_new_nodes, dtype=np.int64)])
        new_counts[touched] = counts_m[touched]
        new_indptr = np.concatenate(
            [[0], np.cumsum(new_counts)]).astype(np.int64)
        out = np.empty(int(new_indptr[-1]), dtype=np.int64)

        # scatter the merged touched rows in one vectorized pass
        if len(merged):
            m_counts = counts_m[touched]
            m_starts = np.concatenate([[0], np.cumsum(m_counts)[:-1]])
            within = np.arange(len(merged)) - np.repeat(m_starts, m_counts)
            out[new_indptr[rows_m] + within] = cols_m
        # copy untouched entries: per-row order is preserved, so the
        # source (old layout) and destination (new layout) enumerate the
        # same entries in the same order.  Small deltas copy the spans
        # between consecutive touched rows directly (one memcpy per
        # span); large deltas use one vectorized boolean-mask pass.
        if len(touched) <= 512:
            indptr_old, indices_old = self.indptr, self.indices
            prev = 0
            for t in touched.tolist() + [n]:
                if prev < t and prev < n_old:
                    lo = int(indptr_old[prev])
                    hi = int(indptr_old[min(t, n_old)])
                    if hi > lo:
                        dst = int(new_indptr[prev])
                        out[dst:dst + (hi - lo)] = indices_old[lo:hi]
                prev = t + 1
        else:
            umask = np.ones(n, dtype=bool)
            umask[touched] = False
            out[np.repeat(umask, new_counts)] = \
                self.indices[np.repeat(umask[:n_old], counts_old)]
        return CSRGraph(new_indptr, out, n), touched

    def subgraph(self, nodes: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (nodes relabeled 0..len-1 in the given order)
        and the original node ids, i.e. the inverse mapping.  Used to build
        the per-sequence local attention graph G̃ for node-level tasks.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(np.unique(nodes)) != len(nodes):
            raise ValueError("subgraph nodes must be unique")
        mapping = -np.ones(self.num_nodes, dtype=np.int64)
        mapping[nodes] = np.arange(len(nodes))
        sub = self.to_scipy()[nodes][:, nodes].tocsr()
        sub.sort_indices()
        g = CSRGraph(sub.indptr.astype(np.int64), sub.indices.astype(np.int64), len(nodes))
        return g, nodes

    def __repr__(self) -> str:
        return (f"CSRGraph(nodes={self.num_nodes}, directed_edges={self.num_edges}, "
                f"sparsity={self.sparsity():.2e})")
