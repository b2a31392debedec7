"""Multilevel graph partitioning — the METIS substitute.

TorchGT leverages METIS to reorder nodes into cluster-local layouts
(§III-C).  METIS itself is a C library we cannot ship offline, so this
module reimplements the same algorithm family from scratch:

1. **Coarsening** by heavy-edge matching: repeatedly collapse matched
   endpoint pairs, preferring the heaviest incident edge, until the graph
   is small;
2. **Initial bisection** of the coarsest graph by greedy graph growing
   (BFS region growing from a random seed until half the node weight is
   absorbed);
3. **Uncoarsening + refinement** with a Fiduccia–Mattheyses style pass:
   boundary nodes are moved greedily by gain with a per-pass tabu rule and
   a balance constraint;
4. **Recursive bisection** to obtain k parts.

The quality target is modest (cluster locality for attention layouts, not
VLSI-grade cuts), but the implementation is a faithful multilevel scheme:
tests verify it recovers planted partitions on ring-of-cliques and SBM
graphs and beats random partitions on edge cut by a wide margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..graph.csr import CSRGraph

__all__ = ["partition", "edge_cut", "balance_ratio", "PartitionResult"]


@dataclass
class PartitionResult:
    """Partition labels plus quality diagnostics."""

    labels: np.ndarray
    num_parts: int
    edge_cut: int
    balance: float  # max part weight / ideal part weight


class _WGraph:
    """Internal weighted CSR graph used across coarsening levels."""

    __slots__ = ("indptr", "indices", "ewgt", "vwgt", "n")

    def __init__(self, indptr, indices, ewgt, vwgt):
        self.indptr = indptr
        self.indices = indices
        self.ewgt = ewgt
        self.vwgt = vwgt
        self.n = len(vwgt)

    @staticmethod
    def from_csr(g: CSRGraph) -> "_WGraph":
        # strip self-loops: they never affect cuts
        mat = g.to_scipy().astype(np.float64)
        mat.setdiag(0)
        mat.eliminate_zeros()
        mat.sort_indices()
        return _WGraph(
            mat.indptr.astype(np.int64), mat.indices.astype(np.int64),
            mat.data.copy(), np.ones(g.num_nodes, dtype=np.float64))


def _heavy_edge_matching(g: _WGraph, rng: np.random.Generator) -> np.ndarray:
    """Greedy heavy-edge matching; returns match[v] (== v if unmatched)."""
    match = -np.ones(g.n, dtype=np.int64)
    order = rng.permutation(g.n)
    for v in order:
        if match[v] != -1:
            continue
        start, end = g.indptr[v], g.indptr[v + 1]
        nbrs = g.indices[start:end]
        wts = g.ewgt[start:end]
        free = match[nbrs] == -1
        free &= nbrs != v
        if not free.any():
            match[v] = v
            continue
        cand = nbrs[free]
        u = int(cand[np.argmax(wts[free])])
        match[v] = u
        match[u] = v
    return match


def _contract(g: _WGraph, match: np.ndarray) -> tuple[_WGraph, np.ndarray]:
    """Collapse matched pairs into coarse nodes; returns (coarse, mapping)."""
    cmap = -np.ones(g.n, dtype=np.int64)
    nxt = 0
    for v in range(g.n):
        if cmap[v] != -1:
            continue
        u = match[v]
        cmap[v] = nxt
        if u != v:
            cmap[u] = nxt
        nxt += 1
    # coarse vertex weights
    cvwgt = np.zeros(nxt)
    np.add.at(cvwgt, cmap, g.vwgt)
    # coarse edges via sparse contraction: A_c = P^T A P with P one-hot
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    cs, cd = cmap[src], cmap[g.indices]
    keep = cs != cd
    mat = sp.csr_matrix((g.ewgt[keep], (cs[keep], cd[keep])), shape=(nxt, nxt))
    mat.sum_duplicates()
    mat.sort_indices()
    coarse = _WGraph(mat.indptr.astype(np.int64), mat.indices.astype(np.int64),
                     mat.data.copy(), cvwgt)
    return coarse, cmap


def _greedy_grow_bisect(g: _WGraph, rng: np.random.Generator,
                        target_frac: float = 0.5) -> np.ndarray:
    """Grow part 0 by BFS from a random seed until it holds ~half the weight."""
    side = np.ones(g.n, dtype=np.int8)
    total = g.vwgt.sum()
    target = total * target_frac
    seed = int(rng.integers(0, g.n))
    frontier = [seed]
    side[seed] = 0
    grown = g.vwgt[seed]
    head = 0
    while grown < target and head < len(frontier):
        v = frontier[head]
        head += 1
        for u in g.indices[g.indptr[v]:g.indptr[v + 1]]:
            if side[u] == 1:
                side[u] = 0
                grown += g.vwgt[u]
                frontier.append(int(u))
                if grown >= target:
                    break
    # if BFS exhausted a small component, keep seeding
    while grown < target:
        rest = np.where(side == 1)[0]
        if len(rest) == 0:
            break
        s = int(rest[rng.integers(0, len(rest))])
        side[s] = 0
        grown += g.vwgt[s]
        frontier.append(s)
    return side


def _fm_refine(g: _WGraph, side: np.ndarray, max_passes: int = 4,
               imbalance: float = 1.10) -> np.ndarray:
    """Fiduccia–Mattheyses boundary refinement of a bisection.

    Each pass moves boundary nodes in descending gain order (each node at
    most once per pass) subject to the balance constraint; the pass is
    rolled back to its best prefix, FM-style.
    """
    side = side.astype(np.int8).copy()
    total = g.vwgt.sum()
    limit = total / 2 * imbalance

    def ext_int(v: int) -> float:
        s, e = g.indptr[v], g.indptr[v + 1]
        nbr_sides = side[g.indices[s:e]]
        w = g.ewgt[s:e]
        ext = float(w[nbr_sides != side[v]].sum())
        internal = float(w[nbr_sides == side[v]].sum())
        return ext - internal

    for _ in range(max_passes):
        part_w = np.array([g.vwgt[side == 0].sum(), g.vwgt[side == 1].sum()])
        # boundary nodes: any neighbor on the other side
        src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        crossing = side[src] != side[g.indices]
        boundary = np.unique(src[crossing])
        if len(boundary) == 0:
            break
        # every node's gain in one pass: crossing weight minus internal
        # (edge weights are whole numbers, so the sums are exact in any order)
        gains = np.bincount(src, np.where(crossing, g.ewgt, -g.ewgt), g.n)
        order = boundary[np.argsort(-gains[boundary])]

        moved: list[int] = []
        cum_gain = 0.0
        best_gain, best_len = 0.0, 0
        for v in order:  # boundary nodes are distinct: each moves at most once
            v = int(v)
            frm = side[v]
            to = 1 - frm
            if part_w[to] + g.vwgt[v] > limit:
                continue
            gain = ext_int(v)
            side[v] = to
            part_w[frm] -= g.vwgt[v]
            part_w[to] += g.vwgt[v]
            moved.append(v)
            cum_gain += gain
            if cum_gain > best_gain:
                best_gain, best_len = cum_gain, len(moved)
        # roll back past the best prefix
        for v in moved[best_len:]:
            frm = side[v]
            side[v] = 1 - frm
        if best_len == 0:
            break
    return side


def _bisect(g: _WGraph, rng: np.random.Generator, coarse_target: int = 64,
            target_frac: float = 0.5) -> np.ndarray:
    """Multilevel bisection of a weighted graph; returns side ∈ {0,1}^n."""
    levels: list[tuple[_WGraph, np.ndarray]] = []
    cur = g
    while cur.n > coarse_target:
        match = _heavy_edge_matching(cur, rng)
        coarse, cmap = _contract(cur, match)
        if coarse.n >= cur.n:  # matching failed to shrink (isolated nodes)
            break
        levels.append((cur, cmap))
        cur = coarse
    side = _greedy_grow_bisect(cur, rng, target_frac)
    side = _fm_refine(cur, side)
    for fine, cmap in reversed(levels):
        side = side[cmap]
        side = _fm_refine(fine, side)
    return side


def partition(g: CSRGraph, num_parts: int, seed: int = 0) -> PartitionResult:
    """Partition ``g`` into ``num_parts`` parts by recursive bisection.

    ``num_parts`` need not be a power of two: each recursion splits the
    node-weight proportionally (⌈k/2⌉ : ⌊k/2⌋).
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    n = g.num_nodes
    labels = np.zeros(n, dtype=np.int64)
    if num_parts == 1 or n == 0:
        return PartitionResult(labels, num_parts, 0, 1.0 if n else 0.0)

    rng = np.random.default_rng(seed)
    wg = _WGraph.from_csr(g)

    def recurse(nodes: np.ndarray, k: int, label_base: int) -> None:
        if k == 1 or len(nodes) <= 1:
            labels[nodes] = label_base
            return
        k_left = (k + 1) // 2
        frac = k_left / k
        # induced weighted subgraph
        mask = -np.ones(n, dtype=np.int64)
        mask[nodes] = np.arange(len(nodes))
        src = np.repeat(np.arange(wg.n, dtype=np.int64), np.diff(wg.indptr))
        in_sub = (mask[src] >= 0) & (mask[wg.indices] >= 0)
        sub_mat = sp.csr_matrix(
            (wg.ewgt[in_sub], (mask[src[in_sub]], mask[wg.indices[in_sub]])),
            shape=(len(nodes), len(nodes)))
        sub_mat.sort_indices()
        sub = _WGraph(sub_mat.indptr.astype(np.int64),
                      sub_mat.indices.astype(np.int64),
                      sub_mat.data.copy(), wg.vwgt[nodes].copy())
        side = _bisect(sub, rng, target_frac=frac)
        left = nodes[side == 0]
        right = nodes[side == 1]
        if len(left) == 0 or len(right) == 0:  # degenerate split: force halves
            half = max(int(len(nodes) * frac), 1)
            left, right = nodes[:half], nodes[half:]
        recurse(left, k_left, label_base)
        recurse(right, k - k_left, label_base + k_left)

    recurse(np.arange(n, dtype=np.int64), num_parts, 0)
    cut = edge_cut(g, labels)
    bal = balance_ratio(labels, num_parts)
    return PartitionResult(labels, num_parts, cut, bal)


def edge_cut(g: CSRGraph, labels: np.ndarray) -> int:
    """Number of undirected edges whose endpoints lie in different parts."""
    labels = np.asarray(labels)
    src = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.degrees())
    crossing = labels[src] != labels[g.indices]
    return int(crossing.sum()) // 2


def balance_ratio(labels: np.ndarray, num_parts: int) -> float:
    """Max part size divided by the ideal (perfectly even) part size."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        return 0.0
    counts = np.bincount(labels, minlength=num_parts)
    ideal = len(labels) / num_parts
    return float(counts.max() / ideal)
