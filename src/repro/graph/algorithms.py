"""Graph algorithms backing the Dual-interleaved Attention conditions.

Implements the structural checks of §III-B (C1 self-loops, C2 Hamiltonian
traceability via Dirac's theorem, C3 L-layer reachability), the truncated
shortest-path-distance (SPD) computation Graphormer's attention bias needs,
and assorted statistics (sparsity, clustering) used by the Auto Tuner.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph as csgraph

from .csr import CSRGraph

__all__ = [
    "connected_components",
    "is_connected",
    "bfs_distances",
    "truncated_spd_matrix",
    "diameter_lower_bound",
    "dirac_hamiltonian_check",
    "ore_hamiltonian_check",
    "has_hamiltonian_heuristic",
    "reachable_within_l_hops",
    "degree_histogram",
    "average_clustering_sample",
]


def connected_components(g: CSRGraph) -> tuple[int, np.ndarray]:
    """Number of components and per-node component label."""
    n_comp, labels = csgraph.connected_components(g.to_scipy(), directed=False)
    return int(n_comp), labels


def is_connected(g: CSRGraph) -> bool:
    """Whether the graph is a single connected component."""
    if g.num_nodes == 0:
        return True
    return connected_components(g)[0] == 1


def bfs_distances(g: CSRGraph, source: int, max_depth: int | None = None) -> np.ndarray:
    """Hop distance from ``source`` to every node (−1 if unreachable).

    Frontier-at-a-time BFS with numpy set operations; ``max_depth`` bounds
    the expansion for the truncated-SPD use case.
    """
    n = g.num_nodes
    dist = -np.ones(n, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            break
        # gather all neighbors of the frontier in one vectorized pass:
        # slot i of the output reads its list's start plus its rank in it
        starts = g.indptr[frontier]
        counts = g.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        first = np.cumsum(counts) - counts
        nbrs = np.unique(
            g.indices[np.repeat(starts - first, counts) + np.arange(total)])
        new = nbrs[dist[nbrs] < 0]
        if len(new) == 0:
            break
        depth += 1
        dist[new] = depth
        frontier = new
    return dist


def truncated_spd_matrix(g: CSRGraph, max_dist: int) -> np.ndarray:
    """All-pairs shortest-path hops, clipped at ``max_dist``.

    Unreachable pairs and pairs farther than ``max_dist`` get the sentinel
    ``max_dist + 1`` — the "far" bucket of Graphormer's learnable SPD bias
    table.  Bit-parallel BFS from every source at once: row ``s`` of
    ``reach`` is the packed set of nodes within ``d`` hops of ``s``, and one
    hop ORs in the rows of ``s``'s out-neighbours (``within d+1 of s`` =
    ``s`` ∪ ``within d of a neighbour``) — one CSR gather and one
    ``bitwise_or.reduceat`` per hop, O(max_dist · E · N/64) word operations
    on an N²/8-byte working set.
    """
    n = g.num_nodes
    spd = np.full((n, n), max_dist + 1, dtype=np.int16)
    ids = np.arange(n)
    reach = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)  # rows of 64-bit words
    reach[ids, ids >> 3] = 128 >> (ids & 7)  # packbits order: first node = MSB
    reach = reach.view(np.uint64)
    src = np.flatnonzero(np.diff(g.indptr))  # reduceat needs non-empty lists
    starts = g.indptr[src]
    # a pair at distance k is inside the ball at hops k..max_dist, so
    # subtracting every hop's ball from max_dist + 1 leaves exactly k
    for d in range(max_dist + 1):
        ball = np.unpackbits(reach.view(np.uint8), axis=1, count=n)
        grown = reach.copy()
        if len(src) and d < max_dist:
            grown[src] |= np.bitwise_or.reduceat(reach[g.indices], starts, axis=0)
        if np.array_equal(grown, reach):
            # nothing new (or the last hop): hops d..max_dist all see this ball
            spd -= ball * np.int16(max_dist + 1 - d)
            break
        spd -= ball
        reach = grown
    return spd


def _double_sweeps(g: CSRGraph, rng: np.random.Generator, samples: int):
    """Yield each double-sweep BFS eccentricity, one per random seed."""
    for _ in range(samples):
        s = int(rng.integers(0, g.num_nodes))
        far = int(np.argmax(bfs_distances(g, s)))
        yield int(bfs_distances(g, far).max())


def diameter_lower_bound(g: CSRGraph, rng: np.random.Generator, samples: int = 4) -> int:
    """Lower-bound the diameter by double-sweep BFS from random seeds."""
    if g.num_nodes == 0:
        return 0
    return max(_double_sweeps(g, rng, samples), default=0)


def dirac_hamiltonian_check(g: CSRGraph) -> bool:
    """Dirac's theorem: min degree ≥ N/2 ⇒ a Hamiltonian cycle exists.

    This is the paper's "quick check" for condition C2 — a *sufficient*
    condition only, chosen because it is O(N) on the degree array.
    Self-loops are excluded from the degree count.
    """
    n = g.num_nodes
    if n < 3:
        return False
    return bool((g.degrees() - g.self_loop_counts()).min() >= (n + 1) // 2)


def ore_hamiltonian_check(g: CSRGraph) -> bool:
    """Ore's theorem: deg(u)+deg(v) ≥ N for every non-adjacent pair u,v.

    A strictly weaker requirement than Dirac's; provided as the fallback
    heuristic tier.  O(N²) worst case, so intended for small sequences.
    """
    n = g.num_nodes
    if n < 3:
        return False
    deg = g.degrees()
    dense = g.to_dense()
    for u in range(n):
        non_adj = np.where(~dense[u])[0]
        non_adj = non_adj[non_adj > u]
        if len(non_adj) and (deg[u] + deg[non_adj]).min() < n:
            return False
    return True


def has_hamiltonian_heuristic(g: CSRGraph, strict: bool = False) -> bool:
    """Heuristic traceability test used by Dual-interleaved Attention (C2).

    Tier 1: Dirac's theorem (cheap, sufficient).  Tier 2 (``strict=False``,
    the system default): fall back to connectivity + minimum-degree ≥ 2
    screening — real-world sparse graphs essentially never satisfy Dirac,
    and the paper's intent is a *negligible-overhead* plausibility check
    rather than an exact NP-hard decision.
    """
    if g.num_nodes == 0:
        return False
    if g.num_nodes == 1:
        return True
    if dirac_hamiltonian_check(g):
        return True
    if strict:
        return False
    if not is_connected(g):
        return False
    # a traceable graph has at most 2 degree-1 endpoints; a self-loop never
    # extends a path, so it does not count towards the degree
    return int((g.degrees() - g.self_loop_counts() <= 1).sum()) <= 2


def reachable_within_l_hops(g: CSRGraph, num_layers: int) -> bool:
    """Condition C3: all node pairs interact within ``num_layers`` hops.

    After L attention layers over a sparse pattern, information propagates
    L hops; the condition holds iff the graph is connected and its diameter
    is ≤ L.  The double-sweep lower bound rejects early, at the first
    sweep that exceeds L; small graphs are then checked exactly with the
    all-pairs kernel, large ones accepted on the strength of the sampled
    bound.
    """
    if g.num_nodes <= 1:
        return True
    if not is_connected(g):
        return False
    rng = np.random.default_rng(0)
    if any(ecc > num_layers for ecc in _double_sweeps(g, rng, samples=4)):
        return False
    if g.num_nodes <= 2048:
        # exact: no pair lands in the far bucket beyond num_layers hops
        return bool(truncated_spd_matrix(g, num_layers).max() <= num_layers)
    # large graphs: accept on the strength of the sampled bound
    return True


def degree_histogram(g: CSRGraph, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced degree histogram (used to verify power-law skew)."""
    deg = g.degrees()
    deg = deg[deg > 0]
    if len(deg) == 0:
        return np.zeros(bins), np.ones(bins + 1)
    edges = np.logspace(0, np.log10(deg.max() + 1), bins + 1)
    hist, _ = np.histogram(deg, bins=edges)
    return hist, edges


def average_clustering_sample(g: CSRGraph, rng: np.random.Generator,
                              samples: int = 200) -> float:
    """Estimate the average clustering coefficient by node sampling."""
    n = g.num_nodes
    if n == 0:
        return 0.0
    picks = rng.integers(0, n, size=min(samples, n))
    total, counted = 0.0, 0
    for v in picks:
        nbrs = g.neighbors(int(v))
        nbrs = nbrs[nbrs != v]
        k = len(nbrs)
        if k < 2:
            continue
        sub = g.to_scipy()[nbrs][:, nbrs]
        links = sub.nnz / 2
        total += 2.0 * links / (k * (k - 1))
        counted += 1
    return total / counted if counted else 0.0
