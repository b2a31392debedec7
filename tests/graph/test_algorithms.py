"""Graph algorithms: BFS/SPD, Hamiltonian heuristics, reachability."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    average_clustering_sample,
    bfs_distances,
    complete_graph,
    connected_components,
    degree_histogram,
    diameter_lower_bound,
    dirac_hamiltonian_check,
    dc_sbm,
    erdos_renyi,
    grid_graph,
    has_hamiltonian_heuristic,
    is_connected,
    ore_hamiltonian_check,
    path_graph,
    reachable_within_l_hops,
    ring_of_cliques,
    star_graph,
    truncated_spd_matrix,
)
from tests.helpers import spd_oracle


def to_nx(g: CSRGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.num_nodes))
    G.add_edges_from(map(tuple, g.edge_array()))
    return G


class TestComponents:
    def test_connected_path(self):
        assert is_connected(path_graph(10))

    def test_disconnected(self):
        g = CSRGraph.from_edges(4, [[0, 1], [2, 3]])
        n, labels = connected_components(g)
        assert n == 2
        assert labels[0] == labels[1] != labels[2]

    def test_empty_graph_connected(self):
        assert is_connected(CSRGraph.from_edges(0, np.empty((0, 2))))


class TestBFS:
    def test_path_distances(self):
        d = bfs_distances(path_graph(5), 0)
        np.testing.assert_array_equal(d, [0, 1, 2, 3, 4])

    def test_unreachable_minus_one(self):
        g = CSRGraph.from_edges(4, [[0, 1]])
        d = bfs_distances(g, 0)
        assert d[2] == -1 and d[3] == -1

    def test_max_depth_truncates(self):
        d = bfs_distances(path_graph(10), 0, max_depth=3)
        assert d[3] == 3 and d[4] == -1

    def test_directed_matches_networkx(self, rng):
        edges = rng.integers(0, 50, size=(90, 2))
        g = CSRGraph.from_edges(50, edges, symmetrize=False)
        G = nx.DiGraph()
        G.add_nodes_from(range(50))
        G.add_edges_from(map(tuple, edges))
        for depth in (None, 2):
            theirs = nx.single_source_shortest_path_length(G, 3, cutoff=depth)
            want = [theirs.get(v, -1) for v in range(50)]
            np.testing.assert_array_equal(bfs_distances(g, 3, depth), want)

    def test_matches_networkx(self, rng):
        g = erdos_renyi(60, 0.08, rng)
        ours = bfs_distances(g, 0)
        theirs = nx.single_source_shortest_path_length(to_nx(g), 0)
        for v in range(60):
            expected = theirs.get(v, -1)
            assert ours[v] == expected


class TestTruncatedSPD:
    def test_matches_bfs(self, rng):
        g = erdos_renyi(40, 0.1, rng)
        spd = truncated_spd_matrix(g, max_dist=5)
        for s in range(0, 40, 7):
            d = bfs_distances(g, s)
            for v in range(40):
                if 0 <= d[v] <= 5:
                    assert spd[s, v] == d[v]
                else:
                    assert spd[s, v] == 6  # far bucket

    def test_diagonal_zero(self, rng):
        g = erdos_renyi(20, 0.2, rng)
        assert (np.diag(truncated_spd_matrix(g, 3)) == 0).all()

    def test_symmetric(self, rng):
        g = erdos_renyi(30, 0.15, rng)
        spd = truncated_spd_matrix(g, 4)
        np.testing.assert_array_equal(spd, spd.T)

    def test_star_all_dist_2(self):
        spd = truncated_spd_matrix(star_graph(6), 3)
        assert spd[1, 2] == 2 and spd[0, 3] == 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        edges = [[0, 1]] if n == 2 else np.empty((0, 2))
        spd = truncated_spd_matrix(CSRGraph.from_edges(n, edges), 8)
        assert spd.dtype == np.int16 and spd.shape == (n, n)
        np.testing.assert_array_equal(spd, 1 - np.eye(n, dtype=np.int16))

    def test_directed_edges_give_directed_distances(self):
        # 0 -> 1 -> 2 and nothing back: row s holds distances *from* s
        g = CSRGraph.from_edges(3, [[0, 1], [1, 2]], symmetrize=False)
        np.testing.assert_array_equal(
            truncated_spd_matrix(g, 2), [[0, 1, 2], [3, 0, 1], [3, 3, 0]])

    def test_truncates_into_far_bucket(self):
        spd = truncated_spd_matrix(path_graph(6), 2)
        np.testing.assert_array_equal(spd[0], [0, 1, 2, 3, 3, 3])

    @pytest.mark.parametrize("n", [7, 63, 64, 65, 130])
    @pytest.mark.parametrize("max_dist", [1, 2, 8])
    def test_word_boundaries_components_loops_isolated(self, rng, n, max_dist):
        # sizes either side of the 8- and 64-bit packing boundaries; sparse
        # enough for several components and isolated nodes, plus self-loops
        edges = rng.integers(0, n, size=(n, 2))
        edges = np.concatenate([edges, [[0, 0], [n - 1, n - 1]]])
        for symmetrize in (True, False):
            g = CSRGraph.from_edges(n, edges, symmetrize=symmetrize)
            spd = truncated_spd_matrix(g, max_dist)
            assert spd.dtype == np.int16 and spd.shape == (n, n)
            np.testing.assert_array_equal(spd, spd_oracle(g, max_dist))


class TestDiameterBound:
    def test_path_exact(self, rng):
        assert diameter_lower_bound(path_graph(20), rng) == 19

    def test_never_exceeds_true_diameter(self, rng):
        g = erdos_renyi(50, 0.15, rng)
        if is_connected(g):
            true_d = nx.diameter(to_nx(g))
            assert diameter_lower_bound(g, rng) <= true_d


class TestHamiltonianChecks:
    def test_dirac_complete(self):
        assert dirac_hamiltonian_check(complete_graph(8))

    def test_dirac_path_fails(self):
        assert not dirac_hamiltonian_check(path_graph(8))

    def test_dirac_tiny_graphs(self):
        assert not dirac_hamiltonian_check(path_graph(2))

    def test_dirac_discounts_self_loops(self):
        # cycle of 4 with self-loops: raw degree 3 ≥ 2 but true degree 2 = n/2
        g = CSRGraph.from_edges(4, [[0, 1], [1, 2], [2, 3], [3, 0]],
                                add_self_loops=True)
        assert dirac_hamiltonian_check(g)  # 2 >= 2 holds for n=4

    def test_self_loops_never_change_either_check(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            edges = rng.integers(0, n, size=(int(rng.integers(n, 4 * n)), 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            bare = CSRGraph.from_edges(n, edges)
            looped = CSRGraph.from_edges(n, edges, add_self_loops=True)
            assert dirac_hamiltonian_check(looped) == dirac_hamiltonian_check(bare)
            assert (has_hamiltonian_heuristic(looped)
                    == has_hamiltonian_heuristic(bare))

    def test_ore_complete_bipartite_balanced(self):
        # K_{3,3} satisfies Ore (deg sums = 6 = n for non-adjacent pairs)
        edges = [(i, 3 + j) for i in range(3) for j in range(3)]
        g = CSRGraph.from_edges(6, edges)
        assert ore_hamiltonian_check(g)

    def test_ore_star_fails(self):
        assert not ore_hamiltonian_check(star_graph(6))

    def test_heuristic_accepts_path(self):
        # path graphs are traceable; the relaxed tier accepts them
        assert has_hamiltonian_heuristic(path_graph(10))

    def test_heuristic_rejects_disconnected(self):
        g = CSRGraph.from_edges(4, [[0, 1], [2, 3]])
        assert not has_hamiltonian_heuristic(g)

    def test_heuristic_rejects_star(self):
        # star has 5 degree-1 endpoints — cannot be traceable
        assert not has_hamiltonian_heuristic(star_graph(6))

    def test_strict_mode_dirac_only(self):
        assert not has_hamiltonian_heuristic(path_graph(10), strict=True)
        assert has_hamiltonian_heuristic(complete_graph(6), strict=True)

    def test_single_node(self):
        assert has_hamiltonian_heuristic(CSRGraph.from_edges(1, np.empty((0, 2))))


class TestReachability:
    def test_path_needs_length_hops(self):
        g = path_graph(5)  # diameter 4
        assert reachable_within_l_hops(g, 4)
        assert not reachable_within_l_hops(g, 3)

    def test_complete_one_hop(self):
        assert reachable_within_l_hops(complete_graph(10), 1)

    def test_disconnected_never(self):
        g = CSRGraph.from_edges(4, [[0, 1], [2, 3]])
        assert not reachable_within_l_hops(g, 100)

    def test_grid(self):
        g = grid_graph(3, 3)  # diameter 4
        assert reachable_within_l_hops(g, 4)
        assert not reachable_within_l_hops(g, 3)


class TestStatistics:
    def test_degree_histogram_total(self, rng):
        g = erdos_renyi(100, 0.1, rng)
        hist, edges = degree_histogram(g)
        assert hist.sum() == (g.degrees() > 0).sum()
        assert len(edges) == len(hist) + 1

    def test_clustering_clique_is_one(self, rng):
        g, _ = ring_of_cliques(3, 6)
        c = average_clustering_sample(g, rng, samples=50)
        assert c > 0.7  # cliques have clustering ~1 (ring edges lower it)

    def test_clustering_tree_is_zero(self, rng):
        c = average_clustering_sample(path_graph(50), rng)
        assert c == 0.0

    def test_clustering_sbm_positive(self, rng):
        g, _ = dc_sbm(300, 6, 12.0, rng)
        assert average_clustering_sample(g, rng) > 0.0
