"""METIS-substitute multilevel partitioner."""

import numpy as np
import pytest

from repro.graph import (CSRGraph, barabasi_albert, dc_sbm, erdos_renyi, grid_graph,
                         load_node_dataset, path_graph, ring_of_cliques)
from repro.partition import balance_ratio, cluster_reorder, edge_cut, partition
from tests.helpers import array_sha256


class TestEdgeCut:
    def test_counts_crossing_edges(self):
        g = path_graph(4)
        labels = np.array([0, 0, 1, 1])
        assert edge_cut(g, labels) == 1

    def test_single_part_zero(self):
        g = path_graph(10)
        assert edge_cut(g, np.zeros(10, dtype=int)) == 0

    def test_matches_brute_force(self, rng):
        g = erdos_renyi(30, 0.2, rng)
        labels = rng.integers(0, 3, 30)
        brute = sum(1 for u, v in g.edge_array() if u < v and labels[u] != labels[v])
        assert edge_cut(g, labels) == brute


class TestBalance:
    def test_perfect_balance(self):
        assert balance_ratio(np.array([0, 0, 1, 1]), 2) == 1.0

    def test_imbalanced(self):
        assert balance_ratio(np.array([0, 0, 0, 1]), 2) == 1.5

    def test_empty(self):
        assert balance_ratio(np.array([], dtype=int), 4) == 0.0


class TestPartition:
    def test_recovers_ring_of_cliques(self):
        g, truth = ring_of_cliques(8, 16)
        res = partition(g, 8, seed=1)
        assert res.edge_cut <= 12  # ideal is 8 (the ring edges)
        assert res.balance <= 1.1

    def test_beats_random_on_sbm(self, rng):
        g, _ = dc_sbm(600, 8, 12.0, rng)
        res = partition(g, 8)
        rand = edge_cut(g, rng.integers(0, 8, g.num_nodes))
        assert res.edge_cut < 0.75 * rand

    def test_labels_valid(self, rng):
        g = erdos_renyi(200, 0.05, rng)
        res = partition(g, 5)
        assert res.labels.shape == (200,)
        assert set(np.unique(res.labels)) <= set(range(5))
        assert len(np.unique(res.labels)) == 5

    def test_num_parts_one(self):
        g = path_graph(10)
        res = partition(g, 1)
        assert (res.labels == 0).all()
        assert res.edge_cut == 0

    def test_non_power_of_two_parts(self, rng):
        g, _ = dc_sbm(300, 6, 10.0, rng)
        res = partition(g, 3)
        counts = np.bincount(res.labels, minlength=3)
        assert (counts > 0).all()
        assert res.balance < 1.6

    def test_balance_reasonable(self, rng):
        g, _ = dc_sbm(500, 8, 12.0, rng)
        res = partition(g, 4)
        assert res.balance < 1.5

    def test_grid_cut_quality(self):
        # 16×16 grid split in 2: optimal cut is 16 (a straight line)
        g = grid_graph(16, 16)
        res = partition(g, 2, seed=0)
        assert res.edge_cut <= 32  # within 2× of optimal

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            partition(path_graph(4), 0)

    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, np.empty((0, 2)))
        res = partition(g, 4)
        assert len(res.labels) == 0

    def test_more_parts_than_nodes_is_graceful(self):
        g = path_graph(3)
        res = partition(g, 8)
        assert len(res.labels) == 3

    def test_deterministic_by_seed(self, rng):
        g, _ = dc_sbm(300, 4, 10.0, rng)
        r1 = partition(g, 4, seed=7)
        r2 = partition(g, 4, seed=7)
        np.testing.assert_array_equal(r1.labels, r2.labels)

    def test_disconnected_graph(self):
        g = CSRGraph.from_edges(8, [[0, 1], [1, 2], [4, 5], [5, 6]])
        res = partition(g, 2, seed=0)
        assert res.balance <= 2.0

    def test_cut_decreases_with_structure(self, rng):
        # a strongly clustered graph should partition with far fewer cut
        # edges (relative to total) than a structureless one
        g_sbm, _ = dc_sbm(400, 4, 10.0, rng, p_in_over_p_out=40.0)
        g_er = erdos_renyi(400, 10.0 / 400, rng)
        cut_sbm = partition(g_sbm, 4).edge_cut / max(g_sbm.num_edges / 2, 1)
        cut_er = partition(g_er, 4).edge_cut / max(g_er.num_edges / 2, 1)
        assert cut_sbm < cut_er


class TestPinnedLabels:
    """sha256 of ``partition(...).labels`` and ``cluster_reorder(...).perm``,
    taken on commit 6efde15 — before FM's initial gains were vectorised.
    The refinement is only allowed to get faster: one moved node changes
    every downstream pattern, logit and loss digest."""

    GRAPHS = {
        "arxiv-0.25": (lambda: load_node_dataset("ogbn-arxiv", scale=0.25, seed=0).graph, 18,
                       "0dc8c72163347faea4f60365d2f76902217da20190c2a018aa9009974ef716f2",
                       "715637f7bf0c5a27aa51d4f8a3a3dbf3fb87d1368e46dc650af527b9fa0819ff"),
        "arxiv-1.0": (lambda: load_node_dataset("ogbn-arxiv", scale=1.0, seed=0).graph, 75,
                      "8cc728632450aa328904945883cacb5ca73935604f04d3d3420b4ce82c0cdf06",
                      "e309a9b71b0e383242baa23011b0619e046e6afc9519325db80df5e82d07377c"),
        "dc_sbm-600": (lambda: dc_sbm(600, 8, 12.0, np.random.default_rng(7))[0], 8,
                       "61663737ae674908ea9fcb7b69169ba11dc502d94a05ae747ad62acbdac66e0a",
                       "e1f86bf2422ec34dbd94cbdea80deba9dec87d6bdae1207b94a8fcd53a9c62d8"),
        "ba-500": (lambda: barabasi_albert(500, 3, np.random.default_rng(11)), 5,
                   "a3ff04d664f510087c8d61a9ca469876330c316b45ecb4bfb0c273fcc0b1441f",
                   "2f8b1ab8297fd6e7eb73fb0e9876af4f7b887d85a8f55c61c8e3f0d5dd9ba300"),
    }

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_labels_and_permutation_unchanged(self, name):
        build, k, labels_sha, perm_sha = self.GRAPHS[name]
        g = build()
        res = partition(g, k, seed=0)
        assert array_sha256(res.labels, np.int64) == labels_sha
        perm = cluster_reorder(g, k, seed=0, precomputed=res).perm
        assert array_sha256(perm, np.int64) == perm_sha
