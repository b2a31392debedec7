"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.attention import AttentionPattern
from repro.attention.sparse import segment_softmax
from repro.graph import CSRGraph, truncated_spd_matrix
from repro.partition import balance_ratio, edge_cut, partition
from repro.tensor import Tensor, quantize_bf16
from repro.tensor import functional as F
from repro.tensor.tensor import unbroadcast
from tests.helpers import spd_oracle

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False, width=32)


class TestQuantizeBf16Properties:
    @given(arrays(np.float32, st.integers(1, 50), elements=finite_floats))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, x):
        q = quantize_bf16(x)
        np.testing.assert_array_equal(quantize_bf16(q), q)

    @given(arrays(np.float32, st.integers(1, 50), elements=finite_floats))
    @settings(max_examples=100, deadline=None)
    def test_relative_error_bound(self, x):
        q = quantize_bf16(x)
        big = np.abs(x) > 1e-30
        if big.any():
            rel = np.abs(q[big] - x[big]) / np.abs(x[big])
            assert rel.max() <= 2.0**-8 + 1e-9

    @given(arrays(np.float32, st.integers(1, 50), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, x):
        # quantization preserves ordering (weakly)
        order = np.argsort(x, kind="stable")
        q = quantize_bf16(x)
        assert (np.diff(q[order]) >= 0).all()


class TestUnbroadcastProperties:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_matches_autodiff_definition(self, a, b, lead):
        # summing a broadcast gradient equals the true gradient of
        # y = broadcast(x); checked by total conservation
        shape = (a, b)
        grad = np.ones((lead, a, b))
        out = unbroadcast(grad, shape)
        assert out.shape == shape
        assert out.sum() == grad.sum()

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_size_one_axes(self, a, b):
        grad = np.random.default_rng(0).standard_normal((a, b))
        out = unbroadcast(grad, (a, 1))
        np.testing.assert_allclose(out[:, 0], grad.sum(axis=1), rtol=1e-6)


class TestSoftmaxProperties:
    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                  elements=st.floats(-50, 50)))
    @settings(max_examples=100, deadline=None)
    def test_rows_normalized(self, x):
        s = F.softmax(Tensor(x)).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(x.shape[0]), atol=1e-5)
        assert (s >= 0).all()

    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                  elements=st.floats(-50, 50)),
           st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, c):
        s1 = F.softmax(Tensor(x)).data
        s2 = F.softmax(Tensor(x + c)).data
        np.testing.assert_allclose(s1, s2, atol=1e-6)


class TestSegmentSoftmaxProperties:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_segment_normalized(self, data):
        n_rows = data.draw(st.integers(1, 10))
        counts = data.draw(st.lists(st.integers(0, 6), min_size=n_rows,
                                    max_size=n_rows))
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        total = int(indptr[-1])
        scores = data.draw(arrays(np.float64, (1, total),
                                  elements=st.floats(-30, 30)))
        rows = np.repeat(np.arange(n_rows), counts).astype(np.int64)
        p = segment_softmax(scores, indptr, rows)
        for i in range(n_rows):
            seg = p[0, indptr[i]:indptr[i + 1]]
            if len(seg):
                assert abs(seg.sum() - 1.0) < 1e-6


class TestPatternProperties:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_from_entries_idempotent_and_sorted(self, data):
        S = data.draw(st.integers(1, 20))
        n = data.draw(st.integers(0, 40))
        rows = data.draw(arrays(np.int64, n, elements=st.integers(0, S - 1)))
        cols = data.draw(arrays(np.int64, n, elements=st.integers(0, S - 1)))
        p = AttentionPattern.from_entries(S, rows, cols)
        # unique entries, CSR-ordered
        lin = p.rows * S + p.cols
        assert len(np.unique(lin)) == len(lin)
        assert (np.diff(p.rows) >= 0).all()
        p2 = AttentionPattern.from_entries(S, p.rows, p.cols)
        np.testing.assert_array_equal(p2.cols, p.cols)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mask_round_trip(self, data):
        S = data.draw(st.integers(1, 15))
        n = data.draw(st.integers(0, 30))
        rows = data.draw(arrays(np.int64, n, elements=st.integers(0, S - 1)))
        cols = data.draw(arrays(np.int64, n, elements=st.integers(0, S - 1)))
        p = AttentionPattern.from_entries(S, rows, cols)
        m = p.to_mask()
        assert m.sum() == p.num_entries
        p2 = AttentionPattern.from_entries(S, *np.nonzero(m))
        np.testing.assert_array_equal(p2.cols, p.cols)


class TestGraphProperties:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_from_edges_always_symmetric(self, data):
        n = data.draw(st.integers(2, 20))
        m = data.draw(st.integers(0, 30))
        edges = data.draw(arrays(np.int64, (m, 2), elements=st.integers(0, n - 1)))
        g = CSRGraph.from_edges(n, edges)
        mat = g.to_scipy()
        assert (mat != mat.T).nnz == 0

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_permute_preserves_degree_multiset(self, data):
        n = data.draw(st.integers(2, 15))
        m = data.draw(st.integers(0, 25))
        edges = data.draw(arrays(np.int64, (m, 2), elements=st.integers(0, n - 1)))
        g = CSRGraph.from_edges(n, edges)
        perm = np.random.default_rng(data.draw(st.integers(0, 100))).permutation(n)
        g2 = g.permute(perm)
        np.testing.assert_array_equal(np.sort(g.degrees()), np.sort(g2.degrees()))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_spd_equals_per_source_bfs(self, data):
        # n straddles the 8- and 64-bit packing boundaries; few edges leave
        # isolated nodes and several components, (v, v) draws are self-loops
        n = data.draw(st.sampled_from([0, 1, 2, 5, 8, 9, 31, 64, 70]))
        m = data.draw(st.integers(0, 2 * n))
        edges = data.draw(arrays(np.int64, (m, 2),
                                 elements=st.integers(0, max(n - 1, 0))))
        g = CSRGraph.from_edges(n, edges, symmetrize=data.draw(st.booleans()))
        max_dist = data.draw(st.sampled_from([1, 2, 8]))
        spd = truncated_spd_matrix(g, max_dist)
        assert spd.dtype == np.int16 and spd.shape == (n, n)
        np.testing.assert_array_equal(spd, spd_oracle(g, max_dist))


class TestPartitionProperties:
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_partition_always_valid(self, data):
        n = data.draw(st.integers(8, 60))
        m = data.draw(st.integers(n // 2, 3 * n))
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        edges = rng.integers(0, n, (m, 2))
        g = CSRGraph.from_edges(n, edges)
        k = data.draw(st.integers(1, 4))
        res = partition(g, k, seed=0)
        assert res.labels.shape == (n,)
        assert res.labels.min() >= 0 and res.labels.max() < k
        assert res.edge_cut == edge_cut(g, res.labels)
        assert res.balance == balance_ratio(res.labels, k)
        assert res.edge_cut <= g.num_edges // 2


class TestLossProperties:
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 5)),
                  elements=st.floats(-20, 20)))
    @settings(max_examples=60, deadline=None)
    def test_cross_entropy_nonnegative(self, logits):
        n, c = logits.shape
        targets = np.zeros(n, dtype=np.int64)
        loss = F.cross_entropy(Tensor(logits), targets)
        assert loss.item() >= -1e-9

    @given(arrays(np.float64, st.integers(1, 10), elements=st.floats(-100, 100)),
           arrays(np.float64, st.integers(1, 10), elements=st.floats(-100, 100)))
    @settings(max_examples=60, deadline=None)
    def test_l1_symmetric(self, a, b):
        n = min(len(a), len(b))
        l1 = F.l1_loss(Tensor(a[:n]), b[:n]).item()
        l2 = F.l1_loss(Tensor(b[:n]), a[:n]).item()
        # Tensor storage is float32 (torch's default), so the two directions
        # round their inputs differently; the tolerance must be float32-scale.
        assert abs(l1 - l2) < 1e-5 * max(1.0, abs(l1))
