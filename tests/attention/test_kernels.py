"""Attention kernel equivalence and gradients.

The load-bearing property: dense, flash, sparse-on-full-pattern, and the
block kernel all compute the same mathematical function, and the sparse
kernel on a restricted pattern matches dense with the equivalent mask.
"""

import numpy as np
import pytest

from repro.attention import (
    collector,
    dense_attention,
    flash_attention,
    full_pattern,
    sparse_attention,
    topology_pattern,
)
from repro.graph import dc_sbm, star_graph
from repro.tensor import Tensor, set_precision

H, S, DH = 2, 48, 8


def make_qkv(rng, requires_grad=True):
    return tuple(Tensor(rng.standard_normal((H, S, DH)), requires_grad=requires_grad)
                 for _ in range(3))


def clone(t):
    return Tensor(t.data.copy(), requires_grad=True)


class TestDenseFlashEquivalence:
    def test_forward_match(self, rng):
        q, k, v = make_qkv(rng)
        o1 = dense_attention(q, k, v)
        o2 = flash_attention(clone(q), clone(k), clone(v), tile_size=13)
        np.testing.assert_allclose(o1.data, o2.data, atol=1e-5)

    def test_backward_match(self, rng):
        q1, k1, v1 = make_qkv(rng)
        q2, k2, v2 = clone(q1), clone(k1), clone(v1)
        g = rng.standard_normal((H, S, DH))
        dense_attention(q1, k1, v1).backward(g)
        flash_attention(q2, k2, v2, tile_size=7).backward(g)
        np.testing.assert_allclose(q1.grad, q2.grad, atol=1e-4)
        np.testing.assert_allclose(k1.grad, k2.grad, atol=1e-4)
        np.testing.assert_allclose(v1.grad, v2.grad, atol=1e-4)

    def test_tile_size_irrelevant(self, rng):
        q, k, v = make_qkv(rng, requires_grad=False)
        outs = [flash_attention(q, k, v, tile_size=t).data for t in (1, 5, 48, 100)]
        for o in outs[1:]:
            np.testing.assert_allclose(o, outs[0], atol=1e-5)


class TestSparseKernel:
    def test_full_pattern_matches_dense(self, rng):
        q1, k1, v1 = make_qkv(rng)
        q2, k2, v2 = clone(q1), clone(k1), clone(v1)
        g = rng.standard_normal((H, S, DH))
        dense_attention(q1, k1, v1).backward(g)
        sparse_attention(q2, k2, v2, full_pattern(S)).backward(g)
        np.testing.assert_allclose(q1.grad, q2.grad, atol=1e-4)
        np.testing.assert_allclose(k1.grad, k2.grad, atol=1e-4)
        np.testing.assert_allclose(v1.grad, v2.grad, atol=1e-4)

    def test_pattern_matches_masked_dense(self, rng):
        g_graph, _ = dc_sbm(S, 4, 5.0, rng)
        pat = topology_pattern(g_graph)
        q1, k1, v1 = make_qkv(rng)
        q2, k2, v2 = clone(q1), clone(k1), clone(v1)
        grad = rng.standard_normal((H, S, DH))
        o1 = sparse_attention(q1, k1, v1, pat)
        o2 = dense_attention(q2, k2, v2, mask=pat.to_mask())
        np.testing.assert_allclose(o1.data, o2.data, atol=1e-5)
        o1.backward(grad)
        o2.backward(grad)
        np.testing.assert_allclose(q1.grad, q2.grad, atol=1e-4)
        np.testing.assert_allclose(v1.grad, v2.grad, atol=1e-4)

    def test_isolated_row_zero_output(self, rng):
        # pattern with no entries for row 3
        rows = np.array([0, 1, 2])
        cols = np.array([1, 2, 0])
        from repro.attention import AttentionPattern
        pat = AttentionPattern.from_entries(5, rows, cols)
        q, k, v = (Tensor(rng.standard_normal((1, 5, 4)), requires_grad=True)
                   for _ in range(3))
        out = sparse_attention(q, k, v, pat)
        np.testing.assert_allclose(out.data[0, 3], np.zeros(4))
        np.testing.assert_allclose(out.data[0, 4], np.zeros(4))

    def test_seq_len_mismatch_raises(self, rng):
        q, k, v = make_qkv(rng)
        with pytest.raises(ValueError):
            sparse_attention(q, k, v, full_pattern(S + 1))

    def test_probabilities_respect_pattern(self, rng):
        # output of node i is a convex combination of its neighbours' values
        g_graph = star_graph(S)
        pat = topology_pattern(g_graph)
        q, k, v = make_qkv(rng, requires_grad=False)
        out = sparse_attention(q, k, v, pat)
        # leaf node i attends {0, i} only
        for i in (5, 17):
            vals = v.data[:, [0, i], :]
            lo = vals.min(axis=1) - 1e-5
            hi = vals.max(axis=1) + 1e-5
            assert (out.data[:, i, :] >= lo).all() and (out.data[:, i, :] <= hi).all()


class TestBias:
    def test_dense_bias_shifts_attention(self, rng):
        q, k, v = make_qkv(rng, requires_grad=False)
        bias = np.zeros((1, S, S))
        bias[:, :, 7] = 100.0  # force everyone to attend to node 7
        out = dense_attention(q, k, v, bias=Tensor(bias))
        expected = np.broadcast_to(v.data[:, 7:8, :], (H, S, DH))
        np.testing.assert_allclose(out.data, expected, atol=1e-3)

    def test_dense_bias_gradient(self, rng):
        q, k, v = make_qkv(rng)
        bias = Tensor(rng.standard_normal((H, S, S)) * 0.1, requires_grad=True)
        out = dense_attention(q, k, v, bias=bias)
        out.backward(rng.standard_normal((H, S, DH)))
        assert bias.grad is not None
        assert np.abs(bias.grad).sum() > 0
        # softmax rows: bias grad rows sum to ~0 (shift invariance)
        np.testing.assert_allclose(bias.grad.sum(axis=-1), np.zeros((H, S)), atol=1e-4)

    def test_dense_bias_broadcast_head(self, rng):
        q, k, v = make_qkv(rng)
        bias = Tensor(rng.standard_normal((1, S, S)) * 0.1, requires_grad=True)
        dense_attention(q, k, v, bias=bias).backward(np.ones((H, S, DH)))
        assert bias.grad.shape == (1, S, S)

    def test_sparse_bias_matches_dense_bias(self, rng):
        g_graph, _ = dc_sbm(S, 2, 5.0, rng)
        pat = topology_pattern(g_graph)
        bias_entries = rng.standard_normal((H, pat.num_entries))
        dense_bias = np.full((H, S, S), -1e30)
        dense_bias[:, pat.rows, pat.cols] = bias_entries
        q, k, v = make_qkv(rng, requires_grad=False)
        o_sparse = sparse_attention(q, k, v, pat, bias=Tensor(bias_entries))
        o_dense = dense_attention(q, k, v, bias=Tensor(dense_bias),
                                  mask=pat.to_mask())
        np.testing.assert_allclose(o_sparse.data, o_dense.data, atol=1e-4)

    def test_sparse_bias_gradient_flows(self, rng):
        g_graph, _ = dc_sbm(S, 2, 5.0, rng)
        pat = topology_pattern(g_graph)
        q, k, v = make_qkv(rng)
        bias = Tensor(np.zeros((H, pat.num_entries)), requires_grad=True)
        sparse_attention(q, k, v, pat, bias=bias).backward(
            rng.standard_normal((H, S, DH)))
        assert np.abs(bias.grad).sum() > 0


class TestStatsInstrumentation:
    def test_dense_counts_quadratic(self, rng):
        collector.clear()
        q, k, v = make_qkv(rng, requires_grad=False)
        dense_attention(q, k, v)
        st = collector.last()
        assert st.kind == "dense"
        assert st.scores_computed == H * S * S
        assert st.flops == 4 * H * S * S * DH

    def test_sparse_counts_linear_in_entries(self, rng):
        g_graph, _ = dc_sbm(S, 2, 5.0, rng)
        pat = topology_pattern(g_graph)
        collector.clear()
        q, k, v = make_qkv(rng, requires_grad=False)
        sparse_attention(q, k, v, pat)
        st = collector.last()
        assert st.scores_computed == H * pat.num_entries
        assert st.irregular_bytes > 0

    def test_flash_regular_memory_linear(self, rng):
        collector.clear()
        q, k, v = make_qkv(rng, requires_grad=False)
        flash_attention(q, k, v)
        st = collector.last()
        assert st.kind == "flash"
        assert st.irregular_bytes == 0
        # flash streams O(S·d): doubling S doubles traffic (dense would 4×)
        q2 = Tensor(np.concatenate([q.data, q.data], axis=1))
        flash_attention(q2, Tensor(np.concatenate([k.data, k.data], axis=1)),
                        Tensor(np.concatenate([v.data, v.data], axis=1)))
        st2 = collector.last()
        assert st2.regular_bytes == 2 * st.regular_bytes

    def test_collector_totals(self, rng):
        collector.clear()
        q, k, v = make_qkv(rng, requires_grad=False)
        dense_attention(q, k, v)
        dense_attention(q, k, v)
        assert collector.total_flops() == 2 * 4 * H * S * S * DH
        collector.clear()
        assert collector.last() is None

    def test_collector_keeps_only_the_newest_records(self):
        from repro.attention.stats import _MAX_RECORDS, AttentionStats

        collector.clear()
        try:
            for i in range(200_000):
                collector.add(AttentionStats("dense", i, 1, 1, 0, 0, 0, 0))
            assert _MAX_RECORDS <= len(collector.records) <= 2 * _MAX_RECORDS
            assert isinstance(collector.records, list)
            assert collector.last().seq_len == 199_999
            # the survivors are the newest ones, still in order
            first = collector.records[0].seq_len
            assert [r.seq_len for r in collector.records] == list(
                range(first, 200_000))
        finally:
            collector.clear()


class TestPrecisionInteraction:
    def test_bf16_flash_differs_from_fp32(self, rng):
        q, k, v = make_qkv(rng, requires_grad=False)
        o32 = flash_attention(q, k, v).data.copy()
        set_precision("bf16")
        qb = Tensor(q.data.copy())
        kb = Tensor(k.data.copy())
        vb = Tensor(v.data.copy())
        o16 = flash_attention(qb, kb, vb).data.copy()
        assert 0 < np.abs(o32 - o16).max() < 0.1
