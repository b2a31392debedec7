"""Pattern-workspace cache: correctness, reuse, and invalidation.

The load-bearing regression: sparse attention output (and every gradient)
is **bitwise identical** with the workspace cache enabled or disabled —
including after an ECR re-reformation replaces the pattern.
"""

import numpy as np
import pytest

from repro.attention import (
    PatternWorkspace,
    clear_workspace_stats,
    get_workspace,
    invalidate_workspace,
    segment_softmax,
    sparse_attention,
    topology_pattern,
    window_pattern,
    workspace_cache_stats,
    workspace_caching,
    workspace_caching_enabled,
)
from repro.core import reform_pattern
from repro.graph import dc_sbm
from repro.partition import cluster_reorder
from repro.tensor import Tensor

H, DH = 2, 8


@pytest.fixture
def pattern(rng):
    g, _ = dc_sbm(120, 4, 8.0, rng)
    return topology_pattern(g)


def qkv(rng, s, requires_grad=True):
    return tuple(Tensor(rng.standard_normal((H, s, DH)), requires_grad=requires_grad)
                 for _ in range(3))


def run_attention(pattern, arrays, with_bias=False):
    """One fwd+bwd pass; returns (out, dq, dk, dv[, dbias]) as arrays."""
    q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays[:3])
    bias = Tensor(arrays[3].copy(), requires_grad=True) if with_bias else None
    out = sparse_attention(q, k, v, pattern, bias=bias)
    out.backward(np.ones_like(out.data))
    grads = [out.data, q.grad, k.grad, v.grad]
    if with_bias:
        grads.append(bias.grad)
    return grads


class TestWorkspaceDerivedState:
    def test_rows_match_pattern(self, pattern):
        ws = PatternWorkspace(pattern)
        assert np.array_equal(ws.rows, pattern.rows)
        assert ws.num_entries == pattern.num_entries

    def test_index_arrays_downcast_to_int32(self, pattern):
        ws = PatternWorkspace(pattern)
        assert ws.cols_ix.dtype == np.int32
        assert ws.indptr_ix.dtype == np.int32
        assert np.array_equal(ws.cols_ix, pattern.cols)

    def test_segment_softmax_matches_standalone(self, pattern, rng):
        ws = PatternWorkspace(pattern)
        scores = rng.standard_normal((H, pattern.num_entries))
        ref = segment_softmax(scores, pattern.indptr, pattern.rows)
        assert np.array_equal(ws.segment_softmax(scores), ref)

    def test_segment_ops_handle_empty_rows(self):
        # window pattern on 1 node + manual empty-row pattern
        from repro.attention import AttentionPattern
        pat = AttentionPattern(indptr=np.array([0, 2, 2, 3]),
                               cols=np.array([0, 1, 2]), seq_len=3)
        ws = PatternWorkspace(pat)
        vals = np.array([[1.0, 3.0, 2.0]])
        assert np.array_equal(ws.segment_sum(vals), [[4.0, 0.0, 2.0]])
        assert np.array_equal(ws.segment_max(vals)[0, [0, 2]], [3.0, 2.0])

    def test_matmul_matches_scipy(self, pattern, rng):
        import scipy.sparse as sp
        ws = PatternWorkspace(pattern)
        data = rng.standard_normal(pattern.num_entries)
        dense = rng.standard_normal((pattern.seq_len, DH))
        ref = sp.csr_matrix((data, pattern.cols, pattern.indptr),
                            shape=(pattern.seq_len,) * 2)
        np.testing.assert_allclose(ws.matmul(data[None], dense[None])[0],
                                   ref @ dense)
        np.testing.assert_allclose(
            ws.matmul(data[None], dense[None], transpose=True)[0], ref.T @ dense,
            atol=1e-12)

    def test_transpose_struct_is_lazy_and_cached(self, pattern):
        ws = PatternWorkspace(pattern)
        assert ws._t_struct is None  # forward-only users never pay for it
        first = ws.transpose_struct
        assert ws.transpose_struct is first


class TestCacheBehaviour:
    def test_workspace_memoizes_on_pattern(self, pattern):
        clear_workspace_stats()
        ws1 = get_workspace(pattern)
        ws2 = get_workspace(pattern)
        assert ws1 is ws2
        stats = workspace_cache_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_disabled_cache_builds_fresh(self, pattern):
        with workspace_caching(False):
            assert not workspace_caching_enabled()
            assert get_workspace(pattern) is not get_workspace(pattern)
        assert workspace_caching_enabled()

    def test_invalidate_drops_workspace(self, pattern):
        ws = get_workspace(pattern)
        assert invalidate_workspace(pattern)
        assert not invalidate_workspace(pattern)  # already gone
        assert get_workspace(pattern) is not ws

    def test_repeated_forwards_hit_cache(self, pattern, rng):
        clear_workspace_stats()
        arrays = [a.data for a in qkv(rng, pattern.seq_len)]
        run_attention(pattern, arrays)
        run_attention(pattern, arrays)
        stats = workspace_cache_stats()
        assert stats.misses == 1 and stats.hits >= 1


class TestBitwiseIdentity:
    def test_output_and_grads_identical_cache_on_off(self, pattern, rng):
        arrays = [a.data for a in qkv(rng, pattern.seq_len)]
        with workspace_caching(True):
            on = run_attention(pattern, arrays)
            on2 = run_attention(pattern, arrays)  # cached-workspace rerun
        invalidate_workspace(pattern)
        with workspace_caching(False):
            off = run_attention(pattern, arrays)
        for a, a2, b in zip(on, on2, off):
            assert np.array_equal(a, a2)
            assert np.array_equal(a, b)

    def test_identity_with_bias(self, pattern, rng):
        arrays = [a.data for a in qkv(rng, pattern.seq_len)]
        arrays.append(rng.standard_normal((H, pattern.num_entries)))
        with workspace_caching(True):
            on = run_attention(pattern, arrays, with_bias=True)
        invalidate_workspace(pattern)
        with workspace_caching(False):
            off = run_attention(pattern, arrays, with_bias=True)
        for a, b in zip(on, off):
            assert np.array_equal(a, b)

    def test_identity_after_ecr_reformation(self, rng):
        """ECR emits a new pattern; its workspace must be fresh + identical."""
        g, _ = dc_sbm(160, 4, 10.0, rng)
        ro = cluster_reorder(g, 4, seed=0)
        base = topology_pattern(ro.graph)
        r1 = reform_pattern(base, ro.bounds, beta_thre=0.05, db=4)
        r2 = reform_pattern(base, ro.bounds, beta_thre=0.8, db=4)  # re-reform
        arrays = [a.data for a in qkv(rng, base.seq_len)]
        for reformed in (r1, r2):
            with workspace_caching(True):
                on = run_attention(reformed.pattern, arrays)
            invalidate_workspace(reformed.pattern)
            with workspace_caching(False):
                off = run_attention(reformed.pattern, arrays)
            for a, b in zip(on, off):
                assert np.array_equal(a, b)
        # the two reformations must not share derived state
        assert get_workspace(r1.pattern) is not get_workspace(r2.pattern)

    def test_engine_refresh_invalidates_stale_workspace(self, rng):
        """TorchGT's refresh() drops the superseded reformed workspace."""
        from repro.core import TorchGTEngine
        g, _ = dc_sbm(200, 4, 10.0, rng)
        eng = TorchGTEngine(num_layers=2, hidden_dim=16, use_elastic=True)
        ctx = eng.prepare_graph(g)
        assert ctx.reformed is not None
        old_pattern = ctx.reformed.pattern
        get_workspace(old_pattern)  # populate the cache
        # force the autotuner to a new beta so refresh re-reforms
        eng.autotuner.schedule.up()
        eng.autotuner.schedule.up()
        ctx = eng.refresh(ctx)
        assert old_pattern.__dict__.get("_cached_workspace") is None


class TestKernelEquivalenceUnderCache:
    def test_sparse_matches_dense_with_cache(self, rng):
        """End-to-end sanity: cached sparse == dense on the full pattern."""
        from repro.attention import dense_attention, full_pattern
        s = 24
        q, k, v = qkv(rng, s)
        pat = full_pattern(s)
        with workspace_caching(True):
            o_sparse = sparse_attention(q, k, v, pat)
            o_sparse2 = sparse_attention(q, k, v, pat)
        o_dense = dense_attention(q, k, v)
        np.testing.assert_allclose(o_sparse.data, o_dense.data, atol=1e-5)
        assert np.array_equal(o_sparse.data, o_sparse2.data)

    def test_window_pattern_roundtrip(self, rng):
        pat = window_pattern(40, 3)
        arrays = [a.data for a in qkv(rng, 40)]
        with workspace_caching(True):
            on = run_attention(pat, arrays)
        invalidate_workspace(pat)
        with workspace_caching(False):
            off = run_attention(pat, arrays)
        for a, b in zip(on, off):
            assert np.array_equal(a, b)
