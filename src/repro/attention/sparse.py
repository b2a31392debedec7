"""Topology-induced sparse attention (the GP-Sparse kernel).

Evaluates attention scores only at the entries of an
:class:`~repro.attention.patterns.AttentionPattern`: complexity O(Ẽ·d)
instead of O(S²·d).  The per-edge gathers this requires are exactly the
irregular memory accesses §II-C's Table II measures; the kernel reports
them as ``irregular_bytes`` so the hardware model can price them.

Vectorization strategy (no Python loop over edges):

* scores per entry via a gathered einsum over (src, dst) index arrays;
* row-wise softmax via ``np.maximum.reduceat`` / segment sums over the CSR
  row pointer;
* the weighted aggregation and all matrix-shaped backward products via
  per-head ``scipy.sparse`` CSR matmuls, which are C-speed.

All pattern-derived state — the expanded row index, segment boundaries,
int32 CSR index arrays, the transpose permutation — comes from a
:class:`~repro.attention.workspace.PatternWorkspace`, memoized per pattern
so repeated forwards across layers/iterations skip the reconstruction
entirely (see :mod:`repro.attention.workspace`).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor.functional import workspace_buffer as _buf
from .patterns import AttentionPattern
from .registry import register_kernel
from .stats import AttentionStats, collector
from .workspace import PatternWorkspace, get_workspace, segment_reduce_core

__all__ = ["sparse_attention", "sparse_attention_forward", "segment_softmax"]


def _segment_reduce(values: np.ndarray, indptr: np.ndarray, ufunc,
                    empty_val: float) -> np.ndarray:
    """Per-row ``ufunc`` reduction of CSR-ordered ``values``.

    Standalone entry point: derives the segment descriptors from
    ``indptr`` and defers to the shared
    :func:`~repro.attention.workspace.segment_reduce_core` (which a
    :class:`~repro.attention.workspace.PatternWorkspace` calls with its
    cached descriptors) so the two paths cannot diverge.
    """
    counts = np.diff(indptr)
    nonempty = counts > 0
    return segment_reduce_core(values, ufunc, empty_val,
                               counts, nonempty, indptr[:-1][nonempty])


def _segment_max(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row max of CSR-ordered ``values`` (last axis = entries)."""
    return _segment_reduce(values, indptr, np.maximum, -np.inf)


def _segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sum of CSR-ordered ``values``."""
    return _segment_reduce(values, indptr, np.add, 0.0)


def segment_softmax(scores: np.ndarray, indptr: np.ndarray,
                    rows: np.ndarray) -> np.ndarray:
    """Softmax over CSR row segments; ``scores`` shape (..., E).

    Standalone (workspace-free) variant for callers that bring their own
    indptr/rows — the GNN message passing and the distributed kernels.
    The attention hot path uses the cached
    :meth:`~repro.attention.workspace.PatternWorkspace.segment_softmax`.
    """
    row_max = _segment_max(scores, indptr)
    shifted = scores - row_max[..., rows]
    e = np.exp(shifted)
    denom = _segment_sum(e, indptr)
    return e / np.maximum(denom[..., rows], 1e-30)


def sparse_attention_forward(
    qd: np.ndarray,
    kd: np.ndarray,
    vd: np.ndarray,
    pattern_ws: PatternWorkspace,
    bias: np.ndarray | None = None,
    scale: float | None = None,
    ws: dict | None = None,
    scores_fn=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-only pattern-restricted attention on raw arrays.

    Returns ``(out, p)``; shared by :func:`sparse_attention` and the
    compiled backend.  With a workspace dict the gathered Q/K copies and
    the per-entry score vector become persistent buffers.  ``scores_fn``
    optionally replaces the gathered-einsum score computation (the numba
    JIT hook); it receives ``(qg, kg, out)`` and must fill ``out`` with
    the per-entry dot products.
    """
    H, S, dh = qd.shape
    if scale is None:
        scale = 1.0 / float(np.sqrt(dh))
    rows, cols = pattern_ws.rows, pattern_ws.cols
    E = pattern_ws.num_entries
    qg = _buf(ws, "sp_qg", (H, E, dh), qd.dtype)
    kg = _buf(ws, "sp_kg", (H, E, dh), kd.dtype)
    np.take(qd, rows, axis=1, out=qg)
    np.take(kd, cols, axis=1, out=kg)
    scores = _buf(ws, "sp_scores", (H, E), np.result_type(qd, kd))
    if scores_fn is not None:
        scores_fn(qg, kg, scores)
    else:
        np.einsum("hed,hed->he", qg, kg, out=scores)
    np.multiply(scores, scale, out=scores)
    if bias is not None:
        if np.result_type(scores.dtype, bias.dtype) == scores.dtype:
            np.add(scores, bias, out=scores)
        else:
            scores = scores + bias
    p = pattern_ws.segment_softmax(scores)  # (H, E)
    out = _buf(ws, "sp_out", qd.shape, qd.dtype)
    for h in range(H):
        out[h] = pattern_ws.matmul(p[h], vd[h])
    return out, p


def sparse_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    pattern: AttentionPattern,
    bias: Tensor | None = None,
    scale: float | None = None,
    workspace: PatternWorkspace | None = None,
) -> Tensor:
    """Pattern-restricted attention over ``(H, S, dh)`` inputs.

    ``bias`` may be a per-entry tensor of shape ``(H, E)`` or ``(1, E)``
    (Graphormer's SPD bias gathered at the pattern entries); gradients flow
    into it.  Rows with no pattern entries produce zero output.
    ``workspace`` overrides the cached pattern workspace (rarely needed —
    the default consults the global cache).
    """
    H, S, dh = q.shape
    if S != pattern.seq_len:
        raise ValueError(f"pattern is for seq_len={pattern.seq_len}, inputs have S={S}")
    if scale is None:
        scale = 1.0 / float(np.sqrt(dh))

    ws = workspace if workspace is not None else get_workspace(pattern)
    rows = ws.rows
    cols = ws.cols
    E = ws.num_entries

    parents: list[Tensor] = [q, k, v]
    if bias is not None:
        parents.append(bias)
    out_data, p = sparse_attention_forward(
        q.data, k.data, v.data, ws,
        bias=bias.data if bias is not None else None, scale=scale)

    def backward(g):
        # dV_h = A_hᵀ dO_h
        if v.requires_grad:
            dv = np.empty_like(v.data)
            for h in range(H):
                dv[h] = ws.matmul_t(p[h], g[h])
            v._accumulate(dv)
        # d p_e = dO[row_e] · V[col_e]
        dp = np.einsum("hed,hed->he", g[:, rows, :], v.data[:, cols, :])
        # softmax backward per row segment
        dot = ws.segment_sum(dp * p)  # (H, S)
        ds = p * (dp - dot[:, rows])  # (H, E)
        if bias is not None and bias.requires_grad:
            gb = ds if bias.data.shape[0] == H else ds.sum(axis=0, keepdims=True)
            bias._accumulate(gb)
        if q.requires_grad or k.requires_grad:
            dq = np.zeros_like(q.data) if q.requires_grad else None
            dk = np.zeros_like(k.data) if k.requires_grad else None
            for h in range(H):
                if dq is not None:
                    dq[h] = ws.matmul(ds[h], k.data[h]) * scale
                if dk is not None:
                    dk[h] = ws.matmul_t(ds[h], q.data[h]) * scale
            if dq is not None:
                q._accumulate(dq)
            if dk is not None:
                k._accumulate(dk)

    itemsize = q.data.itemsize
    collector.add(AttentionStats(
        kind="sparse", seq_len=S, num_heads=H, head_dim=dh,
        scores_computed=H * E,
        flops=4 * H * E * dh,
        regular_bytes=itemsize * H * S * dh * 2,  # streaming Q and O
        # every entry gathers a K row and a V row at an arbitrary address
        irregular_bytes=itemsize * H * E * dh * 2,
    ))
    return Tensor._make(out_data, parents, backward, op="sparse_attention",
                        pattern_ws=ws, scale=scale, has_bias=bias is not None)


register_kernel(
    "sparse",
    lambda q, k, v, *, pattern=None, bias=None, **kw:
        sparse_attention(q, k, v, pattern, bias=bias, **kw),
    supports_bias=True, needs_pattern=True, trainable=True, exact=True,
    complexity="O(Ẽ·d)", attention_kind="sparse", bias_format="entries",
    description="Pattern-restricted attention with irregular per-edge "
                "gathers (GP-Sparse)")
