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
  scipy's C sparsetools CSR routine, per head, without building a
  ``csr_matrix``.

All pattern-derived state — the expanded row index, segment boundaries,
int32 CSR index arrays, the transpose permutation — comes from a
:class:`~repro.attention.workspace.PatternWorkspace`, memoized per pattern
so repeated forwards across layers/iterations skip the reconstruction
entirely (see :mod:`repro.attention.workspace`).  Every temporary comes
from the calling thread's scratch arena (one per thread, shared by all
patterns), so a warm call on the same pattern allocates only the arrays that escape it: ``out`` and ``P`` in the
forward, nothing in the backward beyond what ``Tensor._accumulate``
copies into ``.grad``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor.functional import workspace_buffer as _buf
from .patterns import AttentionPattern
from .registry import register_kernel
from .stats import AttentionStats, collector
from .workspace import (PatternWorkspace, get_workspace, scratch_arena,
                        segment_reduce_core)

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
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-only pattern-restricted attention on raw arrays.

    Returns ``(out, p)``; shared by :func:`sparse_attention` and the
    compiled backend.  The gathered Q/K copies and the scores live in
    the calling thread's scratch arena.  Without a workspace
    dict ``out`` and ``p`` are fresh, since the autograd op keeps both;
    with one ``out`` persists in it and ``p`` is arena scratch too.
    """
    H, S, dh = qd.shape
    if scale is None:
        scale = 1.0 / float(np.sqrt(dh))
    arena = scratch_arena()
    E = pattern_ws.num_entries
    qg = _buf(arena, "qg", (H, E, dh), qd.dtype)
    kg = _buf(arena, "kg", (H, E, dh), kd.dtype)
    # clip mode writes straight into the buffer (the pattern's indices
    # are in range); "raise" gathers into a temporary and copies
    np.take(qd, pattern_ws.rows, axis=1, out=qg, mode="clip")
    np.take(kd, pattern_ws.cols, axis=1, out=kg, mode="clip")
    scores = _buf(arena, "scores", (H, E), np.result_type(qd, kd))
    np.einsum("hed,hed->he", qg, kg, out=scores)
    np.multiply(scores, scale, out=scores)
    if bias is not None:
        dtype = np.result_type(scores, bias)
        biased = scores if dtype == scores.dtype \
            else _buf(arena, "biased", (H, E), dtype)
        scores = np.add(scores, bias, out=biased)
    p = None if ws is None else _buf(arena, "p", (H, E),
                                     np.result_type(scores, np.float64))
    p = pattern_ws.segment_softmax(scores, p)
    out = pattern_ws.matmul(p, vd, _buf(ws, "sp_out", qd.shape, qd.dtype))
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
    E = ws.num_entries

    parents: list[Tensor] = [q, k, v]
    if bias is not None:
        parents.append(bias)
    out_data, p = sparse_attention_forward(
        q.data, k.data, v.data, ws,
        bias=bias.data if bias is not None else None, scale=scale)

    def backward(g):
        # Every gradient below is arena scratch: Tensor._accumulate
        # copies or adds it into .grad and never keeps the array.
        arena = scratch_arena()
        # dV_h = A_hᵀ dO_h
        if v.requires_grad:
            v._accumulate(ws.matmul(
                p, g, _buf(arena, "grad", v.shape, v.data.dtype), transpose=True))
        # d p_e = dO[row_e] · V[col_e]
        gg = _buf(arena, "qg", (H, E, dh), g.dtype)
        vg = _buf(arena, "kg", (H, E, dh), v.data.dtype)
        np.take(g, ws.rows, axis=1, out=gg, mode="clip")
        np.take(v.data, ws.cols, axis=1, out=vg, mode="clip")
        dp = _buf(arena, "scores", (H, E), np.result_type(g, v.data))
        np.einsum("hed,hed->he", gg, vg, out=dp)
        # softmax backward per row segment: ds = p ∘ (dp − Σ_row dp ∘ p),
        # in one (H, E) buffer
        ds = _buf(arena, "seg_rows", (H, E), np.result_type(dp, p))
        np.multiply(dp, p, out=ds)
        ws.gather_rows(ws.segment_sum(ds), out=ds)
        np.subtract(dp, ds, out=ds)
        np.multiply(p, ds, out=ds)
        if bias is not None and bias.requires_grad:
            bias._accumulate(ds if bias.data.shape[0] == H
                             else ds.sum(axis=0, keepdims=True))
        if q.requires_grad:
            q._accumulate(ws.matmul(
                ds, k.data, _buf(arena, "grad", q.shape, q.data.dtype),
                scale=scale))
        if k.requires_grad:
            k._accumulate(ws.matmul(
                ds, q.data, _buf(arena, "grad", k.shape, k.data.dtype),
                transpose=True, scale=scale))

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
