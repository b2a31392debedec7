"""Standard (fully-connected) multi-head attention — the GP-Raw kernel.

Materializes the full S×S score matrix, exactly as the vanilla graph
transformer implementations the paper calls GP-Raw do.  This is the
O(N²)-memory baseline that OOMs on every large dataset in Table V.

Implemented as a single fused autograd op: forward keeps the probability
matrix, backward applies the standard attention gradient identities
(dV = Pᵀ dO, dP = dO Vᵀ, dS = P ∘ (dP − rowsum(dO ∘ O)), dQ = dS K,
dK = dSᵀ Q).  Every contraction over an S×S operand is a batched
``np.matmul`` on ``swapaxes`` views, so it runs as one BLAS GEMM per head.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor.functional import workspace_buffer as _buf
from .registry import register_kernel
from .stats import AttentionStats, collector

__all__ = ["dense_attention", "dense_attention_forward"]


def dense_attention_forward(
    qd: np.ndarray,
    kd: np.ndarray,
    vd: np.ndarray,
    bias: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    scale: float | None = None,
    ws: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-only dense attention over raw ``(H, S, dh)`` arrays.

    Returns ``(out, p)`` where ``p`` is the probability matrix the
    backward pass needs.  Shared by :func:`dense_attention` and the
    compiled backend: with a workspace dict the six S×S-sized temporaries
    collapse into one persistent scores/probability buffer, and every
    in-place step is bitwise-identical to the composed expression.
    """
    H, S, dh = qd.shape
    if scale is None:
        scale = 1.0 / float(np.sqrt(dh))
    scores = _buf(ws, "att_scores", (H, S, S), np.result_type(qd, kd))
    np.matmul(qd, kd.swapaxes(-1, -2), out=scores)
    np.multiply(scores, scale, out=scores)
    if bias is not None:
        if np.result_type(scores.dtype, bias.dtype) == scores.dtype:
            np.add(scores, bias, out=scores)
        else:
            scores = scores + bias
    if mask is not None:
        scores = np.where(mask[None, :, :], scores, -1e30)
    mx = _buf(ws, "att_mx", (H, S, 1), scores.dtype)
    np.amax(scores, axis=-1, keepdims=True, out=mx)
    np.subtract(scores, mx, out=scores)
    np.exp(scores, out=scores)
    p = scores
    if mask is not None:
        p = p * mask[None, :, :]
    np.sum(p, axis=-1, keepdims=True, out=mx)
    np.maximum(mx, 1e-30, out=mx)
    np.divide(p, mx, out=p)
    out = _buf(ws, "att_out", qd.shape, np.result_type(p.dtype, vd.dtype))
    np.matmul(p, vd, out=out)
    return out, p


def dense_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Tensor | None = None,
    mask: np.ndarray | None = None,
    scale: float | None = None,
) -> Tensor:
    """Softmax(Q Kᵀ · scale + bias) V over shape ``(H, S, dh)`` inputs.

    Parameters
    ----------
    q, k, v:
        ``(H, S, dh)`` tensors.
    bias:
        Optional additive attention bias, ``(H, S, S)`` or ``(1, S, S)``
        (Graphormer's SPD bias).  Gradients flow into it.
    mask:
        Optional boolean ``(S, S)``; False entries are excluded from the
        softmax (used to emulate pattern attention with the dense kernel).
    scale:
        Defaults to ``1/sqrt(dh)``.
    """
    H, S, dh = q.shape
    if scale is None:
        scale = 1.0 / float(np.sqrt(dh))

    parents: list[Tensor] = [q, k, v]
    if bias is not None:
        parents.append(bias)
    out_data, p = dense_attention_forward(
        q.data, k.data, v.data,
        bias=bias.data if bias is not None else None,
        mask=mask, scale=scale)

    def backward(g):
        # rowsum(dP ∘ P) == rowsum(dO ∘ O), an (H, S) pass instead of S×S
        delta = np.einsum("hid,hid->hi", g, out_data)
        ds = np.matmul(g, v.data.swapaxes(-1, -2))  # dP, then dS in place
        np.subtract(ds, delta[:, :, None], out=ds)
        np.multiply(ds, p, out=ds)
        if v.requires_grad:
            v._accumulate(np.matmul(p.swapaxes(-1, -2), g))
        if q.requires_grad:
            q._accumulate(np.matmul(ds, k.data) * scale)
        if k.requires_grad:
            k._accumulate(np.matmul(ds.swapaxes(-1, -2), q.data) * scale)
        if bias is not None and bias.requires_grad:
            gb = ds if bias.data.shape[0] == H else ds.sum(axis=0, keepdims=True)
            bias._accumulate(gb)

    itemsize = q.data.itemsize
    collector.add(AttentionStats(
        kind="dense", seq_len=S, num_heads=H, head_dim=dh,
        scores_computed=H * S * S,
        flops=4 * H * S * S * dh,
        # naive kernel round-trips the S×S scores through memory ~3 times
        regular_bytes=itemsize * H * S * (3 * S + 3 * dh),
        irregular_bytes=0,
    ))
    # masked dense attention is not lowered, so it stays unnamed
    return Tensor._make(out_data, parents, backward,
                        op="dense_attention" if mask is None else None,
                        scale=scale, has_bias=bias is not None)


register_kernel(
    "dense",
    lambda q, k, v, *, pattern=None, bias=None, **kw:
        dense_attention(q, k, v, bias=bias, **kw),
    supports_bias=True, needs_pattern=False, trainable=True, exact=True,
    complexity="O(S²·d)", attention_kind="dense", bias_format="dense",
    description="Fully-connected attention with materialized S×S scores "
                "(GP-Raw)")
