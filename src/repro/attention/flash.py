"""Tiled online-softmax attention — the FlashAttention stand-in (GP-Flash).

Computes exactly the same function as :func:`dense_attention` but never
materializes the S×S score matrix: the key/value sequence is processed in
tiles with the online softmax recurrence (running max m, running denominator
l, rescaled accumulator).  The backward pass recomputes per-tile
probabilities from the saved row statistics, mirroring the real
FlashAttention algorithm's recomputation strategy.

Two behaviours of the real kernel matter for the paper's experiments and
are reproduced:

* **O(S·d) memory** instead of O(S²) — GP-Flash does not OOM where GP-Raw
  does (Table V);
* **no support for additive attention bias** — the paper disables
  Graphormer's bias under FlashAttention (§II-C); we raise if one is
  passed, and models fall back to bias-free attention under this backend;
* under simulated **BF16** the per-tile rounding reproduces the accuracy
  drop of Table VII (the precision policy applies to this op's
  output like any other).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from .registry import register_kernel
from .stats import AttentionStats, collector

__all__ = ["flash_attention", "flash_forward"]


def flash_forward(
    qd: np.ndarray,
    kd: np.ndarray,
    vd: np.ndarray,
    scale: float | None = None,
    tile_size: int = 128,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-only tiled online-softmax attention on raw arrays.

    Returns ``(out, m, safe_l)`` — the (float64) output plus the running
    row-max and safe denominator the backward recomputation needs.
    Shared by :func:`flash_attention` and the compiled backend.
    """
    H, S, dh = qd.shape
    if scale is None:
        scale = 1.0 / float(np.sqrt(dh))
    out = np.zeros_like(qd)
    m = np.full((H, S), -np.inf)  # running row max
    l = np.zeros((H, S))  # running softmax denominator

    for j0 in range(0, S, tile_size):
        j1 = min(j0 + tile_size, S)
        s_tile = np.einsum("hid,hjd->hij", qd, kd[:, j0:j1]) * scale
        tile_max = s_tile.max(axis=-1)
        m_new = np.maximum(m, tile_max)
        correction = np.exp(m - m_new)
        p = np.exp(s_tile - m_new[:, :, None])
        l = l * correction + p.sum(axis=-1)
        out = out * correction[:, :, None] + np.einsum("hij,hjd->hid", p, vd[:, j0:j1])
        m = m_new
    safe_l = np.maximum(l, 1e-30)
    out = out / safe_l[:, :, None]
    return out, m, safe_l


def flash_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float | None = None,
    tile_size: int = 128,
) -> Tensor:
    """Exact attention over ``(H, S, dh)`` inputs in O(S·d) extra memory."""
    H, S, dh = q.shape
    if scale is None:
        scale = 1.0 / float(np.sqrt(dh))

    qd, kd, vd = q.data, k.data, v.data
    out, m, safe_l = flash_forward(qd, kd, vd, scale=scale, tile_size=tile_size)
    out_final = out  # captured for backward's dS identity

    def backward(g):
        # delta_i = rowsum(dO ∘ O) — the standard flash backward statistic
        delta = np.einsum("hid,hid->hi", g, out_final)
        dq = np.zeros_like(qd) if q.requires_grad else None
        for j0 in range(0, S, tile_size):
            j1 = min(j0 + tile_size, S)
            s_tile = np.einsum("hid,hjd->hij", qd, kd[:, j0:j1]) * scale
            p = np.exp(s_tile - m[:, :, None]) / safe_l[:, :, None]
            dp = np.einsum("hid,hjd->hij", g, vd[:, j0:j1])
            ds = p * (dp - delta[:, :, None])
            if v.requires_grad:
                _accumulate_slice(v, j0, j1, np.einsum("hij,hid->hjd", p, g))
            if k.requires_grad:
                _accumulate_slice(k, j0, j1, np.einsum("hij,hid->hjd", ds, qd) * scale)
            if dq is not None:
                dq += np.einsum("hij,hjd->hid", ds, kd[:, j0:j1]) * scale
        if dq is not None:
            q._accumulate(dq)

    itemsize = qd.itemsize
    collector.add(AttentionStats(
        kind="flash", seq_len=S, num_heads=H, head_dim=dh,
        scores_computed=H * S * S,
        flops=4 * H * S * S * dh,
        # IO-aware: only O(S·d) tensors round-trip HBM; tiles live in SRAM
        regular_bytes=itemsize * H * S * dh * 4,
        irregular_bytes=0,
    ))
    return Tensor._make(out, (q, k, v), backward, op="flash_attention",
                        scale=scale, tile_size=tile_size)


def _accumulate_slice(t: Tensor, j0: int, j1: int, grad_slice: np.ndarray) -> None:
    """Accumulate a gradient into rows ``j0:j1`` of ``t``'s grad.

    Helper used by the tiled backward so K/V gradients build up tile by
    tile without allocating a full temporary per tile.
    """
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[:, j0:j1] += grad_slice


register_kernel(
    "flash",
    lambda q, k, v, *, pattern=None, bias=None, **kw:
        flash_attention(q, k, v, **kw),
    supports_bias=False, needs_pattern=False, trainable=True, exact=True,
    complexity="O(S²·d), O(S·d) mem", attention_kind="flash",
    bias_format=None,
    description="Tiled online-softmax attention; rejects bias like the "
                "real FlashAttention kernel (GP-Flash)")
