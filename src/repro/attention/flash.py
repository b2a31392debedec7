"""Tiled online-softmax attention — the FlashAttention stand-in (GP-Flash).

Computes exactly the same function as :func:`dense_attention` but never
materializes the S×S score matrix: the key/value sequence is processed in
tiles with the online softmax recurrence (running max m, running denominator
l, rescaled accumulator).  The backward pass recomputes per-tile
probabilities from the saved row statistics, mirroring the real
FlashAttention algorithm's recomputation strategy.  Each per-tile
contraction is a batched ``np.matmul`` (one BLAS GEMM per head).

Every temporary comes from the calling thread's scratch arena
(:func:`~repro.attention.workspace.scratch_arena`) under a ``flash_``
name: one flat buffer per name, of which each tile views a contiguous
prefix, so the ragged last tile reallocates nothing.  Every pass writes
with ``out=``, and a tile-sized pass that mixes a float32 operand with
float64 ones first upcasts that operand into an arena buffer (exact)
instead of letting numpy cast it through its own buffers.  A warm
forward allocates only what escapes it — ``out``, ``m`` and ``safe_l``
— and a warm backward only the gradients.

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

from math import prod

import numpy as np

from ..tensor import Tensor
from ..tensor.functional import workspace_buffer as _buf
from .registry import register_kernel
from .stats import AttentionStats, collector
from .workspace import scratch_arena

__all__ = ["flash_attention", "flash_forward"]

_F64 = np.dtype(np.float64)


def _tile(arena: dict, name: str, size: int, shape: tuple[int, ...],
          dtype) -> np.ndarray:
    """``shape`` viewed on the prefix of the flat arena buffer ``name``.

    The buffer holds ``size`` elements, a full tile's, so the ragged last
    tile views a shorter prefix of it and reallocates nothing.
    """
    return _buf(arena, name, (size,), dtype)[:prod(shape)].reshape(shape)


def _f64(arena: dict, name: str, a: np.ndarray, size: int) -> np.ndarray:
    """``a`` itself when it is float64, else its exact upcast in ``name``.

    The pass that follows then runs in float64 in place, on operands of
    one dtype, where numpy would otherwise cast through its own buffers.
    """
    if a.dtype == _F64:
        return a
    up = _tile(arena, name, size, a.shape, _F64)
    np.copyto(up, a)
    return up


def _scores(arena, qd, kd, j0, j1, scale, size, dtype) -> np.ndarray:
    """One key tile's scaled scores ``(Q Kᵀ) · scale``, in ``dtype``."""
    H, S, _ = qd.shape
    s = _tile(arena, "flash_s", size, (H, S, j1 - j0), dtype)
    np.matmul(qd, kd[:, j0:j1].swapaxes(-1, -2), out=s)
    # the scale rounded to s's dtype, as numpy rounds a Python float for
    # a float32 array; passed as a float, it is cast through buffers
    return np.multiply(s, dtype.type(scale), out=s)


def _shifted_exp(arena, s, m, size) -> np.ndarray:
    """``exp(s − m)`` of one tile, float64, in place of ``s`` or its upcast."""
    p = _f64(arena, "flash_p", s, size)
    np.subtract(p, m[:, :, None], out=p)
    return np.exp(p, out=p)


def flash_forward(
    qd: np.ndarray,
    kd: np.ndarray,
    vd: np.ndarray,
    scale: float | None = None,
    tile_size: int = 128,
    ws: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-only tiled online-softmax attention on raw arrays.

    Returns ``(out, m, safe_l)`` — the (float64) output plus the running
    row-max and safe denominator the backward recomputation needs.
    Shared by :func:`flash_attention` and the compiled backend.  Without
    a workspace dict the three are fresh, since the autograd op keeps
    them; with one they persist in it.  Every tile temporary is arena
    scratch either way.
    """
    H, S, dh = qd.shape
    if scale is None:
        scale = 1.0 / float(np.sqrt(dh))
    arena = scratch_arena()
    size = H * S * min(tile_size, S)
    sdt = np.result_type(qd, kd, scale)
    tile_max = _buf(arena, "flash_tile_max", (H, S), sdt)
    m_new = _buf(arena, "flash_m_new", (H, S), _F64)
    correction = _buf(arena, "flash_correction", (H, S), _F64)
    rowsum = _buf(arena, "flash_rowsum", (H, S), _F64)
    pv = _buf(arena, "flash_pv", (H, S, dh), _F64)
    v64 = _f64(arena, "flash_v64", vd, vd.size)

    out = _buf(ws, "flash_out", (H, S, dh), _F64)
    out.fill(0.0)
    m = _buf(ws, "flash_m", (H, S), _F64)  # running row max
    m.fill(-np.inf)
    l = _buf(ws, "flash_l", (H, S), _F64)  # running softmax denominator
    l.fill(0.0)
    for j0 in range(0, S, tile_size):
        j1 = min(j0 + tile_size, S)
        s = _scores(arena, qd, kd, j0, j1, scale, size, sdt)
        np.maximum(m, np.amax(s, axis=-1, out=tile_max), out=m_new)
        np.exp(np.subtract(m, m_new, out=correction), out=correction)
        np.copyto(m, m_new)
        p = _shifted_exp(arena, s, m, size)
        np.multiply(l, correction, out=l)
        np.add(l, np.sum(p, axis=-1, out=rowsum), out=l)
        np.multiply(out, correction[:, :, None], out=out)
        np.add(out, np.matmul(p, v64[:, j0:j1], out=pv), out=out)
    safe_l = np.maximum(l, 1e-30, out=l)
    np.divide(out, safe_l[:, :, None], out=out)
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
        # Every buffer below is arena scratch: the tiles' dK / dV are added
        # into .grad and Tensor._accumulate copies dQ, so only gradients
        # escape.
        arena = scratch_arena()
        size = H * S * min(tile_size, S)
        sdt = np.result_type(qd, kd, scale)
        dpt = np.result_type(g, vd)
        # delta_i = rowsum(dO ∘ O) — the standard flash backward statistic
        delta = np.einsum("hid,hid->hi", g, out_final,
                          out=_buf(arena, "flash_delta", (H, S), _F64))
        g64 = _f64(arena, "flash_g64", g, g.size)
        # dP = dO Vᵀ in the dtype of its operands; float64 ones upcast once
        gp, vp = (g64, _f64(arena, "flash_v64", vd, vd.size)) \
            if dpt == _F64 else (g, vd)
        kv_size = H * min(tile_size, S) * dh
        if k.requires_grad:
            q64 = _f64(arena, "flash_q64", qd, qd.size)
        dq = None
        if q.requires_grad:
            k64 = _f64(arena, "flash_k64", kd, kd.size)
            dq = _buf(arena, "flash_dq", qd.shape, qd.dtype)
            dq.fill(0)
            dq_tile = _buf(arena, "flash_dq_tile", (H, S, dh), _F64)
        for j0 in range(0, S, tile_size):
            j1 = min(j0 + tile_size, S)
            t = j1 - j0
            s = _scores(arena, qd, kd, j0, j1, scale, size, sdt)
            p = _shifted_exp(arena, s, m, size)
            np.divide(p, safe_l[:, :, None], out=p)
            dp = _tile(arena, "flash_dp", size, (H, S, t), dpt)
            np.matmul(gp, vp[:, j0:j1].swapaxes(-1, -2), out=dp)
            # dS = P ∘ (dP − delta), in place of dP or its upcast
            ds = _f64(arena, "flash_ds", dp, size)
            np.subtract(ds, delta[:, :, None], out=ds)
            np.multiply(p, ds, out=ds)
            if v.requires_grad:
                dv = _tile(arena, "flash_dkv", kv_size, (H, t, dh), _F64)
                np.matmul(p.swapaxes(-1, -2), g64, out=dv)
                _accumulate_slice(v, j0, j1, dv)
            if k.requires_grad:
                dk = _tile(arena, "flash_dkv", kv_size, (H, t, dh), _F64)
                np.matmul(ds.swapaxes(-1, -2), q64, out=dk)
                _accumulate_slice(k, j0, j1, np.multiply(dk, scale, out=dk))
            if dq is not None:
                np.matmul(ds, k64[:, j0:j1], out=dq_tile)
                np.add(dq, np.multiply(dq_tile, scale, out=dq_tile), out=dq)
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
