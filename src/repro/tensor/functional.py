"""Fused differentiable functions on :class:`~repro.tensor.Tensor`.

Softmax, layer norm, GELU, dropout and the loss functions used by the
graph transformer models are implemented here as *fused* ops: each has a
hand-written backward instead of being composed from primitives, which both
cuts graph depth (important for the long-sequence experiments) and mirrors
how the paper's kernels treat Softmax/Dropout as single fused GPU kernels.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "workspace_buffer",
    "softmax",
    "softmax_forward",
    "log_softmax",
    "masked_softmax",
    "gelu",
    "gelu_forward",
    "layer_norm",
    "layer_norm_forward",
    "dropout",
    "embedding_lookup",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "l1_loss",
    "mse_loss",
]


def workspace_buffer(ws: dict | None, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Fetch (or lazily create) a reusable scratch buffer.

    ``ws`` is a per-call-site dict owned by the caller; ``None`` means "no
    workspace", which degrades to a fresh ``np.empty`` — the behaviour the
    plain autograd ops want, since their outputs escape the call.  When a
    workspace is supplied, the buffer persists across calls and is only
    reallocated when the requested shape or dtype changes (e.g. a new
    sequence-length bucket), so steady-state use allocates nothing.
    """
    if ws is None:
        return np.empty(shape, dtype)
    buf = ws.get(key)
    if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
        buf = np.empty(shape, dtype)
        ws[key] = buf
    return buf


_buf = workspace_buffer


def softmax_forward(x: np.ndarray, axis: int = -1,
                    ws: dict | None = None) -> np.ndarray:
    """Out=-capable softmax forward shared by :func:`softmax` and the
    compiled backend; bitwise-identical to the composed expression."""
    red_shape = tuple(1 if i == axis % x.ndim else s for i, s in enumerate(x.shape))
    mx = _buf(ws, "sm_mx", red_shape, x.dtype)
    np.amax(x, axis=axis, keepdims=True, out=mx)
    out = _buf(ws, "sm_out", x.shape, x.dtype)
    np.subtract(x, mx, out=out)
    np.exp(out, out=out)
    np.sum(out, axis=axis, keepdims=True, out=mx)
    np.divide(out, mx, out=out)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis`` with fused backward."""
    a = x
    out_data = softmax_forward(a.data, axis=axis)

    def backward(g):
        if a.requires_grad:
            # d softmax: s * (g - sum(g * s))
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (a,), backward, op="softmax", axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed stably with fused backward."""
    a = x
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (a,), backward)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over the entries where ``mask`` is True; zeros elsewhere.

    Rows with no unmasked entry produce all-zero outputs (and gradients),
    matching the convention sparse attention kernels use for isolated
    nodes.
    """
    a = x
    neg = np.float64(-1e30)
    masked = np.where(mask, a.data, neg)
    shifted = masked - masked.max(axis=axis, keepdims=True)
    e = np.exp(shifted) * mask
    denom = e.sum(axis=axis, keepdims=True)
    safe = np.maximum(denom, 1e-30)
    out_data = e / safe

    def backward(g):
        if a.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (a,), backward)


_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def gelu_forward(x: np.ndarray, ws: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Out=-capable GELU forward returning ``(out, tanh_term)``.

    Three scratch buffers replace the ~8 intermediates the composed
    expression allocates; every in-place step is bitwise-identical to the
    out-of-place original (only commutative operand swaps are used).
    """
    u = _buf(ws, "gelu_u", x.shape, x.dtype)
    t = _buf(ws, "gelu_t", x.shape, x.dtype)
    out = _buf(ws, "gelu_out", x.shape, x.dtype)
    np.power(x, 3, out=u)
    np.multiply(u, 0.044715, out=u)
    np.add(x, u, out=u)
    np.multiply(u, _SQRT_2_OVER_PI, out=u)
    np.tanh(u, out=t)
    np.add(t, 1.0, out=out)
    np.multiply(x, 0.5, out=u)
    np.multiply(u, out, out=out)
    return out, t


def gelu(x: Tensor) -> Tensor:
    """GELU activation (tanh approximation, as used by Graphormer)."""
    a = x
    out_data, t = gelu_forward(a.data)

    def backward(g):
        if a.requires_grad:
            du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * a.data**2)
            dt = (1.0 - t * t) * du
            a._accumulate(g * (0.5 * (1.0 + t) + 0.5 * a.data * dt))

    return Tensor._make(out_data, (a,), backward, op="gelu")


def layer_norm_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                       eps: float = 1e-5, ws: dict | None = None,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Out=-capable layer-norm forward returning ``(out, x_hat, inv_std)``.

    Shared by :func:`layer_norm` and the compiled backend.  Each in-place
    step reproduces the composed expression bitwise; ``x_hat`` reuses the
    centred-input buffer and ``inv_std`` the variance buffer.
    """
    red_shape = x.shape[:-1] + (1,)
    mu = _buf(ws, "ln_mu", red_shape, x.dtype)
    np.mean(x, axis=-1, keepdims=True, out=mu)
    xc = _buf(ws, "ln_xc", x.shape, x.dtype)
    np.subtract(x, mu, out=xc)
    sq = _buf(ws, "ln_sq", x.shape, x.dtype)
    np.multiply(xc, xc, out=sq)
    var = _buf(ws, "ln_var", red_shape, x.dtype)
    np.mean(sq, axis=-1, keepdims=True, out=var)
    np.add(var, eps, out=var)
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=var)  # var buffer now holds inv_std
    np.multiply(xc, var, out=xc)  # xc buffer now holds x_hat
    out = _buf(ws, "ln_out", x.shape, np.result_type(x.dtype, w.dtype, b.dtype))
    np.multiply(xc, w, out=out)
    np.add(out, b, out=out)
    return out, xc, var


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine transform."""
    a, w, b = x, weight, bias
    out_data, x_hat, inv_std = layer_norm_forward(a.data, w.data, b.data, eps)

    def backward(g):
        if w.requires_grad:
            axes = tuple(range(g.ndim - 1))
            w._accumulate((g * x_hat).sum(axis=axes))
        if b.requires_grad:
            axes = tuple(range(g.ndim - 1))
            b._accumulate(g.sum(axis=axes))
        if a.requires_grad:
            gx = g * w.data
            mean_gx = gx.mean(axis=-1, keepdims=True)
            mean_gx_xhat = (gx * x_hat).mean(axis=-1, keepdims=True)
            a._accumulate(inv_std * (gx - mean_gx - x_hat * mean_gx_xhat))

    return Tensor._make(out_data, (a, w, b), backward, op="layer_norm", eps=eps)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) at train time."""
    if not training or p <= 0.0:
        return x
    a = x
    keep = 1.0 - p
    mask = (rng.random(a.data.shape) < keep) / keep

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor._make(a.data * mask, (a,), backward)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``table`` at integer ``indices`` (scatter-add bwd)."""
    t = table
    idx = np.asarray(indices)

    def backward(g):
        if t.requires_grad:
            buf = np.zeros_like(t.data)
            np.add.at(buf, idx.reshape(-1), g.reshape(-1, t.data.shape[-1]))
            t._accumulate(buf)

    return Tensor._make(t.data[idx], (t,), backward, op="embedding", indices=idx)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: int | None = None) -> Tensor:
    """Mean cross-entropy over rows of ``logits`` against int ``targets``.

    Rows whose target equals ``ignore_index`` contribute neither loss nor
    gradient (used to skip padded / unlabeled nodes).
    """
    a = logits
    targets = np.asarray(targets)
    n, _ = a.data.shape
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    if ignore_index is not None:
        valid = targets != ignore_index
    else:
        valid = np.ones(n, dtype=bool)
    count = max(int(valid.sum()), 1)
    safe_targets = np.where(valid, targets, 0)
    picked = logp[np.arange(n), safe_targets]
    loss_val = -(picked * valid).sum() / count
    soft = np.exp(logp)

    def backward(g):
        if a.requires_grad:
            grad = soft.copy()
            grad[np.arange(n), safe_targets] -= 1.0
            grad *= (valid / count)[:, None]
            a._accumulate(grad * g)

    return Tensor._make(np.asarray(loss_val), (a,), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                                     mask: np.ndarray | None = None) -> Tensor:
    """Mean BCE-with-logits, optionally masked (multi-task molpcba-style)."""
    a = logits
    y = np.asarray(targets, dtype=np.float64)
    if mask is None:
        mask = np.ones_like(y, dtype=bool)
    count = max(int(mask.sum()), 1)
    z = a.data
    # stable formulation: max(z,0) - z*y + log(1+exp(-|z|))
    loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss_val = (loss * mask).sum() / count
    sig = 1.0 / (1.0 + np.exp(-z))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (sig - y) * mask / count)

    return Tensor._make(np.asarray(loss_val), (a,), backward)


def l1_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean absolute error (ZINC's MAE objective)."""
    a = pred
    y = np.asarray(targets, dtype=np.float64)
    diff = a.data - y
    count = diff.size

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * np.sign(diff) / count)

    return Tensor._make(np.asarray(np.abs(diff).mean()), (a,), backward)


def mse_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error."""
    a = pred
    y = np.asarray(targets, dtype=np.float64)
    diff = a.data - y
    count = diff.size

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 2.0 * diff / count)

    return Tensor._make(np.asarray((diff * diff).mean()), (a,), backward)
