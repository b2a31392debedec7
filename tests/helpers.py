"""Shared test helpers (importable as ``tests.helpers``).

Kept separate from ``conftest.py`` so test modules can import utilities
explicitly — conftest stays fixtures-only, and ``python -m pytest``
collects cleanly without relying on conftest's import side effects.
"""

import hashlib
import threading
from collections import deque

import numpy as np


def numerical_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar-valued f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def array_sha256(a, dtype=None):
    """Hex sha256 of an array's bytes (after an optional dtype cast)."""
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


def spd_oracle(g, max_dist):
    """Truncated SPD matrix built one source at a time from ``bfs_distances``.

    The reference ``truncated_spd_matrix`` is held to: hops clipped at
    ``max_dist``, unreachable or farther pairs in the ``max_dist + 1`` bucket.
    """
    from repro.graph import bfs_distances

    want = np.full((g.num_nodes, g.num_nodes), max_dist + 1, dtype=np.int16)
    for s in range(g.num_nodes):
        d = bfs_distances(g, s)
        near = (d >= 0) & (d <= max_dist)
        want[s, near] = d[near]
    return want


def dense_attention_einsum(q, k, v, g, bias=None, mask=None):
    """Dense attention forward and backward written with ``np.einsum``.

    The formulation the BLAS kernels in ``repro.attention`` replaced, kept
    as the reference they are held to.  Returns ``(out, dq, dk, dv,
    dbias)`` for the output gradient ``g``; ``dbias`` is None without a
    bias and is reduced over heads for a ``(1, S, S)`` bias.
    """
    scale = 1.0 / float(np.sqrt(q.shape[-1]))
    s = np.einsum("hid,hjd->hij", q, k) * scale
    if bias is not None:
        s = s + bias
    if mask is not None:
        s = np.where(mask[None], s, -1e30)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    if mask is not None:
        e = e * mask[None]
    p = e / np.maximum(e.sum(axis=-1, keepdims=True), 1e-30)
    out = np.einsum("hij,hjd->hid", p, v)
    dp = np.einsum("hid,hjd->hij", g, v)
    ds = p * (dp - np.einsum("hij,hij->hi", dp, p)[:, :, None])
    dbias = None
    if bias is not None:
        dbias = ds if bias.shape[0] == q.shape[0] else ds.sum(axis=0, keepdims=True)
    return (out,
            np.einsum("hij,hjd->hid", ds, k) * scale,
            np.einsum("hij,hid->hjd", ds, q) * scale,
            np.einsum("hij,hid->hjd", p, g),
            dbias)


def count_prepares(session, monkeypatch):
    """Record every ``engine.prepare_inference`` call a session makes.

    Returns the list the wrapper appends each prepared context to, so
    ``len()`` is the call count and the entries are the contexts built.
    """
    calls = []
    orig = session.engine.prepare_inference

    def counting(graph):
        calls.append(orig(graph))
        return calls[-1]

    monkeypatch.setattr(session.engine, "prepare_inference", counting)
    return calls


def snapshot_with_append_inside(stats, settle_s=0.25):
    """Snapshot a latency-windowed ``StatBlock`` while a writer thread
    appends a sample *inside* the snapshot's copy of the window.

    The window is swapped for a deque whose iterator, after handing out
    its first item, releases the writer and waits up to ``settle_s`` for
    the append.  Unlocked, the append lands mid-copy and the copy
    raises; locked, the writer blocks until the snapshot is done and
    the wait runs out.  Returns ``(snapshot or None, errors, writer)``.
    """
    inside, appended = threading.Event(), threading.Event()

    class Window(deque):
        def __iter__(self):
            for i, item in enumerate(deque.__iter__(self)):
                yield item
                if i == 0:
                    inside.set()
                    appended.wait(timeout=settle_s)

    stats.latencies = Window([1e-3, 2e-3, 3e-3], maxlen=4096)

    def append():
        inside.wait(timeout=60.0)
        stats.record_latency(4e-3)
        appended.set()

    writer = threading.Thread(target=append)
    writer.start()
    snap, errors = None, []
    try:
        snap = stats.snapshot()
    except Exception as exc:
        errors.append(exc)
    inside.set()  # a snapshot that never iterated must not strand the writer
    writer.join(timeout=60.0)
    return snap, errors, writer


def dense_attention_whole_array(q, k, v, g, bias=None, mask=None):
    """Dense attention forward and backward as whole-array passes.

    ``repro.attention.dense`` step for step, one pass over the full
    (H, S, S) array per step, frozen as the bit-for-bit reference for any
    re-blocking of that kernel (row tiles, a blocked kernel shared with
    flash).  Returns ``(out, p, dq, dk, dv, dbias)`` for the output
    gradient ``g``; ``dbias`` is None without a bias and is reduced over
    heads for a ``(1, S, S)`` bias.
    """
    scale = 1.0 / float(np.sqrt(q.shape[-1]))
    scores = np.matmul(q, k.swapaxes(-1, -2))
    np.multiply(scores, scale, out=scores)
    if bias is not None:
        if np.result_type(scores.dtype, bias.dtype) == scores.dtype:
            np.add(scores, bias, out=scores)
        else:
            scores = scores + bias
    if mask is not None:
        scores = np.where(mask[None, :, :], scores, -1e30)
    mx = np.amax(scores, axis=-1, keepdims=True)
    np.subtract(scores, mx, out=scores)
    np.exp(scores, out=scores)
    p = scores
    if mask is not None:
        p = p * mask[None, :, :]
    np.sum(p, axis=-1, keepdims=True, out=mx)
    np.maximum(mx, 1e-30, out=mx)
    np.divide(p, mx, out=p)
    out = np.matmul(p, v)
    delta = np.einsum("hid,hid->hi", g, out)
    ds = np.matmul(g, v.swapaxes(-1, -2))
    np.subtract(ds, delta[:, :, None], out=ds)
    np.multiply(ds, p, out=ds)
    dbias = None
    if bias is not None:
        dbias = ds if bias.shape[0] == q.shape[0] else ds.sum(axis=0, keepdims=True)
    return (out, p,
            np.matmul(ds, k) * scale,
            np.matmul(ds.swapaxes(-1, -2), q) * scale,
            np.matmul(p.swapaxes(-1, -2), g),
            dbias)


def sparse_attention_csr_per_head(q, k, v, g, indptr, cols, bias=None):
    """Sparse (pattern-restricted) attention forward and backward, with a
    fresh ``scipy.sparse.csr_matrix`` for every per-head product.

    ``repro.attention.sparse`` as it was before its temporaries moved
    into a scratch arena: fancy-index gathers, the row softmax in the
    float64 of ``np.full``, and ``csr_matrix @ dense`` (Aᵀ through
    ``.T.tocsr()``) cast into the input dtype.  Frozen as the bit-for-bit
    reference.  Returns ``(out, p, dq, dk, dv, dbias)`` for the output
    gradient ``g``; ``dbias`` is float64, None without a bias and summed
    over heads for a ``(1, E)`` bias.
    """
    import scipy.sparse as sp

    H, S, dh = q.shape
    scale = 1.0 / float(np.sqrt(dh))
    indptr = np.asarray(indptr)
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(S), counts)
    nonempty = counts > 0

    def seg(values, ufunc, empty_val):
        red = np.full(values.shape[:-1] + (S,), empty_val)
        if values.shape[-1] and nonempty.any():
            red[..., nonempty] = ufunc.reduceat(
                values, indptr[:-1][nonempty], axis=-1)
        return red

    def csr(data):
        return sp.csr_matrix((data, cols.astype(np.int32), indptr.astype(np.int32)),
                             shape=(S, S))

    def per_head(data, dense, out_dtype, transpose=False, mul=None):
        res = np.empty(dense.shape, out_dtype)
        for h in range(H):
            a = csr(data[h]).T.tocsr() if transpose else csr(data[h])
            prod = a @ dense[h]
            res[h] = prod if mul is None else prod * mul
        return res

    scores = np.einsum("hed,hed->he", q[:, rows, :], k[:, cols, :]) * scale
    if bias is not None:
        scores = scores + bias
    e = np.exp(scores - seg(scores, np.maximum, -np.inf)[..., rows])
    p = e / np.maximum(seg(e, np.add, 0.0)[..., rows], 1e-30)
    out = per_head(p, v, q.dtype)
    dp = np.einsum("hed,hed->he", g[:, rows, :], v[:, cols, :])
    ds = p * (dp - seg(dp * p, np.add, 0.0)[:, rows])
    dbias = None
    if bias is not None:
        dbias = ds if bias.shape[0] == H else ds.sum(axis=0, keepdims=True)
    return (out, p,
            per_head(ds, k, q.dtype, mul=scale),
            per_head(ds, q, k.dtype, transpose=True, mul=scale),
            per_head(p, g, v.dtype, transpose=True),
            dbias)


def flash_attention_tiled_reference(q, k, v, g, tile_size=128):
    """GP-Flash forward and backward with fresh per-tile temporaries.

    ``repro.attention.flash`` as it was before its temporaries moved into
    the scratch arena: every tile allocates its scores, probabilities and
    products, and numpy casts the mixed float32/float64 operands.  Frozen
    as the bit-for-bit reference.  Returns ``(out, m, safe_l, dq, dk, dv)``
    for the output gradient ``g``: the float64 output and row statistics,
    then gradients in the input dtypes, built as the autograd op builds
    them (dQ summed over tiles, dK and dV added tile by tile into zeros).
    """
    H, S, dh = q.shape
    scale = 1.0 / float(np.sqrt(dh))
    out = np.zeros_like(q)
    m = np.full((H, S), -np.inf)
    l = np.zeros((H, S))
    for j0 in range(0, S, tile_size):
        j1 = min(j0 + tile_size, S)
        s_tile = np.matmul(q, k[:, j0:j1].swapaxes(-1, -2)) * scale
        m_new = np.maximum(m, s_tile.max(axis=-1))
        correction = np.exp(m - m_new)
        p = np.exp(s_tile - m_new[:, :, None])
        l = l * correction + p.sum(axis=-1)
        out = out * correction[:, :, None] + np.matmul(p, v[:, j0:j1])
        m = m_new
    safe_l = np.maximum(l, 1e-30)
    out = out / safe_l[:, :, None]

    delta = np.einsum("hid,hid->hi", g, out)
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for j0 in range(0, S, tile_size):
        j1 = min(j0 + tile_size, S)
        s_tile = np.matmul(q, k[:, j0:j1].swapaxes(-1, -2)) * scale
        p = np.exp(s_tile - m[:, :, None]) / safe_l[:, :, None]
        dp = np.matmul(g, v[:, j0:j1].swapaxes(-1, -2))
        ds = p * (dp - delta[:, :, None])
        dv[:, j0:j1] += np.matmul(p.swapaxes(-1, -2), g)
        dk[:, j0:j1] += np.matmul(ds.swapaxes(-1, -2), q) * scale
        dq += np.matmul(ds, k[:, j0:j1]) * scale
    return out, m, safe_l, dq, dk, dv
