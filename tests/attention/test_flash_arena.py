"""The flash kernel's scratch arena: bit for bit, allocation-stable, per thread.

``repro.attention.flash`` takes its tile temporaries from the calling
thread's scratch arena and writes every pass with ``out=``.  Here it is
held to ``tests.helpers.flash_attention_tiled_reference``, the kernel
before the arena, bit for bit in out, m, safe_l and every gradient: over
consecutive calls while two sequence lengths alternate on one thread, and
through the compiled backend's workspace-dict form.  Traced memory bounds
a warm call by the arrays that escape it and a cold fwd + bwd well below
one (H, S, S) score matrix — GP-Flash's Table V property, measured rather
than modelled — and two threads at once each get their serial bits.
"""

import sys
import threading
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention import flash_attention
from repro.attention.flash import flash_forward
from repro.attention.workspace import scratch_arena
from repro.tensor import Tensor, precision_scope
from tests.helpers import flash_attention_tiled_reference

DTYPE = {"fp32": np.float32, "fp64": np.float64, "bf16": np.float32}
DH = 4


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(lengths=st.lists(st.sampled_from([1, 7, 127, 128, 129, 300]),
                        min_size=2, max_size=2, unique=True),
       tile=st.sampled_from([13, 128]), heads=st.sampled_from([1, 3]),
       prec=st.sampled_from(sorted(DTYPE)),
       g_dtype=st.sampled_from([np.float32, np.float64]),
       grads=st.sets(st.sampled_from("qkv")), seed=st.integers(0, 2**16))
def test_arena_kernel_matches_the_tiled_reference(lengths, tile, heads, prec,
                                                  g_dtype, grads, seed):
    rng = np.random.default_rng(seed)
    dtype = DTYPE[prec]
    compiled_ws = [{}, {}]
    with precision_scope(prec):
        for _ in range(3):  # the two lengths alternate on this thread
            for i, s in enumerate(lengths):
                q, k, v = (rng.standard_normal((heads, s, DH)).astype(dtype)
                           for _ in range(3))
                g = rng.standard_normal((heads, s, DH)).astype(g_dtype)
                want = flash_attention_tiled_reference(q, k, v, g, tile_size=tile)
                for ws in (None, compiled_ws[i]):
                    for got, ref in zip(flash_forward(q, k, v, tile_size=tile,
                                                      ws=ws), want[:3]):
                        _same(got, ref)
                ts = [Tensor(a, requires_grad=name in grads)
                      for name, a in zip("qkv", (q, k, v))]
                out = flash_attention(*ts, tile_size=tile)
                if not grads:
                    continue
                # the op's own backward, so a float64 output gradient
                # reaches the kernel as it is
                out._backward(g)
                for t, ref in zip(ts, want[3:]):
                    if t.requires_grad:
                        _same(t.grad, ref)
                    else:
                        assert t.grad is None


# ---------------------------------------------------------------------- #
# allocation: a warm call allocates only what escapes it
# ---------------------------------------------------------------------- #
H, S, D, TILE = 4, 600, 8, 128
#: the (H, S) float64 arrays a call may still allocate besides those
SLACK = 4 * H * S * 8


def _inputs(s, seed=0, dtype=np.float32):
    """``(q, k, v, grad)`` of shape ``(H, s, D)``."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((H, s, D)).astype(dtype) for _ in range(4)]


def _traced_peak(fn):
    """``(fn(), bytes of peak traced memory fn added)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = fn()
        return res, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _in_new_thread(fn):
    """``fn()`` on a fresh thread, which starts with an empty arena."""
    res = []
    t = threading.Thread(target=lambda: res.append(fn()))
    t.start()
    t.join()
    return res[0]


def test_warm_forward_allocates_only_out_m_and_safe_l():
    q, k, v, _ = _inputs(S)
    flash_forward(q, k, v, tile_size=TILE)  # fills the arena
    escaping, peak = _traced_peak(lambda: flash_forward(q, k, v, tile_size=TILE))
    escaping_bytes = sum(a.nbytes for a in escaping)
    # one (H, S, TILE) float64 tile alone is 16 × (out + m + safe_l) here
    assert peak <= escaping_bytes + SLACK, (peak, escaping_bytes)
    assert not any(np.shares_memory(a, buf)
                   for a in escaping for buf in scratch_arena().values())


def test_warm_backward_allocates_only_the_gradients():
    q, k, v, grad = _inputs(S)

    def forward():
        ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        return ts, flash_attention(*ts, tile_size=TILE)

    ts, out = forward()
    out._backward(grad)  # fills the arena
    ts, out = forward()
    _, peak = _traced_peak(lambda: out._backward(grad))
    escaping = sum(t.grad.nbytes for t in ts)
    assert peak <= escaping + SLACK, (peak, escaping)
    # Tensor._accumulate copied the arena's dQ; it kept none
    assert not any(np.shares_memory(t.grad, buf)
                   for t in ts for buf in scratch_arena().values())


def test_compiled_form_allocates_nothing_warm():
    """With a workspace dict the output and row statistics persist in it."""
    q, k, v, _ = _inputs(S)
    ws = {}
    first = [a.copy() for a in flash_forward(q, k, v, tile_size=TILE, ws=ws)]
    got, peak = _traced_peak(lambda: flash_forward(q, k, v, tile_size=TILE, ws=ws))
    assert peak <= SLACK, peak
    for a, b in zip(got, first):
        _same(a, b)
        assert any(a is buf for buf in ws.values())


def test_fwd_bwd_peak_stays_below_one_score_matrix():
    """GP-Flash's O(S·d) memory, measured: a cold fwd + bwd at S = 2048,
    arena buffers included, peaks below one (H, S, S) float64 array."""
    s = 2048
    q, k, v, grad = _inputs(s, dtype=np.float32)

    def fwd_bwd():
        ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        with precision_scope("bf16"):
            out = flash_attention(*ts)
            out._backward(grad)
        return ts

    _, peak = _in_new_thread(lambda: _traced_peak(fwd_bwd))
    scores = H * s * s * 8
    assert peak < scores, (peak, scores)


# ---------------------------------------------------------------------- #
# threads: one arena per thread
# ---------------------------------------------------------------------- #
def _fwd_bwd(arrays):
    q, k, v, grad = arrays
    ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = flash_attention(*ts, tile_size=TILE)
    out._backward(grad)
    return [out.data] + [t.grad for t in ts]


def test_two_threads_each_get_their_serial_bits():
    inputs = [_inputs(s, seed) for s, seed in ((S, 1), (S - 71, 2))]
    serial = [_fwd_bwd(arrays) for arrays in inputs]
    rounds = 6
    barrier = threading.Barrier(2, timeout=60)
    mismatches = [0, 0]
    done = [0, 0]

    def worker(i):
        for _ in range(rounds):
            barrier.wait()  # both threads enter the kernel together
            got = _fwd_bwd(inputs[i])
            mismatches[i] += not all(np.array_equal(a, b)
                                     for a, b in zip(got, serial[i]))
            done[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between nearly every numpy call
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert done == [rounds, rounds]
    assert mismatches == [0, 0]
