"""The sparse kernel's scratch arena: bit for bit, allocation-stable, per thread.

``repro.attention.sparse`` takes its temporaries from the calling
thread's scratch arena and multiplies through scipy's
sparsetools routine without building a ``csr_matrix``.  Here it is held
to ``tests.helpers.sparse_attention_csr_per_head``, the kernel before the
arena, bit for bit in out, P and every gradient: over consecutive calls,
while two patterns alternate on one thread, and through the compiled
backend's workspace-dict form.  A warm call's traced memory is bounded
by the arrays that escape it, a run over many patterns holds one set of
buffers, and two threads running one pattern at once each get their
serial bits.
"""

import sys
import threading
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention import (
    AttentionPattern,
    PatternWorkspace,
    get_workspace,
    sparse_attention,
    topology_pattern,
)
from repro.attention.sparse import sparse_attention_forward
from repro.attention.workspace import scratch_arena
from repro.graph import dc_sbm
from repro.tensor import Tensor, precision_scope
from tests.helpers import sparse_attention_csr_per_head

DTYPE = {"fp32": np.float32, "fp64": np.float64}
DH = 4


def _pattern(rng, s, density):
    """A random pattern over ``s`` rows; about 30 % of its rows are empty."""
    mask = rng.random((s, s)) < density
    mask[rng.random(s) < 0.3] = False
    r, c = np.nonzero(mask)
    return AttentionPattern.from_entries(s, r, c)


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(s=st.sampled_from([1, 7, 64]), heads=st.sampled_from([1, 3]),
       prec=st.sampled_from(sorted(DTYPE)),
       bias_kind=st.sampled_from(["heads", "shared", "none"]),
       seed=st.integers(0, 2**16))
def test_arena_kernel_matches_the_csr_per_head_kernel(s, heads, prec, bias_kind, seed):
    rng = np.random.default_rng(seed)
    dtype = DTYPE[prec]
    patterns = [_pattern(rng, s, 0.25), _pattern(rng, s, 0.6)]
    bias_heads = {"heads": heads, "shared": 1, "none": None}[bias_kind]
    with precision_scope(prec):
        biases = [None if bias_heads is None else Tensor(
            (0.5 * rng.standard_normal((bias_heads, pat.num_entries))).astype(dtype),
            requires_grad=True) for pat in patterns]
        want_db = [None, None]
        compiled_ws = [{}, {}]
        for _ in range(3):  # the two patterns alternate on this thread
            for i, pat in enumerate(patterns):
                q, k, v, g = (rng.standard_normal((heads, s, DH)).astype(dtype)
                              for _ in range(4))
                bias = biases[i]
                bias_data = None if bias is None else bias.data
                want = sparse_attention_csr_per_head(
                    q, k, v, g, pat.indptr, pat.cols, bias=bias_data)
                pws = get_workspace(pat)
                for ws in (None, compiled_ws[i]):
                    out, p = sparse_attention_forward(q, k, v, pws, bias=bias_data,
                                                      ws=ws)
                    _same(out, want[0])
                    _same(p, want[1])
                qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
                out_t = sparse_attention(qt, kt, vt, pat, bias=bias)
                _same(out_t.data, want[0])
                out_t.backward(g)
                for got, ref in zip((qt.grad, kt.grad, vt.grad), want[2:5]):
                    _same(got, ref)
                if bias is not None:
                    # Tensor._accumulate casts each call's float64 gradient
                    # to the bias dtype, then adds
                    db = want[5].astype(dtype)
                    want_db[i] = db if want_db[i] is None else want_db[i] + db
        for bias, db in zip(biases, want_db):
            if bias is not None:
                _same(bias.grad, db)


# ---------------------------------------------------------------------- #
# allocation: a warm call allocates only what escapes it
# ---------------------------------------------------------------------- #
H, S, D = 4, 600, 8
#: the per-row reductions a call still allocates: the segment max and sum
#: (an (H, S) float64 each) and their reduceat results
SLACK = 4 * H * S * 8


def _inputs(pattern, seed):
    """``(q, k, v, grad, bias)`` in fp32 for ``pattern``."""
    rng = np.random.default_rng(seed)
    return [*(rng.standard_normal((H, S, D)).astype(np.float32) for _ in range(4)),
            rng.standard_normal((H, pattern.num_entries)).astype(np.float32)]


def _case(seed=0):
    g, _ = dc_sbm(S, 8, 12.0, np.random.default_rng(seed))
    pattern = topology_pattern(g)
    return (pattern, *_inputs(pattern, seed))


def _traced_peak(fn):
    """``(fn(), bytes of peak traced memory fn added)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = fn()
        return res, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_warm_forward_allocates_only_out_and_p():
    pattern, q, k, v, _, bias = _case()
    pws = PatternWorkspace(pattern)
    sparse_attention_forward(q, k, v, pws, bias=bias)  # fills the arena
    (out, p), peak = _traced_peak(
        lambda: sparse_attention_forward(q, k, v, pws, bias=bias))
    # the gathered (H, E, D) Q and K alone are 2 · H · E · D · 4 bytes
    assert peak <= out.nbytes + p.nbytes + SLACK, (peak, out.nbytes + p.nbytes)


def test_warm_backward_allocates_only_the_gradients():
    pattern, q, k, v, grad, bias = _case()
    pws = PatternWorkspace(pattern)

    def forward():
        ts = [Tensor(a, requires_grad=True) for a in (q, k, v, bias)]
        return ts, sparse_attention(*ts[:3], pattern, bias=ts[3], workspace=pws)

    ts, out = forward()
    out._backward(grad)  # fills the arena
    ts, out = forward()
    _, peak = _traced_peak(lambda: out._backward(grad))
    escaping = sum(t.grad.nbytes for t in ts)
    assert peak <= escaping + SLACK, (peak, escaping)
    # Tensor._accumulate copied the arena's gradients; it kept none
    assert not any(np.shares_memory(t.grad, buf)
                   for t in ts for buf in scratch_arena().values())


# ---------------------------------------------------------------------- #
# threads: one pattern, one arena per thread, whatever the pattern
# ---------------------------------------------------------------------- #
def _fwd_bwd(pattern, arrays):
    q, k, v, grad, bias = arrays
    ts = [Tensor(a, requires_grad=True) for a in (q, k, v, bias)]
    out = sparse_attention(*ts[:3], pattern, bias=ts[3])
    out.backward(grad)
    return [out.data] + [t.grad for t in ts]


def test_a_run_over_many_patterns_holds_one_set_of_buffers():
    """The arena is per thread, not per pattern: after fwd + bwd over
    several patterns a thread holds what running only the last one leaves."""
    patterns = [_case(seed)[0] for seed in range(4)]
    assert len({pat.num_entries for pat in patterns}) == len(patterns)

    def held_after(run):
        held = []

        def body():
            for pat in run:
                _fwd_bwd(pat, _inputs(pat, 0))
            held.append({key: (buf.shape, buf.dtype)
                         for key, buf in scratch_arena().items()})

        t = threading.Thread(target=body)  # a thread starts with no arena
        t.start()
        t.join()
        return held[0]

    assert held_after(patterns) == held_after(patterns[-1:])


def test_two_threads_on_one_pattern_each_get_their_serial_bits():
    pattern = _case()[0]
    assert get_workspace(pattern) is get_workspace(pattern)  # one shared workspace
    inputs = [_inputs(pattern, seed) for seed in (1, 2)]
    serial = [_fwd_bwd(pattern, arrays) for arrays in inputs]
    rounds = 15
    barrier = threading.Barrier(2, timeout=60)
    mismatches = [0, 0]
    done = [0, 0]

    def worker(i):
        for _ in range(rounds):
            barrier.wait()  # both threads enter the kernel together
            got = _fwd_bwd(pattern, inputs[i])
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
