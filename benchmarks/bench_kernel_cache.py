"""Pattern-workspace cache — cached vs uncached sparse attention.

Not a paper table: this micro-benchmark guards the registry/workspace
refactor.  Repeated training iterations over the *same* topology pattern
(the actual access pattern of multi-layer training — every layer, every
epoch reuses one pattern) run the sparse kernel with the workspace cache
enabled vs disabled.  Disabled means every call rebuilds the pattern-
derived state — expanded row index, int32 CSR arrays, segment starts and
the transpose permutation — and starts from an empty scratch arena,
exactly as every forward of the seed implementation allocated afresh.

Two claims are asserted, each by its own test:

* outputs and all gradients are **bitwise identical** either way
  (``test_kernel_cache_bitwise_identity``, the hard gate);
* on the per-head workload (H=1), where the O(E log E) pattern
  preparation is not hidden under the einsum math, caching is ≥1.5×
  faster per iteration (``test_kernel_cache_speedup``).

The H=4/dh=16 row shows the end-to-end training shape for context (the
win there is real but smaller, since gather/einsum math dominates).

Timing is a repeat-of-repeats: after a warm-up round on each side,
each of ``REPEATS`` rounds times ``INNER`` back-to-back iterations of the
cached side and of the uncached side, alternating which goes first, and
each side's per-iteration time is the median over rounds.  Interleaving
spreads a noisy stretch of a shared host over both sides instead of one.
"""


import numpy as np

from repro import _clock
from repro.attention import (
    invalidate_workspace,
    sparse_attention,
    topology_pattern,
    workspace_caching,
)
from repro.bench import TableReport, fmt_time
from repro.graph import dc_sbm
from repro.tensor import Tensor

REPEATS = 7
INNER = 3
CONFIGS = [
    # (S, avg_degree, H, dh, "isolating" per-head config?)
    (16_384, 24.0, 1, 4, True),
    (16_384, 40.0, 1, 8, True),
    (8_192, 24.0, 4, 16, False),
]
SIDES = (("cached", True), ("uncached", False))


def _train_iter(q, k, v, pattern):
    """One fwd+bwd pass; returns (out, dq, dk, dv)."""
    tq, tk, tv = (Tensor(a, requires_grad=True) for a in (q, k, v))
    out = sparse_attention(tq, tk, tv, pattern)
    out.backward(np.ones_like(out.data))
    return out.data, tq.grad, tk.grad, tv.grad


def _configs():
    """``(row facts, pattern, (q, k, v))`` per config, seeded."""
    rng = np.random.default_rng(0)
    for seq_len, deg, heads, dh, isolating in CONFIGS:
        g, _ = dc_sbm(seq_len, 8, deg, rng)
        pattern = topology_pattern(g)
        arrays = tuple(rng.standard_normal((heads, seq_len, dh)).astype(np.float32)
                       for _ in range(3))
        yield dict(S=seq_len, E=pattern.num_entries, H=heads, dh=dh,
                   isolating=isolating), pattern, arrays


def _timed(arrays, pattern, enabled):
    """Seconds per iteration over ``INNER`` back-to-back iterations."""
    with workspace_caching(enabled):
        t0 = _clock.now()
        for _ in range(INNER):
            _train_iter(*arrays, pattern)
        return (_clock.now() - t0) / INNER


def _measure(pattern, arrays):
    invalidate_workspace(pattern)
    for _, enabled in SIDES:  # warm-up: caches, lazy transpose, allocator
        _timed(arrays, pattern, enabled)
    times = {label: [] for label, _ in SIDES}
    for r in range(REPEATS):
        for label, enabled in (SIDES if r % 2 == 0 else SIDES[::-1]):
            times[label].append(_timed(arrays, pattern, enabled))
    return {label: float(np.median(t)) for label, t in times.items()}


def _run_all():
    rows = []
    for row, pattern, arrays in _configs():
        res = _measure(pattern, arrays)
        rows.append(dict(row, cached=res["cached"], uncached=res["uncached"],
                         speedup=res["uncached"] / res["cached"]))
    return rows


def test_kernel_cache_bitwise_identity():
    """Cache off, cache on (cold), cache on (warm arena): the same bits."""
    for row, pattern, arrays in _configs():
        invalidate_workspace(pattern)
        with workspace_caching(False):
            want = _train_iter(*arrays, pattern)
        with workspace_caching(True):
            for _ in range(2):
                got = _train_iter(*arrays, pattern)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), \
                    f"workspace cache changed numerics at S={row['S']}, H={row['H']}"


def test_kernel_cache_speedup(benchmark, save_report):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    rep = TableReport(
        title="pattern-workspace cache — repeated sparse iterations "
              f"(fwd+bwd, median of {REPEATS} interleaved rounds of {INNER})",
        columns=["S", "entries", "H", "dh", "cached/iter", "uncached/iter",
                 "speedup"])
    for r in rows:
        rep.add_row(f"{r['S']:,}", f"{r['E']:,}", r["H"], r["dh"],
                    fmt_time(r["cached"]), fmt_time(r["uncached"]),
                    f"{r['speedup']:.2f}×")
    rep.add_note("uncached rebuilds rows/int32-CSR/segment-starts/transpose "
                 "and the scratch arena per call — the seed implementation's "
                 "per-forward behavior")
    save_report("kernel_cache", rep)

    for r in rows:
        if r["isolating"]:
            assert r["speedup"] >= 1.5, (
                f"cached sparse attention only {r['speedup']:.2f}× faster at "
                f"S={r['S']}, H={r['H']} (expected ≥1.5×)")
        else:
            assert r["speedup"] >= 1.0 or r["cached"] < r["uncached"] * 1.05
