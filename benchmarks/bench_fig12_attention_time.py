"""Figure 12 — attention kernel time vs sequence length and hidden dim.

Paper: (a) vs S (64K→512K): FlashAttention grows quadratically, sparse
attention helps some, TorchGT's cluster-sparse kernel is up to 103.4×
faster than FlashAttention; (b) vs hidden dim at S=256K: TorchGT wins at
every d.  Reproduced (a,b) through the roofline model at paper scale and
(c) measured wall-clock of the real numpy kernels, where the same ordering
(cluster-sparse < sparse < flash) emerges at growing S.
"""


import numpy as np

from repro import _clock
from repro.bench import SeriesReport
from repro.attention import (
    block_attention_forward,
    flash_attention,
    sparse_attention,
    topology_pattern,
)
from repro.core import reform_pattern
from repro.graph import dc_sbm
from repro.hardware import RTX3090_SERVER, AttentionKind, TrainingCostModel, WorkloadSpec
from repro.partition import cluster_reorder
from repro.tensor import Tensor

AK = AttentionKind


def _modeled_vs_seq():
    model = TrainingCostModel(RTX3090_SERVER)
    seqs = [64_000, 128_000, 256_000, 512_000]
    out = {k: [] for k in (AK.FLASH, AK.SPARSE, AK.CLUSTER_SPARSE)}
    for S in seqs:
        w = WorkloadSpec(seq_len=S, hidden_dim=64, num_heads=8, num_layers=1,
                         avg_degree=25, num_gpus=1)
        for k in out:
            out[k].append(model.attention_kernel(k, w).time_s)
    return seqs, out


def _modeled_vs_hidden():
    model = TrainingCostModel(RTX3090_SERVER)
    dims = [64, 128, 256]
    out = {k: [] for k in (AK.FLASH, AK.SPARSE, AK.CLUSTER_SPARSE)}
    for d in dims:
        w = WorkloadSpec(seq_len=256_000, hidden_dim=d, num_heads=8,
                         num_layers=1, avg_degree=25, num_gpus=1)
        for k in out:
            out[k].append(model.attention_kernel(k, w).time_s)
    return dims, out


CALLS = 5


def _median_call_s(fn):
    """Median seconds of ``CALLS`` calls of ``fn``, after one warm-up call.

    The warm-up fills the pattern workspace and the allocator; the median
    keeps one call that the rest of a shared host slowed out of Fig. 12(c)
    and its ordering checks.
    """
    fn()
    times = []
    for _ in range(CALLS):
        t0 = _clock.now()
        fn()
        times.append(_clock.now() - t0)
    return float(np.median(times))


def _measured_vs_seq():
    rng = np.random.default_rng(0)
    seqs = [256, 512, 1024, 2048]
    flash_t, sparse_t, cluster_t = [], [], []
    for S in seqs:
        g, _ = dc_sbm(S, 8, 12.0, rng)
        ro = cluster_reorder(g, 8)
        pat = topology_pattern(ro.graph)
        reformed = reform_pattern(pat, ro.bounds, beta_thre=1.0, db=16)
        H, dh = 4, 16
        q, k, v = (rng.standard_normal((H, S, dh)).astype(np.float32)
                   for _ in range(3))
        flash_t.append(_median_call_s(
            lambda: flash_attention(Tensor(q), Tensor(k), Tensor(v))))
        sparse_t.append(_median_call_s(
            lambda: sparse_attention(Tensor(q), Tensor(k), Tensor(v), pat)))
        cluster_t.append(_median_call_s(
            lambda: block_attention_forward(q, k, v, reformed.layout)))
    return seqs, flash_t, sparse_t, cluster_t


def test_fig12a_modeled_vs_sequence(benchmark, save_report):
    seqs, out = benchmark.pedantic(_modeled_vs_seq, rounds=1, iterations=1)
    rep = SeriesReport(title="Fig. 12(a) — modeled attention time vs S "
                             "(GPH_slim shape, 3090)",
                       x_label="S", x_values=[f"{s // 1000}K" for s in seqs])
    rep.add_series("flash", out[AK.FLASH])
    rep.add_series("sparse", out[AK.SPARSE])
    rep.add_series("cluster-sparse", out[AK.CLUSTER_SPARSE])
    ratio = out[AK.FLASH][-1] / out[AK.CLUSTER_SPARSE][-1]
    rep.add_note(f"TorchGT vs flash at 512K: {ratio:.0f}× (paper: up to 103.4×)")
    save_report("fig12", rep)
    assert out[AK.CLUSTER_SPARSE][-1] < out[AK.SPARSE][-1] < out[AK.FLASH][-1]
    assert ratio > 20


def test_fig12b_modeled_vs_hidden_dim(benchmark, save_report):
    dims, out = benchmark.pedantic(_modeled_vs_hidden, rounds=1, iterations=1)
    rep = SeriesReport(title="Fig. 12(b) — modeled attention time vs hidden "
                             "dim (S=256K, 3090)",
                       x_label="d", x_values=dims)
    rep.add_series("flash", out[AK.FLASH])
    rep.add_series("sparse", out[AK.SPARSE])
    rep.add_series("cluster-sparse", out[AK.CLUSTER_SPARSE])
    rep.add_note("paper: TorchGT fastest at every d; flash tolerates larger "
                 "d better than longer S")
    save_report("fig12", rep)
    for i in range(len(dims)):
        assert out[AK.CLUSTER_SPARSE][i] < out[AK.FLASH][i]
    # flash: d-scaling (linear) milder than S-scaling (quadratic)
    assert out[AK.FLASH][-1] / out[AK.FLASH][0] < 6


def test_fig12c_measured_kernels(benchmark, save_report):
    seqs, flash_t, sparse_t, cluster_t = benchmark.pedantic(
        _measured_vs_seq, rounds=1, iterations=1)
    rep = SeriesReport(title="Fig. 12(c) — measured numpy kernel time vs S "
                             f"(median of {CALLS} warm calls)",
                       x_label="S", x_values=seqs)
    rep.add_series("flash", flash_t)
    rep.add_series("sparse", sparse_t)
    rep.add_series("cluster-sparse(block)", cluster_t)
    rep.add_note("real wall-clock: sparse kernels overtake flash as S grows")
    save_report("fig12", rep)
    # at the largest S the sparse kernels beat quadratic flash
    assert sparse_t[-1] < flash_t[-1]
    # and sparse/flash gap grows with S
    assert sparse_t[-1] / flash_t[-1] < sparse_t[0] / flash_t[0]
