"""The BLAS-backed attention contractions against their einsum reference.

Dense and flash attention contract every S×S (or S×tile) operand with
batched ``np.matmul``; these tests hold forward and gradients to the
einsum formulation in ``tests.helpers`` at float64 and float32, check the
two hot elementwise rewrites (GELU's cube, the embedding scatter-add)
against the expressions they replaced, and guard against an einsum over
a sequence-by-sequence operand coming back.
"""

import numpy as np
import pytest

from repro.attention import dense, dense_attention, flash, flash_attention
from repro.tensor import Tensor, precision_scope
from repro.tensor import functional as F
from tests.helpers import dense_attention_einsum

H, S, DH, TILE = 3, 37, 8, 16  # S is not a multiple of TILE
RTOL = {"fp64": 1e-12, "fp32": 1e-5}
DTYPE = {"fp64": np.float64, "fp32": np.float32}


def _close(got, want, rtol):
    # gradients cancel to near zero in places, where an elementwise
    # relative error means nothing: hold each array to rtol of its scale
    np.testing.assert_allclose(got, want, rtol=rtol,
                               atol=rtol * float(np.abs(want).max()))


def _inputs(prec):
    rng = np.random.default_rng(0)
    q, k, v, g = (rng.standard_normal((H, S, DH)).astype(DTYPE[prec])
                  for _ in range(4))
    bias = (0.5 * rng.standard_normal((H, S, S))).astype(DTYPE[prec])
    mask = rng.random((S, S)) < 0.6
    mask[3] = False  # a row with nothing to attend to
    return q, k, v, g, bias, mask


CASES = {
    "plain": dict(),
    "bias": dict(bias="heads"),
    "shared_bias": dict(bias="shared"),
    "mask": dict(mask=True),
    "bias_and_mask": dict(bias="heads", mask=True),
}


@pytest.mark.parametrize("prec", sorted(RTOL))
@pytest.mark.parametrize("case", sorted(CASES))
def test_dense_matches_einsum_reference(prec, case):
    opts = CASES[case]
    with precision_scope(prec):
        qd, kd, vd, g, bias_full, mask_full = _inputs(prec)
        q, k, v = (Tensor(a, requires_grad=True) for a in (qd, kd, vd))
        bias = mask = None
        if "bias" in opts:
            data = bias_full if opts["bias"] == "heads" else bias_full[:1]
            bias = Tensor(data, requires_grad=True)
        if opts.get("mask"):
            mask = mask_full
        out = dense_attention(q, k, v, bias=bias, mask=mask)
        out.backward(g)
    want = dense_attention_einsum(qd, kd, vd, g,
                                  bias=None if bias is None else bias.data,
                                  mask=mask)
    got = (out.data, q.grad, k.grad, v.grad,
           None if bias is None else bias.grad)
    assert out.data.dtype == DTYPE[prec]
    for name, a, b in zip(("out", "dq", "dk", "dv", "dbias"), got, want):
        if b is None:
            assert a is None, name
        else:
            _close(a, b, RTOL[prec])


@pytest.mark.parametrize("prec", sorted(RTOL))
def test_flash_matches_einsum_reference(prec):
    with precision_scope(prec):
        qd, kd, vd, g, _, _ = _inputs(prec)
        q, k, v = (Tensor(a, requires_grad=True) for a in (qd, kd, vd))
        out = flash_attention(q, k, v, tile_size=TILE)
        out.backward(g)
    want = dense_attention_einsum(qd, kd, vd, g)
    assert out.data.dtype == DTYPE[prec]
    for a, b in zip((out.data, q.grad, k.grad, v.grad), want):
        _close(a, b, RTOL[prec])


@pytest.mark.parametrize("prec", sorted(RTOL))
def test_gelu_matches_the_power_formula(prec):
    x = np.random.default_rng(1).standard_normal((64, 48)).astype(DTYPE[prec])
    c = np.sqrt(2.0 / np.pi)
    want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * np.power(x, 3))))
    got, _ = F.gelu_forward(x)
    assert got.dtype == x.dtype
    np.testing.assert_allclose(got, want, rtol=RTOL[prec], atol=RTOL[prec])


@pytest.mark.parametrize("shape", [(50,), (12, 9)])
def test_embedding_backward_matches_add_at(shape):
    rng = np.random.default_rng(2)
    idx = rng.integers(0, 8, shape).astype(np.int16)  # rows 8, 9 unused
    g = rng.standard_normal(shape + (4,))
    want = np.zeros((10, 4))
    np.add.at(want, idx.reshape(-1), g.reshape(-1, 4))
    with precision_scope("fp64"):
        table = Tensor(np.zeros((10, 4)), requires_grad=True)
        F.embedding_lookup(table, idx).backward(g)
    # both sum each row's contributions in index order, in float64
    assert table.grad.tobytes() == want.tobytes()


def test_embedding_backward_takes_a_transposed_gradient():
    # a gradient handed back as an (S, S, H) view of (H, S, S) memory
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 6, (7, 7))
    g = rng.standard_normal((2, 7, 7)).transpose(1, 2, 0)
    want = np.zeros((6, 2))
    np.add.at(want, idx.reshape(-1), g.reshape(-1, 2))
    with precision_scope("fp32"):
        table = Tensor(np.zeros((6, 2)), requires_grad=True)
        F.embedding_lookup(table, idx).backward(g)
    assert table.grad.dtype == np.float32
    np.testing.assert_allclose(table.grad, want, rtol=1e-5, atol=1e-6)


# ------------------------------------------------------------------ #
# guard: no einsum over an S×S or S×tile operand in dense / flash
# ------------------------------------------------------------------ #
class _GuardedNumpy:
    """numpy, except ``einsum`` refuses operands with two sequence axes.

    With H and dh below ``min_seq`` every axis at least that long is a
    sequence (or key-tile) axis, so this needs no knowledge of the call.
    """

    def __init__(self, min_seq):
        self.min_seq = min_seq
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, *operands, **kw):
        self.calls += 1
        for op in operands:
            seq_axes = sum(n >= self.min_seq for n in np.shape(op))
            assert seq_axes < 2, (
                f"einsum {subscripts!r} over a {np.shape(op)} operand: "
                "contract S×S operands with np.matmul")
        return np.einsum(subscripts, *operands, **kw)


def test_no_einsum_over_a_sequence_by_sequence_operand(monkeypatch):
    s, h, dh, tile = 24, 2, 4, 8  # tiles of 8 ≥ min_seq; H, dh < min_seq
    guard = _GuardedNumpy(min_seq=tile)
    monkeypatch.setattr(dense, "np", guard)
    monkeypatch.setattr(flash, "np", guard)
    rng = np.random.default_rng(4)
    with precision_scope("fp64"):
        for kernel in ("dense", "flash"):
            q, k, v = (Tensor(rng.standard_normal((h, s, dh)), requires_grad=True)
                       for _ in range(3))
            if kernel == "dense":
                bias = Tensor(rng.standard_normal((h, s, s)), requires_grad=True)
                out = dense_attention(q, k, v, bias=bias)
            else:
                out = flash_attention(q, k, v, tile_size=tile)
            out.sum().backward()
            assert q.grad is not None and k.grad is not None
    assert guard.calls > 0  # the delta statistic still goes through einsum
