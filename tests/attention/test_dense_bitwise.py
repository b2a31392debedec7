"""The dense kernel's bits, held to whole-array passes.

``attention/dense.py`` runs each softmax and dS step as one pass over the
full (H, S, S) array; ``tests.helpers.dense_attention_whole_array`` is
that kernel frozen.  Any re-blocking of it (row tiles, a blocked kernel
shared with flash) must keep out, P, dQ, dK, dV and a bias gradient
accumulated over three calls, as one bias is across Graphormer's layers,
equal to it bit for bit.  Row-block GEMMs are what such a change can get
wrong: the OpenBLAS build of ``PARENT_BLAS`` rounds a row block of a
float64 product differently from the same rows of the whole product at
S = 300, 353 and 500, and numpy sends a one-row block to GEMV.  The grid
takes sequence lengths around a tile of 8 rows, and S = 300.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention import dense_attention
from repro.attention.dense import dense_attention_forward
from repro.tensor import Tensor, precision_scope
from tests.api.test_prepare_inputs import PARENT_BLAS, _blas_fingerprint
from tests.attention.test_gemm_contractions import DTYPE, RTOL
from tests.helpers import dense_attention_whole_array

T, DH = 8, 4
# 300: a length at which this build's float64 GEMM rounds row blocks apart
SEQ_LENS = {"1": 1, "T-1": T - 1, "T": T, "3T+5": 3 * T + 5, "300": 300}
KINDS = ("heads", "shared", "none", "mask")
BITWISE = _blas_fingerprint() == PARENT_BLAS


def _same(got, want, prec):
    assert got.dtype == want.dtype and got.shape == want.shape
    if BITWISE:
        assert np.array_equal(got, want)
    else:  # another BLAS build: hold to the einsum tests' tolerance
        np.testing.assert_allclose(got, want, rtol=RTOL[prec],
                                   atol=RTOL[prec] * float(np.abs(want).max()))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seq=st.sampled_from(sorted(SEQ_LENS)), heads=st.sampled_from([1, 3]),
       prec=st.sampled_from(sorted(DTYPE)), kind=st.sampled_from(KINDS),
       seed=st.integers(0, 2**16))
def test_dense_kernel_matches_the_whole_array_passes(seq, heads, prec, kind, seed):
    s, dtype = SEQ_LENS[seq], DTYPE[prec]
    rng = np.random.default_rng(seed)
    bias_data = None
    if kind in ("heads", "shared"):
        bias_heads = heads if kind == "heads" else 1
        bias_data = (0.5 * rng.standard_normal((bias_heads, s, s))).astype(dtype)
    want_db = None
    with precision_scope(prec):
        bias = None if bias_data is None else Tensor(bias_data, requires_grad=True)
        for _ in range(3):
            q, k, v, g = (rng.standard_normal((heads, s, DH)).astype(dtype)
                          for _ in range(4))
            mask = rng.random((s, s)) < 0.6 if kind == "mask" else None
            want = dense_attention_whole_array(q, k, v, g, bias=bias_data, mask=mask)
            for got, ref in zip(dense_attention_forward(q, k, v, bias=bias_data,
                                                        mask=mask), want[:2]):
                _same(got, ref, prec)
            qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
            dense_attention(qt, kt, vt, bias=bias, mask=mask).backward(g)
            for got, ref in zip((qt.grad, kt.grad, vt.grad), want[2:5]):
                _same(got, ref, prec)
            if bias is not None:
                want_db = want[5].copy() if want_db is None else want_db + want[5]
    if bias is not None:
        _same(bias.grad, want_db, prec)
