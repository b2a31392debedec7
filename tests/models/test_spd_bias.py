"""The head-major SPD bias gather: ``F.head_major_lookup``.

It replaced ``embedding_lookup`` followed by a heads-first ``transpose``
in Graphormer's dense ``(H, S, S)`` and per-entry ``(H, E)`` bias, so it
must equal that pair bit for bit in the forward and in the table
gradient.  Its lowering keeps fused predicts compiling.
"""

import numpy as np
import pytest

from repro.api import DataConfig, EngineConfig, ModelConfig, RunConfig, Session
from repro.backend import compile_plan
from repro.tensor import Tensor, precision_scope
from repro.tensor import functional as F

BUCKETS = 10  # max_spd + 2 of the default Graphormer
HEADS = 4


def _buckets(shape, seed):
    return np.random.default_rng(seed).integers(0, BUCKETS, shape).astype(np.int16)


@pytest.mark.parametrize("prec", ["fp32", "fp64"])
@pytest.mark.parametrize("shape", [(37, 37), (211,)], ids=["dense", "entries"])
def test_equals_embedding_lookup_then_transpose(prec, shape):
    rng = np.random.default_rng(1)
    table_data = rng.standard_normal((BUCKETS, HEADS)) * 0.02
    idx = _buckets(shape, 2)
    g = rng.standard_normal((HEADS,) + shape)
    perm = (len(shape),) + tuple(range(len(shape)))
    with precision_scope(prec):
        old_t = Tensor(table_data.copy(), requires_grad=True)
        old = F.embedding_lookup(old_t, idx).transpose(*perm)
        old.backward(g)
        new_t = Tensor(table_data.copy(), requires_grad=True)
        new = F.head_major_lookup(new_t, idx)
        new.backward(g)
    assert new.data.flags.c_contiguous
    assert new.data.dtype == old.data.dtype
    assert new.data.tobytes() == np.ascontiguousarray(old.data).tobytes()
    assert new_t.grad.dtype == old_t.grad.dtype
    assert new_t.grad.tobytes() == old_t.grad.tobytes()


def test_buckets_outside_the_table_raise():
    # clip-mode gathers would fold a bucket past the table into its last
    # row; a model whose max_spd is below the encodings' must fail loudly
    table = Tensor(np.zeros((BUCKETS, HEADS)))
    for bad in (BUCKETS, -1):
        with pytest.raises(IndexError, match="outside"):
            F.head_major_lookup(table, np.array([[0, bad]]))


def test_lowered_step_matches_the_reference():
    # a table derived from the features keeps the gather on the dynamic
    # spine, so the program runs the lowered step instead of folding it
    idx = _buckets((6, 6), 3)

    def forward(f):
        return F.head_major_lookup(Tensor(f) * 2.0, idx)

    feats = np.random.default_rng(4).standard_normal((BUCKETS, HEADS)).astype(np.float32)
    with precision_scope("fp32"):
        prog = compile_plan(forward, feats, "fp32")
        assert prog is not None
        assert [st.op for st in prog._steps] == ["mul", "head_lookup"]
        # checked and cast once when traced: the replay only gathers
        assert prog._steps[1].params["indices"].dtype == np.intp
        f = feats * -1.5
        assert np.array_equal(prog.run(f), forward(f).data)


def _config(engine, backend):
    return RunConfig(
        data=DataConfig("ogbn-arxiv", scale=0.08, seed=7),
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=0.0),
        engine=EngineConfig(engine, backend=backend))


@pytest.mark.parametrize("engine", ["gp-raw", "torchgt"])
def test_fused_predict_compiles_without_fallback(engine):
    ref = Session(_config(engine, "numpy"))
    fused = Session(_config(engine, "fused"), dataset=ref.dataset)
    assert np.array_equal(fused.predict(), ref.predict())
    assert fused.compiled_stats() == {"entries": 1, "programs": 1}
