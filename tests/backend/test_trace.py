"""Ops name themselves at ``Tensor._make``: vocabulary closure, what an
unnamed op does to a compile, and golden pins of the traced programs."""

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro.attention import dense_attention
from repro.backend import compile_plan, trace_capture
from repro.backend.compiled import _STEP_FNS
from repro.tensor import Tensor, checkpoint, concat, precision_scope
from repro.tensor import functional as F
from tests.api.test_prepare_inputs import PARENT_BLAS, _blas_fingerprint
from tests.backend.test_compiled import _setup
from tests.helpers import array_sha256

ENGINES = ["gp-raw", "gp-flash", "gp-sparse", "torchgt"]
RNG = np.random.default_rng(0)
FEATS = RNG.standard_normal((8, 4)).astype(np.float32)
W = Tensor(RNG.standard_normal((4, 4)))
IDX = np.array([3, 0, 5])


# ------------------------------------------------------------------ #
# vocabulary closure
# ------------------------------------------------------------------ #
def _recorded_ops(forward, feats):
    with trace_capture() as rec:
        forward(feats)
    return {node.op for node in rec.nodes}


def test_recorded_op_names_are_exactly_the_compiled_vocabulary():
    seen = set()
    for engine in ENGINES:
        ref_forward, feats, _ = _setup(engine)
        seen |= _recorded_ops(ref_forward, feats)

    def the_rest(f):
        x = Tensor(f)
        return F.softmax((-(x - 1.0) * 2.0 / 3.0) ** 2.0).mean(axis=0)

    seen |= _recorded_ops(the_rest, FEATS)
    assert seen - {None} == set(_STEP_FNS)


def _op_literals_passed_to_make():
    found = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for call in ast.walk(ast.parse(path.read_text())):
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "_make"):
                for kw in call.keywords:
                    if kw.arg == "op":
                        found |= {c.value for c in ast.walk(kw.value)
                                  if isinstance(c, ast.Constant)
                                  and isinstance(c.value, str)}
    return found


def test_op_literals_in_the_source_are_exactly_the_compiled_vocabulary():
    assert _op_literals_passed_to_make() == set(_STEP_FNS)


# ------------------------------------------------------------------ #
# unnamed ops: decline on the dynamic spine, fold on constants
# ------------------------------------------------------------------ #
UNNAMED = {
    "tanh": lambda t: t.tanh(),
    "getitem": lambda t: t[IDX],
    "concat": lambda t: concat([t, t], axis=0),
}


@pytest.mark.parametrize("name", sorted(UNNAMED))
def test_unnamed_op_on_the_dynamic_spine_declines(name):
    def forward(f):
        return UNNAMED[name](Tensor(f)) @ W

    assert compile_plan(forward, FEATS, "fp32") is None


@pytest.mark.parametrize("name", sorted(UNNAMED))
def test_unnamed_op_on_constants_folds(name):
    const = Tensor(np.ones((8, 4)))

    def plain(f):
        return Tensor(f) @ W + const

    def forward(f):
        return Tensor(f) @ W + UNNAMED[name](const)[:1]

    base = compile_plan(plain, FEATS, "fp32")
    prog = compile_plan(forward, FEATS, "fp32")
    assert prog is not None
    assert prog.num_steps == base.num_steps
    # the unnamed op and the [:1] slice after it
    assert prog.num_folded == base.num_folded + 2
    f = FEATS * 3.0 - 1.0
    assert np.array_equal(prog.run(f), forward(f).data)


def _attention_forward(mask):
    def forward(f):
        q = (Tensor(f) @ W).reshape(1, 8, 4)
        return dense_attention(q, q, q, mask=mask).reshape(8, 4)
    return forward


def test_masked_dense_attention_declines():
    assert compile_plan(_attention_forward(None), FEATS, "fp32") is not None
    mask = np.tril(np.ones((8, 8), dtype=bool))
    assert compile_plan(_attention_forward(mask), FEATS, "fp32") is None


def test_checkpointed_forward_still_compiles():
    # checkpoint() re-wraps its block's output array in an unnamed node;
    # the trace already knows that array, so nothing is lost
    def forward(f):
        return checkpoint(lambda x: F.gelu(x @ W), Tensor(f)) + 1.0

    prog = compile_plan(forward, FEATS, "fp32")
    assert prog is not None
    assert [st.op for st in prog._steps] == ["matmul", "gelu", "add"]
    assert np.array_equal(prog.run(FEATS * 2.0), forward(FEATS * 2.0).data)


# ------------------------------------------------------------------ #
# capture discipline
# ------------------------------------------------------------------ #
def test_nested_trace_capture_raises():
    with trace_capture():
        with pytest.raises(RuntimeError, match="does not nest"):
            with trace_capture():
                pass
    with trace_capture() as rec:  # the failed attempt left nothing behind
        Tensor([1.0]) + 1.0
    assert [n.op for n in rec.nodes] == ["add"]


def test_compile_plan_inside_a_capture_declines():
    with trace_capture():
        assert compile_plan(lambda f: Tensor(f) @ W, FEATS, "fp32") is None


def test_reference_forward_errors_propagate():
    def boom(f):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        compile_plan(boom, FEATS, "fp32")
    with trace_capture():  # and the failed compile closed its capture
        pass


# ------------------------------------------------------------------ #
# golden pins: the step lists were taken on commit e017f82, before ops
# named themselves (the traced programs are the ones the patched wrappers
# built); the logits digests were re-recorded on the child of 23edc32,
# whose BLAS attention contractions and multiply-only GELU round differently.
# The SPD bias is one folded head-major gather since a428af7's child (it
# was a gather and a transpose), so engines with a bias fold 3 nodes, not 4
# ------------------------------------------------------------------ #
def _program_ops(kernel):
    proj = ["matmul", "add", "reshape", "transpose"]
    layer = (["layer_norm"] + proj * 3
             + [kernel, "transpose", "reshape", "matmul", "add", "add",
                "layer_norm", "matmul", "add", "gelu", "matmul", "add", "add"])
    return (["matmul", "add", "add", "add"] + layer * 2
            + ["layer_norm", "matmul", "add"])


GOLDEN = {  # engine: (num_steps, num_folded), attention op, logits sha256
    "gp-raw": ((59, 3), "dense_attention",
               "81951c7c8304c113163be077f5a5211b8570cba6a1ed8a8e635482066911d662"),
    "gp-flash": ((59, 2), "flash_attention",
                 "6b4f24d43ac79cac8cbe92816f8163eb1debd098a254fd093923f5e2e8c6b296"),
    "gp-sparse": ((59, 3), "sparse_attention",
                  "13a08fcfec43c7dc3d09cc9e196b13addcc617563cc3909a3ff7d31c54ee0357"),
    "torchgt": ((59, 3), "sparse_attention",
                "13a08fcfec43c7dc3d09cc9e196b13addcc617563cc3909a3ff7d31c54ee0357"),
}


@pytest.mark.parametrize("engine", ENGINES)
def test_traced_program_matches_the_parent_commit(engine):
    ref_forward, feats, precision = _setup(engine)
    with precision_scope(precision):
        prog = compile_plan(ref_forward, feats, precision)
        logits = prog.run(feats)
    counts, kernel, digest = GOLDEN[engine]
    assert (prog.num_steps, prog.num_folded) == counts
    assert [st.op for st in prog._steps] == _program_ops(kernel)
    if _blas_fingerprint() == PARENT_BLAS:  # float32 matmuls round per BLAS
        assert array_sha256(logits) == digest
