"""Lowering + replay: turn one traced forward into a fused program.

The pipeline is ``trace → fold → lower → verify``:

* **fold** — any node whose inputs are all constants (weights, encodings,
  anything not derived from the feature matrix) is deleted and its traced
  output array *is* its folded value — no recomputation.  This removes
  entire encoding subgraphs (e.g. Graphormer's per-forward (S,S,H) SPD
  bias gather + transpose) from the steady-state path.
* **lower** — each surviving node becomes a step executing the same
  ``*_forward`` helper the reference autograd op calls, but against a
  persistent per-step workspace dict, so steady-state replay performs no
  allocations and no autograd bookkeeping.
* **verify** — the program runs on a perturbed input and on the original
  input and must match the reference forward *bitwise* (dtype, shape and
  every bit of every logit).  Any divergence — a value computed outside
  ``Tensor._make`` polluting the trace, a dtype surprise, a numba
  summation-order difference — rejects the program and the caller stays
  on the reference path.

Determinism contract: a :class:`CompiledProgram` that survives
verification produces bitwise-identical outputs to the reference path for
*every* input of the traced shape, because each step is either the exact
shared helper or an out=-projection of the same ufunc/BLAS call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..attention.dense import dense_attention_forward
from ..attention.flash import flash_forward
from ..attention.sparse import sparse_attention_forward
from ..obs.metrics import get_registry
from ..tensor.functional import gelu_forward, layer_norm_forward, softmax_forward, workspace_buffer as _buf
from ..tensor.precision import Precision
from . import jit
from .trace import TraceRecorder, capture_active, trace_capture

__all__ = ["CompiledProgram", "compile_plan"]

_SRC_CONST = 0
_SRC_INPUT = 1
_SRC_STEP = 2


class _Step:
    __slots__ = ("op", "fn", "srcs", "params", "ws", "out_dtype", "out_shape", "idx")

    def __init__(self, op, fn, srcs, params, out_dtype, out_shape, idx):
        self.op = op
        self.fn = fn
        self.srcs = srcs
        self.params = params
        self.ws: dict = {}
        self.out_dtype = out_dtype
        self.out_shape = out_shape
        self.idx = idx


# --------------------------------------------------------------------- #
# step implementations — all funnel through the shared forward helpers
# --------------------------------------------------------------------- #
def _ufunc_step(ufunc):
    def fn(srcs, st):
        a, b = srcs
        out = _buf(st.ws, "nat", st.out_shape, np.result_type(a, b))
        ufunc(a, b, out=out)
        return out
    return fn


def _step_neg(srcs, st):
    out = _buf(st.ws, "nat", st.out_shape, srcs[0].dtype)
    np.negative(srcs[0], out=out)
    return out


def _step_pow(srcs, st):
    out = _buf(st.ws, "nat", st.out_shape, srcs[0].dtype)
    np.power(srcs[0], st.params["exponent"], out=out)
    return out


def _step_matmul(srcs, st):
    a, b = srcs
    out = _buf(st.ws, "nat", st.out_shape, np.result_type(a, b))
    np.matmul(a, b, out=out)
    return out


def _step_transpose(srcs, st):
    return srcs[0].transpose(st.params["perm"])


def _step_reshape(srcs, st):
    src = srcs[0]
    shape = st.params["shape"]
    needs_copy = st.ws.get("needs_copy")
    if needs_copy is None:
        r = src.reshape(shape)
        needs_copy = not np.shares_memory(r, src)
        st.ws["needs_copy"] = needs_copy
        if not needs_copy:
            return r
    elif not needs_copy:
        return src.reshape(shape)
    out = _buf(st.ws, "nat", shape, src.dtype)
    np.copyto(out.reshape(src.shape), src)
    return out


def _step_mean(srcs, st):
    out = _buf(st.ws, "nat", st.out_shape, srcs[0].dtype)
    np.mean(srcs[0], axis=st.params["axis"], keepdims=st.params["keepdims"],
            out=out)
    return out


def _step_gelu(srcs, st):
    out, _t = gelu_forward(srcs[0], ws=st.ws)
    return out


def _step_softmax(srcs, st):
    return softmax_forward(srcs[0], axis=st.params["axis"], ws=st.ws)


def _step_layer_norm(srcs, st):
    out, _xh, _inv = layer_norm_forward(srcs[0], srcs[1], srcs[2],
                                        st.params["eps"], ws=st.ws)
    return out


def _step_embedding(srcs, st):
    out = _buf(st.ws, "nat", st.out_shape, srcs[0].dtype)
    np.take(srcs[0], st.params["indices"], axis=0, out=out)
    return out


def _step_dense_attention(srcs, st):
    bias = srcs[3] if st.params["has_bias"] else None
    out, _p = dense_attention_forward(srcs[0], srcs[1], srcs[2], bias=bias,
                                      scale=st.params["scale"], ws=st.ws)
    return out


def _step_sparse_attention(srcs, st):
    bias = srcs[3] if st.params["has_bias"] else None
    out, _p = sparse_attention_forward(
        srcs[0], srcs[1], srcs[2], st.params["pattern_ws"], bias=bias,
        scale=st.params["scale"], ws=st.ws,
        scores_fn=st.params["scores_fn"])
    return out


def _step_flash_attention(srcs, st):
    out, _m, _l = flash_forward(srcs[0], srcs[1], srcs[2],
                                scale=st.params["scale"],
                                tile_size=st.params["tile_size"])
    return out


_STEP_FNS: dict[str, Callable] = {
    "add": _ufunc_step(np.add),
    "sub": _ufunc_step(np.subtract),
    "mul": _ufunc_step(np.multiply),
    "truediv": _ufunc_step(np.true_divide),
    "neg": _step_neg,
    "pow": _step_pow,
    "matmul": _step_matmul,
    "transpose": _step_transpose,
    "reshape": _step_reshape,
    "mean": _step_mean,
    "gelu": _step_gelu,
    "softmax": _step_softmax,
    "layer_norm": _step_layer_norm,
    "embedding": _step_embedding,
    "dense_attention": _step_dense_attention,
    "sparse_attention": _step_sparse_attention,
    "flash_attention": _step_flash_attention,
}


class CompiledProgram:
    """A lowered, constant-folded, workspace-backed forward program.

    ``run(feats)`` copies the features into the program's private input
    buffer, replays the step list (each step writing into its persistent
    workspace buffers) and returns a *copy* of the output, so callers may
    retain results across calls.  After the first replay warms the
    buffers, steady-state runs allocate nothing beyond the returned copy.
    """

    def __init__(self, in_buf: np.ndarray, steps: list[_Step], out_ref,
                 num_traced: int, uses_jit: bool):
        self._in_buf = in_buf
        self._steps = steps
        self._out_ref = out_ref  # (_SRC_CONST, arr) or (_SRC_STEP, idx)
        self._results: list = [None] * len(steps)
        self.num_steps = len(steps)
        self.num_folded = num_traced - len(steps)
        self.uses_jit = uses_jit
        self._obs_replays = get_registry().counter(
            "repro_backend_replays_total",
            "compiled-program forward replays served")

    @property
    def input_shape(self) -> tuple[int, ...]:
        """Feature-matrix shape the program was traced for."""
        return self._in_buf.shape

    def run(self, feats: np.ndarray) -> np.ndarray:
        """Replay the program on ``feats`` and return the logits array."""
        self._obs_replays.inc()
        feats = np.asarray(feats)
        if feats.shape != self._in_buf.shape:
            raise ValueError(
                f"compiled program expects input shape {self._in_buf.shape}, "
                f"got {feats.shape}")
        np.copyto(self._in_buf, feats, casting="unsafe")
        results = self._results
        in_buf = self._in_buf
        for st in self._steps:
            vals = [in_buf if kind == _SRC_INPUT
                    else (results[payload] if kind == _SRC_STEP else payload)
                    for kind, payload in st.srcs]
            res = st.fn(vals, st)
            if res.dtype != st.out_dtype:
                cast = _buf(st.ws, "cast", res.shape, st.out_dtype)
                np.copyto(cast, res, casting="unsafe")
                res = cast
            results[st.idx] = res
        kind, payload = self._out_ref
        out = results[payload] if kind == _SRC_STEP else payload
        return np.array(out, copy=True)


def _lower(rec: TraceRecorder, in_arr: np.ndarray, out_id: int,
           use_jit: bool) -> CompiledProgram | None:
    """Fold constants and lower the trace; ``None`` when not lowerable."""
    state: dict[int, tuple] = {id(in_arr): (_SRC_INPUT, None)}
    steps: list[_Step] = []
    for node in rec.nodes:
        srcs = []
        dynamic = False
        for iid in node.input_ids:
            known = state.get(iid)
            if known is None:  # produced by no recorded op: a constant
                known = (_SRC_CONST, rec.values[iid])
            srcs.append(known)
            dynamic = dynamic or known[0] != _SRC_CONST
        if not dynamic:
            # constant fold: the traced output already holds the value
            state[node.out_id] = (_SRC_CONST, node.out)
            continue
        if node.op is None and node.out_id in state:
            continue  # re-wraps an array the trace already produced (checkpoint)
        fn = _STEP_FNS.get(node.op)
        if fn is None:
            return None  # an unnamed op on the dynamic spine
        params = dict(node.params)
        if node.op == "sparse_attention":
            params["scores_fn"] = jit.gather_scores \
                if (use_jit and jit.HAVE_NUMBA) else None
        step = _Step(node.op, fn, tuple(srcs), params,
                     node.out.dtype, node.out.shape, len(steps))
        steps.append(step)
        state[node.out_id] = (_SRC_STEP, step.idx)
    out_ref = state.get(out_id)
    if out_ref is None or out_ref[0] == _SRC_INPUT:
        return None
    jit_active = use_jit and jit.HAVE_NUMBA and any(
        st.op == "sparse_attention" for st in steps)
    return CompiledProgram(in_arr, steps, out_ref, len(rec.nodes), jit_active)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True))


def _verify(prog: CompiledProgram, ref_forward, in_arr: np.ndarray,
            traced_out: np.ndarray) -> bool:
    """Bitwise-compare the program against the reference on two inputs."""
    # snapshot first: in_arr doubles as the program's input buffer, so the
    # perturbed run below overwrites it
    orig = np.array(in_arr, copy=True)
    test = orig * 1.5 + 0.25
    try:
        want = ref_forward(test).data
        got = prog.run(test)
        if not _bitwise_equal(got, want):
            return False
        got0 = prog.run(orig)
        return _bitwise_equal(got0, traced_out)
    except Exception:
        return False


def compile_plan(ref_forward, feats: np.ndarray, precision: str,
                 use_jit: bool = True) -> CompiledProgram | None:
    """Trace ``ref_forward`` over ``feats`` into a verified fused program.

    ``ref_forward(feats_array) -> Tensor`` must execute the *reference*
    forward path (the caller typically binds model/engine/plan state into
    it) and must be called under the same precision scope the compiled
    program will serve.  Returns ``None`` whenever anything prevents a
    *bitwise-faithful* program — unsupported precision (bf16 rounds every
    op output), an op outside the compiled vocabulary (masked dense
    attention included) computing on the features, a call from inside
    another capture, or a verification mismatch.  An exception raised by
    ``ref_forward`` itself propagates.  When numba is present, the JIT'ed
    program is verified first and silently rebuilt without JIT if it fails
    the bitwise gate.
    """
    if precision not in (Precision.FP32, Precision.FP64) or capture_active():
        return None
    dtype = Precision.dtype(precision)
    # private copy: replay overwrites this buffer, never the caller's array
    in_arr = np.array(feats, dtype=dtype)
    with trace_capture() as rec:
        out_t = ref_forward(in_arr)
    out_arr = out_t.data  # _lower declines when no recorded op produced it
    prog = _lower(rec, in_arr, id(out_arr), use_jit=use_jit)
    if prog is not None and _verify(prog, ref_forward, in_arr, out_arr):
        return prog
    if use_jit and jit.HAVE_NUMBA:
        prog = _lower(rec, in_arr, id(out_arr), use_jit=False)
        if prog is not None and _verify(prog, ref_forward, in_arr, out_arr):
            return prog
    return None
