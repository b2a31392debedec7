"""A numpy-backed reverse-mode autodiff tensor.

This module is the substrate that replaces PyTorch for the TorchGT
reproduction.  It implements a tensor-granular autograd: each ``Tensor``
wraps an ``np.ndarray`` and records, when ``requires_grad`` is set, a
backward closure plus its parent tensors.  ``Tensor.backward()`` runs a
topological sort over the recorded graph and accumulates gradients.

Design notes (per the HPC guides):

* All op implementations are vectorized numpy — no Python-level loops over
  elements.  Broadcasting is embraced in forward and undone in backward by
  :func:`unbroadcast`.
* Gradients accumulate in-place (``+=``) into pre-allocated buffers to
  avoid churn, and reductions use ufunc ``.sum`` over axes rather than
  copies.
* A precision policy (see :mod:`repro.tensor.precision`) lets the whole
  engine run in simulated bfloat16 for the Table VII experiment.
* Grad recording, compute precision and the active trace recorder are
  each a :class:`contextvars.ContextVar`: a scope entered on one thread
  never reaches an op on another, and a new thread starts at the
  defaults (grad on, fp32, no recorder).
* Every op output is built by :meth:`Tensor._make`, which is where an op
  *names itself* for :mod:`repro.backend`'s plan tracing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .precision import Precision, apply_precision

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "set_precision",
           "get_precision", "precision_scope"]

_GRAD_ENABLED: ContextVar[bool] = ContextVar("repro_grad_enabled", default=True)
_PRECISION: ContextVar[str] = ContextVar("repro_precision", default=Precision.FP32)
# the repro.backend.trace.TraceRecorder of the enclosing trace_capture(), if any
_RECORDER: ContextVar = ContextVar("repro_trace_recorder", default=None)


def set_precision(precision: str) -> None:
    """Set this context's compute precision (``fp64``, ``fp32`` or ``bf16``)."""
    if precision not in Precision.ALL:
        raise ValueError(f"unknown precision: {precision!r}")
    _PRECISION.set(precision)


def get_precision() -> str:
    """Return this context's compute precision."""
    return _PRECISION.get()


@contextmanager
def precision_scope(precision: str):
    """Run a block under ``precision``, restoring the previous setting
    even if the block raises (trainers run user callbacks inside it)."""
    prev = get_precision()
    set_precision(precision)
    try:
        yield
    finally:
        set_precision(prev)


class no_grad:
    """Context manager that disables graph recording (like torch.no_grad)."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


def is_grad_enabled() -> bool:
    """Whether ops currently record the autograd graph."""
    return _GRAD_ENABLED.get()


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes.

    Forward ops rely on numpy broadcasting; the corresponding backward must
    sum gradient contributions over every axis that was expanded.
    """
    if grad.shape == shape:
        return grad
    # sum leading axes added by broadcasting
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum axes that were size-1 in the original shape
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; cast to the active precision's storage dtype.
    requires_grad:
        Record the autograd graph through this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 1000  # make numpy defer to our reflected ops

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in "fc":
            arr = arr.astype(Precision.dtype(_PRECISION.get()), copy=False)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """A view of this tensor cut out of the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str | None = None,
        **params,
    ) -> "Tensor":
        """Wrap an op output, recording the graph if grad is enabled.

        ``op`` / ``params`` are what the op states about itself — its name
        in the compiled backend's vocabulary and what its lowering needs;
        inside a ``trace_capture()`` they go to the recorder.
        """
        # fast path: apply_precision already produced a conforming ndarray,
        # so skip __init__'s coercion and assign slots directly — this is
        # the per-op overhead every hot-loop forward pays
        data = apply_precision(data, _PRECISION.get())
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        out.name = ""
        if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        rec = _RECORDER.get()
        if rec is not None:
            rec.record(op, tuple(p.data for p in parents), params, data)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer (in place).

        Copies or adds ``grad`` and never keeps the array: the sparse
        attention backward passes scratch buffers it reuses.
        """
        grad = np.asarray(grad, dtype=self.data.dtype if self.data.dtype.kind == "f" else np.float64)
        if grad.shape != self.data.shape:
            grad = unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # iterative topological order (graphs can be thousands of ops deep)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(g)

        return Tensor._make(a.data + b.data, (a, b), backward, op="add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(-g)

        return Tensor._make(a.data - b.data, (a, b), backward, op="sub")

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * b.data)
            if b.requires_grad:
                b._accumulate(g * a.data)

        return Tensor._make(a.data * b.data, (a, b), backward, op="mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(g / b.data)
            if b.requires_grad:
                b._accumulate(-g * a.data / (b.data * b.data))

        return Tensor._make(a.data / b.data, (a, b), backward, op="truediv")

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(-g)

        return Tensor._make(-a.data, (a,), backward, op="neg")

    def __pow__(self, exponent: float) -> "Tensor":
        a = self
        p = float(exponent)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * p * np.power(a.data, p - 1.0))

        return Tensor._make(np.power(a.data, p), (a,), backward,
                            op="pow", exponent=p)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate(unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accumulate(unbroadcast(gb, b.data.shape))

        return Tensor._make(a.data @ b.data, (a, b), backward, op="matmul")

    # comparisons (non-differentiable, return plain arrays)
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------ #
    # elementwise transcendental
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * out_data)

        return Tensor._make(out_data, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(g / a.data)

        return Tensor._make(np.log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        a = self
        out_data = np.sqrt(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * 0.5 / np.maximum(out_data, 1e-30))

        return Tensor._make(out_data, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * mask)

        return Tensor._make(a.data * mask, (a,), backward)

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * sign)

        return Tensor._make(np.abs(a.data), (a,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        a = self
        mask = (a.data >= lo) & (a.data <= hi)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * mask)

        return Tensor._make(np.clip(a.data, lo, hi), (a,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self

        def backward(g):
            if not a.requires_grad:
                return
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape))
            else:
                g2 = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(g2, a.data.shape))

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        if axis is None:
            count = a.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([a.data.shape[ax] for ax in axes]))

        def backward(g):
            if not a.requires_grad:
                return
            if axis is None:
                a._accumulate(np.broadcast_to(g / count, a.data.shape))
            else:
                g2 = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(g2 / count, a.data.shape))

        return Tensor._make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward,
                            op="mean", axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.max(axis=axis, keepdims=True)
        mask = a.data == out_data
        # split gradient evenly among ties, matching subgradient convention
        counts = mask.sum(axis=axis, keepdims=True)

        def backward(g):
            if not a.requires_grad:
                return
            if axis is None:
                g2 = g
            else:
                g2 = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(mask * (g2 / counts))

        result = out_data if keepdims or axis is None else np.squeeze(out_data, axis=axis)
        if axis is None and not keepdims:
            result = np.asarray(result).reshape(())
        return Tensor._make(result, (a,), backward)

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old_shape = a.data.shape

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.reshape(old_shape))

        out_data = a.data.reshape(shape)
        # the resolved shape: a traced replay cannot re-infer a -1
        return Tensor._make(out_data, (a,), backward,
                            op="reshape", shape=out_data.shape)

    def transpose(self, *axes) -> "Tensor":
        a = self
        if not axes:
            perm = tuple(reversed(range(a.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            perm = tuple(axes[0])
        else:
            perm = tuple(axes)
        inv = tuple(np.argsort(perm))

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.transpose(inv))

        return Tensor._make(a.data.transpose(perm), (a,), backward,
                            op="transpose", perm=perm)

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(np.swapaxes(g, ax1, ax2))

        return Tensor._make(np.swapaxes(a.data, ax1, ax2), (a,), backward)

    def __getitem__(self, idx) -> "Tensor":
        a = self

        def backward(g):
            if a.requires_grad:
                buf = np.zeros_like(a.data)
                np.add.at(buf, idx, g)
                a._accumulate(buf)

        return Tensor._make(a.data[idx], (a,), backward)

    # ------------------------------------------------------------------ #
    # factory methods
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: np.random.Generator | None = None, scale: float = 1.0,
              requires_grad: bool = False) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        rng = rng if rng is not None else np.random.default_rng()
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    ts = [Tensor._coerce(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(int(lo), int(hi))
                t._accumulate(g[tuple(sl)])

    return Tensor._make(np.concatenate([t.data for t in ts], axis=axis), ts, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    ts = [Tensor._coerce(t) for t in tensors]

    def backward(g):
        for i, t in enumerate(ts):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return Tensor._make(np.stack([t.data for t in ts], axis=axis), ts, backward)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise select; ``cond`` is a plain bool array."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    cond = np.asarray(cond)

    def backward(g):
        if a.requires_grad:
            a._accumulate(unbroadcast(g * cond, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * (~cond), b.data.shape))

    return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward)
