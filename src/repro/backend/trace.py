"""Plan tracing: record one eval forward as a flat op program.

The numpy substrate has no lazy graph to export, but every op output is
built by :meth:`repro.tensor.Tensor._make`, where the op *names itself*:
the closed vocabulary the compiled backend lowers passes ``op=`` plus the
parameters its lowering needs, every other op leaves ``op`` unset.  Inside
:func:`trace_capture`, ``_make`` hands the :class:`TraceRecorder` one
``(op, input arrays, params, output array)`` per op.  The recorded arrays
are the trace's value universe: anything never produced by a recorded op
is a *constant* (weights, encodings, attention bias tables), which lets
the lowering pass in :mod:`repro.backend.compiled` fold entire encoding
subgraphs away.  An unnamed op folds too when its inputs are constants,
and makes the lowering decline when they are not.

The recorder holds strong references to every array it sees so that
``id()`` keys cannot be recycled mid-trace.  Capture is context-local (a
``ContextVar``): other threads' ops are never recorded, nothing is patched.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from ..tensor.tensor import _RECORDER

__all__ = ["TraceNode", "TraceRecorder", "trace_capture", "capture_active"]


class TraceNode(NamedTuple):
    """One recorded op: name (``None`` = outside the compiled vocabulary),
    input array ids, params, output array."""

    op: str | None
    input_ids: tuple[int, ...]
    params: dict
    out_id: int
    out: np.ndarray


class TraceRecorder:
    """Accumulates :class:`TraceNode` entries during one traced forward."""

    def __init__(self) -> None:
        self.nodes: list[TraceNode] = []
        self.values: dict[int, np.ndarray] = {}  # id -> array (strong refs)

    def record(self, op: str | None, inputs: tuple[np.ndarray, ...],
               params: dict, out: np.ndarray) -> None:
        """Append one op; pins every involved array so ids stay unique."""
        ids = []
        for a in inputs:
            self.values.setdefault(id(a), a)
            ids.append(id(a))
        self.values[id(out)] = out
        self.nodes.append(TraceNode(op, tuple(ids), params, id(out), out))


def capture_active() -> bool:
    """Whether the calling context is inside a :func:`trace_capture`."""
    return _RECORDER.get() is not None


@contextmanager
def trace_capture():
    """Yield a fresh :class:`TraceRecorder` that every op built in this
    context reports to until the block exits (even on error).

    Nested capture is refused — the recorder would interleave.
    """
    if capture_active():
        raise RuntimeError("trace_capture does not nest")
    rec = TraceRecorder()
    token = _RECORDER.set(rec)
    try:
        yield rec
    finally:
        _RECORDER.reset(token)
