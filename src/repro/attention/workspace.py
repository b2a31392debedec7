"""Cached per-pattern workspaces for the sparse attention hot path.

The sparse kernel needs several arrays *derived* from an
:class:`~repro.attention.patterns.AttentionPattern` that do not depend on
Q/K/V at all:

* the expanded per-entry row index (``np.repeat`` over the CSR indptr);
* the non-empty segment starts the ``reduceat``-based row softmax uses;
* ``int32`` copies of the CSR index arrays (scipy's native index dtype,
  which its sparsetools products take as they are);
* the transpose structure (indptr/indices of Aᵀ plus the entry
  permutation) used by the backward pass's ``Aᵀ @ G`` products.

Before this module existed, every forward of every layer rebuilt all of
that from scratch, every iteration.  A :class:`PatternWorkspace` computes
each piece once and memoizes itself on the pattern instance, so repeated
forwards across layers and iterations reuse it.  Keying by pattern
*identity* gives automatic invalidation under Elastic Computation
Reformation: ECR emits a fresh ``AttentionPattern`` object, whose
workspace is built anew, and the stale workspace dies with the old
pattern.  :func:`invalidate_workspace` drops a workspace explicitly (for
callers that mutate a pattern in place — none in-tree do).

**The arena.**  The sparse kernel's scratch buffers — the (H, E, d) Q/K
and dO/V gathers, the scores, the softmax's gathered row max and
denominator, the upcast dense operand, the permuted transpose data, the
float64 accumulator and the dV/dQ/dK staging — live in one
``workspace_buffer`` dict per thread (:func:`scratch_arena`), shared by
every pattern.  Only the arrays that escape a call are allocated by it:
the forward's ``out`` and ``P`` (the tensor's data, and what the backward
keeps).  A buffer is reallocated only when its shape or dtype changes, so
a run over one pattern (node-level training, warm full-graph serving)
allocates nothing else, and a run over many (graph-level training, a
graph collection's predicts) holds one set, the last pattern's, instead
of one per pattern.  Per thread, because a serving thread and its caller
can run the kernel at the same time.  The GP-Flash kernel keeps its tile
temporaries in the same dict under ``flash_`` names (see
:mod:`repro.attention.flash`).

Caching is process-global and can be toggled (``set_workspace_caching`` /
the ``workspace_caching`` context manager) — the disabled path builds a
fresh workspace per call and runs the *identical* code, so outputs are bitwise identical with the cache on or off.

**Targeted invalidation** (streaming graph updates): every pattern with
a cached workspace is tracked in a weak registry, and callers that know
a pattern's provenance stamp it with :func:`stamp_workspace_scope` — a
dataset tag plus the original node ids its rows cover.  When a
:class:`~repro.stream.GraphDelta` lands, :func:`invalidate_touching`
drops *only* the workspaces whose scope intersects the delta's touched
rows (same tag, overlapping node set — or unknown provenance, dropped
conservatively); every other workspace stays warm.  This replaces the
previous all-or-nothing behavior where any topology change meant a cold
re-warm of every cached workspace in the process.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from ..tensor.functional import workspace_buffer as _buf
from .patterns import AttentionPattern

__all__ = [
    "PatternWorkspace",
    "WorkspaceCacheStats",
    "get_workspace",
    "invalidate_workspace",
    "stamp_workspace_scope",
    "invalidate_touching",
    "live_workspace_count",
    "clear_workspace_stats",
    "workspace_cache_stats",
    "set_workspace_caching",
    "workspace_caching_enabled",
    "workspace_caching",
    "scratch_arena",
]

_WORKSPACE_ATTR = "_cached_workspace"
_SCOPE_TAG_ATTR = "_workspace_scope_tag"
_SCOPE_NODES_ATTR = "_workspace_scope_nodes"

#: Weak registry of every pattern currently holding a cached workspace —
#: what :func:`invalidate_touching` walks.  Keyed by ``id`` (patterns
#: are eq-dataclasses, hence unhashable) with a weakref finalizer, so a
#: pattern dropped by its owner (ECR re-reform, session eviction) never
#: leaks through here.
_live_patterns: dict[int, "weakref.ref[AttentionPattern]"] = {}


def _track_pattern(pattern: AttentionPattern) -> None:
    key = id(pattern)
    _live_patterns[key] = weakref.ref(
        pattern, lambda _ref, _key=key: _live_patterns.pop(_key, None))


def _iter_live_patterns():
    for ref in list(_live_patterns.values()):
        pattern = ref()
        if pattern is not None:
            yield pattern


@dataclass
class WorkspaceCacheStats:
    """Global hit/miss counters for the workspace cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    targeted_drops: int = 0   # invalidate_touching: scope intersected
    targeted_retained: int = 0  # invalidate_touching: stayed warm

    def reset(self) -> None:
        self.hits = self.misses = self.invalidations = 0
        self.targeted_drops = self.targeted_retained = 0


_stats = WorkspaceCacheStats()
_caching_enabled = True


def _obs_targeted():
    """The registry counter twin of the targeted-invalidation counters.

    Fetched per call (not bound at import) so tests that install a
    fresh registry via :func:`repro.obs.set_registry` see these counts.
    """
    from ..obs.metrics import get_registry

    return get_registry().counter(
        "repro_workspace_targeted_total",
        "targeted invalidation outcomes (dropped / retained workspaces)",
        labels=("outcome",))


_arena = threading.local()


def scratch_arena() -> dict:
    """The calling thread's attention-kernel scratch buffers.

    A ``workspace_buffer`` dict keyed by buffer name: the temporaries of
    the sparse and flash kernels (the latter's names start with
    ``flash_``) live here across calls, so a warm call allocates only the
    arrays that escape it.  One per thread, whatever the pattern or
    sequence length, so the retained memory is one set of buffers per
    thread.
    """
    try:
        return _arena.bufs
    except AttributeError:
        bufs = _arena.bufs = {}
        return bufs


def segment_reduce_core(values: np.ndarray, ufunc, empty_val: float,
                        counts: np.ndarray, nonempty: np.ndarray,
                        starts_ne: np.ndarray) -> np.ndarray:
    """Per-row ``ufunc`` reduction of CSR-ordered ``values`` (shared core).

    ``counts``/``nonempty``/``starts_ne`` are the segment descriptors a
    workspace caches (or a standalone caller derives from an indptr).
    Reduceat is applied only at the starts of *non-empty* segments:
    consecutive non-empty starts are exactly each segment's boundaries
    (empty segments collapse onto the next start), so no index clamping
    is needed — clamping would silently truncate the last non-empty
    segment when trailing rows are empty.  Empty rows get ``empty_val``.
    """
    # np.full's default dtype: the row softmax of fp32 scores runs in
    # float64, and a float32 one would move every sparse digest
    out = np.full(values.shape[:-1] + (len(counts),), empty_val)
    if values.shape[-1] and len(starts_ne):
        out[..., nonempty] = ufunc.reduceat(values, starts_ne, axis=-1)
    return out


class PatternWorkspace:
    """All pattern-derived state the sparse kernel needs, computed once.

    The transpose structure is built lazily (first backward pass) so
    forward-only uses — evaluation, benchmarking — never pay for it.
    """

    __slots__ = ("seq_len", "num_entries", "indptr", "cols", "rows",
                 "indptr_ix", "cols_ix", "counts", "nonempty", "starts_ne",
                 "_t_struct")

    def __init__(self, pattern: AttentionPattern):
        indptr = np.asarray(pattern.indptr)
        # intp, so the clip-mode gathers index with it as it is
        cols = np.asarray(pattern.cols, dtype=np.intp)
        S = pattern.seq_len
        self.seq_len = S
        self.num_entries = int(len(cols))
        self.indptr = indptr
        self.cols = cols
        self.counts = np.diff(indptr)
        self.rows = np.repeat(np.arange(S, dtype=np.intp), self.counts)
        self.nonempty = self.counts > 0
        self.starts_ne = indptr[:-1][self.nonempty]
        # scipy's native index dtype: int32 unless the pattern overflows it
        ix = np.int32 if max(S, self.num_entries) < np.iinfo(np.int32).max \
            else np.int64
        self.indptr_ix = indptr.astype(ix, copy=False)
        self.cols_ix = cols.astype(ix, copy=False)
        self._t_struct = None

    # ------------------------------------------------------------------ #
    # segment (per-CSR-row) reductions over entry-shaped arrays
    # ------------------------------------------------------------------ #
    def segment_reduce(self, values: np.ndarray, ufunc,
                       empty_val: float) -> np.ndarray:
        """Per-row reduction using the cached segment descriptors."""
        return segment_reduce_core(values, ufunc, empty_val,
                                   self.counts, self.nonempty, self.starts_ne)

    def segment_max(self, values: np.ndarray) -> np.ndarray:
        return self.segment_reduce(values, np.maximum, -np.inf)

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        return self.segment_reduce(values, np.add, 0.0)

    def gather_rows(self, per_row: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``per_row[..., rows]`` written into ``out`` (shape ``(..., E)``)."""
        # clip mode writes straight into out (the row index is in range);
        # "raise" gathers into a temporary and copies
        return np.take(per_row, self.rows, axis=-1, out=out, mode="clip")

    def segment_softmax(self, scores: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Row-segment softmax of entry scores shaped ``(..., E)``.

        Computed in the row reductions' float64 (``np.full``'s default
        dtype) whatever the scores' dtype, and written to ``out`` (fresh
        when omitted); the gathered row max and denominator use one
        arena buffer.
        """
        row_max = self.segment_max(scores)
        if out is None:
            out = np.empty(scores.shape, np.result_type(scores, row_max))
        g = self.gather_rows(
            row_max, _buf(scratch_arena(), "seg_rows", scores.shape, row_max.dtype))
        np.subtract(scores, g, out=out)
        np.exp(out, out=out)
        self.gather_rows(self.segment_sum(out), out=g)
        np.maximum(g, 1e-30, out=g)
        return np.divide(out, g, out=out)

    # ------------------------------------------------------------------ #
    # CSR matmuls with cached structure
    # ------------------------------------------------------------------ #
    @property
    def transpose_struct(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(t_indptr, t_cols, perm)`` such that Aᵀ = CSR(data[perm], …).

        ``perm`` is the stable order of entries by column — the CSC/
        transpose index permutation.  Computed once per pattern (it costs
        an O(E log E) argsort, the single most expensive derived piece).
        """
        if self._t_struct is None:
            ix = self.indptr_ix.dtype
            perm = np.argsort(self.cols, kind="stable")
            t_cols = self.rows[perm].astype(ix, copy=False)
            col_counts = np.bincount(self.cols, minlength=self.seq_len)
            t_indptr = np.concatenate(
                [[0], np.cumsum(col_counts)]).astype(ix, copy=False)
            self._t_struct = (t_indptr, t_cols, perm)
        return self._t_struct

    def matmul(self, data: np.ndarray, dense: np.ndarray,
               out: np.ndarray | None = None, *, transpose: bool = False,
               scale: float | None = None) -> np.ndarray:
        """``A_h @ dense_h`` per head, A_h = CSR(pattern structure, data_h).

        ``data`` is ``(H, E)`` and ``dense`` ``(H, S, d)``.
        ``transpose`` multiplies by Aᵀ through the cached transpose
        permutation.  The arithmetic is scipy's ``csr_matrix @ dense``
        (private ``_sparsetools``, verified on scipy 1.17.1):
        the same sparsetools routine accumulating into zeros of
        ``result_type(data, dense)``, then ``* scale``, then a cast into
        ``out`` (fresh, in that result type, when omitted).  No matrix
        object is built, and the upcast dense operand, the permuted data
        and the accumulator come from the arena.
        """
        arena = scratch_arena()
        acc_dtype = np.result_type(data, dense)
        if transpose:
            indptr, indices, perm = self.transpose_struct
            data = np.take(data, perm, axis=-1, mode="clip",
                           out=_buf(arena, "mm_data", data.shape, data.dtype))
        else:
            indptr, indices = self.indptr_ix, self.cols_ix
        if dense.dtype != acc_dtype or not dense.flags.c_contiguous:
            up = _buf(arena, "mm_dense", dense.shape, acc_dtype)
            np.copyto(up, dense)
            dense = up
        if out is None:
            out = np.empty(dense.shape, acc_dtype)
        acc = out if out.dtype == acc_dtype and out.flags.c_contiguous \
            else _buf(arena, "mm_acc", out.shape, acc_dtype)
        acc.fill(0)
        S, d = dense.shape[1:]
        for h in range(len(data)):
            # scipy's dispatch: one vector goes to csr_matvec
            if d == 1:
                _sparsetools.csr_matvec(S, S, indptr, indices, data[h],
                                        dense[h].ravel(), acc[h].ravel())
            else:
                _sparsetools.csr_matvecs(S, S, d, indptr, indices, data[h],
                                         dense[h].ravel(), acc[h].ravel())
        if scale is not None:
            np.multiply(acc, scale, out=out, casting="unsafe")
        elif acc is not out:
            np.copyto(out, acc, casting="unsafe")
        return out


# ------------------------------------------------------------------ #
# the cache
# ------------------------------------------------------------------ #
def get_workspace(pattern: AttentionPattern) -> PatternWorkspace:
    """The (possibly cached) workspace for ``pattern``.

    With caching enabled the workspace memoizes on the pattern instance,
    so every layer/iteration touching the same pattern object shares one
    workspace; with caching disabled a fresh workspace is built per call
    (identical math, so outputs are bitwise identical either way).
    """
    if not _caching_enabled:
        _stats.misses += 1
        return PatternWorkspace(pattern)
    ws = pattern.__dict__.get(_WORKSPACE_ATTR)
    if ws is None:
        _stats.misses += 1
        ws = PatternWorkspace(pattern)
        pattern.__dict__[_WORKSPACE_ATTR] = ws
        _track_pattern(pattern)
    else:
        _stats.hits += 1
    return ws


def invalidate_workspace(pattern: AttentionPattern) -> bool:
    """Drop ``pattern``'s cached workspace; True if one existed."""
    existed = pattern.__dict__.pop(_WORKSPACE_ATTR, None) is not None
    _live_patterns.pop(id(pattern), None)
    if existed:
        _stats.invalidations += 1
    return existed


def stamp_workspace_scope(pattern: AttentionPattern, tag=None,
                          node_ids: np.ndarray | None = None) -> None:
    """Record a pattern's provenance for targeted invalidation.

    ``tag`` names the dataset (any hashable — e.g. ``("ds", id(ds))``)
    the pattern was built over; ``node_ids`` are the **original** node
    ids its rows cover (the reordering inverse for clustered layouts,
    the queried node set for subgraphs; ``None`` = the whole graph).
    :func:`invalidate_touching` keeps differently-tagged workspaces
    warm and, within a tag, drops only those whose node set intersects
    a delta's touched rows.
    """
    pattern.__dict__[_SCOPE_TAG_ATTR] = tag
    pattern.__dict__[_SCOPE_NODES_ATTR] = (
        None if node_ids is None
        else np.asarray(node_ids, dtype=np.int64))


def invalidate_touching(touched: np.ndarray, tag=None) -> dict:
    """Drop only the cached workspaces a graph delta actually staled.

    Walks every live workspace-holding pattern and drops it when

    * its scope tag matches ``tag`` (or either side has no tag —
      unknown provenance is dropped conservatively, never served
      stale), **and**
    * its scope node set intersects ``touched`` (no recorded node set
      = covers the whole graph = always intersects).

    Everything else stays warm.  Returns ``{"dropped": …,
    "retained": …}`` and feeds the ``targeted_drops`` /
    ``targeted_retained`` counters in :func:`workspace_cache_stats`.
    """
    touched = np.asarray(touched, dtype=np.int64)
    dropped = retained = 0
    live = list(_iter_live_patterns())
    if not len(touched):  # feature-only delta: no topology row changed
        _stats.targeted_retained += len(live)
        _obs_targeted().inc(len(live), outcome="retained")
        return {"dropped": 0, "retained": len(live)}
    for pattern in live:
        p_tag = pattern.__dict__.get(_SCOPE_TAG_ATTR)
        if tag is not None and p_tag is not None and p_tag != tag:
            retained += 1
            continue
        nodes = pattern.__dict__.get(_SCOPE_NODES_ATTR)
        if nodes is not None and not np.any(
                np.isin(nodes, touched, assume_unique=False)):
            retained += 1
            continue
        if invalidate_workspace(pattern):
            dropped += 1
    _stats.targeted_drops += dropped
    _stats.targeted_retained += retained
    if dropped:
        _obs_targeted().inc(dropped, outcome="dropped")
    if retained:
        _obs_targeted().inc(retained, outcome="retained")
    return {"dropped": dropped, "retained": retained}


def live_workspace_count() -> int:
    """How many patterns currently hold a cached workspace."""
    return sum(1 for p in _iter_live_patterns()
               if _WORKSPACE_ATTR in p.__dict__)


def workspace_cache_stats() -> WorkspaceCacheStats:
    """The global hit/miss counters (live object; see ``reset()``)."""
    return _stats


def clear_workspace_stats() -> None:
    _stats.reset()


def set_workspace_caching(enabled: bool) -> None:
    """Globally enable/disable workspace reuse (numerics are unaffected)."""
    global _caching_enabled
    _caching_enabled = bool(enabled)


def workspace_caching_enabled() -> bool:
    return _caching_enabled


@contextmanager
def workspace_caching(enabled: bool):
    """Temporarily force workspace caching on or off (tests, benchmarks)."""
    prev = _caching_enabled
    set_workspace_caching(enabled)
    try:
        yield
    finally:
        set_workspace_caching(prev)
