"""Lazy node-chunked array views over store chunk files.

:class:`ChunkedRowArray` is the drop-in stand-in for the in-RAM numpy
arrays a :class:`~repro.graph.NodeDataset` carries: it exposes
``shape`` / ``dtype`` / ``len`` and row-oriented ``__getitem__`` (ints,
slices, integer arrays, boolean masks — everything ``Session``, the
trainers and the serve tiers actually do with ``dataset.features``),
materializing only the rows asked for.  Chunk loads are read-only
:func:`numpy.memmap` views (the OS pages bytes in lazily; writing
through one raises), routed through the dataset's shared
:class:`~repro.store.ChunkCache` and pinned for the duration of each
gather.

A read-only store that receives a :class:`~repro.stream.GraphDelta`
mutates through the **overlay**: in-place row updates become patch rows
and appended nodes become a tail block, both held in RAM and composed
over the immutable chunk files at read time.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

import numpy as np

from ..obs.trace import get_tracer

__all__ = ["ChunkedRowArray"]


class ChunkedRowArray:
    """A row-chunked, mmap-backed, cache-fronted read-only array.

    Direct writes raise — mutation goes through
    :meth:`~repro.store.StoredNodeDataset.apply_delta`, which installs
    overlay rows here via :meth:`apply_updates` / :meth:`append_rows`.
    """

    def __init__(self, store_dir: str, name: str, spec, cache,
                 row_bounds: np.ndarray):
        self._dir = os.fspath(store_dir)
        self._name = name
        self._spec = spec
        self._cache = cache
        self._bounds = np.asarray(row_bounds, dtype=np.int64)
        self._dtype = np.dtype(spec.dtype)
        self._base_rows = int(spec.shape[0])
        self._tail = np.empty((0,) + tuple(spec.shape[1:]), dtype=self._dtype)
        self._patch_rows = np.empty(0, dtype=np.int64)   # sorted, unique
        self._patch_vals = np.empty((0,) + tuple(spec.shape[1:]),
                                    dtype=self._dtype)

    # -- array surface ------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        """Logical shape: persisted rows plus any overlay tail."""
        return (self._base_rows + len(self._tail),) + tuple(
            self._spec.shape[1:])

    @property
    def dtype(self) -> np.dtype:
        """The element dtype (native-order view of the stored dtype)."""
        return self._dtype

    @property
    def ndim(self) -> int:
        """Number of dimensions (rows first)."""
        return len(self._spec.shape)

    @property
    def nbytes(self) -> int:
        """Logical byte count of the full array (not resident bytes)."""
        n = 1
        for d in self.shape:
            n *= d
        return n * self._dtype.itemsize

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):
        """Materialize every row (what ``np.asarray(features)`` hits)."""
        out = self._gather(np.arange(self.shape[0], dtype=np.int64))
        return out if dtype is None else out.astype(dtype)

    def __getitem__(self, key) -> np.ndarray:
        """Row-oriented indexing; always returns a materialized ndarray."""
        if isinstance(key, tuple):
            rows = self[key[0]]
            return rows[(slice(None),) + key[1:]] if len(key) > 1 else rows
        n = self.shape[0]
        if isinstance(key, (int, np.integer)):
            i = int(key)
            if i < 0:
                i += n
            if not 0 <= i < n:
                raise IndexError(
                    f"row {key} out of range for {n}-row array")
            return self._gather(np.array([i], dtype=np.int64))[0]
        if isinstance(key, slice):
            return self._gather(np.arange(n, dtype=np.int64)[key])
        rows = np.asarray(key)
        if rows.dtype == bool:
            if rows.shape != (n,):
                raise IndexError(
                    f"boolean mask of shape {rows.shape} does not match "
                    f"{n}-row array")
            rows = np.nonzero(rows)[0]
        rows = rows.astype(np.int64, copy=False)
        if rows.ndim != 1:
            raise IndexError("row indices must be one-dimensional")
        neg = rows < 0
        if neg.any():
            rows = np.where(neg, rows + n, rows)
        if len(rows) and (rows.min() < 0 or rows.max() >= n):
            raise IndexError(f"row index out of range for {n}-row array")
        return self._gather(rows)

    def __setitem__(self, key, value):
        """Refused: the chunk files are immutable through this view."""
        raise TypeError(
            f"store-backed array {self._name!r} is read-only; apply a "
            "GraphDelta through the dataset "
            "(StoredNodeDataset.apply_delta) instead")

    # -- chunk plumbing ----------------------------------------------------- #
    def _chunk_key(self, i: int) -> tuple:
        return (self._name, int(i))

    def _load_chunk(self, i: int) -> np.ndarray:
        ref = self._spec.chunks[i]
        path = os.path.join(self._dir, ref.file)
        try:
            return np.memmap(path, dtype=np.dtype(self._spec.dtype),
                             mode="r", shape=tuple(ref.shape))
        except (FileNotFoundError, ValueError) as exc:
            raise ValueError(
                f"store chunk {ref.file} for array {self._name!r} is "
                f"missing or truncated: {exc}") from exc

    def chunk(self, i: int) -> np.ndarray:
        """The ``i``-th chunk as a read-only mmap view (cache-fronted)."""
        return self._cache.get(self._chunk_key(i),
                               lambda: self._load_chunk(i))

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        """Copy the requested rows out of chunks, tail and patches."""
        out = np.empty((len(rows),) + tuple(self._spec.shape[1:]),
                       dtype=self._dtype)
        if not len(rows):
            return out
        base = rows < self._base_rows
        base_rows = rows[base]
        if len(base_rows):
            cidx = np.searchsorted(self._bounds, base_rows,
                                   side="right") - 1
            chunks = np.unique(cidx)
            base_pos = np.nonzero(base)[0]
            tracer = get_tracer()
            # a chunk_fetch span only when a request's ambient trace
            # context is active — idle scans don't mint orphan traces
            span = (tracer.span("chunk_fetch",
                                attrs={"array": self._name,
                                       "chunks": int(len(chunks)),
                                       "rows": int(len(base_rows))})
                    if tracer.enabled and tracer.current() is not None
                    else nullcontext())
            # pin every chunk this gather reads so the copy loop cannot
            # have its own working set evicted under it by a tight budget
            with self._cache.pinned(
                    self._chunk_key(c) for c in chunks), span:
                for c in chunks:
                    sel = cidx == c
                    data = self.chunk(int(c))
                    out[base_pos[sel]] = data[base_rows[sel]
                                              - self._bounds[c]]
        if len(self._tail):
            tail_pos = np.nonzero(~base)[0]
            if len(tail_pos):
                out[tail_pos] = self._tail[rows[tail_pos] - self._base_rows]
        if len(self._patch_rows):
            patched = np.isin(rows, self._patch_rows)
            if patched.any():
                pi = np.searchsorted(self._patch_rows, rows[patched])
                out[patched] = self._patch_vals[pi]
        return out

    # -- overlay (deltas applied to the store) ------------------------------ #
    def apply_updates(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Overlay in-place row updates (later updates win per row).

        Rows landing in the overlay tail are written into the tail
        directly; rows over chunk files become patch entries.
        """
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=self._dtype)
        in_tail = rows >= self._base_rows
        if in_tail.any():
            self._tail[rows[in_tail] - self._base_rows] = values[in_tail]
        rows, values = rows[~in_tail], values[~in_tail]
        if not len(rows):
            return
        # last write wins within one call, then merge over prior patches
        order = np.argsort(rows, kind="stable")
        rows, values = rows[order], values[order]
        keep = np.concatenate([rows[1:] != rows[:-1], [True]])
        rows, values = rows[keep], values[keep]
        old_keep = ~np.isin(self._patch_rows, rows)
        all_rows = np.concatenate([self._patch_rows[old_keep], rows])
        all_vals = np.concatenate([self._patch_vals[old_keep], values])
        order = np.argsort(all_rows)
        self._patch_rows = all_rows[order]
        self._patch_vals = all_vals[order]

    def append_rows(self, values: np.ndarray) -> None:
        """Overlay appended rows (fresh nodes) after the persisted rows."""
        values = np.asarray(values, dtype=self._dtype)
        self._tail = np.concatenate([self._tail, values])

    @property
    def overlay_rows(self) -> int:
        """Patched + appended rows currently held in RAM (observability)."""
        return len(self._patch_rows) + len(self._tail)

    def __repr__(self) -> str:
        return (f"ChunkedRowArray({self._name!r}, shape={self.shape}, "
                f"dtype={self._dtype}, chunks={len(self._spec.chunks)}, "
                f"overlay_rows={self.overlay_rows})")
