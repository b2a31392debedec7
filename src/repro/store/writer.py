"""Writing stores: converting a node-level dataset to chunk files.

:func:`write_store` converts an in-RAM :class:`~repro.graph.NodeDataset`
(or anything exposing its surface) into a ``repro-store-v1`` directory:
it picks the shared node-axis row boundaries (uniform ``chunk_rows``, or
aligned to the dataset's planted block runs with ``align_blocks``),
writes every array's chunk files, and commits the manifest.

A written store is never modified in place: mutations live in RAM
overlays, and :meth:`repro.stream.MutationLog.snapshot` persists a
mutated dataset by writing a complete new store.  Chunk files are
written tmp-then-rename and the manifest commits last, so a crash
mid-write leaves no half-readable store behind.
"""

from __future__ import annotations

import os

import numpy as np

from .format import (
    DEFAULT_CHUNK_ROWS,
    ArraySpec,
    ChunkRef,
    Manifest,
    dtype_str,
    write_manifest,
)

__all__ = ["write_store", "block_boundaries"]

#: node arrays persisted besides features (all share the row boundaries)
_NODE_ARRAYS = ("labels", "train_mask", "val_mask", "test_mask", "blocks")


def block_boundaries(blocks: np.ndarray, chunk_rows: int) -> np.ndarray:
    """Row boundaries aligned to block runs, capped at ``chunk_rows``.

    Splits wherever the per-node block id changes in node order (the
    layout ``repro.partition`` orderings produce: cluster ids as
    contiguous node ranges), then splits any run longer than
    ``chunk_rows`` — so a chunk never spans two partitions and never
    exceeds the row cap.
    """
    blocks = np.asarray(blocks)
    n = len(blocks)
    cuts = np.nonzero(blocks[1:] != blocks[:-1])[0] + 1
    bounds = [0]
    for cut in list(cuts) + [n]:
        while cut - bounds[-1] > chunk_rows:
            bounds.append(bounds[-1] + chunk_rows)
        if cut > bounds[-1]:
            bounds.append(int(cut))
    return np.asarray(bounds, dtype=np.int64)


def _uniform_boundaries(num_nodes: int, chunk_rows: int) -> np.ndarray:
    bounds = np.arange(0, num_nodes, chunk_rows, dtype=np.int64)
    return np.concatenate([bounds, [num_nodes]])


def _chunk_file(name: str, i: int) -> str:
    return os.path.join("chunks", f"{name}-{i:06d}.bin")


def _write_chunk(store_dir: str, relfile: str, arr: np.ndarray,
                 dtype_s: str) -> ChunkRef:
    """Write one chunk's raw bytes atomically; returns its table entry."""
    data = np.ascontiguousarray(arr, dtype=np.dtype(dtype_s))
    path = os.path.join(store_dir, relfile)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data.tobytes())
    os.replace(tmp, path)
    return ChunkRef(file=relfile, shape=tuple(data.shape),
                    nbytes=int(data.nbytes))


def _chunk_node_array(store_dir: str, name: str, arr: np.ndarray,
                      bounds: np.ndarray) -> ArraySpec:
    """Persist one node-indexed array chunked at the shared boundaries."""
    dtype_s = dtype_str(arr.dtype)
    chunks = tuple(
        _write_chunk(store_dir, _chunk_file(name, i),
                     arr[bounds[i]:bounds[i + 1]], dtype_s)
        for i in range(len(bounds) - 1))
    return ArraySpec(dtype=dtype_s, shape=tuple(arr.shape), chunks=chunks)


def _graph_chunks(graph, bounds: np.ndarray, store_dir: str) -> dict:
    """Persist the CSR graph as degree + per-block adjacency chunks."""
    degrees = np.diff(graph.indptr).astype(np.int64)
    spec_deg = _chunk_node_array(store_dir, "graph_degrees", degrees, bounds)
    dtype_s = dtype_str(np.int64)
    chunks = []
    for i in range(len(bounds) - 1):
        lo = int(graph.indptr[bounds[i]])
        hi = int(graph.indptr[bounds[i + 1]])
        chunks.append(_write_chunk(store_dir, _chunk_file("graph_indices", i),
                                   graph.indices[lo:hi], dtype_s))
    spec_ind = ArraySpec(dtype=dtype_s, shape=(int(graph.num_edges),),
                         chunks=tuple(chunks))
    return {"graph_degrees": spec_deg, "graph_indices": spec_ind}


def write_store(out_dir: str | os.PathLike, dataset,
                chunk_rows: int = DEFAULT_CHUNK_ROWS,
                align_blocks: bool = False) -> Manifest:
    """Convert a node-level dataset into a store directory.

    ``chunk_rows`` caps the node rows per chunk; ``align_blocks``
    additionally cuts chunk boundaries at the dataset's planted block
    runs (see :func:`block_boundaries`) so chunks align with
    ``repro.partition`` orderings.  Any existing store at ``out_dir``
    is overwritten chunk-by-chunk.  Returns the committed manifest.
    """
    if hasattr(dataset, "graphs"):
        raise TypeError(
            "write_store takes a node-level dataset; graph-level datasets "
            "are collections of independent small graphs and stay in RAM")
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    graph = dataset.graph
    n = graph.num_nodes
    blocks = getattr(dataset, "blocks", None)
    if align_blocks and blocks is not None:
        bounds = block_boundaries(blocks, chunk_rows)
    else:
        bounds = _uniform_boundaries(n, chunk_rows)

    arrays = {"features": _chunk_node_array(
        out_dir, "features", np.asarray(dataset.features), bounds)}
    for name in _NODE_ARRAYS:
        arr = getattr(dataset, name, None)
        if arr is None:
            continue
        arrays[name] = _chunk_node_array(out_dir, name, np.asarray(arr),
                                         bounds)
    arrays.update(_graph_chunks(graph, bounds, out_dir))

    paper = getattr(dataset, "paper", None)
    manifest = Manifest(
        name=dataset.name, num_nodes=n,
        num_classes=int(dataset.num_classes),
        chunk_rows=int(chunk_rows),
        row_bounds=tuple(int(b) for b in bounds),
        arrays=arrays,
        graph_version=int(getattr(dataset, "graph_version", 0)),
        paper=(None if paper is None else {
            "num_nodes": paper.num_nodes, "num_edges": paper.num_edges,
            "feature_dim": paper.feature_dim,
            "num_classes": paper.num_classes, "task": paper.task}),
    )
    write_manifest(out_dir, manifest)
    return manifest
