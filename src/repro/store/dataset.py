"""The store-backed dataset: ``NodeDataset``'s surface over chunk files.

:class:`StoredNodeDataset` opens a ``repro-store-v1`` directory and
exposes exactly what :class:`~repro.graph.NodeDataset` exposes — name,
graph, features, labels, splits, blocks, ``num_nodes``,
``graph_version`` — so :class:`~repro.api.Session`, the serve tiers and
the trainers run unchanged and produce **bitwise-identical** logits.
Features stay on disk behind a :class:`~repro.store.ChunkedRowArray`
(mmap chunk loads through the store's byte-budgeted
:class:`~repro.store.ChunkCache`); the small per-node arrays (labels,
split masks, blocks) and the CSR graph are materialized on first access
— features dominate dataset bytes, and the engines need the whole
topology anyway.

A store directory is read-only once written.  Streaming composes:
:func:`repro.stream.apply_delta` dispatches to
:meth:`StoredNodeDataset.apply_delta`, which routes topology through
the incremental CSR rebuild and holds feature changes as an in-RAM
overlay, so a shared store on disk stays pristine under every worker.
Durability is the WAL's job: :func:`repro.stream.log_apply` appends
each delta before applying it, and
:meth:`~repro.stream.MutationLog.snapshot` writes complete stores that
:meth:`~repro.stream.MutationLog.recover` reopens and replays onto.
"""

from __future__ import annotations

import os

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.datasets import PaperStats
from ..stream.apply import DeltaReport, finish_delta
from .array import ChunkedRowArray
from .chunks import DEFAULT_CACHE_BYTES, ChunkCache
from .format import Manifest, load_manifest

__all__ = ["StoredNodeDataset", "open_store"]


class StoredNodeDataset:
    """A node-level dataset served out of a chunked on-disk store.

    Never writes: deltas applied to it live in an in-RAM overlay and
    die with the process (a :class:`~repro.stream.MutationLog` is what
    makes them durable).
    """

    def __init__(self, path: str | os.PathLike,
                 cache_bytes: int = DEFAULT_CACHE_BYTES):
        self.path = os.fspath(path)
        self.cache = ChunkCache(cache_bytes)
        manifest = load_manifest(self.path)
        self._manifest = manifest
        self.name = manifest.name
        self.num_classes = manifest.num_classes
        self.features = ChunkedRowArray(
            self.path, "features", manifest.arrays["features"], self.cache,
            np.asarray(manifest.row_bounds, dtype=np.int64))
        self.graph_version = manifest.graph_version
        self.paper = (PaperStats(**manifest.paper)
                      if manifest.paper else None)
        self._num_nodes = manifest.num_nodes
        self._graph: CSRGraph | None = None
        self._small: dict[str, np.ndarray | None] = {}

    # -- NodeDataset surface ---------------------------------------------- #
    @property
    def num_nodes(self) -> int:
        """Current node count (persisted rows plus overlay appends)."""
        return self._num_nodes

    @property
    def graph(self) -> CSRGraph:
        """The CSR topology, assembled from chunks on first access."""
        if self._graph is None:
            degrees = self._read_small_raw("graph_degrees")
            indptr = np.concatenate(
                [[0], np.cumsum(degrees)]).astype(np.int64)
            spec = self._manifest.arrays["graph_indices"]
            indices = np.concatenate(
                [np.array(self._chunk("graph_indices", i))
                 for i in range(len(spec.chunks))]
            ) if spec.chunks else np.empty(0, dtype=np.int64)
            from ..graph.io import validate_csr

            validate_csr(indptr, indices, self._manifest.num_nodes,
                         where=f"store {self.path}")
            self._graph = CSRGraph(indptr, indices,
                                   self._manifest.num_nodes)
        return self._graph

    @graph.setter
    def graph(self, value: CSRGraph) -> None:
        """Installed by delta application (parity with ``NodeDataset``)."""
        self._graph = value
        self._num_nodes = value.num_nodes

    @property
    def labels(self) -> np.ndarray:
        """Per-node class labels (materialized on first access)."""
        return self._small_array("labels")

    @labels.setter
    def labels(self, value: np.ndarray) -> None:
        self._small["labels"] = value

    @property
    def train_mask(self) -> np.ndarray:
        """Training-split boolean mask."""
        return self._small_array("train_mask")

    @train_mask.setter
    def train_mask(self, value: np.ndarray) -> None:
        self._small["train_mask"] = value

    @property
    def val_mask(self) -> np.ndarray:
        """Validation-split boolean mask."""
        return self._small_array("val_mask")

    @val_mask.setter
    def val_mask(self, value: np.ndarray) -> None:
        self._small["val_mask"] = value

    @property
    def test_mask(self) -> np.ndarray:
        """Test-split boolean mask."""
        return self._small_array("test_mask")

    @test_mask.setter
    def test_mask(self, value: np.ndarray) -> None:
        self._small["test_mask"] = value

    @property
    def blocks(self) -> np.ndarray | None:
        """Planted community labels, when the source dataset had them."""
        if "blocks" not in self._manifest.arrays \
                and "blocks" not in self._small:
            return None
        return self._small_array("blocks")

    @blocks.setter
    def blocks(self, value: np.ndarray | None) -> None:
        self._small["blocks"] = value

    # -- chunk plumbing ----------------------------------------------------- #
    def _chunk(self, name: str, i: int) -> np.ndarray:
        spec = self._manifest.arrays[name]
        ref = spec.chunks[i]
        path = os.path.join(self.path, ref.file)

        def load():
            try:
                return np.memmap(path, dtype=np.dtype(spec.dtype),
                                 mode="r", shape=tuple(ref.shape))
            except (FileNotFoundError, ValueError) as exc:
                raise ValueError(
                    f"store chunk {ref.file} for array {name!r} is "
                    f"missing or truncated: {exc}") from exc

        return self.cache.get((name, i), load)

    def _read_small_raw(self, name: str) -> np.ndarray:
        """Materialize one small array wholesale (bypassing the budget
        accounting would be wrong — reads go through the cache too)."""
        spec = self._manifest.arrays[name]
        parts = [np.array(self._chunk(name, i))
                 for i in range(len(spec.chunks))]
        return (np.concatenate(parts) if parts
                else np.empty(spec.shape, dtype=np.dtype(spec.dtype)))

    def _small_array(self, name: str) -> np.ndarray:
        arr = self._small.get(name)
        if arr is None:
            arr = self._read_small_raw(name)
            self._small[name] = arr
        return arr

    # -- identity ----------------------------------------------------------- #
    @property
    def content_fingerprint(self) -> str:
        """SHA-256 of the canonical manifest: the store's content id.

        Two opens of the same (byte-identical) store share it, so the
        serving caches keyed through
        :func:`repro.graph.dataset_fingerprint` coalesce across
        handles; overlaid deltas never change it.
        """
        return self._manifest.fingerprint()

    @property
    def manifest(self) -> Manifest:
        """The live manifest (what ``repro inspect`` renders)."""
        return self._manifest

    def cache_stats(self) -> dict:
        """Chunk-cache hit/miss/eviction counters and occupancy.

        A view over :meth:`~repro.store.ChunkCache.stats`; the same
        counts stream into the ``repro_store_chunk_*`` metrics of the
        process-global registry as they happen.
        """
        return self.cache.stats()

    # -- streaming ----------------------------------------------------------- #
    def apply_delta(self, delta) -> DeltaReport:
        """Apply a :class:`~repro.stream.GraphDelta` as an in-RAM overlay.

        Topology goes through the incremental
        :meth:`~repro.graph.CSRGraph.apply_edge_delta` (bitwise-equal
        to a rebuild); feature updates become patch rows and fresh
        nodes an appended tail, and the chunk files stay untouched.
        Labels, masks, the version bump and the stream metrics go
        through the tail the in-memory path shares
        (:func:`repro.stream.apply.finish_delta`), so
        :func:`repro.stream.apply_delta` dispatches here and sessions
        and servers need no special case.
        """
        delta.validate(self)
        graph, touched = self.graph.apply_edge_delta(
            delta.add_edges, delta.remove_edges,
            num_new_nodes=delta.num_new_nodes)
        if delta.num_new_nodes:
            self.features.append_rows(delta.new_features)
        if delta.update_nodes is not None:
            self.features.apply_updates(delta.update_nodes,
                                        delta.update_features)
        return finish_delta(self, delta, graph, touched)

    def __repr__(self) -> str:
        return (f"StoredNodeDataset({self.name!r}, path={self.path!r}, "
                f"nodes={self.num_nodes}, "
                f"chunks={self._manifest.num_chunks}, "
                f"graph_version={self.graph_version})")


def open_store(path: str | os.PathLike,
               cache_bytes: int = DEFAULT_CACHE_BYTES) -> StoredNodeDataset:
    """Open a store directory as a serve-ready, read-only dataset.

    ``cache_bytes`` budgets the chunk cache (see
    :class:`~repro.store.ChunkCache`).
    """
    return StoredNodeDataset(path, cache_bytes=cache_bytes)
