"""repro.store — out-of-core chunked, memory-mapped dataset storage.

The serving and training engines in this repo were built against
in-RAM :class:`~repro.graph.NodeDataset` objects; this package gives
the same datasets a versioned on-disk form that the whole stack can run
against **without loading the feature matrix into memory** and with
bitwise-identical logits.

A store directory (``repro-store-v1``, see :mod:`repro.store.format`)
holds a canonical JSON manifest plus raw little-endian chunk files, all
arrays chunked along the node axis at one shared set of row boundaries
(optionally aligned to ``repro.partition`` block runs).  Reads are lazy
:func:`numpy.memmap` chunk views behind a byte-budgeted, pinnable LRU
:class:`ChunkCache`; :class:`StoredNodeDataset` (via :func:`open_store`)
wraps it all in the ``NodeDataset`` access surface, so
:class:`~repro.api.Session`, the serve tiers and the trainers work
unchanged.  A store is read-only once written: streaming
:class:`~repro.stream.GraphDelta` mutations overlay in RAM (so a
cluster's shared store stays pristine), and a
:class:`~repro.stream.MutationLog` with its snapshots is what makes
them durable.

Quick start::

    from repro.graph import load_node_dataset
    from repro.store import write_store, open_store

    ds = load_node_dataset("ogbn-arxiv", scale=1.0, seed=7)
    write_store("arxiv.store", ds)

    stored = open_store("arxiv.store", cache_bytes=16 * 2**20)
    # use `stored` anywhere a NodeDataset goes: Session, serve, train
"""

from .array import ChunkedRowArray
from .chunks import DEFAULT_CACHE_BYTES, ChunkCache
from .dataset import StoredNodeDataset, open_store
from .format import (
    DEFAULT_CHUNK_ROWS,
    STORE_FORMAT,
    ArraySpec,
    ChunkRef,
    Manifest,
    load_manifest,
    write_manifest,
)
from .writer import block_boundaries, write_store

__all__ = [
    "STORE_FORMAT",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_CACHE_BYTES",
    "ChunkRef",
    "ArraySpec",
    "Manifest",
    "load_manifest",
    "write_manifest",
    "ChunkCache",
    "ChunkedRowArray",
    "StoredNodeDataset",
    "open_store",
    "write_store",
    "block_boundaries",
]
