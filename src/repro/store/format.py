"""The ``repro-store-v1`` on-disk format: manifest + raw chunk files.

A store directory holds one JSON **manifest** (``manifest.json``) and a
``chunks/`` directory of raw binary chunk files::

    mystore/
      manifest.json
      chunks/
        features-000000.bin
        features-000001.bin
        labels-000000.bin
        graph_indices-000000.bin
        ...

Every persisted array is split into chunks along the **node axis** at a
single shared set of row boundaries (``Manifest.row_bounds``), so chunk
``i`` of every array covers the same node span.  Chunk files are raw
C-contiguous little-endian bytes (``numpy`` ``tobytes``), which is what
makes ``mmap`` loads possible: :func:`numpy.memmap` can view a chunk
file directly with no parsing.

The CSR graph is stored as two node-chunked arrays: ``graph_degrees``
(per-node degree, from which ``indptr`` is a cumulative sum) and
``graph_indices`` (the adjacency entries of each node block, one
variable-length chunk per block).

The manifest is canonically serialized (sorted keys, no whitespace), so
its SHA-256 — :meth:`Manifest.fingerprint` — is a stable content
identity for the whole store: it covers every chunk's byte count, the
row boundaries and the ``graph_version``, and is what
:func:`repro.graph.dataset_fingerprint` keys serving caches on.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "STORE_FORMAT",
    "DEFAULT_CHUNK_ROWS",
    "ChunkRef",
    "ArraySpec",
    "Manifest",
    "load_manifest",
    "write_manifest",
]

STORE_FORMAT = "repro-store-v1"

#: Default node rows per chunk for :func:`repro.store.write_store`.
DEFAULT_CHUNK_ROWS = 512


@dataclass(frozen=True)
class ChunkRef:
    """One chunk file of one array: where it lives and what it holds."""

    file: str          # path relative to the store directory
    shape: tuple       # this chunk's array shape
    nbytes: int        # exact file size in bytes

    def to_dict(self) -> dict:
        """JSON-serializable form (shape as a list)."""
        return {"file": self.file, "shape": list(self.shape),
                "nbytes": self.nbytes}

    @staticmethod
    def from_dict(d: dict) -> "ChunkRef":
        """Rebuild from :meth:`to_dict` output."""
        return ChunkRef(file=d["file"], shape=tuple(d["shape"]),
                        nbytes=int(d["nbytes"]))


@dataclass(frozen=True)
class ArraySpec:
    """One persisted array: dtype, logical shape and its chunk table.

    ``dtype`` is the numpy dtype string in explicit byte-order form
    (``"<f8"``, ``"<i8"``, ``"|b1"``) — always little-endian where byte
    order applies, so stores are portable across hosts.
    """

    dtype: str
    shape: tuple
    chunks: tuple = field(default_factory=tuple)  # tuple[ChunkRef, ...]

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {"dtype": self.dtype, "shape": list(self.shape),
                "chunks": [c.to_dict() for c in self.chunks]}

    @staticmethod
    def from_dict(d: dict) -> "ArraySpec":
        """Rebuild from :meth:`to_dict` output."""
        return ArraySpec(dtype=d["dtype"], shape=tuple(d["shape"]),
                         chunks=tuple(ChunkRef.from_dict(c)
                                      for c in d["chunks"]))


@dataclass
class Manifest:
    """The store's JSON manifest: layout, versioning and chunk tables.

    ``row_bounds`` is the shared node-axis chunking: chunk ``i`` of
    every array covers rows ``[row_bounds[i], row_bounds[i+1])``.
    ``graph_version`` is the dataset's monotonic mutation counter as
    of the write — a :meth:`~repro.stream.MutationLog.snapshot` stamps
    it, so a reopened store resumes exactly where the mutation history
    left it.
    """

    name: str
    num_nodes: int
    num_classes: int
    chunk_rows: int
    row_bounds: tuple          # tuple[int, ...], len == num_chunks + 1
    arrays: dict               # name -> ArraySpec
    graph_version: int = 0
    paper: dict | None = None  # PaperStats fields, when the source had them
    format: str = STORE_FORMAT

    @property
    def num_chunks(self) -> int:
        """Number of node blocks every array is chunked into."""
        return len(self.row_bounds) - 1

    def to_dict(self) -> dict:
        """JSON-serializable form of the whole manifest."""
        return {
            "format": self.format,
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_classes": self.num_classes,
            "chunk_rows": self.chunk_rows,
            "row_bounds": list(self.row_bounds),
            "graph_version": self.graph_version,
            "paper": self.paper,
            "arrays": {k: v.to_dict() for k, v in sorted(self.arrays.items())},
        }

    @staticmethod
    def from_dict(d: dict) -> "Manifest":
        """Rebuild from :meth:`to_dict` output (format tag enforced)."""
        if d.get("format") != STORE_FORMAT:
            raise ValueError(
                f"not a {STORE_FORMAT} manifest (format={d.get('format')!r})")
        return Manifest(
            name=d["name"], num_nodes=int(d["num_nodes"]),
            num_classes=int(d["num_classes"]),
            chunk_rows=int(d["chunk_rows"]),
            row_bounds=tuple(int(b) for b in d["row_bounds"]),
            graph_version=int(d["graph_version"]),
            paper=d.get("paper"),
            arrays={k: ArraySpec.from_dict(v)
                    for k, v in d["arrays"].items()},
        )

    def dumps(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — byte-stable."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        """SHA-256 hex of the canonical manifest — the store's content id.

        Covers the chunk tables (files, shapes, byte counts), the row
        boundaries and ``graph_version``; two byte-identical stores
        share it.
        """
        return hashlib.sha256(self.dumps().encode()).hexdigest()


def dtype_str(dtype) -> str:
    """Explicit byte-order dtype string, little-endian where applicable."""
    dt = np.dtype(dtype)
    return dt.newbyteorder("<").str if dt.byteorder != "|" else dt.str


def manifest_path(store_dir: str | os.PathLike) -> str:
    """``manifest.json`` inside the store directory."""
    return os.path.join(os.fspath(store_dir), "manifest.json")


def load_manifest(store_dir: str | os.PathLike) -> Manifest:
    """Read and parse a store directory's manifest.

    Raises :class:`FileNotFoundError` for a missing store and
    :class:`ValueError` for a directory that is not a
    ``repro-store-v1`` store.
    """
    path = manifest_path(store_dir)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no store manifest at {path} (not a repro store directory?)")
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt store manifest {path}: {exc}") from exc
    return Manifest.from_dict(data)


def write_manifest(store_dir: str | os.PathLike, manifest: Manifest) -> None:
    """Atomically write the manifest (tmp file + rename).

    The rename is the commit point of every store mutation: a reader
    opening the store mid-write sees either the old manifest (with the
    old chunk files still intact on their old inodes) or the new one —
    never a torn state.
    """
    path = manifest_path(store_dir)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(manifest.dumps())
        f.write("\n")
    os.replace(tmp, path)
