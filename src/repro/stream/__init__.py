"""Streaming graph updates: first-class incremental mutation of live graphs.

Every other subsystem treats a dataset as frozen; :mod:`repro.stream`
makes it *evolve*.  A :class:`GraphDelta` (edge add/remove, node
additions, feature updates) applies to a node-level dataset through
:func:`apply_delta`, which rebuilds **only the touched CSR rows**
(:meth:`~repro.graph.CSRGraph.apply_edge_delta`), bumps the dataset's
monotonic ``graph_version``, and leaves everything else — including the
warm pattern workspaces of unrelated datasets — untouched.

The stack above composes with it end to end:

* :meth:`repro.api.Session.apply_delta` versions the session's dataset,
  drops its inference cache, and triggers *targeted* workspace
  invalidation (:func:`repro.attention.invalidate_touching`);
* :meth:`repro.serve.InferenceServer.submit_delta` serializes mutations
  against in-flight micro-batches, and every result future carries the
  ``graph_version`` it was computed at;
* :meth:`repro.serve.ServingCluster.submit_delta` broadcasts the delta
  to every worker over the :func:`repro.distributed.pack_arrays` wire
  framing, with version-guarded application so a requeued delta is
  applied exactly once.

Durability lives in :mod:`repro.stream.wal`: a :class:`MutationLog`
write-ahead log sits in front of ``apply_delta`` at every tier
(:func:`log_apply` — validate, append, apply, maybe snapshot), snapshots reuse
the :mod:`repro.store` chunked format, and crash recovery is snapshot
+ replay to the last acknowledged ``graph_version``
(``benchmarks/bench_wal_recovery.py`` gates it bitwise against an
uninterrupted run).

``benchmarks/bench_stream_updates.py`` holds the two gates: post-delta
logits bitwise identical to a from-scratch rebuild, and ≥3× faster
incremental apply for deltas touching ≤5% of rows.
"""

from .apply import DeltaReport, apply_delta, full_rebuild, make_churn_deltas
from .delta import GraphDelta
from .wal import (
    MAX_RECORD_BYTES,
    RECORD_HEADER_SIZE,
    WAL_MAGIC,
    CorruptRecordError,
    MutationLog,
    RecordTooLargeError,
    TruncatedRecordError,
    WalError,
    decode_record,
    encode_record,
    log_apply,
)

__all__ = [
    "GraphDelta",
    "DeltaReport",
    "apply_delta",
    "full_rebuild",
    "make_churn_deltas",
    "WAL_MAGIC",
    "RECORD_HEADER_SIZE",
    "MAX_RECORD_BYTES",
    "WalError",
    "TruncatedRecordError",
    "CorruptRecordError",
    "RecordTooLargeError",
    "encode_record",
    "decode_record",
    "MutationLog",
    "log_apply",
]
