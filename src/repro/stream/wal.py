"""Durable write-ahead logging for streaming graph mutations.

A :class:`MutationLog` is the durability spine of the streaming stack:
every :class:`~repro.stream.GraphDelta` is appended to an on-disk log
*before* it is applied, so a crash at any point loses no acknowledged
mutation.  The record body is the delta's own deterministic
:meth:`~repro.stream.GraphDelta.to_payload` framing; the log adds a
magic/length/CRC32 envelope per record, so a torn final record (the
crash-mid-write case) is detected and cleanly truncated on the next
owner open, while a CRC lie anywhere else surfaces as a typed
:class:`CorruptRecordError` — committed history is never silently
dropped.

Recovery is *snapshot + replay*: :meth:`MutationLog.snapshot`
persists the current dataset in the :mod:`repro.store` chunked format
under the log directory, and :meth:`MutationLog.recover` opens the
latest snapshot and replays every newer record, landing on exactly the
``graph_version`` the log last acknowledged.  Replay is exactly-once by
construction — each record carries the version it *produces*, records
at or below the dataset's current version are skipped, and a version
gap raises instead of applying out of order (node additions are not
idempotent).

The commit order is **validate → append → apply → snapshot** and
:func:`log_apply` is its only implementation:
:meth:`repro.api.Session.apply_delta` calls it (with the log attached
by :meth:`~repro.api.Session.attach_wal`, or the one an
:class:`~repro.serve.InferenceServer` hands it from ``wal=``), and so
does the :class:`~repro.serve.ServingCluster` router for its snapshot
mirror (``wal_dir=`` — append-then-broadcast, so a restarted router
replays unacked deltas).  Snapshots are the only persisted dataset
state: a :mod:`repro.store` directory is read-only once written, and
deltas applied to it live in an in-RAM overlay.  Read-replica workers
tail the same file with ``mode="r"`` (never truncating the owner's
tail) and serve version-pinned reads at a bounded lag.

Observability: the ``repro_wal_*`` counters/gauges are pre-registered
at construction (appends, replays, truncations, snapshot bytes,
replica lag), and appends/replays record ``wal_append`` /
``wal_replay`` spans when tracing is on.
"""

from __future__ import annotations

import os
import struct
import zlib

from .._clock import now as _now
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .delta import GraphDelta

__all__ = [
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

#: Per-record magic marking the start of a WAL record envelope
#: (distinct from the net protocol's ``RNT1`` and the array framing's
#: ``RGT1`` so a mixed-up file fails loudly, not confusingly).
WAL_MAGIC = b"RWL1"

#: Fixed envelope size: magic (4) + body length u32 BE + CRC32 u32 BE.
RECORD_HEADER_SIZE = 12

#: Upper bound on one record body — a length prefix beyond it is
#: corruption (or an abuse attempt), not a real delta, and is refused
#: before any allocation.
MAX_RECORD_BYTES = 64 * 1024 * 1024

_LOG_NAME = "log.bin"
_SNAPSHOT_DIR = "snapshots"

#: One-line help strings for the pre-registered ``repro_wal_*`` series.
_COUNTER_HELP = {
    "appends": "records appended to a mutation write-ahead log",
    "append_bytes": "bytes appended to a mutation write-ahead log",
    "replayed": "log records applied to a dataset during replay",
    "replay_skipped":
        "already-applied log records skipped during replay "
        "(exactly-once guard)",
    "truncated": "torn-tail truncation events on write-ahead log open",
    "snapshots": "dataset snapshots written by a mutation log",
}

_GAUGE_HELP = {
    "snapshot_bytes": "size in bytes of the most recent WAL snapshot",
    "last_version": "highest graph_version recorded in a WAL",
    "replica_lag":
        "versions the slowest caught-up read replica trails the "
        "version authority",
}


class WalError(ValueError):
    """Base class for write-ahead-log errors (a :class:`ValueError`)."""


class TruncatedRecordError(WalError):
    """The buffer ends before the record does (a torn tail)."""


class CorruptRecordError(WalError):
    """The record envelope or body is structurally invalid (CRC lie,
    bad magic, impossible version stamp)."""


class RecordTooLargeError(WalError):
    """The record's length prefix exceeds :data:`MAX_RECORD_BYTES`."""


def encode_record(version: int, payload: bytes) -> bytes:
    """Frame one delta payload as a WAL record.

    The body is ``version`` as a big-endian u64 followed by the raw
    :meth:`~repro.stream.GraphDelta.to_payload` bytes; the envelope is
    :data:`WAL_MAGIC`, the body length, and the body's CRC32.  The
    encoding is fully deterministic — the recovery gate compares
    replayed state bitwise against an uninterrupted run.
    """
    version = int(version)
    if version < 1:
        raise ValueError(f"record version must be >= 1, got {version}")
    body = struct.pack(">Q", version) + bytes(payload)
    if len(body) > MAX_RECORD_BYTES:
        raise RecordTooLargeError(
            f"record body of {len(body)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte bound")
    return (WAL_MAGIC
            + struct.pack(">II", len(body), zlib.crc32(body) & 0xFFFFFFFF)
            + body)


def decode_record(buf, offset: int = 0) -> tuple:
    """Decode one record at ``offset``; ``(version, payload, end)``.

    ``end`` is the offset of the byte after the record.  Raises
    :class:`TruncatedRecordError` when the buffer ends mid-record (the
    torn-tail case the owner truncates on open),
    :class:`CorruptRecordError` on bad magic, a CRC mismatch or an
    impossible version stamp, and :class:`RecordTooLargeError` on a
    length prefix beyond :data:`MAX_RECORD_BYTES` — never any other
    exception type, and never a partially-decoded result.
    """
    view = memoryview(buf)
    n = len(view)
    if n - offset < RECORD_HEADER_SIZE:
        raise TruncatedRecordError(
            f"need {RECORD_HEADER_SIZE} header bytes at offset {offset}, "
            f"have {n - offset}")
    if bytes(view[offset:offset + 4]) != WAL_MAGIC:
        raise CorruptRecordError(
            f"bad record magic at offset {offset}: "
            f"{bytes(view[offset:offset + 4])!r}")
    body_len, crc = struct.unpack_from(">II", view, offset + 4)
    if body_len > MAX_RECORD_BYTES:
        raise RecordTooLargeError(
            f"record at offset {offset} declares {body_len} body bytes, "
            f"bounded at {MAX_RECORD_BYTES}")
    if body_len < 8:
        raise CorruptRecordError(
            f"record at offset {offset} declares {body_len} body bytes — "
            f"shorter than its version stamp")
    end = offset + RECORD_HEADER_SIZE + body_len
    if end > n:
        raise TruncatedRecordError(
            f"record at offset {offset} needs {end - n} more bytes")
    body = bytes(view[offset + RECORD_HEADER_SIZE:end])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CorruptRecordError(
            f"CRC mismatch for record at offset {offset}")
    version = struct.unpack_from(">Q", body)[0]
    if version < 1:
        raise CorruptRecordError(
            f"record at offset {offset} carries version {version} "
            f"(must be >= 1)")
    return int(version), body[8:], end


class MutationLog:
    """An append-only, CRC-framed log of :class:`~repro.stream.GraphDelta`\\ s.

    ``path`` is a directory owning the log file (``log.bin``) and its
    snapshots (``snapshots/v<version>/``, each a complete
    :mod:`repro.store` directory).  ``mode="a"`` (the default) opens as
    the **owner**: the file is scanned, a torn final record — the
    signature of a crash mid-append — is truncated away, and
    :meth:`append` is available.  ``mode="r"`` opens as a **follower**
    (a read replica tailing someone else's log): nothing is ever
    written or truncated, a missing file reads as empty, and
    :meth:`tail` returns records appended since the previous call.

    ``snapshot_every`` sets the snapshot cadence for
    :meth:`maybe_snapshot` (0 disables automatic snapshots).  Appends
    are write-ahead durable: each record is flushed and fsynced before
    :meth:`append` returns.

    ``prime`` applies only to followers: by default the cursor is
    primed to the current end of the log, so :meth:`tail` reports only
    records appended *after* open (a lag observer).  ``prime=False``
    leaves the cursor at byte 0 — the first :meth:`tail` returns the
    entire existing backlog, which is what a read replica that must
    *apply* history (not just watch it grow) needs at boot.
    """

    def __init__(self, path: str | os.PathLike, *,
                 snapshot_every: int = 0, mode: str = "a",
                 prime: bool = True):
        if mode not in ("a", "r"):
            raise ValueError(f"mode must be 'a' or 'r', got {mode!r}")
        if snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {snapshot_every}")
        self.path = os.fspath(path)
        self.mode = mode
        self.snapshot_every = int(snapshot_every)
        self.log_file = os.path.join(self.path, _LOG_NAME)
        self.snapshot_path = os.path.join(self.path, _SNAPSHOT_DIR)
        #: Highest record version seen (0 = empty log).
        self.last_version = 0
        #: Records decoded from (owner) or appended to this log.
        self.record_count = 0
        #: Bytes removed by torn-tail truncation at open (owner mode).
        self.truncated_tail_bytes = 0
        self._records_since_snapshot = 0
        self._cursor = 0  # scan frontier for follower tail()
        self._fh = None
        registry = get_registry()
        self._obs_counters = {
            name: registry.counter(f"repro_wal_{name}_total", help_)
            for name, help_ in _COUNTER_HELP.items()}
        self._obs_gauges = {
            name: registry.gauge(f"repro_wal_{name}", help_)
            for name, help_ in _GAUGE_HELP.items()}
        if mode == "a":
            os.makedirs(self.path, exist_ok=True)
            self._open_owner()
        elif prime:
            self.tail()  # prime cursor/last_version from what exists

    # -- open / scan ------------------------------------------------------- #
    def _open_owner(self) -> None:
        """Scan the log, truncate a torn tail, open for appending."""
        if os.path.exists(self.log_file):
            with open(self.log_file, "rb") as f:
                buf = f.read()
            offset = 0
            while offset < len(buf):
                try:
                    version, _, offset = decode_record(buf, offset)
                except TruncatedRecordError:
                    # crash mid-append: drop the torn tail, keep the
                    # committed prefix
                    self.truncated_tail_bytes = len(buf) - offset
                    with open(self.log_file, "r+b") as f:
                        f.truncate(offset)
                        f.flush()
                        os.fsync(f.fileno())
                    self._obs_counters["truncated"].inc()
                    break
                self.last_version = version
                self.record_count += 1
            self._cursor = offset if offset <= len(buf) else len(buf)
        self._fh = open(self.log_file, "ab")
        if self.last_version:
            self._obs_gauges["last_version"].set(self.last_version)

    def close(self) -> None:
        """Close the owner's append handle (idempotent; follower no-op)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "MutationLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading ----------------------------------------------------------- #
    def records(self, after_version: int = 0) -> list:
        """All committed records, as ``(version, GraphDelta)`` pairs.

        Rescans the file from the start; records at or below
        ``after_version`` are filtered out.  A torn tail (possible only
        while another process is mid-append) ends the scan cleanly; a
        CRC or structural error raises — committed history is never
        silently skipped.
        """
        out = []
        try:
            with open(self.log_file, "rb") as f:
                buf = f.read()
        except FileNotFoundError:
            return out
        offset = 0
        while offset < len(buf):
            try:
                version, payload, offset = decode_record(buf, offset)
            except TruncatedRecordError:
                break
            if version > after_version:
                out.append((version, GraphDelta.from_payload(payload)))
        return out

    def tail(self) -> list:
        """Records appended since the previous :meth:`tail` call.

        The follower's polling primitive: reads from the saved byte
        cursor, stops (without advancing past it) at a torn tail so a
        record being written right now is picked up whole on the next
        call.  Returns ``(version, GraphDelta)`` pairs and advances
        :attr:`last_version`.
        """
        out = []
        try:
            with open(self.log_file, "rb") as f:
                f.seek(self._cursor)
                buf = f.read()
        except FileNotFoundError:
            return out
        offset = 0
        while offset < len(buf):
            try:
                version, payload, end = decode_record(buf, offset)
            except TruncatedRecordError:
                break
            out.append((version, GraphDelta.from_payload(payload)))
            offset = end
        self._cursor += offset
        if out:
            self.last_version = out[-1][0]
            self.record_count += len(out)
        return out

    # -- writing ----------------------------------------------------------- #
    def append(self, delta, version: int) -> int:
        """Durably append one delta producing ``version``; returns bytes.

        Write-ahead contract: call this *before* applying the delta.
        The record is flushed and fsynced before returning, so an
        acknowledged append survives any crash.  Versions must be
        contiguous (``last_version + 1``) once the log is non-empty —
        a gap would make replay ambiguous — and the first record may
        start above 1 (a log attached to a store whose persisted
        ``graph_version`` is already N starts at N+1).
        """
        if self.mode != "a":
            raise WalError("cannot append to a follower (mode='r') log")
        version = int(version)
        if version < 1:
            raise WalError(f"version must be >= 1, got {version}")
        if self.record_count and version != self.last_version + 1:
            raise WalError(
                f"non-contiguous append: log is at version "
                f"{self.last_version}, got {version}")
        buf = encode_record(version, delta.to_payload())
        t0 = _now()
        self._fh.write(buf)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        t1 = _now()
        self.last_version = version
        self.record_count += 1
        self._records_since_snapshot += 1
        self._obs_counters["appends"].inc()
        self._obs_counters["append_bytes"].inc(len(buf))
        self._obs_gauges["last_version"].set(version)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record("wal_append", t0, t1,
                          attrs={"version": version, "bytes": len(buf)})
        return len(buf)

    # -- replay ------------------------------------------------------------ #
    def replay(self, dataset, through: int | None = None) -> int:
        """Apply every record newer than the dataset's version; count.

        The recovery half of the write-ahead contract: records at or
        below the dataset's current ``graph_version`` are skipped
        (exactly-once — node additions are not idempotent), a version
        gap raises :class:`WalError` instead of applying out of order,
        and ``through`` optionally stops replay at a version bound
        (point-in-time recovery).
        """
        from .apply import apply_delta as _apply

        t0 = _now()
        applied = skipped = 0
        for version, delta in self.records():
            if through is not None and version > through:
                break
            current = int(getattr(dataset, "graph_version", 0))
            if version <= current:
                skipped += 1
                continue
            if version != current + 1:
                raise WalError(
                    f"replay gap: dataset at version {current}, next "
                    f"log record is {version}")
            _apply(dataset, delta)
            if int(dataset.graph_version) != version:
                # datasets that count their own versions stay
                # aligned with the log's authority
                dataset.graph_version = version
            applied += 1
        t1 = _now()
        if applied:
            self._obs_counters["replayed"].inc(applied)
        if skipped:
            self._obs_counters["replay_skipped"].inc(skipped)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record("wal_replay", t0, t1,
                          attrs={"applied": applied, "skipped": skipped})
        return applied

    # -- snapshots ---------------------------------------------------------- #
    def snapshot(self, dataset) -> str:
        """Persist the dataset as a :mod:`repro.store` snapshot; its path.

        The snapshot lands under ``snapshots/v<version>/`` keyed by the
        dataset's current ``graph_version`` and is a complete store
        directory — :func:`repro.store.open_store` opens it directly,
        and recovery is "open latest snapshot, replay newer records".
        The manifest commit is atomic, so a crash mid-snapshot leaves
        no half-readable snapshot behind.
        """
        from ..store import write_store

        if self.mode != "a":
            raise WalError("a follower (mode='r') log cannot snapshot")
        version = int(getattr(dataset, "graph_version", 0))
        out = os.path.join(self.snapshot_path, f"v{version:010d}")
        write_store(out, dataset)
        size = 0
        for root, _, files in os.walk(out):
            for name in files:
                size += os.path.getsize(os.path.join(root, name))
        self._records_since_snapshot = 0
        self._obs_counters["snapshots"].inc()
        self._obs_gauges["snapshot_bytes"].set(size)
        return out

    def maybe_snapshot(self, dataset, force: bool = False) -> str | None:
        """Snapshot when the cadence is due (or ``force``); path or None.

        The cadence counts appends since the last snapshot against
        ``snapshot_every``; with ``snapshot_every=0`` only ``force``
        snapshots.
        """
        if force or (self.snapshot_every > 0
                     and self._records_since_snapshot >= self.snapshot_every):
            return self.snapshot(dataset)
        return None

    def latest_snapshot(self) -> tuple | None:
        """``(version, path)`` of the newest committed snapshot, or None.

        Only snapshots whose manifest committed count — a directory
        left by a crash mid-snapshot is ignored.
        """
        try:
            names = os.listdir(self.snapshot_path)
        except FileNotFoundError:
            return None
        best = None
        for name in names:
            if not (name.startswith("v") and name[1:].isdigit()):
                continue
            path = os.path.join(self.snapshot_path, name)
            if not os.path.isfile(os.path.join(path, "manifest.json")):
                continue
            version = int(name[1:])
            if best is None or version > best[0]:
                best = (version, path)
        return best

    def recover(self, base=None, cache_bytes: int | None = None):
        """Dataset at the log's last acknowledged version.

        With no ``base``, the latest snapshot is opened read-only via
        :func:`repro.store.open_store` (``cache_bytes`` budgets its
        chunk cache) and newer records replay onto it as an in-RAM
        overlay; passing ``base`` replays onto an already-loaded
        dataset instead (the no-snapshot-yet case).  Returns the
        recovered dataset.
        """
        if base is None:
            snap = self.latest_snapshot()
            if snap is None:
                raise WalError(
                    f"log at {self.path} has no snapshot to recover from "
                    f"and no base dataset was given")
            from ..store import open_store

            base = (open_store(snap[1]) if cache_bytes is None
                    else open_store(snap[1], cache_bytes=cache_bytes))
        self.replay(base)
        return base

    def __repr__(self) -> str:
        return (f"MutationLog({self.path!r}, mode={self.mode!r}, "
                f"records={self.record_count}, "
                f"last_version={self.last_version})")


def log_apply(log: MutationLog, dataset, delta,
              version: int | None = None) -> "DeltaReport":
    """The one mutation commit: validate → append → apply → snapshot.

    The delta is **validated first** — a record that cannot apply must
    never become durable, or it would wedge every later append and
    every replay of the log — then durably appended, then applied with
    :func:`repro.stream.apply_delta`; the snapshot cadence fires last.
    ``version`` is the ``graph_version`` the record produces: by
    default the dataset's next one; an authority that assigns versions
    (the cluster router, a log being tailed) passes its own, and a
    dataset that had fallen behind is aligned to it, as
    :meth:`MutationLog.replay` does.
    """
    from .apply import apply_delta as _apply

    assigned = version is not None
    if not assigned:
        version = int(getattr(dataset, "graph_version", 0)) + 1
    delta.validate(dataset)
    log.append(delta, version)
    report = _apply(dataset, delta)
    if int(dataset.graph_version) != version:
        if not assigned:
            raise WalError(
                f"apply produced version {report.graph_version}, "
                f"log recorded {version}")
        dataset.graph_version = int(version)
    log.maybe_snapshot(dataset)
    return report
