"""Dynamic micro-batching: coalesce pending requests, flush on size or age.

The scheduler at the heart of the serving layer.  Work items accumulate
in *groups* (one per coalescing key); a group flushes when it reaches
``max_batch_size`` items or when its oldest item has waited
``max_wait_s`` — the classic dynamic-batching trade between occupancy
and tail latency.  The batcher is deliberately agnostic about what an
item *is*: node-level requests group whole (a group of requests for the
same ``(config-hash, graph identity)`` executes one forward and fans the
result out), while graph-level requests are exploded by the server into
per-graph work units first.

Graph-level units carry wildly different sequence lengths (one graph =
one attention sequence), so batching arbitrary graphs together would pad
every sequence in the batch to the longest one.  :func:`seq_len_bucket`
quantizes sequence length to the next power of two and the bucket id
joins the coalescing key, bounding padding waste per batch to <2×
(amortized ~1.5×) regardless of the size mix in the queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from .. import _clock

__all__ = ["BatchPolicy", "MicroBatch", "MicroBatcher", "seq_len_bucket"]


def seq_len_bucket(seq_len: int, min_bucket: int = 32) -> int:
    """The padded sequence length a graph of ``seq_len`` nodes batches at.

    Buckets are powers of two with a floor of ``min_bucket``: batching
    only within a bucket bounds per-sequence padding waste below 2×.
    """
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    bucket = min_bucket
    while bucket < seq_len:
        bucket *= 2
    return bucket


@dataclass(frozen=True)
class BatchPolicy:
    """The two knobs of dynamic micro-batching.

    ``max_batch_size``: flush a group as soon as it holds this many
    items (occupancy bound).  ``max_wait_s``: flush a group once its
    oldest item has waited this long, full or not (latency bound).
    ``max_wait_s=0`` degenerates to flush-on-every-step — no added
    latency, batching only among requests that arrived together.
    """

    max_batch_size: int = 32
    max_wait_s: float = 0.002

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")


@dataclass
class MicroBatch:
    """One flushed group: the coalescing key and its work items.

    ``flushed_at`` is the serving-clock instant the batcher released
    the group — the boundary between a request's ``batch`` (waiting for
    companions) and ``compute`` trace spans.
    """

    key: Hashable
    items: list[Any]
    oldest_enqueued_at: float
    flushed_at: float = 0.0
    #: Earliest absolute deadline among the group's items (``inf`` when
    #: none carried one) — the EDF flush-ordering key.
    earliest_deadline: float = float("inf")

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class _Group:
    items: list[Any] = field(default_factory=list)
    oldest: float = float("inf")
    deadline: float = float("inf")


class MicroBatcher:
    """Accumulate keyed work items; emit :class:`MicroBatch` on flush.

    Single-owner object: only the server's scheduling loop touches it,
    so it carries no locks (the thread-safe boundary is the
    :class:`~repro.serve.queue.RequestQueue` in front of it).
    """

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy or BatchPolicy()
        self._groups: dict[Hashable, _Group] = {}

    def __len__(self) -> int:
        return sum(len(g.items) for g in self._groups.values())

    def pending_groups(self) -> int:
        """How many distinct coalescing keys currently hold items."""
        return len(self._groups)

    def add(self, key: Hashable, item: Any,
            enqueued_at: float | None = None,
            deadline: float | None = None) -> None:
        """Append one work item to its key's group (tracking its age).

        ``deadline`` (absolute serving-clock seconds, optional) feeds
        earliest-deadline-first flush ordering: the group remembers the
        tightest deadline among its items and flushed batches execute in
        that order.  Deadline-less items sort last (``inf``).
        """
        enqueued_at = _clock.now() if enqueued_at is None else enqueued_at
        group = self._groups.setdefault(key, _Group())
        group.items.append(item)
        group.oldest = min(group.oldest, enqueued_at)
        if deadline is not None:
            group.deadline = min(group.deadline, deadline)

    def ready(self, now: float | None = None, force: bool = False,
              ) -> list[MicroBatch]:
        """Flush every group that is full or has aged out (or all, forced).

        A group over ``max_batch_size`` splits into several full batches;
        the remainder flushes too (its oldest item is what aged out).
        """
        now = _clock.now() if now is None else now
        size, wait = self.policy.max_batch_size, self.policy.max_wait_s
        out: list[MicroBatch] = []
        for key in list(self._groups):
            group = self._groups[key]
            if not (force or len(group.items) >= size
                    or now - group.oldest >= wait):
                continue
            del self._groups[key]
            items = group.items
            for lo in range(0, len(items), size):
                out.append(MicroBatch(key=key, items=items[lo:lo + size],
                                      oldest_enqueued_at=group.oldest,
                                      flushed_at=now,
                                      earliest_deadline=group.deadline))
        # earliest-deadline-first across groups (ties: oldest-first) —
        # priority classes map to deadline offsets, so gold-class work
        # executes ahead of batch-class work flushed in the same round
        out.sort(key=lambda b: (b.earliest_deadline, b.oldest_enqueued_at))
        return out

    def flush(self) -> list[MicroBatch]:
        """Unconditionally flush everything (drain on close / step end)."""
        return self.ready(force=True)

    def next_flush_due(self, now: float | None = None) -> float | None:
        """Seconds until the earliest age-out, or ``None`` when empty.

        The worker loop's sleep bound: waiting longer than this would
        hold an aged-out group past its latency budget.
        """
        if not self._groups:
            return None
        now = _clock.now() if now is None else now
        oldest = min(g.oldest for g in self._groups.values())
        return max(0.0, self.policy.max_wait_s - (now - oldest))
