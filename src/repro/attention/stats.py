"""Instrumentation for attention kernels.

Every backend records an :class:`AttentionStats` per call: floating-point
operations, score-matrix entries computed, and how many of the memory
accesses were *irregular* (per-edge gathers) versus *regular* (contiguous
block reads).  The hardware model consumes these counts to estimate device
kernel times, and the tests use them to verify the complexity claims of the
paper (dense O(S²) vs topology-induced O(Ẽ)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AttentionStats", "StatsCollector", "collector"]

# newest records kept: a long-lived server or fit appends one per attention
# call forever, and nothing under src/ ever clears the collector
_MAX_RECORDS = 65_536


@dataclass
class AttentionStats:
    """Operation counts for one attention forward (and backward, if run)."""

    kind: str  # "dense" | "flash" | "sparse" | "cluster-sparse"
    seq_len: int
    num_heads: int
    head_dim: int
    scores_computed: int  # number of (i, j) score entries evaluated
    flops: int
    regular_bytes: int  # contiguous reads/writes
    irregular_bytes: int  # gather/scatter (per-edge) traffic

    @property
    def total_bytes(self) -> int:
        return self.regular_bytes + self.irregular_bytes

    @property
    def irregular_fraction(self) -> float:
        t = self.total_bytes
        return self.irregular_bytes / t if t else 0.0


@dataclass
class StatsCollector:
    """Module-level sink the kernels append to; cheap enough to always run."""

    records: list[AttentionStats] = field(default_factory=list)
    enabled: bool = True

    def add(self, stats: AttentionStats) -> None:
        if self.enabled:
            self.records.append(stats)
            if len(self.records) >= 2 * _MAX_RECORDS:  # amortised trim
                del self.records[:-_MAX_RECORDS]

    def clear(self) -> None:
        self.records.clear()

    def last(self) -> AttentionStats | None:
        return self.records[-1] if self.records else None

    def total_flops(self) -> int:
        return sum(r.flops for r in self.records)


collector = StatsCollector()
