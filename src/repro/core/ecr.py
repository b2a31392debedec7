"""Elastic Computation Reformation (§III-D).

The kernel-level technique.  After cluster reordering, the attention
layout is a k×k grid of clusters: diagonal clusters are dense-ish (good
locality), off-diagonal ones hold scattered edges whose per-edge gathers
dominate memory latency.  ECR *reforms* each sufficiently-sparse cluster:
its scattered entries are replaced by ⌈E_c / db²⌉ compact db×db
sub-blocks, placed on the db-tiles that held the most original entries —
so the reformed pattern keeps as many true edges as possible while turning
all accesses into contiguous block reads.

Reformation modifies the graph structure (some true edges drop out, some
spurious pairs enter), which is why it trades accuracy for speed; the
transfer strategies bound that trade:

* **indolent** — only clusters sparser than the whole-graph sparsity β_G
  are transferred (conservative, portable);
* **elastic** — clusters sparser than a runtime threshold β_thre are
  transferred; β_thre is driven up/down by the Auto Tuner's loss-descent
  tracking (see :mod:`repro.core.autotuner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..attention.block import BlockLayout, Rect
from ..attention.patterns import AttentionPattern

__all__ = ["ClusterGridStats", "ReformationResult", "analyze_clusters", "reform_pattern"]


@dataclass
class ClusterGridStats:
    """Per-cluster-cell statistics of a clustered attention pattern."""

    bounds: np.ndarray  # cluster boundaries, length k+1
    entry_counts: np.ndarray  # (k, k) entries per cell
    sparsity: np.ndarray  # (k, k) β_C per cell
    graph_sparsity: float  # β_G of the whole pattern

    @property
    def k(self) -> int:
        return len(self.bounds) - 1

    def cells_below(self, threshold: float) -> np.ndarray:
        """Boolean (k, k): cells with 0 < β_C < threshold (transfer set)."""
        return (self.sparsity < threshold) & (self.entry_counts > 0)


@dataclass
class ReformationResult:
    """A reformed cluster-sparse pattern plus fidelity diagnostics."""

    pattern: AttentionPattern  # the reformed entry set (for training)
    rects: list[Rect]  # dense cells and transferred sub-blocks
    kept: tuple[np.ndarray, np.ndarray]  # (rows, cols) left scattered
    transferred_cells: int
    total_cells: int
    edges_preserved: float  # fraction of original entries still present
    entries_before: int
    entries_after: int

    @property
    def transfer_fraction(self) -> float:
        return self.transferred_cells / max(self.total_cells, 1)

    @cached_property
    def layout(self) -> BlockLayout:
        """Rectangle view for the block kernel, built on first read.

        ``rects`` then every kept scattered entry as a 1×1 rect.  Training
        reads only ``pattern``, and the thousands of 1×1 rects cost more
        than the rest of a reformation.
        """
        r, c = self.kept
        ones = map(Rect, r.tolist(), (r + 1).tolist(), c.tolist(), (c + 1).tolist())
        return BlockLayout(seq_len=self.pattern.seq_len, rects=[*self.rects, *ones])


def analyze_clusters(pattern: AttentionPattern, bounds: np.ndarray) -> ClusterGridStats:
    """Compute the per-cell entry counts and sparsity of a clustered pattern."""
    bounds = np.asarray(bounds, dtype=np.int64)
    counts = pattern.cluster_entry_counts(bounds)
    sizes = np.diff(bounds).astype(np.float64)
    areas = np.outer(sizes, sizes)
    with np.errstate(divide="ignore", invalid="ignore"):
        sparsity = np.where(areas > 0, counts / areas, 0.0)
    return ClusterGridStats(bounds=bounds, entry_counts=counts,
                            sparsity=sparsity, graph_sparsity=pattern.sparsity())


def _transfer_cell(rows: np.ndarray, cols: np.ndarray, r0: int, r1: int,
                   c0: int, c1: int, db: int) -> list[Rect]:
    """Reform one sparse cell: top db-tiles by original entry count.

    The number of sub-blocks is ⌈E_c / db²⌉ (paper: "decided by the number
    of real edges in the cluster and the dimension of sub-block db").
    """
    e_c = len(rows)
    if e_c == 0:
        return []
    n_sub = int(-(-e_c // (db * db)))
    tiles_r = max(-(-(r1 - r0) // db), 1)
    tiles_c = max(-(-(c1 - c0) // db), 1)
    n_sub = min(n_sub, tiles_r * tiles_c)
    # rank db-tiles by how many original entries they hold
    ti = (rows - r0) // db
    tj = (cols - c0) // db
    lin = ti * tiles_c + tj
    counts = np.bincount(lin, minlength=tiles_r * tiles_c)
    top = np.argsort(-counts, kind="stable")[:n_sub]
    rects = []
    for t in top:
        tr, tc = int(t) // tiles_c, int(t) % tiles_c
        rr0 = r0 + tr * db
        cc0 = c0 + tc * db
        rects.append(Rect(rr0, min(rr0 + db, r1), cc0, min(cc0 + db, c1)))
    return rects


def _rect_entries(rects: list[Rect]) -> tuple[np.ndarray, np.ndarray]:
    """Every rect's entries, row-major, rect after rect, in one pass."""
    if not rects:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    r0, r1, c0, c1 = np.array([(r.r0, r.r1, r.c0, r.c1) for r in rects],
                              dtype=np.int64).T
    width = c1 - c0
    area = (r1 - r0) * width
    owner = np.repeat(np.arange(len(rects)), area)
    offset = np.arange(int(area.sum())) - np.repeat(np.cumsum(area) - area, area)
    return (r0[owner] + offset // width[owner],
            c0[owner] + offset % width[owner])


def reform_pattern(
    pattern: AttentionPattern,
    bounds: np.ndarray,
    beta_thre: float,
    db: int = 16,
    dense_cell_threshold: float = 0.5,
) -> ReformationResult:
    """Reform a clustered pattern into the cluster-sparse layout (Fig. 5c).

    * cells denser than ``dense_cell_threshold`` stay as full dense
      rectangles (typically the diagonal clusters);
    * cells with β_C < ``beta_thre`` are transferred to db×db sub-blocks;
    * remaining cells keep their original scattered entries (these are the
      residual irregular accesses the elastic strategy trades off).

    ``beta_thre = 0`` disables all transfers (pure topology pattern);
    ``beta_thre = 1`` transfers every non-dense cell (max speed).
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    stats = analyze_clusters(pattern, bounds)
    k = stats.k
    rows, cols = pattern.rows, pattern.cols
    ri = np.searchsorted(bounds, rows, side="right") - 1
    ci = np.searchsorted(bounds, cols, side="right") - 1

    rects: list[Rect] = []
    keep_rows: list[np.ndarray] = []
    keep_cols: list[np.ndarray] = []
    transferred = 0
    occupied = 0
    for a in range(k):
        r0, r1 = int(bounds[a]), int(bounds[a + 1])
        for b in range(k):
            if stats.entry_counts[a, b] == 0:
                continue
            occupied += 1
            c0, c1 = int(bounds[b]), int(bounds[b + 1])
            in_cell = (ri == a) & (ci == b)
            beta_c = stats.sparsity[a, b]
            if beta_c >= dense_cell_threshold:
                rects.append(Rect(r0, r1, c0, c1))
            elif beta_c < beta_thre:
                rects.extend(_transfer_cell(rows[in_cell], cols[in_cell],
                                            r0, r1, c0, c1, db))
                transferred += 1
            else:
                keep_rows.append(rows[in_cell])
                keep_cols.append(cols[in_cell])

    # assemble the reformed entry set: rect entries + kept scattered entries
    kept = (np.concatenate([rows[:0], *keep_rows]),
            np.concatenate([cols[:0], *keep_cols]))
    rect_rows, rect_cols = _rect_entries(rects)
    new_rows = np.concatenate([rect_rows, kept[0]])
    new_cols = np.concatenate([rect_cols, kept[1]])
    reformed = AttentionPattern.from_entries(pattern.seq_len, new_rows, new_cols)

    # fidelity: fraction of original entries present in the reformed set
    S = pattern.seq_len
    orig_lin = rows * S + cols
    new_lin = reformed.rows * S + reformed.cols
    preserved = float(np.isin(orig_lin, new_lin).mean()) if len(orig_lin) else 1.0

    return ReformationResult(
        pattern=reformed, rects=rects, kept=kept,
        transferred_cells=transferred, total_cells=occupied,
        edges_preserved=preserved,
        entries_before=pattern.num_entries, entries_after=reformed.num_entries,
    )
