"""Consistent-hash request routing for the serving cluster.

A cluster's value over a single server comes from *stickiness*: every
config's requests should land on the same worker so that worker's warm
:class:`~repro.serve.pool.SessionPool` keeps serving them from cache,
and the aggregate warm capacity of the fleet scales with the worker
count.  :class:`HashRing` implements the classic consistent-hash ring
(virtual nodes, clockwise lookup): each worker owns a stable arc of the
key space, and removing a dead worker remaps *only its own* keys — every
other config stays exactly where its sessions are warm.

:class:`Router` layers load awareness on top: the ring's sticky choice
wins unless that worker already has ``spill_threshold`` work units in
flight, in which case the request *spills* to the least-loaded live
worker (trading session warmth for queueing delay — the spill is counted
so operators can see it happening).  Routing never picks a worker in a
request's ``excluded`` set, which is how a requeued request avoids the
worker that just died holding it.

All hashing is :mod:`hashlib`-based (never Python's salted ``hash()``),
so placement is deterministic across processes, runs and machines —
a requirement for the cluster's bitwise-replay guarantees.
"""

from __future__ import annotations

import bisect
import hashlib

from ..obs.stats import StatBlock
from .queue import ServeError

__all__ = ["NoWorkersError", "HashRing", "RouterStats", "Router"]


class NoWorkersError(ServeError):
    """Routing failed: no live, non-excluded worker is available."""


def _ring_hash(key: str) -> int:
    """64-bit position of ``key`` on the ring (stable across processes)."""
    return int.from_bytes(hashlib.sha1(key.encode()).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over worker ids, with virtual nodes.

    ``replicas`` virtual nodes per member smooth the arc sizes so keys
    spread roughly evenly even with few workers.  ``lookup`` walks
    clockwise from the key's position to the first member not in
    ``excluded`` — so exclusion (dead or overloaded workers) degrades
    placement minimally instead of reshuffling everything.
    """

    def __init__(self, members=(), replicas: int = 96):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._members: set[str] = set()
        self._positions: list[int] = []   # sorted virtual-node positions
        self._owners: list[str] = []      # owner of each position
        for member in members:
            self.add(member)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def members(self) -> list[str]:
        """Current members, sorted for deterministic iteration."""
        return sorted(self._members)

    def add(self, member: str) -> None:
        """Insert a member's virtual nodes (idempotent)."""
        if member in self._members:
            return
        self._members.add(member)
        for r in range(self.replicas):
            pos = _ring_hash(f"{member}#{r}")
            i = bisect.bisect_left(self._positions, pos)
            self._positions.insert(i, pos)
            self._owners.insert(i, member)

    def remove(self, member: str) -> None:
        """Drop a member; only its own keys remap (idempotent)."""
        if member not in self._members:
            return
        self._members.discard(member)
        keep = [(p, o) for p, o in zip(self._positions, self._owners)
                if o != member]
        self._positions = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def lookup(self, key: str, excluded=frozenset()) -> str | None:
        """The sticky owner of ``key``: first non-excluded member clockwise.

        Returns ``None`` when every member is excluded (or the ring is
        empty) — the caller decides how to degrade.
        """
        if not self._positions:
            return None
        start = bisect.bisect_right(self._positions, _ring_hash(key))
        n = len(self._positions)
        seen: set[str] = set()
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner in seen:
                continue
            if owner not in excluded:
                return owner
            seen.add(owner)
            if len(seen) == len(self._members):
                break
        return None


_DECISIONS = ("repro_router_decisions_total",
              "routing decisions by kind (sticky / spill / reroute)",
              "decision")


class RouterStats(StatBlock):
    """Routing decisions for one router lifetime.

    A :class:`~repro.obs.stats.StatBlock` over
    ``repro_router_decisions_total{decision=sticky|spill|reroute}``.
    """

    LABELED = {
        "sticky": (*_DECISIONS, "sticky"),    # the consistent-hash owner
        "spills": (*_DECISIONS, "spill"),     # least-loaded, on overload
        "reroutes": (*_DECISIONS, "reroute"),  # owner excluded (e.g. dead)
    }

    @property
    def routed(self) -> int:
        """Every decision taken: sticky + spills + reroutes."""
        return self.sticky + self.spills + self.reroutes

    @classmethod
    def _view(cls, counts: dict, latencies) -> dict:
        """The per-decision counts, led by their ``routed`` total."""
        return {"routed": sum(counts.values()), **counts}


class Router:
    """Sticky consistent-hash placement with least-loaded spill.

    Tracks in-flight work per worker (``assign`` / ``complete``) and
    routes each config key to its ring owner unless that owner is
    excluded or holds ``spill_threshold``\\ + in-flight units, in which
    case the least-loaded live worker (deterministic tie-break by id)
    takes it.
    """

    def __init__(self, workers, spill_threshold: int = 32,
                 replicas: int = 96):
        workers = list(workers)
        if not workers:
            raise ValueError("Router needs at least one worker")
        if spill_threshold < 1:
            raise ValueError(
                f"spill_threshold must be >= 1, got {spill_threshold}")
        self.spill_threshold = spill_threshold
        self.ring = HashRing(workers, replicas=replicas)
        self.in_flight: dict[str, int] = {w: 0 for w in workers}
        self.stats = RouterStats()

    def workers(self) -> list[str]:
        """Live worker ids, sorted."""
        return self.ring.members()

    def add_worker(self, worker: str) -> None:
        """Insert a new live worker into the ring (idempotent).

        The elastic scale-up path: only the keys that consistent-hash
        onto the newcomer's ring points remap — everything else keeps
        its sticky worker and warm sessions.
        """
        if worker in self.in_flight:
            return
        self.ring.add(worker)
        self.in_flight[worker] = 0

    def mark_dead(self, worker: str) -> None:
        """Remove a worker from routing (its keys remap clockwise)."""
        self.ring.remove(worker)
        self.in_flight.pop(worker, None)

    def _least_loaded(self, excluded) -> str | None:
        candidates = [w for w in self.ring.members() if w not in excluded]
        if not candidates:
            return None
        return min(candidates, key=lambda w: (self.in_flight[w], w))

    def route(self, config_key: str, excluded=frozenset()) -> str:
        """Pick the worker for one request; bumps its in-flight count.

        Raises :class:`NoWorkersError` when no live worker remains
        outside ``excluded``.
        """
        sticky = self.ring.lookup(config_key, excluded=excluded)
        if sticky is None:
            raise NoWorkersError(
                f"no live worker available for config {config_key} "
                f"(excluded: {sorted(excluded) or 'none'})")
        chosen = sticky
        hash_owner = self.ring.lookup(config_key)
        spilled = False
        if self.in_flight[sticky] >= self.spill_threshold:
            least = self._least_loaded(excluded)
            if least is not None and (self.in_flight[least]
                                      < self.in_flight[sticky]):
                chosen = least
                spilled = True
        if spilled:
            self.stats.bump("spills")
        elif chosen == hash_owner:
            self.stats.bump("sticky")
        else:
            # the true owner was excluded; this is a fallback, not a spill
            self.stats.bump("reroutes")
        self.in_flight[chosen] += 1
        return chosen

    def assign(self, worker: str) -> None:
        """Count one externally-placed unit against ``worker``."""
        self.in_flight[worker] += 1

    def complete(self, worker: str) -> None:
        """Return one in-flight slot to ``worker`` (no-op if removed)."""
        if worker in self.in_flight and self.in_flight[worker] > 0:
            self.in_flight[worker] -= 1
