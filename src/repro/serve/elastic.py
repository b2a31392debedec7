"""Elastic worker scaling: spawn on sustained depth, retire when idle.

A small control loop over :class:`~repro.serve.ServingCluster`'s
membership primitives (:meth:`~repro.serve.ServingCluster.spawn_worker` /
:meth:`~repro.serve.ServingCluster.retire_worker`).  Call
:meth:`ElasticController.tick` from the serving loop (the network
front-end does this every poll); each tick compares queue depth against
the policy and acts at most once.

Scaling is deliberately sluggish — three forms of hysteresis guard
against flapping on bursty arrivals:

- **sustain**: depth must stay above the spawn threshold for
  ``sustain_s`` *continuous* seconds before a spawn (a single burst that
  drains within the window never scales).
- **idle**: the cluster must be completely idle for ``idle_s``
  continuous seconds before a retire.
- **cooldown**: after any action, no further action for ``cooldown_s``
  (a freshly spawned worker gets time to absorb load before the signal
  is re-read).

Bounds are hard: the fleet never leaves ``[min_workers, max_workers]``,
and the last worker is never retired regardless of policy.  Retiring
reuses the cluster's death/requeue machinery, so scale-down racing an
in-flight dispatch keeps exactly-once delivery (the fault-injection
suite holds this).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import _clock
from ..obs.metrics import get_registry
from ..obs.stats import StatBlock

__all__ = ["ElasticPolicy", "ElasticStats", "ElasticController"]


@dataclass(frozen=True)
class ElasticPolicy:
    """The elastic tier's knobs: bounds, thresholds, hysteresis.

    ``scale_up_depth`` is *per live worker*: a fleet of 4 with depth 80
    and ``scale_up_depth=16`` is over threshold (20 > 16).
    """

    min_workers: int = 1
    max_workers: int = 4
    scale_up_depth: int = 16
    sustain_s: float = 0.5
    idle_s: float = 2.0
    cooldown_s: float = 1.0

    def __post_init__(self):
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.scale_up_depth < 1:
            raise ValueError("scale_up_depth must be >= 1")
        for name in ("sustain_s", "idle_s", "cooldown_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


_ACTIONS = ("repro_elastic_actions_total",
            "elastic scaling actions taken, by direction", "action")


class ElasticStats(StatBlock):
    """Scaling actions taken over one controller lifetime."""

    LABELED = {"spawned": (*_ACTIONS, "spawn"),
               "retired": (*_ACTIONS, "retire")}


class ElasticController:
    """Depth-driven scaling loop over one cluster's membership.

    Single-owner object (like the batcher): tick it from one scheduling
    loop only.  The cluster's own locks make the spawn/retire calls
    safe against its router thread.
    """

    def __init__(self, cluster, policy: ElasticPolicy | None = None):
        self.cluster = cluster
        self.policy = policy or ElasticPolicy()
        self.stats = ElasticStats()
        self._over_since: float | None = None
        self._idle_since: float | None = None
        self._last_action: float | None = None
        self._obs_workers = get_registry().gauge(
            "repro_elastic_workers", "live routed workers under elastic "
            "control (sampled at each tick)")

    def _in_cooldown(self, now: float) -> bool:
        return (self._last_action is not None
                and now - self._last_action < self.policy.cooldown_s)

    def tick(self, now: float | None = None) -> str | None:
        """Read the depth signal and act at most once.

        Returns ``"spawn"``, ``"retire"``, or ``None`` (no action this
        tick).  ``now`` threads a virtual clock through for
        deterministic tests; default is the serving clock.
        """
        now = _clock.now() if now is None else now
        policy = self.policy
        depth = self.cluster.pending()
        alive = len(self.cluster.router.workers())
        self._obs_workers.set(alive)
        if depth >= policy.scale_up_depth * max(1, alive):
            self._idle_since = None
            if self._over_since is None:
                self._over_since = now
            if (now - self._over_since >= policy.sustain_s
                    and alive < policy.max_workers
                    and not self._in_cooldown(now)):
                self.cluster.spawn_worker()
                self.stats.bump("spawned")
                self._last_action = now
                self._over_since = None
                return "spawn"
            return None
        self._over_since = None
        if depth == 0:
            if self._idle_since is None:
                self._idle_since = now
            if (now - self._idle_since >= policy.idle_s
                    and alive > policy.min_workers
                    and not self._in_cooldown(now)):
                victim = self._newest_worker()
                if victim is not None and self.cluster.retire_worker(victim):
                    self.stats.bump("retired")
                    self._last_action = now
                    self._idle_since = None
                    return "retire"
        else:
            self._idle_since = None
        return None

    def _newest_worker(self) -> str | None:
        """The most recently spawned still-routed worker (retire LIFO)."""
        routed = set(self.cluster.router.workers())
        for wid in reversed(list(self.cluster.workers)):
            if wid in routed:
                return wid
        return None
