"""Warm session pool: cached, inference-ready Sessions keyed by config hash.

Cold inference pays for everything a :class:`~repro.api.Session` builds
lazily — dataset synthesis, model construction, engine planning — plus
the first-call cluster reordering / pattern / encodings that the
session's inference cache then memoizes.  A serving process answering a
stream of requests for a handful of configs should pay those costs once
per config, not once per request: the pool keeps the ``max_sessions``
most recently used Sessions warm and evicts least-recently-used beyond
that.

Datasets are shared *across* pool entries: two configs that describe the
same data (name × scale × effective seed) get the same loaded dataset
object, so a model or engine sweep over one graph does not re-synthesize
it per config.  On admission (a pool miss), an optional checkpoint is
loaded into the fresh session's model — the serving path for weights
trained elsewhere (``Session.save_checkpoint`` or the trainers'
``checkpoint_path`` files).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Mapping

from ..obs.stats import StatBlock

__all__ = ["config_key", "dataset_identity", "PoolStats", "SessionPool"]


def config_key(config) -> str:
    """Stable content hash of a :class:`~repro.api.RunConfig`.

    Two config objects with equal JSON serializations share sessions,
    warm caches and batches; any differing field (seed, engine knob,
    scale, …) separates them.
    """
    return hashlib.sha256(config.to_json().encode()).hexdigest()[:16]


def dataset_identity(config) -> tuple:
    """What makes two configs share one loaded dataset.

    Name × scale × effective seed (the data seed, falling back to the
    run seed) — the key the pool's cross-config dataset cache and the
    cluster's startup broadcast dedupe on.
    """
    data = config.data
    seed = data.seed if data.seed is not None else config.seed
    return (data.name, data.scale, seed)


class PoolStats(StatBlock):
    """Admission/eviction counters for one pool lifetime.

    A :class:`~repro.obs.stats.StatBlock` over the
    ``repro_pool_*_total`` counters.
    """

    PREFIX = "repro_pool"
    COUNTERS = {
        "hits": "acquisitions served by a warm pooled session",
        "misses": "acquisitions that built a fresh session",
        "evictions": "sessions evicted by the pool LRU",
        "checkpoint_loads": "checkpoints loaded on pool admission",
    }

    @property
    def hit_rate(self) -> float:
        """Warm-session hits over all acquisitions (0.0 before any)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SessionPool:
    """LRU cache of warm Sessions, keyed by :func:`config_key`.

    ``checkpoints`` maps a config key (or a config object, hashed on the
    spot) to a checkpoint path loaded into the model when that config is
    first admitted.  ``session_factory`` is an injection seam for tests;
    it defaults to :class:`repro.api.Session`.
    """

    def __init__(self, max_sessions: int = 4,
                 checkpoints: Mapping | None = None,
                 session_factory: Callable | None = None):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self.stats = PoolStats()
        self._sessions: OrderedDict[str, object] = OrderedDict()
        self._datasets: dict[tuple, object] = {}
        self._pinned: set[tuple] = set()
        self._checkpoints: dict[str, str] = {}
        if session_factory is None:
            from ..api import Session as session_factory
        self._session_factory = session_factory
        for cfg, path in (checkpoints or {}).items():
            self.add_checkpoint(cfg, path)

    # -- checkpoint admission ------------------------------------------- #
    def add_checkpoint(self, config_or_key, path: str) -> str:
        """Register a checkpoint to load when this config is admitted."""
        key = (config_or_key if isinstance(config_or_key, str)
               else config_key(config_or_key))
        self._checkpoints[key] = path
        return key

    # -- the cache ------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, config) -> bool:
        key = config if isinstance(config, str) else config_key(config)
        return key in self._sessions

    def keys(self) -> list[str]:
        """Config keys, least- to most-recently used."""
        return list(self._sessions)

    def _dataset_identity(self, config) -> tuple:
        return dataset_identity(config)

    def put_dataset(self, config, dataset, pin: bool = True) -> tuple:
        """Seed the shared-dataset cache with an already-loaded dataset.

        Sessions later admitted for any config with the same dataset
        identity (name × scale × effective seed) reuse ``dataset``
        instead of re-synthesizing it — this is how a cluster worker
        installs the dataset broadcast it received at startup.  ``pin``
        (default) keeps the dataset cached even while no warm session
        references it, so LRU churn never forces a re-synthesis of
        broadcast data.  Returns the identity key.
        """
        if dataset.name != config.data.name:
            raise ValueError(
                f"dataset {dataset.name!r} does not match config "
                f"dataset {config.data.name!r}")
        ds_id = self._dataset_identity(config)
        self._datasets[ds_id] = dataset
        if pin:
            self._pinned.add(ds_id)
        return ds_id

    def acquire(self, config, key: str | None = None):
        """The warm session for ``config`` (building + admitting on miss)."""
        key = config_key(config) if key is None else key
        session = self._sessions.get(key)
        if session is not None:
            self._sessions.move_to_end(key)
            self.stats.bump("hits")
            return session
        self.stats.bump("misses")
        session = self._admit(config, key)
        return session

    def _admit(self, config, key: str):
        ds_id = self._dataset_identity(config)
        session = self._session_factory(config,
                                        dataset=self._datasets.get(ds_id))
        path = self._checkpoints.get(key)
        if path is not None:
            # weights only, via the session's audited mutation point so
            # any inference cache built before the load is dropped
            self._load_weights(session, path)
            self.stats.bump("checkpoint_loads")
        self._datasets.setdefault(ds_id, session.dataset)
        self._sessions[key] = session
        self._evict_over_capacity()
        return session

    @staticmethod
    def _load_weights(session, path: str) -> None:
        """Load checkpoint weights through the session's invalidation hook.

        Falls back to a raw :func:`~repro.train.checkpointing.load_checkpoint`
        for injected session doubles that don't expose ``load_weights``
        (the test seam), so admission semantics stay identical.
        """
        loader = getattr(session, "load_weights", None)
        if loader is not None:
            loader(path)
            return
        from ..train.checkpointing import load_checkpoint

        load_checkpoint(path, session.model)

    def put(self, session, key: str | None = None) -> str:
        """Seed the pool with an existing (e.g. freshly fitted) session."""
        key = config_key(session.config) if key is None else key
        self._sessions[key] = session
        self._sessions.move_to_end(key)
        ds_id = self._dataset_identity(session.config)
        self._datasets.setdefault(ds_id, session.dataset)
        self._evict_over_capacity()
        return key

    def _evict_over_capacity(self) -> None:
        evicted = False
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
            self.stats.bump("evictions")
            evicted = True
        if evicted:
            # drop shared datasets no warm session references anymore —
            # otherwise a long-lived pool rotating through many configs
            # retains every dataset it ever loaded
            live = {self._dataset_identity(s.config)
                    for s in self._sessions.values()}
            live |= self._pinned  # broadcast datasets survive LRU churn
            for ds_id in [d for d in self._datasets if d not in live]:
                del self._datasets[ds_id]

    def clear(self) -> None:
        """Drop every warm session and cached dataset (pinned included)."""
        self._sessions.clear()
        self._datasets.clear()
        self._pinned.clear()
