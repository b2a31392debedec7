"""repro.obs — metrics, per-request tracing, and profiling hooks.

The observability substrate under the serving stack, in four pieces:

* :mod:`repro.obs.metrics` — one process-global
  :class:`MetricsRegistry` of :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` series that every runtime layer (server, cluster,
  router, pool, chunk store, compiled backend, workspace cache, comm
  log) registers its counters into, with a cross-process
  ``state_dict()`` / ``merge()`` contract for cluster-wide views;
* :mod:`repro.obs.stats` — :class:`StatBlock`, the one counting
  primitive: per-instance integer counters whose every ``bump`` also
  moves the matching registry series, which each stats surface
  (``ServerStats``, ``ClusterStats``, ``PoolStats``, …) merely declares
  its fields over;
* :mod:`repro.obs.trace` — :class:`Span` / :class:`Tracer` per-request
  tracing with context propagation across threads and worker processes,
  exportable as JSON-lines or Chrome ``chrome://tracing`` format;
* :mod:`repro.obs.hooks` — named profiling callbacks
  (``on_batch_start`` / ``on_batch_end`` / ``on_compile`` /
  ``on_chunk_miss``) for tools that want live objects, used by the
  bench harness's stage-breakdown tables.

Metrics collection is **on** by default (counters are a dict update
under a lock); tracing is **off** by default (spans allocate).  Both
are one-``if`` no-ops when disabled — the overhead budget is enforced
by ``benchmarks/bench_obs_overhead.py``.  Exporters
(:mod:`repro.obs.export`) and the ``repro stats`` CLI render either a
single process's registry or the merged fleet.  See
``docs/observability.md`` for the metric naming scheme and span
taxonomy.
"""

from .export import metrics_table, to_json, to_prometheus
from .hooks import (
    HOOK_POINTS,
    active,
    add_hook,
    clear_hooks,
    fire,
    remove_hook,
)
from .metrics import (
    POW2_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    set_metrics_enabled,
    set_registry,
)
from .stats import StatBlock
from .trace import (
    Span,
    TraceContext,
    Tracer,
    get_tracer,
    set_tracing,
    spans_to_chrome,
    spans_to_jsonl,
    tracing_enabled,
)

__all__ = [
    # metrics
    "POW2_BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "metrics_enabled",
    "set_metrics_enabled",
    "StatBlock",
    # tracing
    "TraceContext",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracing",
    "tracing_enabled",
    "spans_to_jsonl",
    "spans_to_chrome",
    # hooks
    "HOOK_POINTS",
    "active",
    "add_hook",
    "remove_hook",
    "clear_hooks",
    "fire",
    # exporters
    "to_prometheus",
    "to_json",
    "metrics_table",
]
