"""Deterministic load generation for the serving layer.

Two canonical load shapes, both fully seeded:

* **closed loop** — a fixed window of in-flight requests; the next
  window is submitted when the previous one resolves.  Measures
  sustainable throughput (requests/sec) under a concurrency bound, on
  the real clock.
* **open loop** — requests arrive on a Poisson schedule at a target
  rate, independent of completions.  Driven on a *virtual* clock
  (``now`` is threaded through ``submit``/``step``), so queue growth,
  deadline expiry and backpressure behavior replay identically for a
  given seed — the mode that exercises overload.

Workload payloads model what a serving tier actually sees: a small set
of *distinct* queries, each requested many times (``distinct`` node sets
spread over ``num_requests`` requests).  That repetition is what
micro-batching converts into shared forward passes.

:func:`compare_with_naive` is the benchmark core shared by
``repro bench-serve`` and ``benchmarks/bench_serve_throughput.py``:
the same workload through the batched server and through naive
per-request ``Session.predict`` (batch size 1, no coalescing), with a
bitwise identity check on every per-request result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import _clock
from ..obs.stats import latency_summary
from .batcher import BatchPolicy
from .pool import SessionPool
from .queue import DeadlineExceededError, QueueFullError
from .server import InferenceServer

__all__ = [
    "make_node_workload",
    "make_graph_workload",
    "make_mixed_config_workload",
    "make_churn_workload",
    "LoadReport",
    "TenantSpec",
    "make_tenant_arrivals",
    "run_closed_loop",
    "run_open_loop",
    "run_multitenant_loop",
    "run_cluster_closed_loop",
    "run_churn_loop",
    "compare_with_naive",
    "compare_cluster_scaling",
]


def make_node_workload(dataset, num_requests: int, distinct: int = 4,
                       nodes_per_request: int = 48,
                       seed: int = 0) -> list[np.ndarray]:
    """``num_requests`` node-set queries drawn from ``distinct`` hot sets.

    Each distinct set is a sorted sample of the dataset's nodes; the
    request sequence cycles through them pseudo-randomly (seeded), so
    repeats are spread in time the way hot queries are.
    """
    if distinct < 1:
        raise ValueError("distinct must be >= 1")
    rng = np.random.default_rng(seed)
    size = min(nodes_per_request, dataset.num_nodes)
    sets = [np.sort(rng.choice(dataset.num_nodes, size=size, replace=False))
            for _ in range(distinct)]
    picks = rng.integers(0, distinct, size=num_requests)
    return [sets[i] for i in picks]


def make_graph_workload(dataset, num_requests: int, distinct: int = 4,
                        graphs_per_request: int = 4,
                        seed: int = 0) -> list[np.ndarray]:
    """Graph-index queries from ``distinct`` hot index tuples."""
    rng = np.random.default_rng(seed)
    size = min(graphs_per_request, dataset.num_graphs)
    sets = [np.sort(rng.choice(dataset.num_graphs, size=size, replace=False))
            for _ in range(distinct)]
    picks = rng.integers(0, distinct, size=num_requests)
    return [sets[i] for i in picks]


def make_mixed_config_workload(num_configs: int, num_requests: int,
                               seed: int = 0) -> np.ndarray:
    """A seeded request stream rotating over ``num_configs`` configs.

    Returns the config index of each request (uniform, seeded) — the
    load profile that stresses warm-session *capacity*: a single worker
    whose pool is smaller than the config set keeps evicting and
    re-admitting sessions, while a sharded cluster pins each config to
    one worker and serves every request warm.
    """
    if num_configs < 1:
        raise ValueError("num_configs must be >= 1")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, num_configs, size=num_requests)
    # guarantee every config appears so identity checks cover them all
    picks[:num_configs] = np.arange(num_configs)
    return picks


def make_churn_workload(dataset, num_deltas: int, edges_per_delta: int = 8,
                        feature_updates_per_delta: int = 0,
                        add_node_every: int = 0, seed: int = 0):
    """Seeded topology-churn deltas for online-serving mutation load.

    The serving-shaped face of :func:`repro.stream.make_churn_deltas`:
    every delta is valid against the graph as mutated by its
    predecessors (removals name live edges, additions absent ones), so
    a replayed sequence exercises the full mutation path
    deterministically.  The caller's ``dataset`` is not mutated.
    """
    from ..stream import make_churn_deltas

    return make_churn_deltas(
        dataset, num_deltas, edges_per_delta=edges_per_delta,
        feature_updates_per_delta=feature_updates_per_delta,
        add_node_every=add_node_every, seed=seed)


@dataclass
class LoadReport:
    """What one load run produced and how fast."""

    mode: str
    num_requests: int
    duration_s: float
    completed: int
    rejected: int = 0
    expired: int = 0
    failed: int = 0  # non-deadline errors (bad indices, admission, …)
    results: list = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per (wall or virtual) second."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0


def _payload_kwargs(config, payload) -> dict:
    """Route a workload payload to the submit() argument its config takes."""
    if config.data.task_kind == "node":
        return {"nodes": payload}
    return {"indices": payload}


def _windowed_submit(tier, requests, concurrency: int,
                     mode: str) -> LoadReport:
    """Closed loop over ``(config, payload)`` pairs on any serving
    tier: submit a window, drain, collect; wall-clock timed."""
    requests = list(requests)
    results = []
    t0 = _clock.now()
    for lo in range(0, len(requests), concurrency):
        futures = [tier.submit(config, **_payload_kwargs(config, payload))
                   for config, payload in requests[lo:lo + concurrency]]
        tier.run_until_idle()
        results.extend(f.result(timeout=60.0) for f in futures)
    duration = _clock.now() - t0
    return LoadReport(mode=mode, num_requests=len(requests),
                      duration_s=duration, completed=len(results),
                      results=results)


def run_closed_loop(server, config, payloads,
                    concurrency: int = 8) -> LoadReport:
    """Windows of ``concurrency`` in-flight requests, wall-clock timed."""
    return _windowed_submit(server, ((config, p) for p in payloads),
                            concurrency, "closed")


def run_open_loop(server, config, payloads,
                  rate_rps: float, seed: int = 0,
                  timeout: float | None = None) -> LoadReport:
    """Poisson arrivals at ``rate_rps`` on a virtual clock (deterministic).

    Arrival times come from a seeded exponential stream; the server is
    stepped at each arrival instant, so batch composition, deadline
    expiry and queue rejections are a pure function of (seed, rate,
    policy).  ``timeout`` is the per-request deadline in virtual
    seconds.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    rng = np.random.default_rng(seed)
    now = 0.0
    futures = []
    rejected = 0
    for payload in payloads:
        now += float(rng.exponential(1.0 / rate_rps))
        try:
            futures.append(server.submit(config, timeout=timeout, now=now,
                                         **_payload_kwargs(config, payload)))
        except QueueFullError:
            rejected += 1
        server.step(now=now)
    server.run_until_idle(now=now)
    results, expired, failed = [], 0, 0
    for f in futures:
        exc = f.exception(timeout=60.0)
        if exc is None:
            results.append(f.result())
        elif isinstance(exc, DeadlineExceededError):
            expired += 1
        else:
            failed += 1
    return LoadReport(mode="open", num_requests=len(payloads),
                      duration_s=now, completed=len(results),
                      rejected=rejected, expired=expired, failed=failed,
                      results=results)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's arrival process in a multi-tenant open-loop run.

    ``rate_rps`` drives a seeded Poisson arrival stream of its own (each
    tenant gets an independent RNG, so adding a tenant never perturbs
    another tenant's arrival times — the fix over the old single-stream
    generator).  ``deadline_s`` is the per-request deadline in virtual
    seconds (``None`` = the admission controller's class default, or no
    deadline without a controller).
    """

    name: str
    rate_rps: float
    priority: str = "standard"
    deadline_s: float | None = None
    nodes_per_request: int = 32
    distinct: int = 4

    def __post_init__(self):
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be > 0")


def make_tenant_arrivals(tenants, duration_s: float,
                         seed: int = 0) -> list[tuple[float, int]]:
    """Merge per-tenant Poisson streams into one sorted arrival list.

    Returns ``(virtual_time, tenant_index)`` pairs.  Each tenant's
    stream is seeded by ``(seed, index)``, so a tenant's arrivals are a
    pure function of (seed, its own rate) — deterministic and
    composition-independent.  Ties break by tenant index, so the merged
    order is stable too.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    arrivals: list[tuple[float, int]] = []
    for idx, spec in enumerate(tenants):
        rng = np.random.default_rng((seed, idx))
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / spec.rate_rps))
            if t > duration_s:
                break
            arrivals.append((t, idx))
    arrivals.sort()
    return arrivals


def run_multitenant_loop(server, config, tenants, duration_s: float,
                         dataset=None, admission=None,
                         seed: int = 0) -> dict:
    """Mixed-tenant open-loop load on a virtual clock (deterministic).

    The multi-tenant face of :func:`run_open_loop`: every tenant in
    ``tenants`` (a sequence of :class:`TenantSpec`) submits on its own
    seeded Poisson schedule; arrivals are merged, the server is stepped
    at each arrival instant, and an optional
    :class:`~repro.net.AdmissionController` meters each submission
    (quota + priority-class shedding against live queue depth) and
    assigns class-default deadlines — which the batcher's EDF flush
    ordering then acts on.

    Returns per-tenant accounting (offered/admitted/completed/
    rejections/latency percentiles) plus totals.  Replays are stable: a
    given ``(tenants, duration_s, seed)`` produces identical counters
    and latencies (the determinism regression in
    ``tests/net/test_loadgen_multitenant.py``).
    """
    tenants = list(tenants)
    if not tenants:
        raise ValueError("need at least one TenantSpec")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError("tenant names must be unique")
    if dataset is None:
        raise ValueError("pass the loaded dataset (payload source)")
    arrivals = make_tenant_arrivals(tenants, duration_s, seed=seed)
    counts = [sum(1 for _, i in arrivals if i == idx)
              for idx in range(len(tenants))]
    payloads = [
        iter(make_node_workload(dataset, counts[idx],
                                distinct=spec.distinct,
                                nodes_per_request=spec.nodes_per_request,
                                seed=(seed, idx)))
        for idx, spec in enumerate(tenants)]

    per = {spec.name: {"offered": 0, "quota_rejected": 0, "shed": 0,
                       "queue_rejected": 0, "completed": 0, "expired": 0,
                       "failed": 0, "priority": spec.priority}
           for spec in tenants}
    futures: list[tuple[int, float, object]] = []
    from ..net.admission import AdmissionError, QuotaExceededError

    for now, idx in arrivals:
        spec = tenants[idx]
        acct = per[spec.name]
        acct["offered"] += 1
        explicit = (None if spec.deadline_s is None
                    else now + spec.deadline_s)
        if admission is not None:
            depth_fraction = len(server.queue) / server.queue.max_depth
            try:
                admission.admit(spec.name, now=now,
                                depth_fraction=depth_fraction)
            except QuotaExceededError:
                acct["quota_rejected"] += 1
                server.step(now=now)
                continue
            except AdmissionError:
                acct["shed"] += 1
                server.step(now=now)
                continue
            deadline = admission.deadline_for(spec.name, now,
                                              explicit=explicit)
            timeout = deadline - now
        else:
            timeout = spec.deadline_s
        try:
            fut = server.submit(config, timeout=timeout, now=now,
                                **_payload_kwargs(config, next(payloads[idx])))
        except QueueFullError:
            acct["queue_rejected"] += 1
            server.step(now=now)
            continue
        futures.append((idx, now, fut))
        server.step(now=now)
    server.run_until_idle(now=duration_s)

    latencies: dict[str, list[float]] = {spec.name: [] for spec in tenants}
    for idx, submitted_at, fut in futures:
        spec = tenants[idx]
        acct = per[spec.name]
        exc = fut.exception(timeout=60.0)
        if exc is None:
            acct["completed"] += 1
            resolved = fut.resolved_at
            if resolved is not None:
                latencies[spec.name].append(resolved - submitted_at)
        elif isinstance(exc, DeadlineExceededError):
            acct["expired"] += 1
        else:
            acct["failed"] += 1
    for spec in tenants:
        per[spec.name].update(latency_summary(latencies[spec.name]))
    totals = {key: sum(per[n][key] for n in names)
              for key in ("offered", "quota_rejected", "shed",
                          "queue_rejected", "completed", "expired",
                          "failed")}
    return {"tenants": per, "total": totals, "duration_s": duration_s,
            "num_arrivals": len(arrivals), "seed": seed}


def run_cluster_closed_loop(cluster, configs, picks,
                            concurrency: int = 16) -> LoadReport:
    """Drive a :class:`~repro.serve.ServingCluster` in closed loop.

    ``picks`` (from :func:`make_mixed_config_workload`) names the config
    of each request; every request asks for full-graph logits, which is
    the workload where warm-session capacity — the thing sharding
    scales — dominates.  Wall-clock timed.
    """
    return _windowed_submit(cluster, ((configs[int(i)], None) for i in picks),
                            concurrency, "cluster-closed")


def run_churn_loop(backend, config, deltas,
                   reads_per_delta: int = 1) -> LoadReport:
    """Interleave full-graph reads with delta applications (driven mode).

    For each delta: ``reads_per_delta`` predicts are submitted, then the
    delta, then ``reads_per_delta`` more — all before one drain.  The
    mutation serialization contract means the pre-reads execute against
    the old topology and the post-reads against the new, and every
    result future is stamped with the ``graph_version`` it saw.  Works
    against an :class:`InferenceServer` or a
    :class:`~repro.serve.cluster.ServingCluster` (identical submit
    surface).  ``results`` holds ``(graph_version, logits)`` pairs in
    submission order.
    """
    results = []
    failed = 0
    t0 = _clock.now()
    for delta in deltas:
        pre = [backend.submit(config) for _ in range(reads_per_delta)]
        mutation = backend.submit_delta(config, delta)
        post = [backend.submit(config) for _ in range(reads_per_delta)]
        backend.run_until_idle()
        mutation.result(timeout=60.0)
        for future in pre + post:
            exc = future.exception(timeout=60.0)
            if exc is not None:
                failed += 1
            else:
                results.append((future.graph_version, future.result()))
    duration = _clock.now() - t0
    return LoadReport(mode="churn", num_requests=2 * reads_per_delta
                      * len(deltas), duration_s=duration,
                      completed=len(results), failed=failed,
                      results=results)


def compare_cluster_scaling(configs, num_workers: int = 2,
                            num_requests: int = 48, concurrency: int = 16,
                            pool_size: int | None = None,
                            policy: BatchPolicy | None = None,
                            backend: str = "process", seed: int = 0,
                            datasets=None) -> dict:
    """N-worker cluster vs single-worker cluster on mixed-config load.

    The scaling claim of the sharded tier: with more configs in rotation
    than one worker's pool holds, consistent-hash stickiness lets N
    workers keep every config warm while the single worker thrashes its
    LRU pool — so throughput scales even before process parallelism is
    counted.  Per-worker resources (pool size, batch policy) are held
    fixed; only the worker count changes.

    Per-request logits are checked **bitwise** three ways: every cluster
    result against a naive single-``Session`` reference, and the
    N-worker run against the single-worker run.  Both clusters are
    warmed (one request per config) before timing so spawn and import
    costs stay out of the measurement.
    """
    from ..api import Session
    from .cluster import ServingCluster
    from .pool import dataset_identity

    configs = list(configs)
    if pool_size is None:
        # smaller than the config set: the capacity pressure under test
        pool_size = max(1, len(configs) - 1)
    policy = policy or BatchPolicy(max_batch_size=concurrency,
                                   max_wait_s=0.0)
    picks = make_mixed_config_workload(len(configs), num_requests, seed=seed)

    datasets = list(datasets or ())  # (config, dataset) pairs
    ds_by_id = {dataset_identity(cfg): ds for cfg, ds in datasets}
    reference = [Session(cfg,
                         dataset=ds_by_id.get(dataset_identity(cfg))).predict()
                 for cfg in configs]

    def timed_run(workers: int):
        with ServingCluster(num_workers=workers, warm_configs=configs,
                            datasets=datasets, pool_size=pool_size,
                            policy=policy, backend=backend) as cluster:
            _windowed_submit(cluster, ((cfg, None) for cfg in configs),
                             len(configs), "warm-up")
            report = run_cluster_closed_loop(cluster, configs, picks,
                                             concurrency=concurrency)
            snap = cluster.stats_snapshot()
        return report, snap

    single_report, single_snap = timed_run(1)
    multi_report, multi_snap = timed_run(num_workers)

    def matches_reference(report):
        return all(np.array_equal(out, reference[int(i)])
                   for out, i in zip(report.results, picks))

    identical_single = (len(single_report.results) == len(picks)
                        and matches_reference(single_report))
    identical_multi = (len(multi_report.results) == len(picks)
                       and matches_reference(multi_report))
    identical_across = all(
        np.array_equal(a, b)
        for a, b in zip(single_report.results, multi_report.results))
    return {
        "num_workers": num_workers,
        "num_configs": len(configs),
        "num_requests": num_requests,
        "concurrency": concurrency,
        "pool_size": pool_size,
        "single_worker_s": single_report.duration_s,
        "multi_worker_s": multi_report.duration_s,
        "single_worker_rps": single_report.throughput_rps,
        "multi_worker_rps": multi_report.throughput_rps,
        "scaling": (single_report.duration_s / multi_report.duration_s
                    if multi_report.duration_s > 0 else float("inf")),
        "identical_single": identical_single,
        "identical_multi": identical_multi,
        "identical_across": identical_across,
        "identical": (identical_single and identical_multi
                      and identical_across),
        "single_worker_stats": single_snap,
        "multi_worker_stats": multi_snap,
    }


def compare_with_naive(config, num_requests: int = 64, distinct: int = 4,
                       nodes_per_request: int = 48, concurrency: int = 16,
                       policy: BatchPolicy | None = None, seed: int = 0,
                       dataset=None) -> dict:
    """Batched serving vs naive per-request prediction, same workload.

    *Naive* is the strongest sequential baseline: one persistent
    ``Session`` (model/engine already built) answering each request with
    its own ``predict(nodes=…)`` call — serving batch size 1.  *Batched*
    pushes the identical request stream through an
    :class:`InferenceServer` in closed loop.  Both sides share one
    loaded dataset and build identically-seeded weights, so per-request
    results must be — and are asserted upstream to be — bitwise equal.
    """
    from ..api import Session

    if config.data.task_kind != "node":
        raise ValueError(
            "compare_with_naive measures the node-level serving path; "
            f"dataset {config.data.name!r} is graph-level (drive graph "
            "configs with make_graph_workload + run_closed_loop instead)")
    naive_session = Session(config, dataset=dataset)
    ds = naive_session.dataset
    payloads = make_node_workload(ds, num_requests, distinct=distinct,
                                  nodes_per_request=nodes_per_request,
                                  seed=seed)

    t0 = _clock.now()
    naive_results = [naive_session.predict(nodes=p) for p in payloads]
    naive_s = _clock.now() - t0

    pool = SessionPool(max_sessions=2)
    pool.put(Session(config, dataset=ds))
    server = InferenceServer(pool=pool, policy=policy
                             or BatchPolicy(max_batch_size=concurrency))
    report = run_closed_loop(server, config, payloads,
                             concurrency=concurrency)

    identical = (len(report.results) == len(naive_results)
                 and all(np.array_equal(a, b) for a, b in
                         zip(naive_results, report.results)))
    return {
        "num_requests": num_requests,
        "distinct_queries": distinct,
        "nodes_per_request": int(min(nodes_per_request, ds.num_nodes)),
        "concurrency": concurrency,
        "naive_s": naive_s,
        "batched_s": report.duration_s,
        "naive_rps": num_requests / naive_s if naive_s > 0 else 0.0,
        "batched_rps": report.throughput_rps,
        "speedup": (naive_s / report.duration_s
                    if report.duration_s > 0 else float("inf")),
        "identical": identical,
        "mean_batch_occupancy": server.stats.mean_occupancy,
        "shared_computes": server.stats.shared_computes,
        "stats": server.stats_snapshot(),
    }
