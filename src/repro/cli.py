"""Command-line interface: ``python -m repro <command>``.

Eleven commands cover the workflows a user reaches for before writing code:

* ``info`` — version, engines, kernels, modeled devices and datasets;
* ``kernels`` — the attention-kernel registry with capability metadata
  (which backends support bias, need a pattern, train, and how the
  hardware model prices them);
* ``backends`` — the compute-backend registry (:mod:`repro.backend`):
  the per-op ``numpy`` reference path vs the ``fused`` compiled per-plan
  replay, with JIT availability;
* ``datasets`` — per-dataset statistics at a chosen scale (what the
  synthetic stand-ins actually generate, next to the paper's Table III
  numbers);
* ``train`` — a quick training run: any dataset × model × engine, with
  per-epoch loss/metric lines; ``--save-config run.json`` writes the
  run's :class:`~repro.api.RunConfig` for exact replay;
* ``run`` — replay a saved ``run.json`` through the same
  :class:`~repro.api.Session` path (``repro run --config run.json``);
* ``serve`` — a stdin-driven serving REPL over a saved run config
  (``predict …`` / ``stats`` / ``quit``), with the batching, pool and
  queue knobs exposed as flags; ``--workers N`` serves from an
  N-process sharded :class:`~repro.serve.ServingCluster` instead of an
  in-process :class:`~repro.serve.InferenceServer`; ``--store DIR``
  serves from an on-disk :mod:`repro.store` directory instead of an
  in-RAM dataset (cluster workers share the store by path);
* ``convert`` — write a dataset (synthetic stand-in or a
  ``save_node_dataset`` npz) as a chunked :mod:`repro.store` directory;
* ``inspect`` — print a store's manifest: layout, versions, chunk
  table, content fingerprint;
* ``bench-serve`` — batched serving vs naive per-request prediction on
  a seeded repeated-query workload (throughput/latency table, optional
  JSON artifact); ``--workers N`` instead measures sharded-cluster
  scaling against a single worker on a mixed-config load;
* ``cost`` — price a paper-scale workload on the analytic hardware model
  (epoch time per engine, max trainable sequence length, OOM boundaries)
  without training anything.

``train`` and ``run`` are thin shells over :mod:`repro.api`: they build a
``RunConfig`` (CLI flags ↔ config fields map one-to-one) and drive a
``Session``, so scripts and the CLI share one code path.  Every command
writes plain text to stdout and returns a process exit code, so the CLI
is scriptable and the functions are unit-testable by calling :func:`main`
with an argv list.
"""

from __future__ import annotations

import argparse
import functools
import signal
import sys
import time
import traceback
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


# ------------------------------------------------------------------ #
# command implementations
# ------------------------------------------------------------------ #
def cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.attention import kernel_names, pattern_builder_names
    from repro.core import engine_names
    from repro.graph import available_datasets
    from repro.hardware import A100_80G, RTX3090
    from repro.models import model_names

    print(f"repro {repro.__version__} — TorchGT reproduction (SC 2024)")
    print()
    print(f"engines:   {'  '.join(engine_names())}")
    print(f"kernels:   {'  '.join(kernel_names())}  (see `repro kernels`)")
    print(f"patterns:  {'  '.join(pattern_builder_names())}")
    print(f"models:    {'  '.join(model_names())}  "
          "(+ gcn  gat  graphsage baselines)")
    print("devices:")
    for dev in (RTX3090, A100_80G):
        print(f"  {dev.name:<12} {dev.memory_bytes / 2**30:.0f} GiB, "
              f"L2 {dev.l2_bytes / 2**20:.0f} MiB, "
              f"{dev.peak_flops_fp32 / 1e12:.0f} fp32 TFLOP/s")
    print("datasets:")
    for task, names in available_datasets().items():
        print(f"  {task}: {', '.join(names)}")
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    from repro.graph import (
        available_datasets,
        degree_gini,
        load_graph_dataset,
        load_node_dataset,
        modularity,
    )

    names = available_datasets()
    print(f"{'dataset':<18} {'nodes':>9} {'edges':>11} {'feats':>6} "
          f"{'classes':>8} {'gini':>6} {'modularity':>11}")
    for name in names["node"]:
        ds = load_node_dataset(name, scale=args.scale, seed=args.seed)
        gini = degree_gini(ds.graph)
        mod = (modularity(ds.graph, ds.blocks)
               if ds.blocks is not None else float("nan"))
        print(f"{name:<18} {ds.num_nodes:>9} {ds.graph.num_edges:>11} "
              f"{ds.features.shape[1]:>6} {ds.num_classes:>8} "
              f"{gini:>6.2f} {mod:>11.2f}")
    for name in names["graph"]:
        ds = load_graph_dataset(name, scale=args.scale, seed=args.seed)
        sizes = [g.num_nodes for g in ds.graphs]
        print(f"{name:<18} {int(np.mean(sizes)):>9} "
              f"{int(np.mean([g.num_edges for g in ds.graphs])):>11} "
              f"{ds.features[0].shape[1]:>6} {ds.num_classes:>8} "
              f"{'—':>6} {'—':>11}  ({ds.num_graphs} graphs)")
    return 0


def _run_session(session, save_config: str | None = None,
                 checkpoint: str | None = None,
                 resume: str | None = None) -> int:
    """Drive one Session run, printing per-epoch progress live."""
    from repro.api import EpochLogger

    t0 = time.perf_counter()
    cfg = session.config
    print(f"dataset={cfg.data.name} scale={cfg.data.scale} "
          f"task={session.task} model={cfg.model.name} "
          f"engine={cfg.engine.name} "
          f"params={session.model.num_parameters():,}")
    if save_config:
        session.save_config(save_config)
        print(f"run config saved to {save_config}  (replay: "
              f"repro run --config {save_config})")
    if resume:
        print(f"resuming from {resume}")
    rec = session.fit(callbacks=[EpochLogger()], checkpoint_path=checkpoint,
                      resume_path=resume)
    if checkpoint:
        print(f"training checkpoint saved to {checkpoint}  (continue: "
              f"repro train --resume {checkpoint})")
    print(f"best test {rec.metric_name}: {rec.best_test:.4f}   "
          f"mean epoch: {rec.mean_epoch_time * 1e3:.1f} ms   "
          f"preprocess: {rec.preprocess_seconds * 1e3:.1f} ms   "
          f"wall: {time.perf_counter() - t0:.1f} s")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.api import (
        DataConfig,
        EngineConfig,
        ModelConfig,
        RunConfig,
        Session,
    )

    if args.pattern and args.engine != "fixed-pattern":
        print("error: --pattern only applies to --engine fixed-pattern",
              file=sys.stderr)
        return 2
    config = RunConfig(
        data=DataConfig(args.dataset, scale=args.scale),
        model=ModelConfig(args.model),
        engine=EngineConfig(args.engine, pattern=args.pattern,
                            backend=args.backend),
        train=_train_config_from_args(args),
        seed=args.seed,
    )
    return _run_session(Session(config), save_config=args.save_config,
                        checkpoint=args.checkpoint, resume=args.resume)


def _train_config_from_args(args: argparse.Namespace):
    from repro.api import TrainConfig

    return TrainConfig(epochs=args.epochs, lr=args.lr,
                       patience=args.patience, seq_len=args.seq_len)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.api import Session

    try:
        session = Session.from_config_file(args.config)
    except FileNotFoundError:
        print(f"error: no such config file: {args.config}", file=sys.stderr)
        return 2
    return _run_session(session, save_config=None)


def _print_stats(snapshot: dict, indent: int = 1) -> None:
    """Pretty-print a (possibly nested) stats snapshot dict."""
    pad = "  " * indent
    for key, value in snapshot.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_stats(value, indent + 1)
        else:
            print(f"{pad}{key}: {value}")


def cmd_stats(args: argparse.Namespace) -> int:
    """Drive a seeded sample load and export the metrics registry.

    Serves ``--requests`` full-set predictions through an in-process
    server (default) or an N-worker cluster (``--workers``), then
    renders the resulting process-global metrics — fleet-merged across
    worker processes in cluster mode — in the requested ``--format``:
    Prometheus text exposition (``prom``), deterministic JSON, or a
    human-readable table.
    """
    from repro.api import RunConfig
    from repro.obs import metrics_table, to_json, to_prometheus
    from repro.serve import InferenceServer, ServingCluster, SessionPool

    try:
        config = RunConfig.load(args.config)
    except FileNotFoundError:
        print(f"error: no such config file: {args.config}", file=sys.stderr)
        return 2
    if args.workers > 0:
        backend = ServingCluster(num_workers=args.workers,
                                 warm_configs=[config])
    else:
        backend = InferenceServer(pool=SessionPool(max_sessions=4))
    try:
        futures = [backend.submit(config) for _ in range(args.requests)]
        backend.run_until_idle()
        for f in futures:
            f.result(timeout=60.0)
        snapshot = backend.obs_snapshot()
        # durability facts ride on stderr so stdout stays a clean export
        line = f"graph_version: {backend.graph_version(config)}"
        lag = backend.replica_lag(config)
        if lag is not None:
            line += f"  replica_lag: {lag}"
        print(line, file=sys.stderr)
    finally:
        backend.close()
    if args.format == "prom":
        sys.stdout.write(to_prometheus(snapshot))
    elif args.format == "json":
        print(to_json(snapshot))
    else:
        metrics_table(snapshot).print()
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """Convert a dataset into a chunked on-disk store directory.

    The source is either a registered synthetic dataset
    (``--dataset/--scale/--seed``, same resolution the serving tiers
    use) or a ``save_node_dataset`` archive (``--npz``).
    """
    from repro.store import write_store

    if args.npz:
        from repro.graph import load_node_dataset_npz

        ds = load_node_dataset_npz(args.npz)
        source = args.npz
    else:
        from repro.graph import load_node_dataset

        ds = load_node_dataset(args.dataset, scale=args.scale,
                               seed=args.seed)
        source = f"{args.dataset} scale={args.scale} seed={args.seed}"
    manifest = write_store(args.out, ds, chunk_rows=args.chunk_rows,
                           align_blocks=args.align_blocks)
    total = sum(c.nbytes for spec in manifest.arrays.values()
                for c in spec.chunks)
    print(f"converted {source} -> {args.out}")
    print(f"  nodes={manifest.num_nodes} chunks={manifest.num_chunks} "
          f"(chunk_rows={manifest.chunk_rows}"
          f"{', block-aligned' if args.align_blocks else ''}) "
          f"arrays={len(manifest.arrays)} bytes={total}")
    print(f"  fingerprint: {manifest.fingerprint()}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Print a store directory's manifest: layout, versions, chunks."""
    from repro.store import load_manifest

    manifest = load_manifest(args.store)
    print(f"store: {args.store}  (format {manifest.format})")
    print(f"  name={manifest.name} nodes={manifest.num_nodes} "
          f"classes={manifest.num_classes} "
          f"graph_version={manifest.graph_version}")
    print(f"  chunk_rows={manifest.chunk_rows} "
          f"chunks={manifest.num_chunks} "
          f"row_bounds[0..]={list(manifest.row_bounds[:6])}"
          f"{'…' if manifest.num_chunks > 5 else ''}")
    print(f"  fingerprint: {manifest.fingerprint()}")
    print(f"  {'array':<16} {'dtype':>6} {'shape':>16} {'chunks':>7} "
          f"{'bytes':>12}")
    for name, spec in sorted(manifest.arrays.items()):
        nbytes = sum(c.nbytes for c in spec.chunks)
        print(f"  {name:<16} {spec.dtype:>6} {str(tuple(spec.shape)):>16} "
              f"{len(spec.chunks):>7} {nbytes:>12}")
    if args.chunks:
        print(f"  {'chunk file':<32} {'shape':>16} {'bytes':>12}")
        for name, spec in sorted(manifest.arrays.items()):
            for ref in spec.chunks:
                print(f"  {ref.file:<32} {str(tuple(ref.shape)):>16} "
                      f"{ref.nbytes:>12}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Stdin-driven inference serving loop over a saved run config.

    ``--workers 0`` (default) serves from one in-process
    :class:`~repro.serve.InferenceServer`; ``--workers N`` runs a
    :class:`~repro.serve.ServingCluster` of N worker processes with the
    config's dataset broadcast at startup.
    """
    from repro.api import EpochLogger, RunConfig
    from repro.serve import (
        BatchPolicy,
        InferenceServer,
        ServingCluster,
        SessionPool,
    )

    try:
        config = RunConfig.load(args.config)
    except FileNotFoundError:
        print(f"error: no such config file: {args.config}", file=sys.stderr)
        return 2
    policy = BatchPolicy(max_batch_size=args.max_batch,
                         max_wait_s=args.max_wait_ms / 1e3)
    if args.store and config.data.task_kind != "node":
        print("error: --store applies to node-level configs only",
              file=sys.stderr)
        return 2
    if args.replicas and not args.wal:
        print("error: --replicas requires --wal (replicas tail the log)",
              file=sys.stderr)
        return 2
    if args.workers > 0:
        if args.fit:
            print("error: --fit does not apply with --workers (weights "
                  "trained in the router would not reach the worker "
                  "processes); train first and pass --checkpoint",
                  file=sys.stderr)
            return 2
        backend = ServingCluster(
            num_workers=args.workers, warm_configs=[config],
            checkpoints=([(config, args.checkpoint)]
                         if args.checkpoint else ()),
            stores=([(config, args.store)] if args.store else ()),
            pool_size=args.pool_size, policy=policy,
            max_queue_depth=args.queue_depth,
            wal_dir=args.wal, replicas=args.replicas,
            snapshot_every=args.snapshot_every)
        tier = (f"{args.workers} worker processes"
                + (f" on shared store {args.store}" if args.store else "")
                + (f" + WAL {args.wal}" if args.wal else "")
                + (f" + {args.replicas} read replicas"
                   if args.replicas else ""))

        def churn_source():
            # the workers hold the served data; `mutate churn` needs a
            # router-side copy to generate deltas valid against current
            # topology.  A store opens read-only (mirror deltas overlay
            # in router RAM, the workers' shared files stay untouched);
            # otherwise reload with the (name, scale, effective seed)
            # the startup broadcast used, so the copy matches the fleet
            if args.store:
                from repro.store import open_store

                return open_store(args.store)
            from repro.graph import load_node_dataset
            from repro.serve import dataset_identity

            name, scale, seed = dataset_identity(config)
            return load_node_dataset(name, scale=scale, seed=seed)
    else:
        if args.replicas:
            print("error: --replicas requires --workers (replicas are "
                  "extra cluster workers)", file=sys.stderr)
            return 2
        pool = SessionPool(max_sessions=args.pool_size)
        if args.store:
            from repro.store import open_store

            pool.put_dataset(config, open_store(args.store))
        if args.checkpoint:
            pool.add_checkpoint(config, args.checkpoint)
        wal = None
        if args.wal:
            from repro.stream import MutationLog

            wal = MutationLog(args.wal, snapshot_every=args.snapshot_every)
        backend = InferenceServer(pool=pool, policy=policy,
                                  max_queue_depth=args.queue_depth,
                                  wal=wal)
        session = pool.acquire(config)  # warm the pool before requests
        if wal is not None and config.data.task_kind == "node":
            replayed = session.attach_wal(wal)
            if replayed:
                print(f"replayed {replayed} WAL records -> graph_version "
                      f"{session.graph_version}")
        if args.fit:
            session.fit(callbacks=[EpochLogger()])

        def churn_source():
            return pool.acquire(config).dataset  # the live dataset itself
        tier = ("in-process server"
                + (f" on store {args.store}" if args.store else "")
                + (f" + WAL {args.wal}" if args.wal else ""))
    kind = config.data.task_kind
    print(f"serving {config.data.name} ({kind}-level) with "
          f"{config.model.name} / {config.engine.name} on {tier} — "
          f"max_batch={args.max_batch} max_wait={args.max_wait_ms}ms "
          f"queue_depth={args.queue_depth}")
    if args.listen:
        return _serve_listen(backend, args.listen)
    print("commands: predict [--at-version N] [id …] | "
          "mutate add|remove u v [u v …] | "
          "mutate churn [edges [seed]] | version | stats [prom|json] | "
          "trace on|off|dump [path] | quit")
    churn_source = functools.cache(churn_source)  # opened on first mutate
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        cmd, ids = parts[0].lower(), parts[1:]
        if cmd in ("quit", "exit"):
            break
        if cmd == "stats":
            fmt = ids[0].lower() if ids else ""
            if fmt in ("prom", "json"):
                from repro.obs import to_json, to_prometheus

                snapshot = backend.obs_snapshot()
                print(to_prometheus(snapshot) if fmt == "prom"
                      else to_json(snapshot))
            else:
                _print_stats(backend.stats_snapshot())
            continue
        if cmd == "trace":
            _serve_trace(backend, ids)
            continue
        if cmd == "version":
            print(f"graph_version: {backend.graph_version(config)}")
            log = backend.wal_for(config)
            if log is not None:
                print(f"wal: records={log.record_count} "
                      f"last_version={log.last_version}")
            lag = backend.replica_lag(config)
            if lag is not None:
                print(f"replica_lag: {lag}")
            continue
        if cmd == "mutate":
            _serve_mutate(backend, config, ids, churn_source)
            continue
        if cmd != "predict":
            print(f"unknown command {cmd!r} "
                  "(predict/mutate/version/stats/trace/quit)",
                  file=sys.stderr)
            continue
        try:
            min_version = None
            if len(ids) >= 2 and ids[0] == "--at-version":
                min_version = int(ids[1])
                ids = ids[2:]
            subset = np.array([int(i) for i in ids]) if ids else None
            future = (backend.submit(config, nodes=subset,
                                     min_version=min_version)
                      if kind == "node"
                      else backend.submit(config, indices=subset))
            backend.run_until_idle()
            out = future.result(timeout=60.0)
        except Exception as e:
            print(f"request failed: {e}", file=sys.stderr)
            continue
        target = (f"{len(subset)} {'nodes' if kind == 'node' else 'graphs'}"
                  if subset is not None else f"full {kind} set")
        version = ("" if future.graph_version is None
                   else f"  (graph_version {future.graph_version})")
        print(f"ok: {target} -> output shape {out.shape}{version}")
    backend.close()
    print("server closed")
    return 0


def _serve_listen(backend, listen: str) -> int:
    """Run the serve backend behind a TCP front-end until interrupted."""
    from repro.net import AdmissionController, NetServer

    try:
        host, _, port_str = listen.rpartition(":")
        port = int(port_str)
        host = host or "127.0.0.1"
    except ValueError:
        print(f"error: --listen wants HOST:PORT, got {listen!r}",
              file=sys.stderr)
        backend.close()
        return 2
    net = NetServer(backend, host=host, port=port,
                    admission=AdmissionController())
    bound_host, bound_port = net.address
    print(f"listening on {bound_host}:{bound_port}", flush=True)
    # SIGTERM drains like ^C: backgrounded shells (CI) ignore SIGINT,
    # so `kill` must also produce a graceful shutdown
    stop = {"flag": False}
    previous = signal.signal(signal.SIGTERM,
                             lambda signum, frame: stop.update(flag=True))
    try:
        while not stop["flag"]:
            try:
                net.poll(io_timeout_s=0.05)
            except Exception:
                # per-request failures already map to error frames; a
                # server bug must not take the listener down for every
                # connected tenant
                traceback.print_exc()
        print("terminated — draining", file=sys.stderr)
    except KeyboardInterrupt:
        print("interrupted — draining", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)
        net.close()
        backend.close()
    print("server closed")
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """One-shot network client: ping, predict, or stats over TCP."""
    import json as _json

    from repro.net import NetClient, NetClientError

    host, _, port_str = args.connect.rpartition(":")
    try:
        port = int(port_str)
    except ValueError:
        print(f"error: --connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    host = host or "127.0.0.1"
    config_json = None
    if args.config:
        from repro.api import RunConfig

        try:
            config_json = RunConfig.load(args.config).to_json()
        except FileNotFoundError:
            print(f"error: no such config file: {args.config}",
                  file=sys.stderr)
            return 2
    client = NetClient(host, port, tenant=args.tenant,
                       priority=args.priority,
                       request_timeout_s=args.timeout_s,
                       connect_retries=args.retries)
    try:
        with client:
            if args.ping:
                rtt = client.ping()
                print(f"pong from {host}:{port} in {rtt * 1e3:.2f}ms")
            if args.stats:
                print(_json.dumps(client.stats(), indent=2, sort_keys=True,
                                  default=str))
            if args.nodes or (config_json and not args.ping
                              and not args.stats):
                if config_json is None:
                    print("error: predict needs --config", file=sys.stderr)
                    return 2
                subset = (np.array([int(i) for i in args.nodes])
                          if args.nodes else None)
                out = client.predict(config_json, nodes=subset,
                                     timeout=args.timeout_s,
                                     min_version=args.at_version)
                target = (f"{len(subset)} nodes" if subset is not None
                          else "full node set")
                version = ("" if client.last_graph_version is None
                           else f"  (graph_version "
                                f"{client.last_graph_version})")
                print(f"ok: {target} -> output shape {out.shape}{version}")
    except NetClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _serve_trace(backend, ids) -> None:
    """Handle the serve REPL's ``trace`` subcommands.

    ``trace on`` / ``trace off`` toggle span collection on every
    process of the backend (a cluster broadcasts the toggle to every
    live worker); ``trace dump [path]`` writes the buffered spans as
    JSON-lines to ``path`` (or prints them) without clearing the buffer.
    """
    from repro.obs import spans_to_jsonl

    sub = ids[0].lower() if ids else ""
    if sub in ("on", "off"):
        enabled = sub == "on"
        backend.set_tracing(enabled)
        print(f"tracing {'enabled' if enabled else 'disabled'}")
    elif sub == "dump":
        spans = backend.trace_spans()
        text = spans_to_jsonl(spans)
        if len(ids) > 1:
            with open(ids[1], "w") as f:
                f.write(text + ("\n" if text else ""))
            print(f"wrote {len(spans)} spans to {ids[1]}")
        else:
            if text:
                print(text)
            print(f"({len(spans)} spans buffered)")
    else:
        print("error: trace takes on/off/dump [path]", file=sys.stderr)


def _serve_mutate(backend, config, ids, churn_source) -> None:
    """Handle the serve REPL's ``mutate`` subcommands.

    ``mutate add u v [u v …]`` / ``mutate remove u v [u v …]`` apply
    explicit undirected edges; ``mutate churn [edges [seed]]`` applies
    one seeded random delta that removes live edges and adds absent
    ones.  ``churn_source()`` is the dataset churn is generated
    against: the live one, or a copy that every applied delta is
    mirrored onto so generation always sees current topology.
    """
    from repro.stream import GraphDelta, apply_delta, make_churn_deltas

    if config.data.task_kind != "node":
        print("error: mutate applies to node-level configs only",
              file=sys.stderr)
        return
    dataset = churn_source()
    sub = ids[0].lower() if ids else ""
    try:
        if sub in ("add", "remove"):
            vals = [int(x) for x in ids[1:]]
            if not vals or len(vals) % 2:
                print("error: mutate add/remove takes u v endpoint pairs",
                      file=sys.stderr)
                return
            pairs = np.asarray(vals, dtype=np.int64).reshape(-1, 2)
            delta = (GraphDelta(add_edges=pairs) if sub == "add"
                     else GraphDelta(remove_edges=pairs))
        elif sub == "churn":
            edges = int(ids[1]) if len(ids) > 1 else 4
            seed = int(ids[2]) if len(ids) > 2 else dataset.graph_version
            delta = make_churn_deltas(dataset, 1, edges_per_delta=edges,
                                      seed=seed)[0]
        else:
            print("error: mutate takes add/remove/churn", file=sys.stderr)
            return
        future = backend.submit_delta(config, delta)
        backend.run_until_idle()
        new_version = future.result(timeout=60.0)
    except Exception as e:
        print(f"mutation failed: {e}", file=sys.stderr)
        return
    if dataset.graph_version < new_version:  # a copy: follow the fleet
        apply_delta(dataset, delta)
    print(f"ok: applied {delta} -> graph_version {new_version}")


def cmd_bench_serve(args: argparse.Namespace) -> int:
    """Serving benchmarks: batched-vs-naive, or cluster scaling.

    Default: batched serving vs naive per-request predict on one config.
    ``--workers N``: N-worker sharded cluster vs a single worker on a
    mixed-config load (``--configs`` model-seed variants of the base
    config).
    """
    import json

    from repro.api import DataConfig, EngineConfig, ModelConfig, RunConfig, TrainConfig
    from repro.bench import cluster_scaling_table, serve_throughput_table
    from repro.serve import compare_cluster_scaling, compare_with_naive

    def make_config(seed: int, hidden_dim: int = 16) -> RunConfig:
        return RunConfig(
            data=DataConfig(args.dataset, scale=args.scale, seed=args.seed),
            model=ModelConfig(args.model, num_layers=2,
                              hidden_dim=hidden_dim, num_heads=4,
                              dropout=0.0),
            engine=EngineConfig(args.engine, backend=args.backend),
            train=TrainConfig(epochs=1),
            seed=seed,
        )

    if args.workers > 0:
        # choose model seeds whose config keys spread across the ring:
        # with only a handful of configs, consecutive seeds can all hash
        # to one worker, which would demo routing but not capacity
        # scaling (many-config deployments balance by law of large
        # numbers; a 4-config demo needs the spread picked explicitly)
        from repro.serve import HashRing, config_key

        ring = HashRing([f"w{i}" for i in range(args.workers)])
        per_worker = -(-args.configs // args.workers)  # ceil
        configs, owners, seed = [], {}, args.seed
        while len(configs) < args.configs and seed < args.seed + 10_000:
            cfg = make_config(seed)
            owner = ring.lookup(config_key(cfg))
            if owners.get(owner, 0) < per_worker:
                configs.append(cfg)
                owners[owner] = owners.get(owner, 0) + 1
            seed += 1
        result = compare_cluster_scaling(
            configs, num_workers=args.workers, num_requests=args.requests,
            concurrency=args.concurrency, seed=args.seed)
        cluster_scaling_table(
            result, title=f"sharded serving — {args.dataset}, "
                          f"{args.workers} workers, {args.configs} configs, "
                          f"{args.requests} requests").print()
    else:
        result = compare_with_naive(
            make_config(args.seed), num_requests=args.requests,
            distinct=args.distinct,
            nodes_per_request=args.nodes_per_request,
            concurrency=args.concurrency, seed=args.seed)
        serve_throughput_table(
            result, title=f"serving throughput — {args.dataset} "
                          f"({args.requests} requests, {args.distinct} "
                          f"distinct queries)").print()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(dict(result), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"results written to {args.json}")
    return 0 if result["identical"] else 1


def cmd_cost(args: argparse.Namespace) -> int:
    from repro.core.planner import deployable_engine_kinds
    from repro.hardware import (
        A100_SERVER,
        OutOfMemoryError,
        RTX3090_SERVER,
        TrainingCostModel,
        WorkloadSpec,
    )

    server = A100_SERVER if args.device == "a100" else RTX3090_SERVER
    model = TrainingCostModel(server)
    w = WorkloadSpec(seq_len=args.seq_len, hidden_dim=args.hidden_dim,
                     num_heads=args.heads, num_layers=args.layers,
                     avg_degree=args.avg_degree, num_gpus=args.gpus,
                     tokens_per_epoch=args.tokens or args.seq_len)
    kinds = deployable_engine_kinds()
    print(f"workload: S={w.seq_len:,} d={w.hidden_dim} H={w.num_heads} "
          f"L={w.num_layers} deg={w.avg_degree} on {args.gpus}×{server.device.name}")
    for name, kind in kinds.items():
        try:
            t = model.epoch_time(kind, w)
            print(f"  {name:<10} epoch {t:>10.2f} s")
        except OutOfMemoryError as e:
            print(f"  {name:<10} OOM ({e})")
    for name, kind in kinds.items():
        s_max = model.max_sequence_length(kind, w)
        print(f"  max trainable S with {name:<10}: {s_max:>12,}")
    return 0


def cmd_kernels(args: argparse.Namespace) -> int:
    """Print the attention-kernel registry with capability metadata."""
    from repro.attention import iter_kernels, iter_pattern_builders
    from repro.bench.harness import kernel_table, pattern_builder_table

    kernel_table(iter_kernels()).print()
    pattern_builder_table(iter_pattern_builders()).print()
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    """Print the compute-backend registry with capability metadata."""
    from repro.backend import HAVE_NUMBA, iter_backends
    from repro.bench.harness import compute_backend_table

    table = compute_backend_table(iter_backends())
    table.add_note("numba JIT kernels: "
                   + ("available" if HAVE_NUMBA else
                      "not installed (fused backend runs pure numpy — "
                      "results are identical)"))
    table.print()
    return 0


# ------------------------------------------------------------------ #
# parser
# ------------------------------------------------------------------ #
def build_parser() -> argparse.ArgumentParser:
    from repro.attention import pattern_builder_names
    from repro.core import engine_names

    p = argparse.ArgumentParser(
        prog="repro",
        description="TorchGT reproduction — training, datasets and cost model")
    sub = p.add_subparsers(dest="command", required=True)

    from repro.backend import backend_names

    sub.add_parser("info", help="versions, engines, devices, datasets")
    sub.add_parser("kernels",
                   help="the attention-kernel registry and its metadata")
    sub.add_parser("backends",
                   help="the compute-backend registry and its metadata")

    d = sub.add_parser("datasets", help="dataset statistics at a given scale")
    d.add_argument("--scale", type=float, default=0.2,
                   help="fraction of the full synthetic size (default 0.2)")
    d.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train", help="run a quick training job")
    t.add_argument("--dataset", default="ogbn-arxiv")
    t.add_argument("--model", default="graphormer-slim",
                   help="registered model name (see `repro info`)")
    t.add_argument("--engine", default="torchgt", choices=engine_names(),
                   help="training engine (registered engine names)")
    t.add_argument("--pattern", default=None, choices=pattern_builder_names(),
                   help="pattern builder for --engine fixed-pattern")
    t.add_argument("--backend", default="numpy", choices=backend_names(),
                   help="compute backend for inference-side forwards "
                        "(see `repro backends`)")
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--lr", type=float, default=3e-3)
    t.add_argument("--scale", type=float, default=0.2)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--patience", type=int, default=None,
                   help="early-stop after N epochs without val improvement")
    t.add_argument("--seq-len", type=int, default=None, dest="seq_len",
                   help="train on sampled sequences of this length "
                        "(node-level datasets)")
    t.add_argument("--save-config", default=None, metavar="PATH",
                   dest="save_config",
                   help="write the run's RunConfig JSON for `repro run`")
    t.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write a resumable training checkpoint every epoch")
    t.add_argument("--resume", default=None, metavar="PATH",
                   help="continue training from a --checkpoint file")

    r = sub.add_parser("run", help="replay a saved run configuration")
    r.add_argument("--config", required=True, metavar="PATH",
                   help="run.json written by `repro train --save-config` "
                        "or RunConfig.save()")

    s = sub.add_parser("serve",
                       help="serve batched inference for a saved run config")
    s.add_argument("--config", required=True, metavar="PATH",
                   help="run.json describing the served model")
    s.add_argument("--fit", action="store_true",
                   help="train per the config before serving")
    s.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="load model weights from a checkpoint on admission")
    s.add_argument("--pool-size", type=int, default=4, dest="pool_size",
                   help="warm sessions kept (LRU beyond this)")
    s.add_argument("--max-batch", type=int, default=32, dest="max_batch",
                   help="flush a micro-batch at this many requests")
    s.add_argument("--max-wait-ms", type=float, default=2.0,
                   dest="max_wait_ms",
                   help="flush a micro-batch once its oldest request "
                        "waited this long")
    s.add_argument("--queue-depth", type=int, default=256, dest="queue_depth",
                   help="bounded request queue depth (backpressure)")
    s.add_argument("--workers", type=int, default=0,
                   help="serve from N sharded worker processes "
                        "(0 = one in-process server)")
    s.add_argument("--store", default=None, metavar="DIR",
                   help="serve from a chunked on-disk store directory "
                        "(see `repro convert`); cluster workers open it "
                        "as a shared store by path")
    s.add_argument("--listen", default=None, metavar="HOST:PORT",
                   help="serve over TCP instead of the stdin REPL "
                        "(port 0 picks a free port; the bound address is "
                        "printed as `listening on HOST:PORT`)")
    s.add_argument("--wal", default=None, metavar="DIR",
                   help="append every mutation to a write-ahead delta log "
                        "in DIR and replay it on startup (crash recovery)")
    s.add_argument("--replicas", type=int, default=0,
                   help="spawn N read replicas tailing the WAL; "
                        "version-pinned reads are steered to them "
                        "(needs --workers and --wal)")
    s.add_argument("--snapshot-every", type=int, default=0,
                   dest="snapshot_every",
                   help="write a WAL snapshot every N appended records "
                        "(0 = never; replay starts from the latest "
                        "snapshot)")

    nc = sub.add_parser("client",
                        help="network client for `repro serve --listen`")
    nc.add_argument("--connect", required=True, metavar="HOST:PORT",
                    help="server address to connect to")
    nc.add_argument("--config", default=None, metavar="PATH",
                    help="run.json naming the served model (for predict)")
    nc.add_argument("--tenant", default="default",
                    help="tenant id stamped on every request")
    nc.add_argument("--priority", default="standard",
                    choices=["gold", "standard", "batch"],
                    help="priority class (maps to a deadline offset)")
    nc.add_argument("--timeout-s", type=float, default=30.0,
                    dest="timeout_s", help="per-request timeout")
    nc.add_argument("--retries", type=int, default=20,
                    help="connect attempts with exponential backoff "
                         "(generous default tolerates server warm-up)")
    nc.add_argument("--ping", action="store_true",
                    help="round-trip a liveness ping")
    nc.add_argument("--stats", action="store_true",
                    help="print the server's stats snapshot as JSON")
    nc.add_argument("--at-version", type=int, default=None,
                    dest="at_version", metavar="N",
                    help="pin the predict to graph version >= N "
                         "(bad_request if the server has not reached it; "
                         "a cluster may serve it from a read replica)")
    nc.add_argument("nodes", nargs="*", metavar="ID",
                    help="node ids to predict (default: full node set)")

    cv = sub.add_parser("convert",
                        help="write a dataset as a chunked on-disk store")
    cv.add_argument("--out", required=True, metavar="DIR",
                    help="store directory to create (overwritten in place)")
    cv.add_argument("--dataset", default="ogbn-arxiv",
                    help="registered node-level dataset to convert")
    cv.add_argument("--scale", type=float, default=0.2)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--npz", default=None, metavar="PATH",
                    help="convert a save_node_dataset archive instead of a "
                         "registered dataset")
    cv.add_argument("--chunk-rows", type=int, default=512, dest="chunk_rows",
                    help="node rows per chunk (default 512)")
    cv.add_argument("--align-blocks", action="store_true",
                    dest="align_blocks",
                    help="cut chunk boundaries at planted block runs so "
                         "chunks align with partition orderings")

    ins = sub.add_parser("inspect",
                         help="print a store directory's manifest")
    ins.add_argument("store", metavar="DIR", help="store directory to read")
    ins.add_argument("--chunks", action="store_true",
                     help="also list every chunk file")

    b = sub.add_parser("bench-serve",
                       help="batched serving vs naive per-request predict")
    b.add_argument("--dataset", default="ogbn-arxiv")
    b.add_argument("--model", default="graphormer-slim")
    b.add_argument("--engine", default="gp-raw", choices=engine_names())
    b.add_argument("--backend", default="numpy", choices=backend_names(),
                   help="compute backend the served sessions predict with")
    b.add_argument("--scale", type=float, default=0.1)
    b.add_argument("--requests", type=int, default=64)
    b.add_argument("--distinct", type=int, default=4,
                   help="distinct hot queries the requests cycle through")
    b.add_argument("--nodes-per-request", type=int, default=48,
                   dest="nodes_per_request")
    b.add_argument("--concurrency", type=int, default=16,
                   help="closed-loop in-flight request window")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--workers", type=int, default=0,
                   help="benchmark an N-worker sharded cluster against a "
                        "single worker (0 = batched-vs-naive comparison)")
    b.add_argument("--configs", type=int, default=4,
                   help="model-seed variants in the mixed-config cluster "
                        "load (with --workers)")
    b.add_argument("--json", default=None, metavar="PATH",
                   help="also write the comparison as JSON "
                        "(e.g. BENCH_serve.json)")

    st = sub.add_parser("stats",
                        help="export serving metrics (prometheus/json/table)")
    st.add_argument("--config", required=True, metavar="PATH",
                    help="run.json describing the served model")
    st.add_argument("--workers", type=int, default=0,
                    help="drive an N-worker cluster and merge per-worker "
                         "registries (0 = one in-process server)")
    st.add_argument("--requests", type=int, default=8,
                    help="sample predictions to serve before the export")
    st.add_argument("--format", choices=["prom", "json", "table"],
                    default="table",
                    help="prometheus text exposition, JSON, or a table")

    c = sub.add_parser("cost", help="price a paper-scale workload (no training)")
    c.add_argument("--seq-len", type=int, default=256_000)
    c.add_argument("--hidden-dim", type=int, default=64)
    c.add_argument("--heads", type=int, default=8)
    c.add_argument("--layers", type=int, default=4)
    c.add_argument("--avg-degree", type=float, default=29.0)
    c.add_argument("--gpus", type=int, default=8)
    c.add_argument("--tokens", type=int, default=0,
                   help="tokens per epoch (defaults to one sequence)")
    c.add_argument("--device", choices=["3090", "a100"], default="3090")
    return p


_COMMANDS = {
    "info": cmd_info,
    "kernels": cmd_kernels,
    "backends": cmd_backends,
    "datasets": cmd_datasets,
    "train": cmd_train,
    "run": cmd_run,
    "serve": cmd_serve,
    "client": cmd_client,
    "convert": cmd_convert,
    "inspect": cmd_inspect,
    "bench-serve": cmd_bench_serve,
    "stats": cmd_stats,
    "cost": cmd_cost,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
