"""The per-layer pass (``--trace 1``): where the end-to-end time goes.

Replays each workload's inputs stage by stage through the public
functions of every module, from the benchmark's own files, recording one
span per call (see ``measure.Spans``).  Counts come from surfaces the
program already exposes: ``stats_snapshot()``, ``client.stats()``,
``cache_stats()``, ``workspace_cache_stats()``, the attention
``collector``, the obs hooks and ``CommLog``.  Micro-timings are inner ×
outer repeats, median of the outers.  A layer a workload does not reach
is left out here and reported as 0 by ``run.py``.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from repro.api import Session, TrainConfig
from repro.attention import (clear_workspace_stats, collector, dense_attention,
                             flash_attention, resolve_kernel, sparse_attention,
                             topology_pattern, workspace_cache_stats)
from repro.backend import compile_plan
from repro.core import check_conditions, make_engine, reform_pattern
from repro.distributed import (Communicator, ShardPlan, cluster_aware_attention,
                               naive_sequence_parallel_attention, pack_array,
                               pack_arrays, unpack_array)
from repro.graph import load_node_dataset
from repro.models.encodings import compute_encodings
from repro.net import AdmissionController, decode_message, encode_message
from repro.net.protocol import predict_request, result_response
from repro.obs import hooks
from repro.partition import cluster_reorder, edge_cut
from repro.serve import (BatchPolicy, InferenceServer, Router, SessionPool,
                         config_key)
from repro.store import open_store, write_store
from repro.stream import MutationLog, apply_delta
from repro.tensor import AdamW, Tensor, clip_grad_norm, no_grad, precision_scope
from repro.tensor import functional as F
from repro.train import planned_forward
from repro.train.metrics import accuracy

import serve_wl
import train_wl
from inputs import (DATASET, Size, bridged_dataset, churn_cycle_requests,
                    churn_deltas, hot_node_sets, read_requests, run_config)
from measure import Spans, Tally, median, now
from oracle import Oracle

LAP_PE_DIM = TrainConfig().lap_pe_dim


# --------------------------------------------------------------------- #
# layers shared by several workloads
# --------------------------------------------------------------------- #
def graph_layer(spans: Spans, size: Size, m: dict):
    m["graph.load_dataset_ms"] = spans.repeat(
        "graph.load_dataset",
        lambda: load_node_dataset(DATASET, scale=size.scale, seed=0)) * 1e3
    dataset, bridges = bridged_dataset(size)
    m["graph.bridge_edges"] = bridges
    m["graph.num_edges"] = dataset.graph.num_edges
    return dataset


def preprocess_layers(spans: Spans, config, graph, m: dict):
    """partition → attention pattern → core (conditions, ECR) → encodings.

    The stages ``TorchGTEngine.prepare_graph`` chains together, once as
    the engine runs them and once each on their own.  Returns the
    prepared context (reordering, pattern, reformed pattern).
    """
    mc = config.model
    new_engine = lambda: make_engine("torchgt", num_layers=mc.num_layers,
                                     hidden_dim=mc.hidden_dim, seed=config.seed)
    m["core.prepare_graph_ms"] = spans.repeat(
        "core.prepare_graph", lambda: new_engine().prepare_graph(graph),
        outer=3) * 1e3
    ctx = new_engine().prepare_graph(graph)
    k = ctx.cluster_dim
    m["partition.cluster_reorder_ms"] = spans.repeat(
        "partition.cluster_reorder",
        lambda: cluster_reorder(graph, k, seed=config.seed), outer=3) * 1e3
    ro = ctx.reordering
    m["partition.num_clusters"] = ro.num_clusters
    m["partition.edge_cut_share"] = (
        edge_cut(graph, ro.labels_new[ro.perm]) / max(graph.num_edges // 2, 1))
    m["attention.topology_pattern_ms"] = spans.repeat(
        "attention.topology_pattern", lambda: topology_pattern(ro.graph)) * 1e3
    pattern = ctx.pattern
    m["attention.pattern_nnz"] = pattern.num_entries
    m["core.check_conditions_ms"] = spans.repeat(
        "core.check_conditions",
        lambda: check_conditions(pattern, mc.num_layers), outer=3) * 1e3
    m["core.reform_pattern_ms"] = spans.repeat(
        "core.reform_pattern",
        lambda: reform_pattern(pattern, ro.bounds, beta_thre=pattern.sparsity(),
                               db=ctx.subblock_dim), outer=3) * 1e3
    m["core.reformed_nnz_ratio"] = (ctx.reformed.entries_after
                                    / ctx.reformed.entries_before)
    m["models.compute_encodings_ms"] = spans.repeat(
        "models.compute_encodings",
        lambda: compute_encodings(ro.graph, lap_pe_dim=LAP_PE_DIM), outer=3) * 1e3
    return ctx


def kernel_pair(spans: Spans, name: str, forward, grad, m: dict, outer: int = 5):
    """Forward and backward of one attention kernel, timed apart."""
    forward().backward(grad)  # untimed first call
    for _ in range(outer):
        with spans.span(f"attention.{name}_fwd"):
            out = forward()
        with spans.span(f"attention.{name}_bwd"):
            out.backward(grad)
    m[f"attention.{name}_fwd_ms"] = spans.median_ms(f"attention.{name}_fwd")
    m[f"attention.{name}_bwd_ms"] = spans.median_ms(f"attention.{name}_bwd")


def attention_kernels(spans: Spans, config, precision: str, seq_len: int, pattern,
                      kinds, m: dict):
    """The kernels alone, on the model's (heads, S, head_dim) shapes.

    Bias shapes follow the model: per-entry for sparse, (H, S, S) for
    dense, none for flash.  FLOPs and bytes per sparse call are the
    kernel's own shape-derived counts, not measurements.
    """
    heads = config.model.num_heads
    dh = config.model.hidden_dim // heads
    rng = np.random.default_rng(0)
    with precision_scope(precision):
        q, k, v = (Tensor(rng.standard_normal((heads, seq_len, dh)),
                          requires_grad=True) for _ in range(3))
        grad = np.ones((heads, seq_len, dh), dtype=q.data.dtype)
        if "sparse" in kinds:
            bias = Tensor(rng.standard_normal((heads, pattern.num_entries)),
                          requires_grad=True)
            kernel_pair(spans, "sparse",
                        lambda: sparse_attention(q, k, v, pattern, bias=bias), grad, m)
            last = collector.last()
            m["attention.sparse_flops_per_call"] = last.flops
            m["attention.sparse_bytes_per_call"] = last.total_bytes
        if "dense" in kinds:
            bias = Tensor(rng.standard_normal((heads, seq_len, seq_len)),
                          requires_grad=True)
            kernel_pair(spans, "dense",
                        lambda: dense_attention(q, k, v, bias=bias), grad, m)
        if "flash" in kinds:
            kernel_pair(spans, "flash", lambda: flash_attention(q, k, v), grad, m)
    collector.clear()


def train_step_layers(spans: Spans, config, dataset, plans, m: dict, outer: int = 5):
    """models → tensor → train: one optimizer step, split at the layer seams.

    ``plans`` names the attention plans to step with (sparse / dense /
    flash); the first is the one ``train.step_ms`` reports.  The
    evaluation pass (``train.eval_ms``) runs the engine's own eval plan.
    """
    session = Session(config, dataset=dataset)
    model, engine = session.model, session.engine
    with precision_scope(engine.precision):
        ctx = engine.prepare_graph(dataset.graph)
        enc = compute_encodings(ctx.graph, lap_pe_dim=LAP_PE_DIM)
        inv = ctx.node_permutation_inverse()
        pick = (lambda a: a[inv]) if inv is not None else (lambda a: a)
        feats, labels = pick(dataset.features), pick(dataset.labels)
        val_mask, test_mask = pick(dataset.val_mask), pick(dataset.test_mask)
        targets = np.where(pick(dataset.train_mask), labels, -1)
        opt = AdamW(model.parameters(), lr=config.train.lr,
                    weight_decay=config.train.weight_decay)
        sparse_pattern = (None if ctx.pattern is None else
                          ctx.reformed.pattern if ctx.reformed else ctx.pattern)
        call = {
            "sparse": dict(backend=resolve_kernel("sparse"), pattern=sparse_pattern,
                           use_bias=True),
            "dense": dict(backend=resolve_kernel("dense"), pattern=None, use_bias=True),
            "flash": dict(backend=resolve_kernel("flash"), pattern=None, use_bias=False),
        }
        for plan in plans:
            for i in range(outer + 1):  # the first pass is the untimed one
                rec = Spans(spans.workload) if i == 0 else spans
                model.train()
                with rec.span(f"train.step.{plan}"):
                    with rec.span(f"models.forward_{plan}"):
                        logits = model(feats, enc, **call[plan])
                    loss = F.cross_entropy(logits, targets, ignore_index=-1)
                    opt.zero_grad()
                    with rec.span(f"tensor.backward_{plan}"):
                        loss.backward()
                    with rec.span("tensor.optimizer_step"):
                        clip_grad_norm(opt.params, config.train.grad_clip)
                        opt.step()
            m[f"models.forward_{plan}_ms"] = spans.median_ms(f"models.forward_{plan}")
            m[f"tensor.backward_{plan}_ms"] = spans.median_ms(f"tensor.backward_{plan}")
        m["tensor.optimizer_step_ms"] = spans.median_ms("tensor.optimizer_step")
        m["train.step_ms"] = spans.median_ms(f"train.step.{plans[0]}")

        def evaluate():
            model.eval()
            with no_grad():
                out = planned_forward(model, engine, ctx, feats, enc, train=False)
            accuracy(out.data, labels, val_mask)
            accuracy(out.data, labels, test_mask)
        m["train.eval_ms"] = spans.repeat("train.eval", evaluate, outer=outer) * 1e3
    collector.clear()


def dispatch_layer(spans: Spans, m: dict):
    """Per-op cost of the autograd tensor over the raw numpy kernel."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 32)).astype(np.float32)
    b = rng.standard_normal((64, 32)).astype(np.float32)
    w, z = np.ones(32, dtype=np.float32), np.zeros(32, dtype=np.float32)
    ta, tb, tw, tz = Tensor(a), Tensor(b), Tensor(w), Tensor(z)
    cases = [
        (lambda: ta + tb, lambda: np.add(a, b)),
        (lambda: ta * tb, lambda: np.multiply(a, b)),
        (lambda: ta @ tb.transpose(), lambda: np.matmul(a, b.T)),
        (lambda: F.gelu(ta), lambda: F.gelu_forward(a)),
        (lambda: F.softmax(ta), lambda: F.softmax_forward(a)),
        (lambda: F.layer_norm(ta, tw, tz), lambda: F.layer_norm_forward(a, w, z)),
    ]
    with no_grad():
        extra = [spans.repeat("tensor.dispatch", via_tensor, inner=300)
                 - spans.repeat("tensor.dispatch.raw", raw, inner=300)
                 for via_tensor, raw in cases]
    m["tensor.dispatch_us_per_op"] = float(np.mean(extra)) * 1e6


def collective_layer(config, seq_len: int, pattern, m: dict, ranks: int = 4):
    """Bytes each of P simulated ranks sends: cluster-aware vs all-gather.

    Counts from ``CommLog``, exact for fixed shapes; no wall-clock claim.
    """
    heads = config.model.num_heads
    dh = config.model.hidden_dim // heads
    rng = np.random.default_rng(0)
    plan = ShardPlan(seq_len, heads, ranks)
    shards = [[rng.standard_normal((heads, seq_len, dh)).astype(np.float32)[:, rows]
               for rows in plan.row_slices()] for _ in range(3)]
    comm = Communicator(ranks)
    cluster_aware_attention(comm, plan, *shards, pattern)
    m["distributed.alltoall_bytes_per_rank"] = comm.log.per_rank_bytes("all_to_all")
    comm = Communicator(ranks)
    naive_sequence_parallel_attention(comm, plan, *shards, pattern)
    m["distributed.allgather_bytes_per_rank"] = comm.log.per_rank_bytes("all_gather")


# --------------------------------------------------------------------- #
# training workloads
# --------------------------------------------------------------------- #
def traced_fit(spans: Spans, workload: str, config, dataset, tally: Tally, m: dict):
    """One real ``fit()``: epoch times by plan kind, plan mix, cache hits."""
    clear_workspace_stats()
    with spans.span("train.fit"):
        _, rnd = train_wl.fit_round(config, dataset, config.model.num_layers)
    train_wl.check_round(workload, rnd, rnd["digest"], tally)
    by_kind: dict[str, list[float]] = {}
    for kind, ms in zip(rnd["kinds"], rnd["epoch_ms"]):
        by_kind.setdefault(kind, []).append(ms)
    m["core.sparse_iter_share"] = rnd["sparse_share"]
    m["core.reforms"] = rnd["reforms"]
    if "sparse" in by_kind:
        m["core.sparse_epoch_ms"] = median(by_kind["sparse"])
        m["core.dense_epoch_ms"] = median(by_kind["dense"])
        ws = workspace_cache_stats()
        m["attention.workspace_hit_share"] = ws.hits / max(ws.hits + ws.misses, 1)


def trace_train(workload: str, size: Size, seed: int, tmp: str, tally: Tally,
                spans: Spans) -> dict:
    del seed, tmp
    m: dict = {}
    engine = train_wl.ENGINE[workload]
    config = run_config(size, engine, epochs=train_wl.epochs_for(workload, size))
    dataset = graph_layer(spans, size, m)
    seq_len = dataset.num_nodes
    precision = Session(config, dataset=dataset).engine.precision
    if workload == "train_sparse":
        ctx = preprocess_layers(spans, config, dataset.graph, m)
        attention_kernels(spans, config, precision, seq_len, ctx.reformed.pattern,
                          ("sparse", "dense"), m)
        collective_layer(config, seq_len, ctx.pattern, m)
        plans = ("sparse", "dense")
    else:
        m["core.prepare_graph_ms"] = spans.repeat(
            "core.prepare_graph",
            lambda: make_engine(engine, num_layers=config.model.num_layers,
                                hidden_dim=config.model.hidden_dim
                                ).prepare_graph(dataset.graph)) * 1e3
        m["models.compute_encodings_ms"] = spans.repeat(
            "models.compute_encodings",
            lambda: compute_encodings(dataset.graph, lap_pe_dim=LAP_PE_DIM),
            outer=3) * 1e3
        attention_kernels(spans, config, precision, seq_len, None, ("flash",), m)
        plans = ("flash",)
    train_step_layers(spans, config, dataset, plans, m)
    traced_fit(spans, workload, config, dataset, tally, m)
    dispatch_layer(spans, m)
    return {"metrics": m}


# --------------------------------------------------------------------- #
# serving workloads
# --------------------------------------------------------------------- #
def counter_total(obs: dict, name: str, **labels) -> float:
    """Sum of a merged-registry counter's series matching ``labels``."""
    return sum(s["value"] for s in obs.get(name, {}).get("series", ())
               if all(s["labels"].get(k) == v for k, v in labels.items()))


def rung(spans: Spans, name: str, call, configs, nodes, calls: int = 40) -> float:
    """One ladder rung: the same hot-set request on A and B, mean of medians."""
    per_config = []
    for i, cfg in enumerate(configs):
        call(cfg, nodes)
        call(cfg, nodes)
        for _ in range(calls):
            with spans.span(f"{name}[{'AB'[i]}]"):
                call(cfg, nodes)
        per_config.append(spans.median_ms(f"{name}[{'AB'[i]}]"))
    return float(np.mean(per_config))


def via_backend(backend):
    """submit → drive → result on any submit/step tier."""
    def call(cfg, nodes):
        future = backend.submit(cfg, nodes=nodes)
        backend.run_until_idle()
        return future.result(timeout=60.0)
    return call


def boot_seconds(size: Size, store: str):
    """A process cluster and the time until both workers answer."""
    t0 = now()
    cluster = serve_wl.make_cluster(size, store)
    cluster.stats_snapshot(timeout_s=60.0)
    return cluster, now() - t0


def wire_layers(spans: Spans, configs, nodes, logits, full_logits, m: dict):
    """net codec, admission, router and array packing, each on its own."""
    request = predict_request(1, configs[0].to_json(), tenant="default", nodes=nodes)
    frame = encode_message(request)
    reply = result_response(1, logits, graph_version=1)
    admission = AdmissionController()
    router = Router(["w0", "w1"])
    key = config_key(configs[0])

    def route():
        router.complete(router.route(key))
    packed, packed_full = pack_array(logits), pack_array(full_logits)
    for metric, fn in (
            ("net.encode_request_us", lambda: encode_message(request)),
            ("net.decode_request_us", lambda: decode_message(frame)),
            ("net.encode_reply_us", lambda: encode_message(reply)),
            ("net.admission_us", lambda: admission.admit("default")),
            ("serve.router_route_us", route),
            ("distributed.pack_array_us", lambda: pack_array(logits)),
            ("distributed.unpack_array_us", lambda: unpack_array(packed)),
            ("distributed.pack_full_array_us", lambda: pack_array(full_logits)),
            ("distributed.unpack_full_array_us", lambda: unpack_array(packed_full))):
        m[metric] = spans.repeat(metric[:-3], fn, inner=200) * 1e6
    m["distributed.wire_bytes_per_request"] = len(pack_arrays([nodes])) + len(packed)


def traffic_counts(stack, before: dict, requests: int, fused_requests: int, m: dict):
    """Ratios measured where the work happens, from the served system's own stats."""
    snap = stack.client.stats()
    net, back = snap["net"], snap["backend"]
    obs = back["obs"]
    m["net.bytes_in_per_request"] = (net["bytes_in"] - before["bytes_in"]) / requests
    m["net.bytes_out_per_request"] = (net["bytes_out"] - before["bytes_out"]) / requests
    m["serve.batch_occupancy"] = back["workers"]["mean_batch_occupancy"]
    pool = back["pool"]
    m["serve.pool_hit_share"] = pool["hits"] / max(pool["hits"] + pool["misses"], 1)
    m["serve.requeued"] = back["cluster"]["requeued"]
    m["serve.duplicates_ignored"] = back["cluster"]["duplicates_ignored"]
    compiles = counter_total(obs, "repro_backend_compile_total")
    m["backend.compiled_hit_share"] = 1.0 - min(compiles / max(fused_requests, 1), 1.0)
    m["backend.fallbacks"] = counter_total(obs, "repro_backend_compile_total",
                                           outcome="fallback")
    hits = counter_total(obs, "repro_store_chunk_hits_total")
    misses = counter_total(obs, "repro_store_chunk_misses_total")
    m["store.chunk_hit_share"] = hits / max(hits + misses, 1)


def trace_read(workload: str, size: Size, seed: int, tmp: str, tally: Tally,
               spans: Spans) -> dict:
    m: dict = {}
    configs = serve_wl.serving_configs(size)
    rng = np.random.default_rng(seed)
    dataset = graph_layer(spans, size, m)
    hot = hot_node_sets(rng, dataset.num_nodes, size)
    nodes = hot[0]

    # store
    dirs = (os.path.join(tmp, f"w{i}") for i in itertools.count())
    m["store.write_store_ms"] = spans.repeat(
        "store.write_store",
        lambda: write_store(next(dirs), dataset, chunk_rows=256)) * 1e3
    store = os.path.join(tmp, "store")
    write_store(store, dataset, chunk_rows=256)
    m["store.open_store_ms"] = spans.repeat(
        "store.open_store", lambda: open_store(store)) * 1e3

    # api + backend, in process over the opened store
    miss_bytes = []
    on_miss = lambda key, nbytes: miss_bytes.append(nbytes)
    hooks.add_hook("on_chunk_miss", on_miss)
    try:
        stored = open_store(store)
        direct = [Session(cfg, dataset=stored) for cfg in configs]
        r_direct = rung(spans, "api.predict_subset",
                        lambda cfg, n: direct[configs.index(cfg)].predict(nodes=n),
                        configs, nodes)
        m["api.predict_subset_ms"] = r_direct
        logits = direct[0].predict(nodes=nodes)
        full_logits = direct[0].predict()
        m["api.predict_full_warm_ms"] = spans.repeat(
            "api.predict_full_warm", direct[0].predict, outer=10) * 1e3
    finally:
        hooks.remove_hook("on_chunk_miss", on_miss)
    m["store.chunk_miss_bytes"] = sum(miss_bytes)
    engine = direct[1].engine
    sorted_nodes = np.sort(nodes)
    m["api.prepare_inference_ms"] = spans.repeat(
        "api.prepare_inference",
        lambda: engine.prepare_inference(stored.graph.subgraph(sorted_nodes)[0]),
        outer=10) * 1e3
    ctx = engine.prepare_inference(stored.graph.subgraph(sorted_nodes)[0])
    enc = compute_encodings(ctx.graph, lap_pe_dim=LAP_PE_DIM)
    inv = ctx.node_permutation_inverse()
    feats = np.asarray(stored.features[sorted_nodes])
    feats = feats[inv] if inv is not None else feats
    model = direct[1].model
    model.eval()

    def reference(f):
        with no_grad():
            return planned_forward(model, engine, ctx, f, enc, train=False)
    m["backend.compile_ms"] = spans.repeat(
        "backend.compile",
        lambda: compile_plan(reference, feats, engine.precision), outer=5) * 1e3
    program = compile_plan(reference, feats, engine.precision)
    tally.check("trace.compile", program is not None,
                "the fused backend fell back on the hot-set plan")
    if program is not None:
        m["backend.replay_ms"] = spans.repeat(
            "backend.replay", lambda: program.run(feats), inner=20) * 1e3

    # the ladder: the same request, one tier higher each rung
    pool = SessionPool(max_sessions=4)
    pool.put_dataset(configs[0], stored)
    server = InferenceServer(pool=pool, policy=BatchPolicy(max_batch_size=8,
                                                           max_wait_s=0.0))
    r_server = rung(spans, "serve.server", via_backend(server), configs, nodes)
    server.close()
    inline = serve_wl.make_cluster(size, store, backend="inline")
    r_inline = rung(spans, "serve.cluster_inline", via_backend(inline), configs, nodes)
    inline.close()
    cluster, m["serve.worker_boot_s"] = boot_seconds(size, store)
    r_process = rung(spans, "serve.process_hop", via_backend(cluster), configs, nodes)
    cluster.close()

    stack = serve_wl.Stack(size, store)
    try:
        client = stack.client
        r_net = rung(spans, "net.socket",
                     lambda cfg, n: client.predict(cfg, nodes=n), configs, nodes)
        m["net.ping_rtt_us"] = median(client.ping() for _ in range(50)) * 1e6

        # phase-1 traffic sample: counts at the boundaries
        before = client.stats()["net"]
        rec = serve_wl.Recorder(client, configs, tally)
        requests = read_requests(rng, dataset.num_nodes, hot, size)
        sent = fused = 0
        for _ in range(size.trace_requests):
            cfg, n = next(requests)
            rec.predict("trace.traffic", cfg, n, None)
            sent, fused = sent + 1, fused + cfg
        traffic_counts(stack, before, sent, fused, m)

        # the program's own tracing, off and on, in alternating blocks
        plain, traced = [], []
        for _ in range(size.trace_blocks):
            for flag, sink in ((False, plain), (True, traced)):
                stack.cluster.set_tracing(flag)
                for _ in range(30):
                    cfg, n = next(requests)
                    rec.predict("trace.overhead", cfg, n, sink)
        stack.cluster.set_tracing(False)
        m["obs.trace_overhead_share"] = (median(traced) - median(plain)) / median(plain)
    finally:
        stack.close()
    Oracle(configs[0], dataset, []).verify(rec.observations, tally)

    m["serve.server_overhead_ms"] = r_server - r_direct
    m["serve.cluster_inline_overhead_ms"] = r_inline - r_server
    m["serve.process_hop_overhead_ms"] = r_process - r_inline
    m["net.socket_overhead_ms"] = r_net - r_process
    wire_layers(spans, configs, nodes, logits, full_logits, m)
    dispatch_layer(spans, m)
    return {"metrics": m, "ladder_ms": {"direct": r_direct, "server": r_server,
                                        "inline": r_inline, "process": r_process,
                                        "net": r_net}}


def trace_churn(workload: str, size: Size, seed: int, tmp: str, tally: Tally,
                spans: Spans) -> dict:
    m: dict = {}
    configs = serve_wl.serving_configs(size)
    rng = np.random.default_rng(seed)
    dataset = graph_layer(spans, size, m)
    num_nodes = dataset.num_nodes
    hot = hot_node_sets(rng, num_nodes, size)
    deltas = churn_deltas(rng, dataset, size.trace_deltas)
    # what a full-graph predict right after a delta has to redo
    preprocess_layers(spans, configs[0], dataset.graph, m)

    # stream + api, in process
    mirror, _ = bridged_dataset(size)
    for delta in deltas:
        spans.call("stream.apply_delta", apply_delta, mirror, delta)
    m["stream.apply_delta_ms"] = spans.median_ms("stream.apply_delta")

    live, _ = bridged_dataset(size)
    session = Session(configs[0], dataset=live)
    clear_workspace_stats()
    for i, delta in enumerate(deltas):
        for nodes in hot:
            session.predict(nodes=nodes)
        session.apply_delta(delta)
        if i < 5:
            spans.call("api.predict_full_after_delta", session.predict)
    m["api.predict_full_after_delta_ms"] = spans.median_ms("api.predict_full_after_delta")
    ws = workspace_cache_stats()
    m["stream.workspaces_kept_share"] = ws.targeted_retained / max(
        ws.targeted_retained + ws.targeted_drops, 1)

    # the log alone: append (fsync included), snapshot, replay
    base_version = dataset.graph_version
    log = MutationLog(os.path.join(tmp, "log"))
    for i, delta in enumerate(deltas):
        spans.call("stream.wal_append", log.append, delta, base_version + i + 1)
    m["stream.wal_append_ms"] = spans.median_ms("stream.wal_append")
    for _ in range(3):
        spans.call("store.snapshot", log.snapshot, mirror)
    m["store.snapshot_ms"] = spans.median_ms("store.snapshot")
    fresh, _ = bridged_dataset(size)
    with spans.span("stream.wal_replay"):
        replayed = log.replay(fresh)
    log.close()
    tally.check("trace.replay", replayed == len(deltas)
                and fresh.graph_version == mirror.graph_version,
                f"replayed {replayed} of {len(deltas)} records")
    m["stream.wal_replay_ms_per_record"] = spans.median_ms("stream.wal_replay") / max(
        replayed, 1)

    # broadcast without a log, then the durable stack as a client sees it
    store = os.path.join(tmp, "store")
    write_store(store, dataset, chunk_rows=256)
    cluster, m["serve.worker_boot_s"] = boot_seconds(size, store)
    try:
        for delta in deltas:
            with spans.span("stream.broadcast_ack"):
                future = cluster.submit_delta(configs[0], delta)
                cluster.run_until_idle()
                future.result(timeout=60.0)
    finally:
        cluster.close()
    m["stream.broadcast_ack_ms"] = spans.median_ms("stream.broadcast_ack")

    stack = serve_wl.Stack(size, store, os.path.join(tmp, "wal"))
    try:
        rec = serve_wl.Recorder(stack.client, configs, tally)
        serve_wl.warm_up(rec, hot)
        before = stack.client.stats()["net"]
        mutate_ms: list[float] = []
        sent = fused = 0
        for i, delta in enumerate(deltas):
            rec.mutate("trace.mutate", delta, base_version + i + 1, mutate_ms)
            for cfg, nodes in churn_cycle_requests(rng, num_nodes, hot, size):
                rec.predict("trace.traffic", cfg, nodes, None)
                sent, fused = sent + 1, fused + cfg
        m["stream.mutate_ms_p50"] = median(mutate_ms)
        traffic_counts(stack, before, sent + len(deltas), fused, m)
    finally:
        stack.close()
    Oracle(configs[0], dataset, deltas).verify(rec.observations, tally)
    return {"metrics": m}


def run(workload: str, size: Size, seed: int, tmp: str, tally: Tally,
        spans: Spans) -> dict:
    trace = {"train_sparse": trace_train, "train_flash": trace_train,
             "serve_read": trace_read, "serve_churn": trace_churn}[workload]
    return trace(workload, size, seed, tmp, tally, spans)
