"""``serve_read`` and ``serve_churn``: one closed-loop client over the full stack.

    NetClient → NetServer(admission) → ServingCluster(2 process workers,
    shared store[, WAL]) → InferenceServer → Session

One load-generating process, one blocking connection: a caller of a
blocking RPC client waits for its reply, and on a 2-core box a second
client thread already oversubscribes router + net thread + 2 workers.

One session = set-up (dataset, bridge, store, cluster and worker boot,
``NetServer.start``, a warm-up pass over the hot sets and the full graph
on both configs) → the timed phases → restart (close everything, build a
new cluster over the same store[ + WAL], first hot-set predict, which
must be bitwise right).  Results are checked against the oracle after
the timed window.
"""

from __future__ import annotations

import os

import numpy as np

from repro.net import AdmissionController, NetClient, NetServer, RemoteError
from repro.serve import BatchPolicy, ServingCluster
from repro.store import write_store

from inputs import (Size, bridged_dataset, churn_cycle_requests, churn_deltas,
                    hot_node_sets, read_requests, run_config)
from measure import Tally, median, now, percentile
from oracle import Observation, Oracle

REFUSALS = {"quota", "shed", "backpressure", "deadline"}


def serving_configs(size: Size):
    """A = reference backend, B = fused backend, over the same data."""
    return (run_config(size, backend="numpy"), run_config(size, backend="fused"))


def make_cluster(size: Size, store: str, wal_dir: str | None = None,
                 backend: str = "process") -> ServingCluster:
    durable = ({} if wal_dir is None
               else dict(wal_dir=wal_dir, snapshot_every=size.snapshot_every))
    return ServingCluster(
        num_workers=2, backend=backend,
        stores=[(cfg, store) for cfg in serving_configs(size)],
        policy=BatchPolicy(max_batch_size=8, max_wait_s=0.0), **durable)


class Stack:
    """The served system, from listening socket down to the workers."""

    def __init__(self, size: Size, store: str, wal_dir: str | None = None):
        self.cluster = make_cluster(size, store, wal_dir)
        self.net = NetServer(self.cluster,
                             admission=AdmissionController()).start()
        self.client = NetClient(*self.net.address,
                                request_timeout_s=120.0).connect()

    def close(self) -> None:
        self.client.close()
        self.net.close()
        self.cluster.close()


class Recorder:
    """Issues requests, times them, and keeps every reply for the oracle."""

    def __init__(self, client: NetClient, configs, tally: Tally):
        self.client, self.configs, self.tally = client, configs, tally
        self.observations: list[Observation] = []

    def _timed(self, phase: str, call):
        """``(value, ms)`` of one request, or None after counting its failure."""
        t0 = now()
        try:
            value = call()
        except RemoteError as exc:
            self.tally.error(phase, exc, refused=exc.kind in REFUSALS)
            return None
        except Exception as exc:  # connection loss, timeout, decode error
            self.tally.error(phase, exc)
            return None
        return value, (now() - t0) * 1e3

    def predict(self, phase: str, cfg: int, nodes, sink: list | None) -> None:
        done = self._timed(
            phase, lambda: self.client.predict(self.configs[cfg], nodes=nodes))
        if done is None:
            return
        if sink is not None:
            sink.append(done[1])
        self.observations.append(Observation(
            phase, self.client.last_graph_version, nodes, done[0]))

    def mutate(self, phase: str, delta, expect: int, sink: list) -> None:
        done = self._timed(phase, lambda: self.client.mutate(self.configs[0], delta))
        if done is None:
            return
        sink.append(done[1])
        self.tally.check(phase, done[0] == expect,
                         f"mutate acked version {done[0]}, expected {expect}")


def warm_up(rec: Recorder, hot) -> None:
    for cfg in (0, 1):
        for nodes in hot:
            rec.predict("warmup", cfg, nodes, None)
        rec.predict("warmup", cfg, None, None)


def read_phases(rec: Recorder, requests, size: Size, budget: float, out: dict) -> None:
    """Phase 1: subset predicts.  Phase 2: warm full-graph predicts.

    Kept apart because a full-graph plan in the mix takes a slot of each
    session's compiled-plan cache and drags the subset tail with it.
    """
    started = now()
    sent = 0
    while sent < 8 or now() - started < 0.7 * budget:
        cfg, nodes = next(requests)
        rec.predict("read.subset", cfg, nodes, out["subset_ms"])
        sent += 1
    out["rates"].append(sent / (now() - started))
    started = now()
    sent = 0
    while sent < size.min_full or now() - started < 0.3 * budget:
        rec.predict("read.full", sent % 2, None, out["full_ms"])
        sent += 1


def churn_phase(rec: Recorder, deltas, hot, rng, num_nodes: int, size: Size,
                budget: float, base_version: int, out: dict) -> int:
    """Mutate, then six subset predicts; every Nth cycle one full-graph predict.

    Runs whole groups of ``full_every`` cycles, so every session's
    operation mix is the same whatever the budget.  Returns cycles run.
    """
    started = now()
    cycle = ops = 0
    while cycle < len(deltas) and (cycle == 0 or now() - started < budget):
        for _ in range(size.full_every):
            rec.mutate("churn.mutate", deltas[cycle], base_version + cycle + 1,
                       out["mutate_ms"])
            for cfg, nodes in churn_cycle_requests(rng, num_nodes, hot, size):
                rec.predict("churn.subset", cfg, nodes, out["subset_ms"])
            cycle += 1
            ops += 7
        rec.predict("churn.full", 0, None, out["full_ms"])
        ops += 1
    out["rates"].append(ops / (now() - started))
    return cycle


def restart(size: Size, store: str, wal_dir: str | None, nodes, expect_version: int,
            tally: Tally) -> tuple[float, Observation | None]:
    """A new cluster over what the old one left on disk, up to a right answer."""
    config = serving_configs(size)[0]
    t0 = now()
    cluster = make_cluster(size, store, wal_dir)
    try:
        version = cluster.graph_version(config)
        future = cluster.submit(config, nodes=nodes)
        cluster.run_until_idle()
        logits = future.result(timeout=60.0)
        seconds = now() - t0
        tally.check("restart", version == expect_version
                    and future.graph_version == expect_version,
                    f"restarted at version {version}/{future.graph_version}, "
                    f"expected {expect_version}")
        return seconds, Observation("restart", future.graph_version, nodes, logits)
    except Exception as exc:
        tally.error("restart", exc)
        return now() - t0, None
    finally:
        cluster.close()


def run(workload: str, size: Size, seed: int, seconds: float, tmp: str,
        tally: Tally) -> dict:
    churn = workload == "serve_churn"
    configs = serving_configs(size)
    rng = np.random.default_rng(seed)
    budget = seconds / size.sessions
    out = {"subset_ms": [], "full_ms": [], "mutate_ms": [], "rates": []}
    setups, restarts, checked = [], [], []

    for idx in range(size.sessions):
        # the generated inputs of this session; its dataset later serves the oracle
        reference, _ = bridged_dataset(size)
        base_version = reference.graph_version
        hot = hot_node_sets(rng, reference.num_nodes, size)
        deltas = churn_deltas(rng, reference, size.churn_cycles) if churn else []

        t0 = now()
        dataset, _ = bridged_dataset(size)
        store = os.path.join(tmp, f"store{idx}")
        wal_dir = os.path.join(tmp, f"wal{idx}") if churn else None
        write_store(store, dataset, chunk_rows=256)
        stack = Stack(size, store, wal_dir)
        rec = Recorder(stack.client, configs, tally)
        try:
            warm_up(rec, hot)
            setups.append(now() - t0)
            if churn:
                cycles = churn_phase(rec, deltas, hot, rng, reference.num_nodes,
                                     size, budget, base_version, out)
            else:
                cycles = 0
                read_phases(rec, read_requests(rng, reference.num_nodes, hot, size),
                            size, budget, out)
        finally:
            stack.close()
        seconds_r, obs = restart(size, store, wal_dir, hot[0],
                                 base_version + cycles, tally)
        restarts.append(seconds_r)
        if obs is not None:
            rec.observations.append(obs)
        checked.append(Oracle(configs[0], reference, deltas[:cycles]).verify(
            rec.observations, tally))

    metrics = {
        "setup_s": median(setups),
        "op_ms_p50": median(out["subset_ms"]),
        "op_ms_p90": percentile(out["subset_ms"], 90),
        "work_per_s": median(out["rates"]),
        "full_graph_ms_p50": median(out["full_ms"]),
        "restart_s": median(restarts),
        "quality": sum(ok for ok, _ in checked) / max(sum(n for _, n in checked), 1),
    }
    aliases = {
        "predict_ms_p50": (metrics["op_ms_p50"], "ms"),
        "predict_ms_p90": (metrics["op_ms_p90"], "ms"),
        # reported, not gated: replies come back in ~5.5 ms steps (the net
        # loop's poll tick), and the 95th percentile sits where two steps
        # meet, so it flips between them from run to run
        "predict_ms_p95": (percentile(out["subset_ms"], 95), "ms"),
        "full_predict_ms_p50": (metrics["full_graph_ms_p50"], "ms"),
    }
    if churn:
        aliases["mutate_ms_p50"] = (median(out["mutate_ms"]), "ms")
        aliases["churn_ops_per_s"] = (metrics["work_per_s"], "ops/s")
        aliases["recover_s"] = (metrics["restart_s"], "s")
    else:
        aliases["predict_rps"] = (metrics["work_per_s"], "req/s")
    return {"metrics": metrics, "aliases": aliases,
            "samples": {"subset_predicts": len(out["subset_ms"]),
                        "full_predicts": len(out["full_ms"]),
                        "mutates": len(out["mutate_ms"]),
                        "oracle_checked": sum(n for _, n in checked),
                        "restarts": len(restarts), "setups": len(setups)}}
