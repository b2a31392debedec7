"""WAL crash recovery — the durable-streaming bitwise gate.

Not a paper table: this benchmark guards :mod:`repro.stream.wal`, the
write-ahead delta log every mutation tier funnels through.  One
read-only store churns through a seeded delta sequence, committed by
:func:`~repro.stream.log_apply` with a snapshot every few versions, in
a child process that is **SIGKILLed mid-churn** — no atexit, no
flush, possibly torn mid-append — and recovery (latest snapshot + log
replay, :meth:`~repro.stream.MutationLog.recover`) is timed and
compared against the run that never died.

Three claims are asserted:

* **bitwise recovery** — recovery starts from a snapshot and lands on
  exactly the ``graph_version`` the log last acknowledged, with CSR
  topology, features, and served logits bitwise identical to an
  uninterrupted in-memory run stopped at that version; resuming the
  remaining deltas converges with the uninterrupted run at the final
  version, bitwise;
* **exactly-once replay** — re-replaying the same log onto the
  recovered dataset applies zero records;
* **bounded replica lag** — a WAL-tailing read replica in an inline
  cluster catches up to lag 0 and serves a version-pinned read whose
  logits match the primary's bitwise.

Recovery wall-clock and the measured lag trajectory are written to
``benchmarks/results/BENCH_wal.json`` for CI upload.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np

from repro import _clock
from repro.api import (
    DataConfig,
    EngineConfig,
    ModelConfig,
    RunConfig,
    Session,
    TrainConfig,
)
from repro.bench import TableReport, fmt_time
from repro.graph import load_node_dataset
from repro.serve import ServingCluster
from repro.store import write_store
from repro.stream import MutationLog, apply_delta, log_apply, make_churn_deltas

DATASET = "flickr"
SCALE = 0.05
DATA_SEED = 7
NUM_DELTAS = 16
KILL_AFTER = 7  # SIGKILL once the child reports this version applied
SNAPSHOT_EVERY = 4
CHURN_KW = dict(edges_per_delta=6, feature_updates_per_delta=2,
                add_node_every=4, seed=11)
PROBE_NODES = 32

CHILD = textwrap.dedent("""
    import sys
    store_dir, wal_dir = sys.argv[1], sys.argv[2]
    from repro.graph import load_node_dataset
    from repro.store import open_store
    from repro.stream import MutationLog, log_apply, make_churn_deltas
    ds = open_store(store_dir)
    log = MutationLog(wal_dir, snapshot_every={snapshot_every})
    base = load_node_dataset({dataset!r}, scale={scale}, seed={data_seed})
    deltas = make_churn_deltas(base, {num_deltas}, **{churn_kw!r})
    for d in deltas:
        log_apply(log, ds, d)
        print("v", ds.graph_version, flush=True)
""").format(snapshot_every=SNAPSHOT_EVERY, dataset=DATASET,
            scale=SCALE, data_seed=DATA_SEED, num_deltas=NUM_DELTAS,
            churn_kw=CHURN_KW)


def wal_config() -> RunConfig:
    return RunConfig(
        data=DataConfig(DATASET, scale=SCALE, seed=DATA_SEED),
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=0.0),
        engine=EngineConfig("gp-raw"),
        train=TrainConfig(epochs=1),
    )


def _kill_mid_churn(store_dir: str, wal_dir: str) -> int:
    """Run the churn child and SIGKILL it; last version it reported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH", "")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, store_dir, wal_dir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    seen = 0
    try:
        for line in proc.stdout:
            if line.startswith("v "):
                seen = int(line.split()[1])
                if seen >= KILL_AFTER:
                    os.kill(proc.pid, signal.SIGKILL)
                    break
    finally:
        proc.stdout.close()
        proc.stderr.close()
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL, (
        f"churn child exited {proc.returncode} before the kill landed")
    return seen


def _predict(config, dataset, nodes) -> np.ndarray:
    return Session(config, dataset=dataset).predict(nodes=nodes)


def _recovery_phase(tmp_dir: str, config, deltas, probe) -> dict:
    """Kill mid-churn, recover, gate bitwise against the uninterrupted run."""
    store_dir = os.path.join(tmp_dir, "wal_bench.store")
    wal_dir = os.path.join(tmp_dir, "wal_bench.wal")
    base = load_node_dataset(DATASET, scale=SCALE, seed=DATA_SEED)
    write_store(store_dir, base, chunk_rows=64)
    seen = _kill_mid_churn(store_dir, wal_dir)

    t0 = _clock.now()
    log = MutationLog(wal_dir, snapshot_every=SNAPSHOT_EVERY)
    recovered = log.recover()
    recovery_s = _clock.now() - t0
    recovered_version = int(recovered.graph_version)
    acked_version = int(log.last_version)  # before the resume churn below
    snap = log.latest_snapshot()  # the one recovery started from

    # the uninterrupted run, stopped at the recovered version
    reference = load_node_dataset(DATASET, scale=SCALE, seed=DATA_SEED)
    for d in deltas[:recovered_version]:
        apply_delta(reference, d)
    bitwise_at_recovery = (
        np.array_equal(recovered.graph.indptr, reference.graph.indptr)
        and np.array_equal(recovered.graph.indices,
                           reference.graph.indices)
        and np.array_equal(np.asarray(recovered.features[:]),
                           np.asarray(reference.features))
        and np.array_equal(_predict(config, recovered, probe),
                           _predict(config, reference, probe)))
    exactly_once = log.replay(recovered) == 0

    # recovery is not a dead end: finish the sequence and re-compare
    for d in deltas[recovered_version:]:
        log_apply(log, recovered, d)
    for d in deltas[recovered_version:]:
        apply_delta(reference, d)
    bitwise_at_end = (
        int(recovered.graph_version) == NUM_DELTAS
        and np.array_equal(np.asarray(recovered.features[:]),
                           np.asarray(reference.features))
        and np.array_equal(_predict(config, recovered, probe),
                           _predict(config, reference, probe)))

    return {
        "killed_at_version": seen,
        "recovered_version": recovered_version,
        "log_last_version": acked_version,
        "replayed_records":
            recovered_version - int(recovered.manifest.graph_version),
        "truncated_tail_bytes": int(log.truncated_tail_bytes),
        "snapshot_version": None if snap is None else snap[0],
        "recovery_s": recovery_s,
        "bitwise_at_recovery": bool(bitwise_at_recovery),
        "exactly_once_replay": bool(exactly_once),
        "bitwise_at_end": bool(bitwise_at_end),
    }


def _replica_phase(tmp_dir: str, config, deltas, probe) -> dict:
    """Replica lag under churn + a steered version-pinned read."""
    wal_dir = os.path.join(tmp_dir, "wal_bench.cluster")
    lags = []
    with ServingCluster(num_workers=2, warm_configs=[config],
                        backend="inline", wal_dir=wal_dir, replicas=1,
                        heartbeat_interval_s=0.0) as cluster:
        for delta in deltas[:6]:
            cluster.submit_delta(config, delta)
            cluster.run_until_idle()
            lag = cluster.replica_lag(config)
            if lag is not None:
                lags.append(int(lag))
        authority = cluster.graph_version(config)
        t0 = _clock.now()
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            cluster.step()
            lag = cluster.replica_lag(config)
            if lag == 0:
                break
            time.sleep(0.002)
        catch_up_s = _clock.now() - t0
        converged_lag = cluster.replica_lag(config)

        ref_fut = cluster.submit(config, nodes=probe)
        cluster.run_until_idle()
        ref = ref_fut.result(timeout=60.0)
        before = cluster.stats.snapshot()["replica_reads"]
        pin_fut = cluster.submit(config, nodes=probe,
                                 min_version=authority)
        cluster.run_until_idle()
        pinned = pin_fut.result(timeout=60.0)
        steered = cluster.stats.snapshot()["replica_reads"] == before + 1
        return {
            "authority_version": int(authority),
            "max_lag_observed": max(lags) if lags else None,
            "converged_lag": (None if converged_lag is None
                              else int(converged_lag)),
            "catch_up_s": catch_up_s,
            "pinned_read_steered": bool(steered),
            "pinned_read_bitwise": bool(np.array_equal(pinned, ref)),
        }


def _run(tmp_dir: str) -> dict:
    config = wal_config()
    base = load_node_dataset(DATASET, scale=SCALE, seed=DATA_SEED)
    deltas = make_churn_deltas(base, NUM_DELTAS, **CHURN_KW)
    probe = np.arange(PROBE_NODES, dtype=np.int64)
    return {
        "dataset": DATASET, "scale": SCALE, "num_nodes": base.num_nodes,
        "num_deltas": NUM_DELTAS, "kill_after": KILL_AFTER,
        "snapshot_every": SNAPSHOT_EVERY,
        "recovery": _recovery_phase(tmp_dir, config, deltas, probe),
        "replica": _replica_phase(tmp_dir, config, deltas, probe),
    }


def test_wal_recovery(benchmark, save_report, results_dir,
                      tmp_path_factory):
    tmp_dir = str(tmp_path_factory.mktemp("bench_wal"))
    r = benchmark.pedantic(_run, args=(tmp_dir,), rounds=1, iterations=1)
    rec, rep = r["recovery"], r["replica"]

    report = TableReport(
        title=f"WAL crash recovery — {DATASET} (scale {SCALE}), "
              f"{NUM_DELTAS} deltas, killed after {rec['killed_at_version']}",
        columns=["measure", "value"])
    report.add_row("recovered version",
                   f"{rec['recovered_version']} / {NUM_DELTAS}")
    report.add_row("records replayed", str(rec["replayed_records"]))
    report.add_row("torn tail truncated",
                   f"{rec['truncated_tail_bytes']} bytes")
    report.add_row("recovery time", fmt_time(rec["recovery_s"]))
    report.add_row("bitwise at recovery",
                   "yes" if rec["bitwise_at_recovery"] else "NO")
    report.add_row("bitwise at end",
                   "yes" if rec["bitwise_at_end"] else "NO")
    report.add_row("replica max lag", str(rep["max_lag_observed"]))
    report.add_row("replica catch-up", fmt_time(rep["catch_up_s"]))
    report.add_note(f"exactly-once replay: "
                    f"{'yes' if rec['exactly_once_replay'] else 'NO'}; "
                    f"pinned read steered="
                    f"{'yes' if rep['pinned_read_steered'] else 'NO'} "
                    f"bitwise="
                    f"{'yes' if rep['pinned_read_bitwise'] else 'NO'}")
    save_report("wal_recovery", report)

    with open(os.path.join(results_dir, "BENCH_wal.json"), "w") as f:
        json.dump(r, f, indent=2, sort_keys=True)
        f.write("\n")

    # gate (a): recovery starts from a snapshot and reaches exactly the
    # log's acknowledged version
    assert rec["snapshot_version"] is not None
    assert rec["recovered_version"] == rec["log_last_version"]
    assert rec["recovered_version"] >= KILL_AFTER
    # gate (b): bitwise — state and logits identical to the run that
    # never died, both at the recovery point and at the final version
    assert rec["bitwise_at_recovery"], (
        "recovered state diverged from the uninterrupted run")
    assert rec["bitwise_at_end"], (
        "post-recovery churn diverged from the uninterrupted run")
    assert rec["exactly_once_replay"], "replay applied records twice"
    # gate (c): replicas converge to zero lag and serve pinned reads
    assert rep["converged_lag"] == 0, (
        f"replica lag never converged (stuck at {rep['converged_lag']})")
    assert rep["pinned_read_steered"], (
        "version-pinned read was not steered to the replica")
    assert rep["pinned_read_bitwise"], (
        "replica served logits diverging from the primary")
