"""Crash recovery: SIGKILL a mutating process, replay, compare bitwise.

The end-to-end durability gate (satellite of
``benchmarks/bench_wal_recovery.py``): a child process commits deltas
through :func:`~repro.stream.log_apply` onto a read-only store, cutting
a snapshot every two versions, and the parent SIGKILLs it mid-churn —
no atexit, no flush, possibly mid-append.  Recovery
(:meth:`~repro.stream.MutationLog.recover`: latest snapshot + WAL
replay) must land on exactly the version the log last acknowledged,
with logits *bitwise identical* to an uninterrupted run stopped at
that version, and every delta applied exactly once.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.api import (
    DataConfig,
    EngineConfig,
    ModelConfig,
    RunConfig,
    Session,
    TrainConfig,
)
from repro.graph import load_node_dataset
from repro.obs.metrics import get_registry
from repro.store import write_store
from repro.stream import MutationLog, apply_delta, log_apply, make_churn_deltas

SCALE = 0.02
SEED = 7
NUM_DELTAS = 10
KILL_AFTER = 4  # SIGKILL once the child reports this version applied
SNAPSHOT_EVERY = 2

# the child regenerates exactly this sequence (seeded, non-mutating)
CHURN_KW = dict(edges_per_delta=4, feature_updates_per_delta=2,
                add_node_every=3, seed=5)

CHILD = textwrap.dedent("""
    import sys, time
    store_dir, wal_dir = sys.argv[1], sys.argv[2]
    from repro.graph import load_node_dataset
    from repro.store import open_store
    from repro.stream import MutationLog, log_apply, make_churn_deltas
    ds = open_store(store_dir)
    log = MutationLog(wal_dir, snapshot_every={snapshot_every})
    base = load_node_dataset("flickr", scale={scale}, seed={seed})
    deltas = make_churn_deltas(base, {num_deltas}, **{churn_kw!r})
    for d in deltas:
        log_apply(log, ds, d)
        print("v", ds.graph_version, flush=True)
""").format(scale=SCALE, seed=SEED, num_deltas=NUM_DELTAS,
            churn_kw=CHURN_KW, snapshot_every=SNAPSHOT_EVERY)


def _config() -> RunConfig:
    return RunConfig(
        data=DataConfig("flickr", scale=SCALE, seed=SEED),
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=0.0),
        engine=EngineConfig("gp-raw"), train=TrainConfig(epochs=1))


@pytest.fixture
def store_and_wal(tmp_path):
    dataset = load_node_dataset("flickr", scale=SCALE, seed=SEED)
    store_dir = str(tmp_path / "store")
    write_store(store_dir, dataset, chunk_rows=64)
    return store_dir, str(tmp_path / "wal")


def _run_and_kill(store_dir, wal_dir) -> int:
    """Run the churn child, SIGKILL it mid-sequence; versions seen."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
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
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL, (
        f"child exited {proc.returncode} before the kill landed")
    assert KILL_AFTER <= seen < NUM_DELTAS
    return seen


class TestKillMidChurnRecovery:
    def test_recovery_is_bitwise_and_exactly_once(self, store_and_wal):
        store_dir, wal_dir = store_and_wal
        seen = _run_and_kill(store_dir, wal_dir)

        # recovery: reopen the log (torn-tail truncation happens here),
        # open its latest snapshot, replay the records past it
        log = MutationLog(wal_dir)
        assert log.last_version >= seen  # every acked apply was logged
        snap_version = log.latest_snapshot()[0]
        assert 0 < snap_version <= log.last_version
        replayed = get_registry().get("repro_wal_replayed_total")
        before = replayed.value()
        recovered = log.recover()
        assert recovered.manifest.graph_version == snap_version
        assert replayed.value() - before == log.last_version - snap_version
        assert int(recovered.graph_version) == log.last_version

        # exactly-once: a second replay of the same log applies nothing
        assert log.replay(recovered) == 0
        assert int(recovered.graph_version) == log.last_version

        # bitwise gate: an uninterrupted in-memory run stopped at the
        # recovered version produces identical state and logits
        reference = load_node_dataset("flickr", scale=SCALE, seed=SEED)
        deltas = make_churn_deltas(reference, NUM_DELTAS, **CHURN_KW)
        for d in deltas[:log.last_version]:
            apply_delta(reference, d)
        assert np.array_equal(recovered.graph.indptr,
                              reference.graph.indptr)
        assert np.array_equal(recovered.graph.indices,
                              reference.graph.indices)
        assert np.array_equal(np.asarray(recovered.features[:]),
                              np.asarray(reference.features))

        cfg = _config()
        probe = np.arange(16, dtype=np.int64)
        got = Session(cfg, dataset=recovered).predict(nodes=probe)
        want = Session(cfg, dataset=reference).predict(nodes=probe)
        assert np.array_equal(got, want)

    def test_recovered_store_resumes_the_churn(self, store_and_wal):
        # recovery is not a dead end: the recovered dataset keeps
        # accepting the *rest* of the sequence and converges with the
        # uninterrupted run at the final version
        store_dir, wal_dir = store_and_wal
        _run_and_kill(store_dir, wal_dir)

        log = MutationLog(wal_dir, snapshot_every=SNAPSHOT_EVERY)
        recovered = log.recover()

        reference = load_node_dataset("flickr", scale=SCALE, seed=SEED)
        deltas = make_churn_deltas(reference, NUM_DELTAS, **CHURN_KW)
        for d in deltas[log.last_version:]:
            log_apply(log, recovered, d)
        for d in deltas:
            apply_delta(reference, d)
        assert int(recovered.graph_version) == NUM_DELTAS
        assert np.array_equal(recovered.graph.indptr,
                              reference.graph.indptr)
        assert np.array_equal(np.asarray(recovered.features[:]),
                              np.asarray(reference.features))
        # and the log is complete: a cold recovery replays to the end
        log.close()
        cold = MutationLog(wal_dir).recover()
        assert int(cold.graph_version) == NUM_DELTAS
        assert np.array_equal(np.asarray(cold.features[:]),
                              np.asarray(reference.features))
