"""WAL-backed cluster serving: append-then-broadcast, replay, replicas.

The router is the log writer: every ``kind="mutate"`` broadcast is
durably appended *before* fan-out, so a restarted router replays
unacked deltas to its fresh workers and lands on the same
``graph_version`` — bitwise — as the run that never died.  Read
replicas tail the same log file (``mode="r"``, never truncating the
owner's tail) and serve version-pinned reads at a bounded lag.
"""

import time

import numpy as np
import pytest

from repro.api import (
    DataConfig,
    EngineConfig,
    ModelConfig,
    RunConfig,
    TrainConfig,
)
from repro.graph import load_node_dataset
from repro.obs import get_tracer
from repro.serve import InferenceServer, ServingCluster, SessionPool
from repro.stream import MutationLog, make_churn_deltas

SCALE = 0.02
MODEL = ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                    num_heads=4, dropout=0.0)


def node_config(seed: int = 0) -> RunConfig:
    return RunConfig(data=DataConfig("flickr", scale=SCALE, seed=7),
                     model=MODEL, engine=EngineConfig("gp-raw"),
                     train=TrainConfig(epochs=1), seed=seed)


def make_cluster(wal_dir, **kw) -> ServingCluster:
    kw.setdefault("num_workers", 2)
    kw.setdefault("warm_configs", [node_config()])
    kw.setdefault("backend", "inline")
    kw.setdefault("heartbeat_interval_s", 0.0)  # ping every step
    return ServingCluster(wal_dir=wal_dir, **kw)


def churn(n, seed=3):
    base = load_node_dataset("flickr", scale=SCALE, seed=7)
    return make_churn_deltas(base, n, edges_per_delta=4,
                             add_node_every=3, seed=seed)


def wait_for_replica(cluster, config, want_lag=0, timeout_s=30.0):
    """Step until the slowest replica reports lag <= want_lag."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        cluster.step()
        lag = cluster.replica_lag(config)
        if lag is not None and lag <= want_lag:
            return lag
        time.sleep(0.005)
    raise TimeoutError(f"replica lag never reached {want_lag}")


class TestAppendThenBroadcast:
    def test_mutations_land_in_the_log_before_workers(self, tmp_path):
        cfg = node_config()
        cluster = make_cluster(tmp_path / "wal")
        try:
            for i, delta in enumerate(churn(3), start=1):
                fut = cluster.submit_delta(cfg, delta)
                # append happens synchronously in submit_delta — the
                # log is at version i even before any worker acks
                log = cluster.wal_for(cfg)
                assert log.last_version == i
                cluster.run_until_idle()
                assert fut.result(timeout=10.0) == i
            assert log.record_count == 3
            assert cluster.graph_version(cfg) == 3
        finally:
            cluster.close()

    def test_wal_for_unknown_config_is_none(self, tmp_path):
        cluster = make_cluster(tmp_path / "wal")
        other = RunConfig(data=DataConfig("flickr", scale=SCALE, seed=8),
                          model=MODEL, engine=EngineConfig("gp-raw"),
                          train=TrainConfig(epochs=1))
        try:
            assert cluster.wal_for(other) is None
        finally:
            cluster.close()


class TestRouterRestartReplay:
    def test_restarted_router_replays_to_same_version_bitwise(self,
                                                              tmp_path):
        cfg = node_config()
        deltas = churn(4)
        cluster = make_cluster(tmp_path / "wal")
        try:
            for delta in deltas:
                cluster.submit_delta(cfg, delta)
            cluster.run_until_idle()
            want_fut = cluster.submit(cfg, nodes=np.arange(16))
            cluster.run_until_idle()
            want = want_fut.result(timeout=10.0)
        finally:
            cluster.close()  # the "crash": workers and router both go

        revived = make_cluster(tmp_path / "wal")
        try:
            # fresh workers start at version 0; the router replayed its
            # unacked log into them before accepting requests
            assert revived.graph_version(cfg) == 4
            got_fut = revived.submit(cfg, nodes=np.arange(16))
            revived.run_until_idle()
            assert np.array_equal(got_fut.result(timeout=10.0), want)
            # versions keep flowing from where the log left off
            more = churn(5)[4:]
            fut = revived.submit_delta(cfg, more[0])
            revived.run_until_idle()
            assert fut.result(timeout=10.0) == 5
            assert revived.wal_for(cfg).last_version == 5
        finally:
            revived.close()


class TestReadReplicas:
    def test_pinned_reads_steer_to_caught_up_replica(self, tmp_path):
        cfg = node_config()
        cluster = make_cluster(tmp_path / "wal", replicas=1)
        try:
            for delta in churn(3):
                cluster.submit_delta(cfg, delta)
            cluster.run_until_idle()
            ref_fut = cluster.submit(cfg, nodes=np.arange(16))
            cluster.run_until_idle()
            ref = ref_fut.result(timeout=10.0)

            lag = wait_for_replica(cluster, cfg)
            assert lag == 0
            before = cluster.stats.snapshot()["replica_reads"]
            fut = cluster.submit(cfg, nodes=np.arange(16), min_version=3)
            cluster.run_until_idle()
            got = fut.result(timeout=10.0)
            assert cluster.stats.snapshot()["replica_reads"] == before + 1
            # replica answers are bitwise identical to the primary's
            assert np.array_equal(got, ref)
            assert fut.graph_version == 3
        finally:
            cluster.close()

    def test_min_version_ahead_of_authority_rejected(self, tmp_path):
        cfg = node_config()
        cluster = make_cluster(tmp_path / "wal", replicas=1)
        try:
            with pytest.raises(ValueError, match="ahead of the version"):
                cluster.submit(cfg, nodes=np.arange(4), min_version=1)
        finally:
            cluster.close()

    def test_min_version_negative_rejected(self, tmp_path):
        cluster = make_cluster(tmp_path / "wal")
        try:
            with pytest.raises(ValueError):
                cluster.submit(node_config(), nodes=np.arange(4),
                               min_version=-1)
        finally:
            cluster.close()

    def test_pinned_read_without_replicas_falls_back_to_ring(self,
                                                             tmp_path):
        cfg = node_config()
        cluster = make_cluster(tmp_path / "wal")  # no replicas at all
        try:
            cluster.submit_delta(cfg, churn(1)[0])
            cluster.run_until_idle()
            fut = cluster.submit(cfg, nodes=np.arange(8), min_version=1)
            cluster.run_until_idle()
            assert fut.result(timeout=10.0).shape[0] == 8
            assert cluster.stats.snapshot()["replica_reads"] == 0
        finally:
            cluster.close()

    def test_stats_surface_wal_and_replicas(self, tmp_path):
        cfg = node_config()
        cluster = make_cluster(tmp_path / "wal", replicas=1)
        try:
            for delta in churn(2):
                cluster.submit_delta(cfg, delta)
            cluster.run_until_idle()
            wait_for_replica(cluster, cfg)
            snap = cluster.stats_snapshot()
            assert snap["replicas_alive"] == 1
            (slug, wal_stats), = snap["wal"].items()
            assert "flickr" in slug
            assert wal_stats["records"] == 2
            assert wal_stats["last_version"] == 2
            assert wal_stats["graph_version"] == 2
            assert wal_stats["replica_lag"] == 0
            assert set(wal_stats["replica_versions"]) == {"r0"}
        finally:
            cluster.close()


class TestReplicaTracing:
    def test_set_tracing_reaches_replicas(self, tmp_path):
        """Regression: the toggle went to ring workers only, so a replica
        spawned with tracing off served pinned reads without spans."""
        cfg = node_config()
        cluster = make_cluster(tmp_path / "wal", replicas=1,
                               backend="process", num_workers=1)
        try:
            cluster.submit_delta(cfg, churn(1)[0])
            cluster.run_until_idle()
            wait_for_replica(cluster, cfg)
            get_tracer().clear()
            cluster.set_tracing(True)
            fut = cluster.submit(cfg, nodes=np.arange(8), min_version=1)
            cluster.run_until_idle()
            fut.result(timeout=30.0)
            assert cluster.stats.replica_reads == 1
            names = {s.name for s in cluster.trace_spans()}
            # worker-side spans, shipped back on the replica's result
            assert {"batch", "compute"} <= names
        finally:
            cluster.set_tracing(False)
            get_tracer().clear()
            cluster.close()


class TestReplicaBacklog:
    """A replica joining an existing WAL must apply its full backlog."""

    def test_restarted_cluster_replica_serves_backlog_bitwise(self,
                                                              tmp_path):
        cfg = node_config()
        deltas = churn(4)
        cluster = make_cluster(tmp_path / "wal")
        try:
            for delta in deltas[:3]:
                cluster.submit_delta(cfg, delta)
            cluster.run_until_idle()
        finally:
            cluster.close()  # the "crash" — log survives on disk

        revived = make_cluster(tmp_path / "wal", replicas=1)
        try:
            # the replica opened a log already holding records 1..3;
            # it must have applied them at boot, not skipped past them
            fut = revived.submit_delta(cfg, deltas[3])
            revived.run_until_idle()
            assert fut.result(timeout=10.0) == 4
            ref_fut = revived.submit(cfg, nodes=np.arange(16))
            revived.run_until_idle()
            ref = ref_fut.result(timeout=10.0)

            lag = wait_for_replica(revived, cfg)
            assert lag == 0
            before = revived.stats.snapshot()["replica_reads"]
            pinned = revived.submit(cfg, nodes=np.arange(16), min_version=4)
            revived.run_until_idle()
            got = pinned.result(timeout=10.0)
            assert revived.stats.snapshot()["replica_reads"] == before + 1
            # served from the full history, not a force-stamped gap
            assert np.array_equal(got, ref)
        finally:
            revived.close()

    def test_follower_unprimed_tail_returns_backlog(self, tmp_path):
        owner = MutationLog(tmp_path / "wal")
        deltas = churn(2)
        owner.append(deltas[0], 1)
        owner.append(deltas[1], 2)
        primed = MutationLog(tmp_path / "wal", mode="r")
        assert primed.tail() == []  # lag observer: backlog is old news
        follower = MutationLog(tmp_path / "wal", mode="r", prime=False)
        got = follower.tail()
        assert [v for v, _ in got] == [1, 2]
        assert follower.last_version == 2
        owner.close()

    def test_replica_refuses_version_gap(self, tmp_path):
        # strict mode: a delta arriving across missing history must
        # fail, not be applied and stamped to the head version
        from repro.stream import GraphDelta, WalError

        cfg = node_config()
        pool = SessionPool()
        dataset = load_node_dataset("flickr", scale=SCALE, seed=7)
        n_before = dataset.num_nodes
        pool.put_dataset(cfg, dataset)
        server = InferenceServer(pool=pool)
        try:
            delta = GraphDelta(num_new_nodes=1, new_features=np.zeros(
                (1, dataset.features.shape[1])))
            fut = server.submit_delta(cfg, delta, expected_version=3,
                                      strict_version=True)
            server.run_until_idle()
            with pytest.raises(WalError, match="version gap"):
                fut.result(timeout=10.0)
            assert server.graph_version(cfg) == 0  # not stamped ahead
            assert dataset.num_nodes == n_before   # not applied
        finally:
            server.close()

    def test_replica_lag_gauge_tracks_fleet_worst(self, tmp_path):
        from repro.obs import get_registry

        cluster = make_cluster(tmp_path / "wal")
        try:
            a, b = ("ds", "a"), ("ds", "b")
            cluster._json_ds_id["cfg-a"] = a
            cluster._json_ds_id["cfg-b"] = b
            cluster._dataset_versions[a] = 5
            cluster._dataset_versions[b] = 7
            # dataset a lags by 2, dataset b (listed last) is caught up:
            # the gauge must keep the fleet-wide worst, not b's zero
            cluster._ingest_replica_versions("r9", {"cfg-a": 3, "cfg-b": 7})
            lag = get_registry().gauge("repro_wal_replica_lag").value()
            assert lag == 2
        finally:
            cluster.close()


class TestPoisonedDeltaRefused:
    """Invalid deltas must never become durable WAL records."""

    def test_cluster_mirror_validates_before_append(self, tmp_path):
        from repro.stream import GraphDelta

        cfg = node_config()
        cluster = make_cluster(tmp_path / "wal", snapshot_every=2)
        try:
            bad = GraphDelta(add_edges=[[0, 10 ** 7]])
            with pytest.raises(ValueError, match="out of range"):
                cluster.submit_delta(cfg, bad)
            log = cluster.wal_for(cfg)
            assert log.record_count == 0  # refused before the append
            assert cluster.graph_version(cfg) == 0
            # the pipeline is not wedged: the next valid delta flows
            fut = cluster.submit_delta(cfg, churn(1)[0])
            cluster.run_until_idle()
            assert fut.result(timeout=10.0) == 1
            assert log.last_version == 1
        finally:
            cluster.close()

    def test_unmirrored_failure_keeps_versions_contiguous(self, tmp_path):
        # without a mirror the router cannot pre-validate, but a delta
        # the workers refuse must not desynchronize the version
        # authority from the log — later mutations keep flowing
        from repro.stream import GraphDelta

        cfg = node_config()
        cluster = make_cluster(tmp_path / "wal")  # snapshot_every=0
        try:
            bad = GraphDelta(add_edges=[[0, 10 ** 7]])
            fut = cluster.submit_delta(cfg, bad)
            cluster.run_until_idle()
            with pytest.raises(Exception):
                fut.result(timeout=10.0)
            log = cluster.wal_for(cfg)
            assert cluster.graph_version(cfg) == log.last_version
            ok = cluster.submit_delta(cfg, churn(1)[0])
            cluster.run_until_idle()
            assert ok.result(timeout=10.0) == log.last_version
        finally:
            cluster.close()

    def test_server_wal_validates_before_append(self, tmp_path):
        from repro.stream import GraphDelta

        cfg = node_config()
        pool = SessionPool()
        pool.put_dataset(cfg, load_node_dataset("flickr", scale=SCALE,
                                                seed=7))
        log = MutationLog(tmp_path / "wal")
        server = InferenceServer(pool=pool, wal=log)
        try:
            bad = GraphDelta(add_edges=[[0, 10 ** 7]])
            fut = server.submit_delta(cfg, bad)
            server.run_until_idle()
            with pytest.raises(ValueError, match="out of range"):
                fut.result(timeout=10.0)
            # the bad request failed its future but poisoned nothing:
            # the log is clean, and append + replay still work
            assert log.record_count == 0
            ok = server.submit_delta(cfg, churn(1)[0])
            server.run_until_idle()
            assert ok.result(timeout=10.0) == 1
            assert log.last_version == 1
            fresh = load_node_dataset("flickr", scale=SCALE, seed=7)
            assert MutationLog(tmp_path / "wal").replay(fresh) == 1
        finally:
            server.close()


class TestSnapshotMirror:
    def test_snapshot_cadence_writes_recoverable_snapshots(self, tmp_path):
        cfg = node_config()
        cluster = make_cluster(tmp_path / "wal", snapshot_every=2)
        try:
            for delta in churn(5):
                cluster.submit_delta(cfg, delta)
            cluster.run_until_idle()
            log = cluster.wal_for(cfg)
            snap = log.latest_snapshot()
            assert snap is not None
            assert snap[0] in (4, 5)
            # the snapshot alone + newer records recover the full state
            recovered = MutationLog(log.path).recover()
            assert int(recovered.graph_version) == 5
        finally:
            cluster.close()


class TestServerTierWal:
    """InferenceServer(wal=...): the single-process mutation path."""

    def _server(self, cfg, wal):
        pool = SessionPool()
        pool.put_dataset(cfg, load_node_dataset("flickr", scale=SCALE,
                                                seed=7))
        return InferenceServer(pool=pool, wal=wal)

    def test_submit_delta_appends_and_restart_replays(self, tmp_path):
        cfg = node_config()
        server = self._server(cfg, MutationLog(tmp_path / "wal"))
        deltas = churn(3)
        for delta in deltas:
            server.submit_delta(cfg, delta)
        server.run_until_idle()
        assert server.wal.last_version == 3
        want_fut = server.submit(cfg, nodes=np.arange(16))
        server.run_until_idle()
        want = want_fut.result(timeout=10.0)
        snap = server.stats_snapshot()
        assert snap["wal_records"] == 3
        assert snap["wal_last_version"] == 3
        server.close()

        log = MutationLog(tmp_path / "wal")
        revived = self._server(cfg, log)
        session = revived.pool.acquire(cfg)
        assert log.replay(session.dataset) == 3
        assert revived.graph_version(cfg) == 3
        got_fut = revived.submit(cfg, nodes=np.arange(16),
                                 min_version=3)
        revived.run_until_idle()
        assert np.array_equal(got_fut.result(timeout=10.0), want)
        revived.close()

    def test_min_version_ahead_rejected_synchronously(self, tmp_path):
        cfg = node_config()
        server = self._server(cfg, MutationLog(tmp_path / "wal"))
        try:
            with pytest.raises(ValueError, match="min_version"):
                server.submit(cfg, nodes=np.arange(4), min_version=7)
        finally:
            server.close()


class TestNetMinVersionHeader:
    """``min_version`` rides the RNT1 predict header, additively."""

    def test_round_trip_and_absence(self):
        import json

        from repro.net.protocol import decode_message, encode_message, \
            predict_request

        cfg_json = json.dumps({"model": "stub"})
        pinned = predict_request(0, cfg_json, tenant="t", min_version=5)
        decoded, _ = decode_message(encode_message(pinned))
        assert decoded.headers["min_version"] == 5
        plain = predict_request(1, cfg_json, tenant="t")
        decoded, _ = decode_message(encode_message(plain))
        assert "min_version" not in decoded.headers

    def test_invalid_min_version_is_corrupt(self):
        import json

        from repro.net.protocol import CorruptFrameError, decode_message, \
            encode_message, predict_request

        cfg_json = json.dumps({"model": "stub"})
        wire = bytearray(encode_message(
            predict_request(0, cfg_json, tenant="t", min_version=55)))
        # same byte length: a digit becomes the sign, framing stays valid
        bad = bytes(wire).replace(b'"min_version":55', b'"min_version":-5')
        assert len(bad) == len(wire)
        with pytest.raises(CorruptFrameError):
            decode_message(bad)
