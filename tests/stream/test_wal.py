"""The write-ahead mutation log: codec, append, replay, snapshots.

The durability contract under test (:mod:`repro.stream.wal`): every
acknowledged append survives a crash at any point, replay is
exactly-once onto any base at or behind the log, snapshot + replay
recovers to the exact ``graph_version`` the log last acknowledged, and
the recovered state is *bitwise* identical to an uninterrupted run.
"""

import os

import numpy as np
import pytest

from repro.graph import load_node_dataset
from repro.store import open_store, write_store
from repro.stream import (
    CorruptRecordError,
    GraphDelta,
    MutationLog,
    TruncatedRecordError,
    WalError,
    apply_delta,
    decode_record,
    encode_record,
    log_apply,
    make_churn_deltas,
)

SCALE = 0.02


@pytest.fixture
def dataset():
    return load_node_dataset("flickr", scale=SCALE, seed=7)


def churn(dataset, n, **kw):
    kw.setdefault("edges_per_delta", 4)
    return make_churn_deltas(dataset, n, **kw)


class TestRecordCodec:
    def test_round_trip(self, dataset):
        delta = churn(dataset, 1, feature_updates_per_delta=2)[0]
        wire = encode_record(7, delta.to_payload())
        version, payload, end = decode_record(wire)
        assert version == 7
        assert end == len(wire)
        back = GraphDelta.from_payload(payload)
        assert np.array_equal(back.add_edges, delta.add_edges)
        assert np.array_equal(back.remove_edges, delta.remove_edges)
        assert np.array_equal(back.update_features, delta.update_features)

    def test_round_trip_at_offset(self, dataset):
        delta = churn(dataset, 1)[0]
        wire = b"JUNK" + encode_record(1, delta.to_payload())
        version, _, end = decode_record(wire, offset=4)
        assert version == 1
        assert end == len(wire)

    def test_encoding_is_deterministic(self, dataset):
        delta = churn(dataset, 1)[0]
        assert (encode_record(3, delta.to_payload())
                == encode_record(3, delta.to_payload()))

    def test_version_zero_refused_at_encode(self):
        with pytest.raises(ValueError):
            encode_record(0, b"payload")

    def test_version_zero_corrupt_at_decode(self):
        wire = bytearray(encode_record(1, b"payload"))
        # forge the version stamp to 0 and fix the CRC so only the
        # semantic check can catch it
        import struct
        import zlib
        body = bytes(8) + b"payload"
        wire[12:] = body
        wire[4:12] = struct.pack(">II", len(body),
                                 zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(CorruptRecordError):
            decode_record(bytes(wire))


class TestAppend:
    def test_append_then_records(self, tmp_path, dataset):
        deltas = churn(dataset, 3)
        with MutationLog(tmp_path / "wal") as log:
            for i, d in enumerate(deltas, start=1):
                log.append(d, i)
            assert log.record_count == 3
            assert log.last_version == 3
        back = MutationLog(tmp_path / "wal").records()
        assert [v for v, _ in back] == [1, 2, 3]
        for (_, got), want in zip(back, deltas):
            assert np.array_equal(got.add_edges, want.add_edges)

    def test_contiguity_enforced(self, tmp_path, dataset):
        d = churn(dataset, 1)[0]
        log = MutationLog(tmp_path / "wal")
        log.append(d, 1)
        with pytest.raises(WalError):
            log.append(d, 3)  # gap
        with pytest.raises(WalError):
            log.append(d, 1)  # repeat

    def test_first_record_may_start_above_one(self, tmp_path, dataset):
        # a log attached to a store already at version N starts at N+1
        d = churn(dataset, 1)[0]
        log = MutationLog(tmp_path / "wal")
        log.append(d, 5)
        assert log.last_version == 5
        assert [v for v, _ in log.records()] == [5]

    def test_records_filters_after_version(self, tmp_path, dataset):
        deltas = churn(dataset, 4)
        log = MutationLog(tmp_path / "wal")
        for i, d in enumerate(deltas, start=1):
            log.append(d, i)
        assert [v for v, _ in log.records(after_version=2)] == [3, 4]

    def test_follower_cannot_append(self, tmp_path, dataset):
        d = churn(dataset, 1)[0]
        MutationLog(tmp_path / "wal").append(d, 1)
        follower = MutationLog(tmp_path / "wal", mode="r")
        with pytest.raises(WalError):
            follower.append(d, 2)


class TestFollowerTail:
    def test_tail_sees_appends_incrementally(self, tmp_path, dataset):
        deltas = churn(dataset, 4)
        owner = MutationLog(tmp_path / "wal")
        follower = MutationLog(tmp_path / "wal", mode="r")
        assert follower.tail() == []
        owner.append(deltas[0], 1)
        owner.append(deltas[1], 2)
        assert [v for v, _ in follower.tail()] == [1, 2]
        assert follower.tail() == []  # nothing new
        owner.append(deltas[2], 3)
        assert [v for v, _ in follower.tail()] == [3]
        assert follower.last_version == 3

    def test_tail_stops_at_torn_record_without_advancing(self, tmp_path,
                                                         dataset):
        deltas = churn(dataset, 2)
        owner = MutationLog(tmp_path / "wal")
        follower = MutationLog(tmp_path / "wal", mode="r")
        owner.append(deltas[0], 1)
        assert len(follower.tail()) == 1
        # simulate a record mid-write: append, then chop its tail off
        owner.append(deltas[1], 2)
        owner.close()
        log_file = os.path.join(str(tmp_path / "wal"), "log.bin")
        full = os.path.getsize(log_file)
        with open(log_file, "r+b") as f:
            f.truncate(full - 5)
        assert follower.tail() == []  # torn: not consumed, not skipped
        # the write "completes": the whole record is picked up
        reopened = MutationLog(tmp_path / "wal")
        assert reopened.truncated_tail_bytes > 0
        reopened.append(deltas[1], 2)
        assert [v for v, _ in follower.tail()] == [2]

    def test_missing_file_reads_as_empty(self, tmp_path):
        follower = MutationLog(tmp_path / "nothing-here", mode="r")
        assert follower.tail() == []
        assert follower.records() == []
        assert follower.last_version == 0


class TestReplay:
    def test_replay_is_exactly_once(self, tmp_path, dataset):
        deltas = churn(dataset, 3, add_node_every=2)
        log = MutationLog(tmp_path / "wal")
        for d in deltas:
            log_apply(log, dataset, d)
        assert dataset.graph_version == 3
        # a lagging copy replays only what it is missing
        lagging = load_node_dataset("flickr", scale=SCALE, seed=7)
        apply_delta(lagging, deltas[0])
        assert log.replay(lagging) == 2
        assert lagging.graph_version == 3
        assert np.array_equal(lagging.graph.indptr, dataset.graph.indptr)
        assert np.array_equal(lagging.graph.indices,
                              dataset.graph.indices)
        # an up-to-date dataset replays nothing
        assert log.replay(lagging) == 0

    def test_replay_through_bound(self, tmp_path, dataset):
        deltas = churn(dataset, 3)
        log = MutationLog(tmp_path / "wal")
        for d in deltas:
            log_apply(log, dataset, d)
        fresh = load_node_dataset("flickr", scale=SCALE, seed=7)
        assert log.replay(fresh, through=2) == 2
        assert fresh.graph_version == 2

    def test_replay_gap_raises(self, tmp_path, dataset):
        d = churn(dataset, 1)[0]
        log = MutationLog(tmp_path / "wal")
        log.append(d, 5)  # log starts past any fresh dataset
        fresh = load_node_dataset("flickr", scale=SCALE, seed=7)
        with pytest.raises(WalError, match="replay gap"):
            log.replay(fresh)

    def test_log_apply_version_mismatch_raises(self, tmp_path, dataset):
        deltas = churn(dataset, 2)
        log = MutationLog(tmp_path / "wal")
        log.append(deltas[0], 1)  # log runs ahead of the dataset
        with pytest.raises(WalError):
            log_apply(log, dataset, deltas[1])


class TestTornTailTruncation:
    def test_owner_truncates_torn_tail_on_open(self, tmp_path, dataset):
        deltas = churn(dataset, 3)
        log = MutationLog(tmp_path / "wal")
        for i, d in enumerate(deltas, start=1):
            log.append(d, i)
        log.close()
        log_file = os.path.join(str(tmp_path / "wal"), "log.bin")
        with open(log_file, "r+b") as f:
            f.truncate(os.path.getsize(log_file) - 7)  # crash mid-append
        reopened = MutationLog(tmp_path / "wal")
        assert reopened.record_count == 2
        assert reopened.last_version == 2
        assert reopened.truncated_tail_bytes > 0
        # the file itself was repaired: a third open sees a clean log
        again = MutationLog(tmp_path / "wal")
        assert again.truncated_tail_bytes == 0
        # appending the lost record again lands on a clean tail
        again.append(deltas[2], 3)
        assert [v for v, _ in again.records()] == [1, 2, 3]

    def test_corrupt_interior_record_raises_not_truncates(self, tmp_path,
                                                          dataset):
        deltas = churn(dataset, 2)
        log = MutationLog(tmp_path / "wal")
        log.append(deltas[0], 1)
        log.append(deltas[1], 2)
        log.close()
        log_file = os.path.join(str(tmp_path / "wal"), "log.bin")
        with open(log_file, "r+b") as f:
            f.seek(20)  # inside the first record's body
            byte = f.read(1)
            f.seek(20)
            f.write(bytes([byte[0] ^ 0xFF]))
        # committed history is never silently dropped
        with pytest.raises(CorruptRecordError):
            MutationLog(tmp_path / "wal")


class TestSnapshotRecover:
    def test_snapshot_then_recover_bitwise(self, tmp_path, dataset):
        deltas = churn(dataset, 4, feature_updates_per_delta=2,
                       add_node_every=2)
        log = MutationLog(tmp_path / "wal")
        for i, d in enumerate(deltas, start=1):
            log.append(d, i)
            apply_delta(dataset, d)
            if i == 2:
                log.snapshot(dataset)
        snap = log.latest_snapshot()
        assert snap is not None and snap[0] == 2
        recovered = log.recover()
        assert recovered.graph_version == 4
        assert np.array_equal(np.asarray(recovered.features[:]),
                              np.asarray(dataset.features))
        assert np.array_equal(recovered.graph.indptr,
                              dataset.graph.indptr)
        assert np.array_equal(recovered.graph.indices,
                              dataset.graph.indices)

    def test_recover_onto_base_without_snapshot(self, tmp_path, dataset):
        deltas = churn(dataset, 2)
        log = MutationLog(tmp_path / "wal")
        for d in deltas:
            log_apply(log, dataset, d)
        base = load_node_dataset("flickr", scale=SCALE, seed=7)
        recovered = log.recover(base=base)
        assert recovered is base
        assert recovered.graph_version == 2

    def test_recover_without_snapshot_or_base_raises(self, tmp_path):
        log = MutationLog(tmp_path / "wal")
        with pytest.raises(WalError):
            log.recover()

    def test_snapshot_cadence(self, tmp_path, dataset):
        deltas = churn(dataset, 5)
        log = MutationLog(tmp_path / "wal", snapshot_every=2)
        snaps = []
        for d in deltas:
            log_apply(log, dataset, d)
            latest = log.latest_snapshot()
            if latest and (not snaps or latest[0] != snaps[-1]):
                snaps.append(latest[0])
        assert snaps == [2, 4]

    def test_half_written_snapshot_is_ignored(self, tmp_path, dataset):
        log = MutationLog(tmp_path / "wal")
        log.append(churn(dataset, 1)[0], 1)
        apply_delta(dataset, churn(dataset, 1)[0])
        # a crash mid-snapshot leaves a directory without a manifest
        fake = os.path.join(log.snapshot_path, "v0000000099")
        os.makedirs(fake)
        with open(os.path.join(fake, "features_000.npy"), "wb") as f:
            f.write(b"partial")
        assert log.latest_snapshot() is None


class TestStoreAttach:
    def _store(self, tmp_path, dataset):
        store_dir = tmp_path / "store"
        write_store(store_dir, dataset, chunk_rows=64)
        return open_store(store_dir, mode="r+")

    def test_checkpoints_match_plain_rewrites_bitwise(self, tmp_path,
                                                      dataset):
        deltas = churn(dataset, 5, feature_updates_per_delta=2,
                       add_node_every=2)
        # reference: the old path, one chunk rewrite per delta
        ref_dir = tmp_path / "ref"
        write_store(ref_dir, dataset, chunk_rows=64)
        ref = open_store(ref_dir, mode="r+")
        for d in deltas:
            ref.apply_delta(d)

        wal_ds = self._store(tmp_path, dataset)
        applied = wal_ds.attach_wal(
            MutationLog(tmp_path / "wal"), checkpoint_every=2)
        assert applied == 0
        for d in deltas:
            wal_ds.apply_delta(d)
        wal_ds.checkpoint()  # flush the trailing partial batch
        assert wal_ds.graph_version == ref.graph_version == 5
        for got, want in [(wal_ds.features[:], ref.features[:]),
                          (wal_ds.labels, ref.labels)]:
            assert np.array_equal(np.asarray(got), np.asarray(want))
        assert np.array_equal(wal_ds.graph.indptr, ref.graph.indptr)
        assert np.array_equal(wal_ds.graph.indices, ref.graph.indices)
        # cold reopen: everything above survived to disk
        cold = open_store(tmp_path / "store")
        assert cold.graph_version == 5
        assert np.array_equal(np.asarray(cold.features[:]),
                              np.asarray(ref.features[:]))

    def test_attach_replays_catchup_and_requires_rplus(self, tmp_path,
                                                       dataset):
        deltas = churn(dataset, 3)
        log = MutationLog(tmp_path / "wal")
        wal_ds = self._store(tmp_path, dataset)
        wal_ds.attach_wal(log, checkpoint_every=100)
        for d in deltas[:2]:
            wal_ds.apply_delta(d)
        # crash before any checkpoint: reopen sees the base manifest,
        # attach replays the log back to version 2
        reopened = open_store(tmp_path / "store", mode="r+")
        assert reopened.graph_version == 0
        assert reopened.attach_wal(MutationLog(tmp_path / "wal"),
                                   checkpoint_every=100) == 2
        assert reopened.graph_version == 2
        with pytest.raises(ValueError):
            open_store(tmp_path / "store").attach_wal(
                MutationLog(tmp_path / "wal2"))

    def test_double_attach_refused(self, tmp_path, dataset):
        wal_ds = self._store(tmp_path, dataset)
        wal_ds.attach_wal(MutationLog(tmp_path / "wal"))
        with pytest.raises(ValueError):
            wal_ds.attach_wal(MutationLog(tmp_path / "wal2"))


class TestSessionAttach:
    def test_session_logs_and_recovers_bitwise(self, tmp_path):
        from repro.api import (
            DataConfig,
            EngineConfig,
            ModelConfig,
            RunConfig,
            Session,
            TrainConfig,
        )

        cfg = RunConfig(
            data=DataConfig("flickr", scale=SCALE, seed=7),
            model=ModelConfig("graphormer-slim", num_layers=2,
                              hidden_dim=16, num_heads=4, dropout=0.0),
            engine=EngineConfig("gp-raw"), train=TrainConfig(epochs=1))
        session = Session(cfg)
        session.attach_wal(MutationLog(tmp_path / "wal"))
        deltas = churn(session.dataset, 3)
        for d in deltas:
            session.apply_delta(d)
        want = session.predict()

        fresh = Session(cfg)
        pre = fresh.predict()  # predictions cached before catch-up
        replayed = fresh.attach_wal(MutationLog(tmp_path / "wal"))
        assert replayed == 3
        assert fresh.graph_version == 3
        got = fresh.predict()
        assert np.array_equal(got, want)
        assert not np.array_equal(got, pre)


def _out_of_range(dataset) -> GraphDelta:
    return GraphDelta(add_edges=[[0, dataset.num_nodes + 1000]])


def test_log_apply_refuses_before_durable(tmp_path, dataset):
    # the one commit path validates *before* the durable append: a
    # delta that cannot apply must leave no record behind, or it would
    # wedge every later append and every replay of the log
    log = MutationLog(tmp_path / "wal")
    with pytest.raises(ValueError, match="out of range"):
        log_apply(log, dataset, _out_of_range(dataset))
    assert (log.record_count, log.last_version) == (0, 0)
    assert dataset.graph_version == 0
    # not wedged: the next valid delta commits as version 1 …
    assert log_apply(log, dataset, churn(dataset, 1)[0]).graph_version == 1
    assert log.last_version == 1
    log.close()
    # … and committed history stays recoverable
    fresh = load_node_dataset("flickr", scale=SCALE, seed=7)
    assert MutationLog(tmp_path / "wal").replay(fresh) == 1
    assert np.array_equal(fresh.graph.indices, dataset.graph.indices)


def test_log_apply_records_an_assigned_version(tmp_path, dataset):
    # an authority's version is what the log records, and a dataset
    # that had fallen behind is aligned to it (as replay does)
    log = MutationLog(tmp_path / "wal")
    report = log_apply(log, dataset, churn(dataset, 1)[0], version=4)
    assert log.last_version == 4
    assert dataset.graph_version == 4
    assert report.graph_version == 1  # what the apply itself produced


def test_store_attach_wal_refuses_before_durable(tmp_path, dataset):
    write_store(tmp_path / "store", dataset, chunk_rows=64)
    stored = open_store(tmp_path / "store", mode="r+")
    log = MutationLog(tmp_path / "wal")
    stored.attach_wal(log)
    with pytest.raises(ValueError, match="out of range"):
        stored.apply_delta(_out_of_range(stored))
    assert log.record_count == 0
    stored.apply_delta(churn(dataset, 1)[0])
    assert (log.last_version, stored.graph_version) == (1, 1)
