"""repro._clock: one injectable clock behind deadlines AND heartbeats.

The regression these tests pin: the cluster once aged heartbeats on
``time.monotonic`` while request deadlines lived on ``time.perf_counter``
(the queue contract).  A fake clock could freeze one domain while the
other kept moving, so deadline culling and worker-health policing could
drift apart in ways no deterministic test could observe.  Now both read
:func:`repro._clock.now`, and a single :class:`ManualClock` drives
them together.
"""

import time

import numpy as np
import pytest

from repro.api import DataConfig, ModelConfig, RunConfig, TrainConfig
from repro.serve import (
    BatchPolicy,
    DeadlineExceededError,
    InferenceServer,
    ManualClock,
    ServingCluster,
    clock_override,
)
from repro import _clock


def node_config(seed: int = 0) -> RunConfig:
    return RunConfig(
        data=DataConfig("ogbn-arxiv", scale=0.1, seed=0),
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=0.0),
        train=TrainConfig(epochs=1), seed=seed)


class TestClockSource:
    def test_default_is_perf_counter_domain(self):
        before = time.perf_counter()
        stamped = _clock.now()
        after = time.perf_counter()
        assert before <= stamped <= after

    def test_override_and_restore(self):
        fake = ManualClock(start=100.0)
        with clock_override(fake):
            assert _clock.now() == 100.0
            fake.advance(5.0)
            assert _clock.now() == 105.0
        assert _clock.get_clock() is time.perf_counter

    def test_manual_clock_rejects_rewinds(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestServerOnFakeClock:
    def test_deadlines_and_batch_aging_share_the_clock(self):
        clock = ManualClock()
        config = node_config()
        with clock_override(clock):
            server = InferenceServer(
                policy=BatchPolicy(max_batch_size=64, max_wait_s=2.0))
            expiring = server.submit(config, timeout=5.0)
            server.step()
            assert len(server.batcher) == 1  # held for batching
            clock.advance(5.0)               # lands exactly on deadline
            server.step()
            with pytest.raises(DeadlineExceededError):
                expiring.result(timeout=1.0)
            assert server.stats.expired == 1

    def test_latency_measured_on_injected_clock(self):
        clock = ManualClock()
        config = node_config()
        with clock_override(clock):
            server = InferenceServer(
                policy=BatchPolicy(max_batch_size=4, max_wait_s=0.0))
            future = server.submit(config)
            clock.advance(3.0)
            server.run_until_idle()
            assert future.result(timeout=5.0) is not None
            lat = list(server.stats.latencies)
        assert lat == [3.0]


class TestClusterOnFakeClock:
    """One fake clock drives deadline culling AND heartbeat policing."""

    def make_cluster(self, config):
        return ServingCluster(
            num_workers=2, warm_configs=[config], backend="inline",
            policy=BatchPolicy(max_batch_size=8, max_wait_s=0.0),
            heartbeat_interval_s=1.0, heartbeat_timeout_s=10.0)

    def test_deadline_culling_follows_the_injected_clock(self):
        clock = ManualClock()
        config = node_config()
        with clock_override(clock):
            with self.make_cluster(config) as cluster:
                future = cluster.submit(config, timeout=4.0)
                clock.advance(4.0)  # exactly the deadline
                cluster.step()
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=1.0)
                assert cluster.stats.expired == 1
                assert cluster.stats.dispatched == 0

    def test_heartbeat_aging_follows_the_same_clock(self):
        clock = ManualClock()
        config = node_config()
        with clock_override(clock):
            with self.make_cluster(config) as cluster:
                # force a ping round, then freeze the workers (auto
                # inline workers would answer; leave the pongs unread
                # by never advancing past the receive)
                clock.advance(1.5)
                cluster.step()  # pings go out; pongs come back same step
                assert cluster.stats.worker_deaths == 0
                # outstanding-ping aging uses the SAME clock: advancing
                # it past the timeout with unanswered pings kills both
                for handle in cluster.workers.values():
                    handle.auto = False  # stop answering
                clock.advance(1.5)
                cluster.step()  # second ping round, never answered
                clock.advance(10.1)
                cluster.step()
                assert cluster.stats.worker_deaths == 2
                for handle in cluster.workers.values():
                    handle.terminate()  # let close() skip dead workers

    def test_end_to_end_serving_still_works_under_fake_clock(self):
        clock = ManualClock()
        config = node_config()
        with clock_override(clock):
            with self.make_cluster(config) as cluster:
                future = cluster.submit(config, timeout=100.0)
                cluster.run_until_idle()
                out = future.result(timeout=5.0)
        assert isinstance(out, np.ndarray) and out.shape[0] > 0
