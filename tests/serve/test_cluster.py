"""ServingCluster: routing, death/requeue, deadlines, stats, process mode.

Most tests run the ``inline`` backend — protocol-identical in-process
workers whose execution the test drives explicitly (``auto=False``), so
death/requeue interleavings are exact.  One end-to-end test spins real
spawned worker processes.
"""

import time

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
from repro.serve import (
    BatchPolicy,
    DeadlineExceededError,
    ManualClock,
    NoWorkersError,
    QueueFullError,
    ServeError,
    ServerClosedError,
    ServingCluster,
    clock_override,
    config_key,
)

MODEL = ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                    num_heads=4, dropout=0.0)
SCALE = 0.1


def make_config(seed: int) -> RunConfig:
    return RunConfig(data=DataConfig("ogbn-arxiv", scale=SCALE, seed=0),
                     model=MODEL, engine=EngineConfig("gp-raw"),
                     train=TrainConfig(epochs=1), seed=seed)


@pytest.fixture(scope="module")
def dataset():
    return load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)


@pytest.fixture(scope="module")
def configs():
    return [make_config(s) for s in range(3)]


@pytest.fixture(scope="module")
def reference(configs, dataset):
    """Ground-truth logits per config from a plain Session."""
    return [Session(cfg, dataset=dataset).predict() for cfg in configs]


def inline_cluster(configs, dataset, *, num_workers=2, auto=True, **kw):
    kw.setdefault("policy", BatchPolicy(max_batch_size=8, max_wait_s=0.0))
    return ServingCluster(num_workers=num_workers, warm_configs=configs,
                          datasets=[(configs[0], dataset)],
                          backend="inline", auto_inline=auto, **kw)


def owner_of(cluster, config) -> str:
    return cluster.router.ring.lookup(config_key(config))


class TestInlineBasics:
    def test_bitwise_identity_and_stats(self, configs, dataset, reference):
        with inline_cluster(configs, dataset) as cluster:
            futures = [(i, cluster.submit(cfg))
                       for i, cfg in enumerate(configs) for _ in range(2)]
            cluster.run_until_idle()
            for i, fut in futures:
                assert np.array_equal(fut.result(timeout=5.0), reference[i])
            snap = cluster.stats_snapshot()
        assert snap["cluster"]["submitted"] == 6
        assert snap["cluster"]["completed"] == 6
        assert snap["cluster"]["worker_deaths"] == 0
        assert snap["workers"]["completed"] == 6
        assert snap["workers_alive"] == 2
        assert snap["router"]["routed"] == 6

    def test_node_subset_requests(self, configs, dataset):
        nodes = np.array([5, 1, 9, 3])
        with inline_cluster(configs, dataset) as cluster:
            fut = cluster.submit(configs[0], nodes=nodes)
            cluster.run_until_idle()
            want = Session(configs[0], dataset=dataset).predict(nodes=nodes)
            assert np.array_equal(fut.result(timeout=5.0), want)

    def test_graph_level_requests(self):
        cfg = RunConfig(data=DataConfig("zinc", scale=0.05), model=MODEL,
                        engine=EngineConfig("gp-sparse"),
                        train=TrainConfig(epochs=1), seed=0)
        with ServingCluster(num_workers=2, warm_configs=[cfg],
                            backend="inline") as cluster:
            idx = np.array([2, 0, 1])
            fut = cluster.submit(cfg, indices=idx)
            cluster.run_until_idle()
            want = Session(cfg).predict(indices=idx)
            assert np.array_equal(fut.result(timeout=5.0), want)

    def test_argument_validation(self, configs, dataset):
        with inline_cluster(configs, dataset) as cluster:
            with pytest.raises(ValueError, match="indices="):
                cluster.submit(configs[0], indices=np.array([0]))

    def test_backpressure_and_close(self, configs, dataset):
        cluster = inline_cluster(configs, dataset, max_queue_depth=1)
        cluster.submit(configs[0])
        with pytest.raises(QueueFullError):
            cluster.submit(configs[0])
        cluster.close()
        with pytest.raises(ServerClosedError):
            cluster.submit(configs[0])

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            ServingCluster(0, backend="inline")
        with pytest.raises(ValueError, match="backend"):
            ServingCluster(1, backend="carrier-pigeon")


class TestDeadlines:
    def test_expired_request_rejected_before_dispatch(self, configs,
                                                      dataset):
        with inline_cluster(configs, dataset, auto=False) as cluster:
            fut = cluster.submit(configs[0], timeout=0.5, now=0.0)
            cluster.step(now=1.0)  # deadline long past before any dispatch
            with pytest.raises(DeadlineExceededError):
                fut.result(timeout=1.0)
            # the request never crossed a worker pipe
            assert all(not h.units_routed for h in cluster.workers.values())
            assert cluster.stats.expired == 1
            assert cluster.stats.dispatched == 0

    def test_live_request_still_dispatches(self, configs, dataset,
                                           reference):
        with inline_cluster(configs, dataset) as cluster:
            fut = cluster.submit(configs[0], timeout=60.0)
            cluster.run_until_idle()
            assert np.array_equal(fut.result(timeout=5.0), reference[0])


class TestWorkerDeath:
    def test_death_mid_batch_requeues_without_duplicates(
            self, configs, dataset, reference):
        with inline_cluster(configs, dataset, auto=False) as cluster:
            cfg = configs[0]
            victim = owner_of(cluster, cfg)
            futures = [cluster.submit(cfg) for _ in range(3)]
            cluster.step()  # dispatch: units now sit in the victim's inbox
            assert len(cluster.workers[victim].units_seen) == 0
            cluster.workers[victim].fail()  # crash before executing
            cluster.step()  # detect death, requeue to the survivor
            survivor = ({w for w in cluster.workers} - {victim}).pop()
            assert cluster.stats.worker_deaths == 1
            assert cluster.stats.requeued == 3
            cluster.workers[survivor].step_worker()
            cluster.run_until_idle()
            for fut in futures:
                assert np.array_equal(fut.result(timeout=5.0), reference[0])
            assert len(cluster.workers[survivor].units_seen) == 3
            assert cluster.stats.duplicates_ignored == 0
            assert cluster.stats.completed == 3

    def test_late_results_from_dead_worker_delivered_at_most_once(
            self, configs, dataset, reference):
        with inline_cluster(configs, dataset, auto=False) as cluster:
            cfg = configs[0]
            victim = owner_of(cluster, cfg)
            survivor = ({w for w in cluster.workers} - {victim}).pop()
            futures = [cluster.submit(cfg) for _ in range(2)]
            cluster.step()  # dispatch to victim
            # victim computes the answers, but "dies" before the pipe
            # flushes; its results arrive later, after the requeue
            cluster.workers[victim].fail(deliver_pending=True,
                                         hold_results=True)
            cluster.step()  # death detected → requeued to survivor
            assert cluster.stats.requeued == 2
            cluster.workers[survivor].step_worker()
            cluster.workers[victim].release()  # the late pipe flush lands
            cluster.run_until_idle()
            for fut in futures:
                assert np.array_equal(fut.result(timeout=5.0), reference[0])
            # two answers arrived per request; each future resolved once
            assert cluster.stats.duplicates_ignored == 2
            assert cluster.stats.completed == 2

    def test_all_workers_dead_fails_requests(self, configs, dataset):
        with inline_cluster(configs, dataset, num_workers=1,
                            auto=False) as cluster:
            fut = cluster.submit(configs[0])
            cluster.workers["w0"].fail()
            cluster.step()
            with pytest.raises((NoWorkersError, ServeError)):
                fut.result(timeout=1.0)
            assert cluster.stats.failed == 1

    def test_idle_gap_does_not_kill_live_workers(self, configs, dataset,
                                                 reference):
        # a driven cluster can sit idle far longer than the heartbeat
        # timeout (REPL at a prompt); only an *unanswered ping* or a
        # dead process handle may declare a worker dead
        clock = ManualClock()
        with clock_override(clock), inline_cluster(
                configs, dataset, heartbeat_timeout_s=0.01) as cluster:
            clock.advance(0.03)  # idle well past the heartbeat timeout
            cluster.step()
            assert cluster.stats.worker_deaths == 0
            assert len(cluster.router.workers()) == 2
            fut = cluster.submit(configs[0])
            cluster.run_until_idle()
            assert np.array_equal(fut.result(timeout=5.0), reference[0])

    def test_hung_worker_detected_by_unanswered_ping(self, configs,
                                                     dataset):
        clock = ManualClock()
        with clock_override(clock), inline_cluster(
                configs, dataset, auto=False, heartbeat_interval_s=0.0,
                heartbeat_timeout_s=0.01) as cluster:
            cluster.step()  # sends pings; auto=False workers never answer
            assert all(h.alive() for h in cluster.workers.values())
            clock.advance(0.03)
            cluster.step()  # outstanding pings older than the timeout
            assert cluster.stats.worker_deaths == 2
            assert cluster.router.workers() == []
            # let close() skip the (synthetically) dead inline workers
            for handle in cluster.workers.values():
                handle.terminate()

    def test_requeue_excludes_the_dead_worker(self, configs, dataset):
        with inline_cluster(configs, dataset, auto=False) as cluster:
            cfg = configs[0]
            victim = owner_of(cluster, cfg)
            cluster.submit(cfg)
            cluster.step()
            cluster.workers[victim].fail()
            cluster.step()
            (dispatch,) = cluster._inflight.values()
            assert victim in dispatch.excluded
            assert dispatch.worker_id != victim
            assert dispatch.attempts == 2


class TestCloseContract:
    """Work no party can finish without the caller: the drain gives up
    at once, and close() settles it instead of leaking its futures."""

    def test_run_until_idle_gives_up_at_once_on_driven_work(
            self, configs, dataset, reference):
        clock = ManualClock()  # frozen: no heartbeat ever fires
        with clock_override(clock), inline_cluster(
                configs, dataset, auto=False) as cluster:
            fut = cluster.submit(configs[0])
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                cluster.run_until_idle(timeout_s=60.0)
            assert time.monotonic() - t0 < 1.0
            for handle in cluster.workers.values():
                handle.step_worker()  # the caller moves the work itself
            cluster.run_until_idle()
            assert np.array_equal(fut.result(timeout=1.0), reference[0])

    def test_close_settles_what_a_driven_cluster_cannot_finish(
            self, configs, dataset):
        from repro.serve import make_churn_workload

        delta = make_churn_workload(dataset, 1, edges_per_delta=3,
                                    seed=11)[0]
        clock = ManualClock()
        with clock_override(clock):
            cluster = inline_cluster(configs, dataset, auto=False)
            fut = cluster.submit(configs[0])
            cluster.step()  # in flight on a worker nobody steps
            mutation = cluster.submit_delta(configs[0], delta)
            queued = cluster.submit(configs[1])
            cluster.close()
        for future in (fut, mutation, queued):
            assert isinstance(future.exception(timeout=1.0),
                              ServerClosedError)
        assert cluster.stats.failed == 3
        assert cluster.stats.completed == 0


class TestMutationDeath:
    """A worker dying with a pending GraphDelta: exactly-once semantics."""

    def make_delta(self, dataset, seed=11):
        from repro.serve import make_churn_workload

        return make_churn_workload(dataset, 1, edges_per_delta=3,
                                   add_node_every=1, seed=seed)[0]

    def test_delta_requeued_exactly_once_and_applied_once(
            self, configs, dataset):
        # the victim dies before applying its copy of the broadcast; its
        # unit is requeued (once) to the survivor, where the version
        # guard turns the redelivery into a no-op ack — node additions
        # are not idempotent, so a double-apply would corrupt the graph
        with inline_cluster(configs, dataset, auto=False) as cluster:
            cfg = configs[0]
            delta = self.make_delta(dataset)
            n_before = dataset.num_nodes
            mutation = cluster.submit_delta(cfg, delta)
            cluster.workers["w0"].fail()
            cluster.step()  # detect death, requeue w0's unit to w1
            assert cluster.stats.requeued == 1
            cluster.workers["w1"].step_worker()
            cluster.step()  # receive both acks
            assert mutation.result(timeout=5.0) == 1
            state = cluster.workers["w1"].runtime.state()["server"]
            assert state["mutations"] == 1
            assert state["mutations_ignored"] == 1
            survivor = cluster.workers["w1"].runtime.pool.acquire(cfg)
            assert survivor.graph_version == 1
            assert survivor.dataset.num_nodes == n_before + 1  # once!
            assert cluster.stats.mutations_applied == 1

    def test_delta_never_lands_inside_a_half_applied_batch(
            self, configs, dataset):
        # requests and a delta dispatched in one burst to the same
        # worker: the pre-delta requests must compute at version 0 and
        # the post-delta ones at version 1 — the worker's server force-
        # flushes its batch at the mutation boundary
        with inline_cluster(configs, dataset, auto=False) as cluster:
            cfg = configs[0]
            pre = [cluster.submit(cfg) for _ in range(2)]
            mutation = cluster.submit_delta(cfg, self.make_delta(dataset))
            post = [cluster.submit(cfg) for _ in range(2)]
            cluster.step()  # dispatch the post-delta requests too
            for handle in cluster.workers.values():
                handle.step_worker()
            cluster.run_until_idle()
            assert mutation.result(timeout=5.0) == 1
            assert all(f.graph_version == 0 for f in pre)
            assert all(f.graph_version == 1 for f in post)
            assert not np.array_equal(pre[0].result(timeout=5.0),
                                      post[0].result(timeout=5.0))

    def test_late_mutation_ack_from_dead_worker_ignored(
            self, configs, dataset):
        # the victim applies the delta and acks, but "dies" before the
        # pipe flushes; the requeue no-ops on the survivor and the late
        # ack must be counted as a duplicate, never double-settled
        with inline_cluster(configs, dataset, auto=False) as cluster:
            cfg = configs[0]
            mutation = cluster.submit_delta(cfg, self.make_delta(dataset))
            cluster.workers["w0"].fail(deliver_pending=True,
                                       hold_results=True)
            cluster.step()  # death detected → requeue to w1
            assert cluster.stats.requeued == 1
            cluster.workers["w1"].step_worker()
            cluster.workers["w0"].release()  # late ack lands
            cluster.run_until_idle()
            assert mutation.result(timeout=5.0) == 1
            assert cluster.stats.duplicates_ignored == 1
            assert cluster.stats.mutations_applied == 1

    def test_all_workers_dead_fails_the_mutation(self, configs, dataset):
        with inline_cluster(configs, dataset, num_workers=1,
                            auto=False) as cluster:
            mutation = cluster.submit_delta(configs[0],
                                            self.make_delta(dataset))
            cluster.workers["w0"].fail()
            cluster.step()
            with pytest.raises((NoWorkersError, ServeError)):
                mutation.result(timeout=1.0)


class TestStickiness:
    def test_sticky_under_pool_eviction(self, configs, dataset, reference):
        # pool of 1 per worker, 3 configs on 2 workers: at least one
        # worker keeps evicting sessions — routing must not move
        with inline_cluster(configs, dataset, pool_size=1) as cluster:
            expected = {config_key(cfg): owner_of(cluster, cfg)
                        for cfg in configs}
            for _ in range(3):  # three rotations of the full config set
                futures = [(i, cluster.submit(cfg))
                           for i, cfg in enumerate(configs)]
                cluster.run_until_idle()
                for i, fut in futures:
                    assert np.array_equal(fut.result(timeout=5.0),
                                          reference[i])
            snap = cluster.stats_snapshot()
            assert snap["pool"]["evictions"] > 0  # churn really happened
            assert snap["router"]["spills"] == 0
        # every unit landed on its config's ring owner
        for wid, handle in cluster.workers.items():
            for unit in handle.units_routed:
                assert expected[config_key_from_json(unit.config_json)] == wid

    def test_spill_on_overload_then_recovers(self, configs, dataset,
                                             reference):
        with inline_cluster(configs, dataset, auto=False,
                            spill_threshold=2) as cluster:
            cfg = configs[0]
            owner = owner_of(cluster, cfg)
            futures = [cluster.submit(cfg) for _ in range(6)]
            cluster.step()  # one drain dispatches all six
            assert cluster.router.stats.spills >= 1
            routed = {wid: len(h.units_routed)
                      for wid, h in cluster.workers.items()}
            assert routed[owner] >= 2         # sticky up to the threshold
            assert min(routed.values()) >= 1  # overflow crossed workers
            for handle in cluster.workers.values():
                handle.step_worker()
            cluster.run_until_idle()
            for fut in futures:
                assert np.array_equal(fut.result(timeout=5.0), reference[0])


def config_key_from_json(config_json: str) -> str:
    """Recover the routing key of a wire-format config."""
    from repro.api import RunConfig

    return config_key(RunConfig.from_json(config_json))


class TestProcessBackend:
    def test_end_to_end_identity_stats_and_shutdown(self, configs, dataset,
                                                    reference):
        with ServingCluster(num_workers=2, warm_configs=configs,
                            datasets=[(configs[0], dataset)],
                            backend="process",
                            policy=BatchPolicy(max_batch_size=8,
                                               max_wait_s=0.0)) as cluster:
            futures = [(i, cluster.submit(cfg))
                       for i, cfg in enumerate(configs) for _ in range(2)]
            cluster.run_until_idle()
            for i, fut in futures:
                assert np.array_equal(fut.result(timeout=30.0), reference[i])
            snap = cluster.stats_snapshot()
            assert snap["workers_alive"] == 2
            assert snap["cluster"]["completed"] == 6
            assert snap["workers"]["completed"] == 6
            # broadcast datasets admitted sessions without re-synthesis
            assert snap["pool"]["misses"] == len(configs)
        # context exit shut the workers down cleanly
        assert all(not h.alive() for h in cluster.workers.values())
