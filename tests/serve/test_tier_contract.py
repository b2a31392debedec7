"""The serving-backend contract, checked identically on both tiers.

:class:`~repro.serve.InferenceServer` and an inline
:class:`~repro.serve.ServingCluster` are the same
:class:`~repro.serve.ServeTier` contract one level apart.  Every case
here runs against both (and the :class:`~repro.net.NetServer` cases put
each behind the socket front-end): the same signatures, the same intake
and resolve accounting, the same watchdog, the same lifecycle.

The golden pins at the bottom were taken on the commit *before* the two
tiers were folded onto one base: a scripted session's ``graph_version``
stamps and the ordered keys of both stats snapshots.  Its logits digest
was re-recorded when the attention arithmetic moved onto BLAS.
"""

import hashlib
import inspect
import socket
import sys
import threading

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
from repro.net import NetServer
from repro.net.protocol import FrameDecoder, encode_message, mutate_request
from repro.serve import (
    BatchPolicy,
    DeadlineExceededError,
    InferenceServer,
    Request,
    ServerClosedError,
    ServeTier,
    ServingCluster,
    SessionPool,
)
from repro.stream import GraphDelta

MODEL = ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                    num_heads=4, dropout=0.0)
SCALE = 0.1
CONFIG = RunConfig(data=DataConfig("ogbn-arxiv", scale=SCALE, seed=0),
                   model=MODEL, engine=EngineConfig("gp-raw"),
                   train=TrainConfig(epochs=1), seed=0)
TIERS = ("server", "cluster")


def fresh_dataset():
    return load_node_dataset("ogbn-arxiv", scale=SCALE, seed=0)


def make_tier(kind: str, *, held: bool = False, max_wait_s: float = 0.0):
    """A tier of ``kind`` over a private dataset copy.

    ``held`` builds a tier whose accepted work cannot finish until
    :func:`release` — cluster workers that never execute
    (``auto_inline=False``), or a server whose rounds make no progress.
    """
    policy = BatchPolicy(max_batch_size=8, max_wait_s=max_wait_s)
    if kind == "cluster":
        return ServingCluster(
            num_workers=2, warm_configs=[CONFIG],
            datasets=[(CONFIG, fresh_dataset())], backend="inline",
            auto_inline=not held, policy=policy)
    pool = SessionPool(max_sessions=2)
    pool.put_dataset(CONFIG, fresh_dataset())
    tier = InferenceServer(pool=pool, policy=policy)
    if held:
        tier.step = lambda now=None, force_flush=False: 0
    return tier


def release(tier) -> None:
    """Undo ``held`` so the tier can drain and close."""
    if isinstance(tier, ServingCluster):
        for handle in tier.workers.values():
            handle.auto = True
    else:
        tier.__dict__.pop("step", None)


@pytest.fixture(params=TIERS)
def tier(request):
    tier = make_tier(request.param)
    yield tier
    tier.close()


@pytest.fixture(params=TIERS)
def held_tier(request):
    tier = make_tier(request.param, held=True)
    yield tier
    release(tier)
    tier.close()


# -- one surface ------------------------------------------------------------ #
CONTRACT = ("submit", "submit_delta", "run_until_idle", "graph_version",
            "wal_for", "replica_lag", "set_tracing", "trace_spans",
            "obs_snapshot", "pending", "close")


@pytest.mark.parametrize("method", CONTRACT)
def test_both_tiers_share_one_signature(method):
    server = inspect.signature(getattr(InferenceServer, method))
    cluster = inspect.signature(getattr(ServingCluster, method))
    assert server == cluster
    assert inspect.signature(getattr(ServeTier, method)) == server


def test_operator_surface_answers_on_either_tier(tier):
    assert isinstance(tier, ServeTier)
    assert tier.graph_version(CONFIG) == 0
    assert tier.wal_for(CONFIG) is None
    assert tier.replica_lag(CONFIG) is None
    assert tier.pending() == 0
    assert isinstance(tier.obs_snapshot(), dict)
    assert isinstance(tier.trace_spans(), list)


# -- one intake -------------------------------------------------------------- #
def test_submit_after_close_is_rejected_never_submitted(tier):
    tier.close()
    with pytest.raises(ServerClosedError):
        tier.submit(CONFIG, nodes=np.arange(4))
    with pytest.raises(ServerClosedError):
        tier.submit_delta(CONFIG, GraphDelta(add_edges=[[0, 17]]))
    assert tier.stats.rejected == 2
    assert tier.stats.submitted == 0


def test_concurrent_intake_mints_unique_ids_and_counts_all(tier):
    # more submitters than cores, on a shortened switch interval: a
    # lost update in the id counter or the submitted bump shows here
    threads_n, each = 8, 40
    tier.queue.max_depth = threads_n * each
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(
            target=lambda: [tier.submit(CONFIG, nodes=np.arange(2))
                            for _ in range(each)]) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    ids = [request.id for request in tier.queue.drain()]
    assert len(ids) == len(set(ids)) == threads_n * each
    assert tier.stats.submitted == threads_n * each


def test_min_version_pin_is_checked_at_intake(tier):
    with pytest.raises(ValueError, match="ahead of the version"):
        tier.submit(CONFIG, nodes=np.arange(4), min_version=1)
    with pytest.raises(ValueError, match="non-negative"):
        tier.submit(CONFIG, nodes=np.arange(4), min_version=-1)
    assert tier.stats.submitted == 0


# -- one resolve ------------------------------------------------------------- #
@pytest.mark.parametrize("kind", TIERS)
def test_late_result_expires_once_and_never_completes(kind):
    # the request leaves the queue in time (so the queue's own expiry
    # does not fire) but its result lands past the deadline
    tier = make_tier(kind, held=kind == "cluster", max_wait_s=100.0)
    try:
        future = tier.submit(CONFIG, nodes=np.arange(4), timeout=5.0,
                             now=0.0)
        tier.step(now=0.0)  # drained: batched / shipped to a worker
        assert not future.done()
        release(tier)
        tier.run_until_idle(now=10.0)
        with pytest.raises(DeadlineExceededError, match="after its deadline"):
            future.result(timeout=0)
        assert future.resolved_at == 10.0
        assert tier.stats.expired == 1
        assert tier.stats.completed == 0
    finally:
        tier.close()


def test_resolve_settles_a_future_exactly_once(tier):
    request = Request(id=99, config=CONFIG, config_key="k", kind="nodes")
    value = np.ones(3)
    assert tier._resolve(request, 1.0, value=value, version=7) == 1
    assert tier._resolve(request, 2.0, value=np.zeros(3), version=8) == 0
    assert tier._resolve(request, 3.0, error=RuntimeError("late")) == 0
    assert request.future.result(timeout=0) is value
    assert request.future.graph_version == 7
    assert request.future.resolved_at == 1.0
    assert (tier.stats.completed, tier.stats.failed) == (1, 0)


def test_resolve_counts_an_error_as_failed(tier):
    request = Request(id=99, config=CONFIG, config_key="k", kind="nodes")
    assert tier._resolve(request, 1.0, error=RuntimeError("boom")) == 1
    with pytest.raises(RuntimeError, match="boom"):
        request.future.result(timeout=0)
    assert (tier.stats.completed, tier.stats.failed) == (0, 1)


# -- one loop ---------------------------------------------------------------- #
def test_run_until_idle_watchdog_raises_instead_of_spinning(held_tier):
    future = held_tier.submit(CONFIG, nodes=np.arange(4))
    with pytest.raises(TimeoutError, match="not idle"):
        held_tier.run_until_idle(timeout_s=0.05)
    assert not future.done()
    release(held_tier)
    held_tier.run_until_idle()
    assert future.result(timeout=0).shape[0] == 4


def test_threaded_lifecycle(tier):
    assert tier.start() is tier
    with pytest.raises(RuntimeError, match="already started"):
        tier.start()
    future = tier.submit(CONFIG, nodes=np.arange(4))
    assert future.result(timeout=30.0).shape[0] == 4
    tier.stop()
    tier.stop()  # a second stop is a no-op
    assert tier.start() is tier  # and the tier restarts cleanly
    tier.stop()


@pytest.mark.parametrize("kind", TIERS)
def test_context_manager_drains_and_closes(kind):
    with make_tier(kind) as tier:
        future = tier.submit(CONFIG, nodes=np.arange(4))
    assert future.done()
    with pytest.raises(ServerClosedError):
        tier.submit(CONFIG)


# -- behind the socket front-end --------------------------------------------- #
def _round_trip(net: NetServer, sock: socket.socket, message) -> object:
    sock.sendall(encode_message(message))
    want = net.stats.responses + 1
    for _ in range(500):
        net.poll(io_timeout_s=0.005)
        if net.stats.responses >= want:
            break
    else:
        raise AssertionError("no response while pumping the server")
    decoder = FrameDecoder()
    while True:
        messages = decoder.feed(sock.recv(65536))
        if messages:
            return messages[0]


def test_netserver_leaves_the_version_guard_to_its_backend(tier):
    import repro.net.server as net_server

    payload = GraphDelta(add_edges=np.array([[0, 17]])).to_payload()
    with NetServer(tier) as net:
        sock = socket.create_connection(net.address, timeout=10.0)
        sock.settimeout(10.0)
        try:
            guarded = _round_trip(net, sock, mutate_request(
                0, CONFIG.to_json(), payload, tenant="acme",
                expected_version=1))
            if isinstance(tier, ServingCluster):
                # the router assigns versions: a client guard is refused
                assert guarded.kind == "error"
                assert guarded.headers["error_kind"] == "bad_request"
                assert "expected_version" in guarded.headers["error"]
                assert tier.graph_version(CONFIG) == 0
            else:
                assert guarded.kind == "result"
                assert guarded.headers["graph_version"] == 1
            plain = _round_trip(net, sock, mutate_request(
                1, CONFIG.to_json(), payload, tenant="acme"))
            assert plain.kind == "result"
            assert plain.headers["graph_version"] == \
                tier.graph_version(CONFIG)
        finally:
            sock.close()
    source = inspect.getsource(net_server)
    assert "isinstance(self.backend" not in source
    assert "serve.cluster" not in source


# -- golden pins ------------------------------------------------------------- #
# The stamps and stats keys were taken on the commit before the two tiers
# were folded onto one base; the canary and logits digests were re-recorded
# on the child of 23edc32, whose BLAS attention contractions, multiply-only
# GELU and bincount embedding backward round differently.
SUBSETS = ([0, 1, 2, 3], [5, 9, 11], [7, 3, 1, 20])
DELTAS = (dict(add_edges=[[0, 17]]),
          dict(remove_edges=[[0, 17]], add_edges=[[2, 40]]))

#: sha256 of a plain ``Session.predict()`` at version 0 where the pins
#: were taken — logits bytes depend on the BLAS build, so the digest pin
#: only binds on the numeric platform it was recorded on.
GOLDEN_CANARY = \
    "3f1cd84b8c22408679a0c7b5282cffceeaa49b62cff4a93803dde5e0f91874cb"
GOLDEN_LOGITS = \
    "4305190f3ff31225a92b51f144ea4e4757982a6b3193e565ed3c247371584fe0"
GOLDEN_STAMPS = [0, 0, 0, 0, 1, 2, 2]
_LATENCY = ["latency_mean_s", "latency_p50_s", "latency_p95_s"]
GOLDEN_KEYS = {
    "server": {"top": [
        "submitted", "completed", "rejected", "expired", "failed",
        "batches", "mean_batch_occupancy", "shared_computes", "mutations",
        "mutations_ignored", *_LATENCY, "pool_sessions", "pool_hit_rate",
        "pool_evictions"]},
    "cluster": {
        "top": ["obs", "cluster", "router", "workers", "pool", "per_worker",
                "workers_alive", "replicas_alive"],
        "cluster": [
            "submitted", "completed", "rejected", "expired", "failed",
            "dispatched", "requeued", "worker_deaths", "duplicates_ignored",
            "mutations", "mutations_applied", "workers_spawned",
            "workers_retired", "replica_reads", *_LATENCY],
        "router": ["routed", "sticky", "spills", "reroutes"],
        "workers": [
            "submitted", "completed", "rejected", "expired", "failed",
            "batches", "shared_computes", "mutations", "mutations_ignored",
            "mean_batch_occupancy", *_LATENCY],
        "pool": ["sessions", "hits", "misses", "evictions",
                 "checkpoint_loads"]},
}


def _delta(spec: dict) -> GraphDelta:
    return GraphDelta(**{k: np.array(v) for k, v in spec.items()})


def scripted_session(tier):
    """3 subset predicts + 1 full, 2 deltas, 1 pinned read → pins."""
    digest, stamps = hashlib.sha256(), []

    def settle(futures):
        tier.run_until_idle()
        for future in futures:
            out = future.result(timeout=30.0)
            stamps.append(future.graph_version)
            if isinstance(out, np.ndarray):
                digest.update(np.ascontiguousarray(out).tobytes())

    settle([tier.submit(CONFIG, nodes=np.array(s)) for s in SUBSETS]
           + [tier.submit(CONFIG)])
    for spec in DELTAS:
        settle([tier.submit_delta(CONFIG, _delta(spec))])
    settle([tier.submit(CONFIG, nodes=np.array(SUBSETS[0]), min_version=2)])
    return digest.hexdigest(), stamps


def oracle_digest() -> str:
    """The same script through a plain Session, no serving tier at all."""
    session = Session(CONFIG, dataset=fresh_dataset())
    digest = hashlib.sha256()
    for nodes in (*SUBSETS, None):
        digest.update(session.predict(
            nodes=None if nodes is None else np.array(nodes)).tobytes())
    for spec in DELTAS:
        session.apply_delta(_delta(spec))
    digest.update(session.predict(nodes=np.array(SUBSETS[0])).tobytes())
    return digest.hexdigest()


def test_golden_session_and_stats_keys(tier):
    kind = "cluster" if isinstance(tier, ServingCluster) else "server"
    sha, stamps = scripted_session(tier)
    assert stamps == GOLDEN_STAMPS
    assert sha == oracle_digest()  # bitwise the single-process answer
    canary = hashlib.sha256(
        Session(CONFIG, dataset=fresh_dataset()).predict().tobytes())
    if canary.hexdigest() == GOLDEN_CANARY:
        assert sha == GOLDEN_LOGITS
    snap = tier.stats_snapshot()
    golden = GOLDEN_KEYS[kind]
    assert list(snap) == golden["top"]
    for block in golden:
        if block != "top":
            assert list(snap[block]) == golden[block]
