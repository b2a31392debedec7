"""Grad mode, precision and trace capture are per-context: what one
thread scopes never reaches an op running on another thread."""

import sys
import threading
from contextlib import contextmanager

import numpy as np

from repro.api import (
    DataConfig,
    EngineConfig,
    ModelConfig,
    RunConfig,
    Session,
    TrainConfig,
)
from repro.backend import compile_plan, trace_capture
from repro.serve import InferenceServer
from repro.tensor import Tensor, no_grad, precision_scope
from tests.backend.test_compiled import _setup
from tests.helpers import array_sha256


def _on_thread(fn):
    """Run ``fn`` to completion on a fresh thread; return what it returned."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the calling thread
            box["error"] = exc

    t = threading.Thread(target=run)
    t.start()
    _join(t)
    if "error" in box:
        raise box["error"]
    return box["value"]


def _join(t):
    t.join(timeout=60)
    assert not t.is_alive()


@contextmanager
def _eager_thread_switching():
    """Hand the interpreter over every 0.1 ms so the threads below really
    interleave op by op instead of in 5 ms slices."""
    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(prev)


# ------------------------------------------------------------------ #
# the three primitives
# ------------------------------------------------------------------ #
def test_trace_capture_does_not_record_other_threads():
    with trace_capture() as rec:
        _on_thread(lambda: Tensor([1.0]) + Tensor([2.0]))
        assert len(rec.nodes) == 0
        Tensor([1.0]) + Tensor([2.0])
        assert len(rec.nodes) == 1


def test_precision_scope_does_not_reach_other_threads():
    with precision_scope("fp64"):
        assert _on_thread(lambda: Tensor([1.0]).dtype) == np.float32
        assert Tensor([1.0]).dtype == np.float64


def test_no_grad_does_not_reach_other_threads():
    w = Tensor([1.0], requires_grad=True)
    with no_grad():
        assert _on_thread(lambda: (w * 2).requires_grad) is True
        assert (w * 2).requires_grad is False


def test_new_thread_starts_at_defaults_and_keeps_its_own_scopes():
    # the other thread enters fp64 / no_grad and *stays* there while this
    # thread computes; a Barrier pins the overlap
    inside = threading.Barrier(2)
    done = threading.Barrier(2)
    w = Tensor([1.0], requires_grad=True)

    def other():
        with precision_scope("fp64"), no_grad():
            inside.wait(timeout=60)
            done.wait(timeout=60)
            return Tensor([1.0]).dtype, (w * 2).requires_grad

    box = {}
    t = threading.Thread(target=lambda: box.update(got=other()))
    t.start()
    inside.wait(timeout=60)
    mine = Tensor([1.0]).dtype, (w * 2).requires_grad
    done.wait(timeout=60)
    _join(t)
    assert mine == (np.float32, True)
    assert box["got"] == (np.float64, False)


# ------------------------------------------------------------------ #
# end to end
# ------------------------------------------------------------------ #
_MODEL = ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                     num_heads=4, dropout=0.0)


def _fit_config():
    return RunConfig(data=DataConfig("ogbn-arxiv", scale=0.5), model=_MODEL,
                     engine=EngineConfig("gp-sparse"),
                     train=TrainConfig(epochs=10, lr=2e-3))


def test_fit_beside_a_threaded_server_gives_the_serial_losses():
    serial = array_sha256(Session(_fit_config()).fit().train_loss,
                          dtype=np.float64)

    served = RunConfig(data=DataConfig("ogbn-arxiv", scale=0.1), model=_MODEL,
                       engine=EngineConfig("torchgt", precision="fp64"),
                       train=TrainConfig(epochs=1), seed=1)
    answered = threading.Event()
    stop = threading.Event()
    errors = []

    def client(server):
        rng = np.random.default_rng(0)
        try:
            while not stop.is_set():
                nodes = rng.choice(120, size=32, replace=False)
                out = server.submit(served, nodes=nodes).result(timeout=30)
                assert out.dtype == np.float64
                answered.set()
        except BaseException as exc:
            errors.append(exc)
            answered.set()

    with _eager_thread_switching(), InferenceServer() as server:
        server.start()
        t = threading.Thread(target=client, args=(server,))
        t.start()
        try:
            # the server thread is inside no_grad / fp64 from here on,
            # and stays busy until the fit below has returned
            assert answered.wait(timeout=30)
            record = Session(_fit_config()).fit()
        finally:
            stop.set()
            _join(t)
    assert not errors, errors
    assert array_sha256(record.train_loss, dtype=np.float64) == serial


def test_concurrent_compiles_equal_the_serial_programs():
    ref32, feats32, _ = _setup("gp-sparse")
    ref64, feats64, _ = _setup("gp-raw", precision="fp64", seed=3)
    feats64 = feats64.astype(np.float64)

    def build(ref, feats, precision):
        with precision_scope(precision):
            prog = compile_plan(ref, feats, precision)
            assert prog is not None, f"{precision}: plan did not compile"
            return (prog.num_steps, prog.num_folded), prog.run(feats * 0.5)

    want32 = build(ref32, feats32, "fp32")
    want64 = build(ref64, feats64, "fp64")

    compiling = threading.Event()
    stop = threading.Event()
    got64, errors = [], []

    def other():
        try:
            while not stop.is_set():
                compiling.set()
                got64.append(build(ref64, feats64, "fp64"))
        except BaseException as exc:
            errors.append(exc)
            compiling.set()

    t = threading.Thread(target=other)
    with _eager_thread_switching():
        t.start()
        try:
            assert compiling.wait(timeout=30)
            got32 = [build(ref32, feats32, "fp32") for _ in range(4)]
        finally:
            stop.set()
            _join(t)
    assert not errors, errors
    assert got64
    for got, want in [(g, want32) for g in got32] + [(g, want64) for g in got64]:
        assert got[0] == want[0]
        assert got[1].dtype == want[1].dtype
        assert np.array_equal(got[1], want[1])
