"""The Session derivation cache never serves a stale read.

A numpy and a fused TorchGT session share one dataset.  Hypothesis
interleaves the events that move what a prediction is a function of —
a fit (weights and tuner state), a checkpoint load (weights), a graph
delta through either session (topology of both) and an Auto-Tuner move
(the reformation) — with full and subset predicts.  After every predict
the logits must be bitwise those of a fresh session built from the same
dataset state, weights and engine state.  Dropping any component from
the cache key (weight version, ``graph_version``, engine state
fingerprint) makes some interleaving here read a stale entry.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.api import (
    DataConfig,
    EngineConfig,
    ModelConfig,
    RunConfig,
    Session,
    TrainConfig,
)
from repro.graph import load_node_dataset
from repro.stream import GraphDelta

NUM_NODES = 96  # ogbn-arxiv at scale 0.08
SUBSETS = [None, np.array([5, 40, 2, 77, 31, 64, 12, 90, 58, 23]),
           np.arange(0, NUM_NODES, 3)]


def _config(backend, seed=0):
    return RunConfig(
        data=DataConfig("ogbn-arxiv", scale=0.08, seed=7),
        model=ModelConfig("graphormer-slim", num_layers=2, hidden_dim=16,
                          num_heads=4, dropout=0.0),
        # reorder even this small graph, so ECR and β_thre are in play
        engine=EngineConfig("torchgt", backend=backend,
                            options={"reorder_min_nodes": 32}),
        train=TrainConfig(epochs=1, lr=3e-2),
        seed=seed,
    )


class CacheMachine(RuleBasedStateMachine):
    checkpoints: list[str] = []

    @initialize()
    def build(self):
        ds = load_node_dataset("ogbn-arxiv", scale=0.08, seed=7)
        assert ds.num_nodes == NUM_NODES
        self.sessions = [Session(_config(backend), dataset=ds)
                         for backend in ("numpy", "fused")]
        # one fitted session from the start, so the tuner can move
        # early; the fused one begins unfitted
        self.sessions[0].fit()

    sessions_ix = st.integers(0, 1)

    @rule(i=sessions_ix)
    def fit(self, i):
        self.sessions[i].fit()

    @rule(i=sessions_ix, which=st.integers(0, 1))
    def load_weights(self, i, which):
        self.sessions[i].load_weights(self.checkpoints[which])

    @rule(i=sessions_ix,
          add=st.lists(st.tuples(st.integers(0, NUM_NODES - 1),
                                 st.integers(0, NUM_NODES - 1)),
                       min_size=1, max_size=3))
    def apply_delta(self, i, add):
        # through either session: the other shares the dataset object
        self.sessions[i].apply_delta(GraphDelta(add_edges=np.array(add)))

    @rule(up=st.booleans())
    def tuner_move(self, up):
        # a session's Auto Tuner is created by its first fit; serve the
        # full graph from every tuned session right after the move
        for i, s in enumerate(self.sessions):
            if s.engine.autotuner is not None:
                schedule = s.engine.autotuner.schedule
                schedule.up() if up else schedule.down()
                self._check(i, None)

    def _check(self, i, nodes):
        s = self.sessions[i]
        got = s.predict(nodes=nodes)
        fresh = Session(s.config, dataset=s.dataset)
        fresh.model.load_state_dict(s.model.state_dict())
        fresh._engine = copy.deepcopy(s.engine)
        want = fresh.predict(nodes=nodes)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @rule(i=sessions_ix, nodes=st.sampled_from(SUBSETS))
    def predict(self, i, nodes):
        self._check(i, nodes)

    @invariant()
    def cache_bounded(self):
        for s in getattr(self, "sessions", ()):
            assert s.compiled_stats()["entries"] <= Session._COMPILED_CAP


def test_cache_never_serves_a_stale_read(tmp_path):
    paths = []
    for seed in (1, 2):
        trained = Session(_config("numpy", seed=seed))
        trained.fit()
        paths.append(str(tmp_path / f"w{seed}.npz"))
        trained.save_checkpoint(paths[-1])
    CacheMachine.checkpoints = paths
    run_state_machine_as_test(CacheMachine, settings=settings(
        derandomize=True, max_examples=15, stateful_step_count=15,
        deadline=None, suppress_health_check=list(HealthCheck)))
