"""``Engine.prepare_inference`` is deterministic and leaves engine state alone.

Nothing is memoised inside the engine: callers key their caches on the
graph and :meth:`~repro.core.engine.Engine.state_fingerprint`, so these
tests pin that repeated calls agree and that the fingerprint moves with
everything that changes what a call returns.
"""

import numpy as np

from repro.core.autotuner import AutoTuner
from repro.core.engine import make_engine
from repro.graph.generators import barabasi_albert


def _graph(n=150, seed=0):
    return barabasi_albert(n, 3, np.random.default_rng(seed))


def _same_pattern(a, b):
    if a is None or b is None:
        return a is b
    return (a.seq_len == b.seq_len and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.cols, b.cols))


def _same_context(a, b):
    inv_a, inv_b = a.node_permutation_inverse(), b.node_permutation_inverse()
    return (np.array_equal(a.graph.indptr, b.graph.indptr)
            and np.array_equal(a.graph.indices, b.graph.indices)
            and (inv_a is None) == (inv_b is None)
            and (inv_a is None or np.array_equal(inv_a, inv_b))
            and _same_pattern(a.pattern, b.pattern)
            and _same_pattern(a.reformed and a.reformed.pattern,
                              b.reformed and b.reformed.pattern)
            and a.sparse_ok == b.sparse_ok)


def test_base_engine_prepare_inference_is_idempotent():
    eng = make_engine("gp-raw")
    g = _graph()
    ctx = eng.prepare_inference(g)
    assert ctx.graph is g and ctx.pattern is None
    assert _same_context(eng.prepare_inference(g), ctx)
    assert eng.state_fingerprint() is None


def test_sparse_engine_reuses_prepared_pattern():
    eng = make_engine("gp-sparse")
    g = _graph()
    assert _same_context(eng.prepare_inference(g), eng.prepare_inference(g))


def test_distinct_graphs_get_distinct_contexts():
    eng = make_engine("gp-sparse")
    g1, g2 = _graph(seed=0), _graph(seed=1)
    c1, c2 = eng.prepare_inference(g1), eng.prepare_inference(g2)
    assert c1.graph is g1 and c2.graph is g2
    assert not _same_pattern(c1.pattern, c2.pattern)


def test_torchgt_prepare_inference_idempotent_and_stateless():
    eng = make_engine("torchgt", num_layers=2, hidden_dim=16)
    g = _graph()
    assert eng.scheduler is None and eng.autotuner is None
    ctx = eng.prepare_inference(g)
    assert _same_context(eng.prepare_inference(g), ctx)
    # runtime state untouched by inference preprocessing
    assert eng.scheduler is None
    assert eng.autotuner is None
    assert eng._beta_in_use is None


def test_torchgt_fingerprint_moves_with_tuner():
    eng = make_engine("torchgt", num_layers=2, hidden_dim=16)
    fingerprints = [eng.state_fingerprint()]
    # a training run's Auto Tuner moving β_thre changes what reformation
    # an inference preprocessing pass would produce → the key must move
    eng.autotuner = AutoTuner(beta_g=0.1)
    fingerprints.append(eng.state_fingerprint())
    eng.autotuner.schedule.up()  # the tuner climbs one β_thre rung
    fingerprints.append(eng.state_fingerprint())
    assert len(set(fingerprints)) == 3


def test_training_prepare_leaves_inference_prepare_unchanged():
    eng = make_engine("torchgt", num_layers=2, hidden_dim=16)
    g = _graph(n=200)
    train_ctx = eng.prepare_graph(g)
    beta = eng._beta_in_use
    infer_ctx = eng.prepare_inference(g)
    assert infer_ctx is not train_ctx
    assert _same_context(eng.prepare_inference(g), infer_ctx)
    assert eng._beta_in_use == beta
