"""Hypothesis property tests for the modules added on top of the core
reproduction: ring attention, NLP patterns, performer features, schedules,
checkpointing, graph metrics, R-MAT and I/O round-trips.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.attention import (
    bigbird_pattern,
    dense_attention,
    longformer_pattern,
    random_pattern,
)
from repro.attention.performer import performer_features, random_feature_matrix
from repro.backend import compile_plan
from repro.distributed import Communicator, ShardPlan, ring_attention
from repro.graph import CSRGraph, degree_gini, modularity, rmat
from repro.tensor import (
    SGD,
    PolynomialDecaySchedule,
    Tensor,
    WarmupCosineSchedule,
    checkpoint,
)
from repro.tensor import functional as F

seqlens = st.integers(4, 40)


class TestNlpPatternProperties:
    @given(seqlens, st.integers(0, 5), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_bigbird_always_has_self_loops(self, s, w, r):
        p = bigbird_pattern(s, window=w, random_per_row=r, num_global=0,
                            rng=np.random.default_rng(0))
        assert p.has_self_loops()

    @given(seqlens, st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_window_entry_count_exact(self, s, w):
        p = longformer_pattern(s, window=w)
        # band entries: s rows × (2w+1) offsets, clipped at the edges
        expected = sum(min(i + w, s - 1) - max(i - w, 0) + 1 for i in range(s))
        assert p.num_entries == expected

    @given(seqlens, st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_random_pattern_within_budget_and_symmetric(self, s, e, seed):
        p = random_pattern(s, e, np.random.default_rng(seed))
        assert p.num_entries <= 2 * s * e + s
        m = p.to_mask()
        assert (m == m.T).all()

    @given(seqlens)
    @settings(max_examples=20, deadline=None)
    def test_window_zero_is_identity(self, s):
        p = longformer_pattern(s, window=0)
        np.testing.assert_array_equal(p.to_mask(), np.eye(s, dtype=bool))


class TestPerformerProperties:
    @given(st.integers(1, 64), st.integers(1, 16), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_feature_matrix_shape_any_size(self, m, d, seed):
        w = random_feature_matrix(m, d, np.random.default_rng(seed))
        assert w.shape == (m, d)
        assert np.isfinite(w).all()

    @given(arrays(np.float64, (2, 5, 4), elements=st.floats(-3, 3)),
           st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_features_always_positive_finite(self, x, seed):
        w = random_feature_matrix(8, 4, np.random.default_rng(seed))
        phi = performer_features(Tensor(x), w)
        assert (phi.data > 0).all()
        assert np.isfinite(phi.data).all()


class TestRingAttentionProperties:
    @given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_for_any_p(self, P, heads_per_rank, seed):
        rng = np.random.default_rng(seed)
        H = P * heads_per_rank
        S = max(P * 2, 8)
        q, k, v = (rng.standard_normal((H, S, 4)) for _ in range(3))
        plan = ShardPlan(S, H, P)
        shards = tuple([a[:, s].copy() for s in plan.row_slices()]
                       for a in (q, k, v))
        outs = ring_attention(Communicator(P), plan, *shards)
        ref = dense_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(np.concatenate(outs, axis=1), ref,
                                   rtol=1e-4, atol=1e-5)


class TestScheduleProperties:
    @given(st.integers(1, 30), st.integers(2, 200))
    @settings(max_examples=40, deadline=None)
    def test_cosine_bounded_by_base_lr(self, warmup, total):
        if warmup >= total:
            warmup = total - 1
        opt = SGD([Tensor(np.zeros(2), requires_grad=True)], lr=0.7)
        sched = WarmupCosineSchedule(opt, warmup, total)
        lrs = [sched.step() for _ in range(total + 5)]
        assert all(0.0 <= lr <= 0.7 + 1e-12 for lr in lrs)

    @given(st.integers(2, 100), st.floats(0.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_monotone_after_warmup(self, total, power):
        opt = SGD([Tensor(np.zeros(2), requires_grad=True)], lr=1.0)
        sched = PolynomialDecaySchedule(opt, 0, total, end_lr=0.0, power=power)
        lrs = [sched.lr_at(t) for t in range(1, total + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))


class TestCheckpointProperties:
    @given(arrays(np.float64, (3, 4), elements=st.floats(-5, 5)))
    @settings(max_examples=30, deadline=None)
    def test_grad_equals_plain_for_polynomial(self, x):
        def fn(t):
            return (t * t * 0.5 + t * 3.0).sum()

        a = Tensor(x, requires_grad=True)
        fn(a).backward()

        b = Tensor(x, requires_grad=True)
        checkpoint(fn, b).backward()

        np.testing.assert_allclose(b.grad, a.grad, rtol=1e-6, atol=1e-7)


class TestMetricProperties:
    @given(st.integers(2, 6), st.integers(3, 10))
    @settings(max_examples=20, deadline=None)
    def test_modularity_bounded(self, k, clique):
        from repro.graph import ring_of_cliques
        g, membership = ring_of_cliques(k, clique)
        q = modularity(g, membership)
        assert -0.5 <= q <= 1.0

    @given(st.integers(4, 9), st.integers(1, 8), st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_rmat_structure_invariants(self, scale, ef, seed):
        g = rmat(scale, ef, np.random.default_rng(seed))
        assert g.num_nodes == 2**scale
        # symmetric CSR: total degree equals entry count
        assert g.degrees().sum() == g.num_edges
        assert 0.0 <= degree_gini(g) < 1.0


class TestIoRoundTripProperties:
    @given(st.integers(2, 30), st.floats(0.05, 0.5), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_npz_round_trip_any_er_graph(self, n, p, seed):
        import tempfile
        from repro.graph import erdos_renyi, load_graph, save_graph
        g = erdos_renyi(n, p, np.random.default_rng(seed))
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/g.npz"
            save_graph(path, g)
            back = load_graph(path)
        np.testing.assert_array_equal(back.indptr, g.indptr)
        np.testing.assert_array_equal(back.indices, g.indices)


class TestCompiledProgramProperties:
    """Random straight-line programs over the 14 non-attention ops of the
    compiled vocabulary; each operand is the dynamic input, a constant, or
    an earlier result — so the constant / dynamic split is random too."""

    D = 5
    OPS = ["add", "sub", "mul", "truediv", "matmul", "neg", "pow",
           "transpose", "reshape", "mean", "gelu", "softmax", "layer_norm",
           "embedding"]
    TAKES_TWO = {"add", "sub", "mul", "truediv", "matmul", "mean"}
    UNNAMED = {"exp": Tensor.exp, "tanh": Tensor.tanh, "abs": Tensor.abs}
    instructions = st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 50),
                  st.integers(0, 50), st.integers(0, 3)),
        min_size=1, max_size=8)

    @classmethod
    def _apply(cls, op, a, b, k):
        if op in ("add", "sub", "mul", "truediv", "matmul"):
            return getattr(operator, op)(a, b)
        if op == "neg":
            return -a
        if op == "pow":
            return a ** (2.0 + k % 2)
        if op == "transpose":
            return a.transpose(1, 0)
        if op == "reshape":
            return a.reshape(-1, cls.D)
        if op == "mean":
            return a.mean(axis=k % 2, keepdims=True) + b
        if op == "gelu":
            return F.gelu(a)
        if op == "softmax":
            return F.softmax(a, axis=k % 2)
        if op == "layer_norm":
            return F.layer_norm(a, Tensor(np.full(cls.D, 1.5)),
                                Tensor(np.full(cls.D, 0.25)))
        return F.embedding_lookup(a, (np.arange(cls.D) * 2 + k) % cls.D)

    @classmethod
    def _forward(cls, program, poison=None):
        """``poison=(p, name)`` applies the unnamed op ``name`` to the
        ``p``-th value that depends on the input, as soon as it exists."""
        consts = [Tensor(np.random.default_rng(s).standard_normal((cls.D, cls.D)))
                  for s in (1, 2, 3)]
        dynamic = [True, False, False, False]
        for op, i, j, _ in program:
            n = len(dynamic)
            dynamic.append(dynamic[i % n]
                           or (op in cls.TAKES_TWO and dynamic[j % n]))
        slot = None
        if poison is not None:
            spine = [s for s, d in enumerate(dynamic) if d]
            slot = spine[poison[0] % len(spine)]

        def poisoned(value, at):
            return cls.UNNAMED[poison[1]](value) if at == slot else value

        def forward(f):
            pool = [poisoned(Tensor(f), 0)] + consts
            for op, i, j, k in program:
                out = cls._apply(op, pool[i % len(pool)], pool[j % len(pool)], k)
                pool.append(poisoned(out, len(pool)))
            return pool[-1]
        return forward

    @classmethod
    def _feats(cls, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((cls.D, cls.D)).astype(np.float32)

    @given(instructions, st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_compiled_equals_reference_on_an_unseen_input(self, program, seed):
        forward = self._forward(program)
        with np.errstate(all="ignore"):
            prog = compile_plan(forward, self._feats(0), "fp32")
            if prog is None:
                return
            third = self._feats(100 + seed)  # neither of _verify's two inputs
            want = forward(third).data
            got = prog.run(third)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    @given(instructions, st.integers(0, 50), st.sampled_from(sorted(UNNAMED)))
    @settings(max_examples=150, deadline=None)
    def test_unnamed_op_on_the_dynamic_spine_never_compiles(self, program, p,
                                                            name):
        with np.errstate(all="ignore"):
            assert compile_plan(self._forward(program, poison=(p, name)),
                                self._feats(0), "fp32") is None
