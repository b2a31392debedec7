"""Training engines: TorchGT and the paper's baselines (GP-Raw / GP-Flash /
GP-Sparse).

An engine owns the *system* side of training one model on one graph:

* preprocessing — cluster reordering (METIS substitute), pattern
  construction, ECR reformation, C1–C3 condition checks;
* per-iteration execution planning — which attention backend runs, over
  which pattern, with or without graph-encoding bias;
* runtime feedback — the Auto Tuner consumes per-epoch loss/time and
  re-reforms the pattern when β_thre moves.

The trainer (:mod:`repro.train.trainer`) is engine-agnostic: it asks for an
:class:`ExecutionPlan` each iteration and applies it to the model call.
Each engine also maps onto an :class:`~repro.hardware.perf_model.AttentionKind`
so the cost model can price it at paper scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..attention.patterns import AttentionPattern, topology_pattern
from ..attention.registry import (
    KernelSpec,
    get_pattern_builder,
    resolve_kernel,
)
from ..attention.workspace import invalidate_workspace
from ..graph.csr import CSRGraph
from ..hardware.device import DeviceSpec, RTX3090
from ..hardware.perf_model import AttentionKind
from ..partition.reorder import Reordering, cluster_reorder
from .autotuner import AutoTuner, select_cluster_dim, select_subblock_dim
from .dual_interleaved import ConditionReport, InterleaveScheduler, check_conditions
from .ecr import ReformationResult, reform_pattern

__all__ = [
    "ExecutionPlan",
    "SequenceContext",
    "Engine",
    "GPRawEngine",
    "GPFlashEngine",
    "GPSparseEngine",
    "FixedPatternEngine",
    "TorchGTEngine",
    "register_engine",
    "engine_names",
    "engine_registry",
    "deployable_engine_kinds",
    "make_engine",
]


@dataclass
class ExecutionPlan:
    """One iteration's attention execution choice.

    Carries the registered :class:`~repro.attention.KernelSpec` itself —
    a registry name is accepted for convenience and resolved immediately,
    so downstream consumers (trainer, models, cost model) never string-
    match on backends.
    """

    kernel: KernelSpec | str
    pattern: AttentionPattern | None
    use_bias: bool

    def __post_init__(self):
        self.kernel = resolve_kernel(self.kernel)

    @property
    def backend(self) -> str:
        """The kernel's registry name (back-compat accessor)."""
        return self.kernel.name


@dataclass
class SequenceContext:
    """Preprocessing artifacts for one input graph/sequence."""

    graph: CSRGraph  # possibly reordered
    reordering: Reordering | None
    pattern: AttentionPattern | None  # topology pattern (reordered layout)
    reformed: ReformationResult | None  # ECR output
    conditions: ConditionReport | None
    cluster_dim: int  # k
    subblock_dim: int  # db
    preprocess_seconds: float = 0.0
    # may this sequence run sparse attention at all?  (C1–C3, with the
    # interleave-leniency relaxation applied) — context-local so eval
    # planning never depends on engine-global scheduler state
    sparse_ok: bool = True

    def node_permutation_inverse(self) -> np.ndarray | None:
        """old ids in new order, for carrying features/labels along."""
        return self.reordering.inverse if self.reordering is not None else None


class Engine:
    """Base engine: dense attention with bias (abstract-ish).

    ``precision`` is the compute precision the engine trains under:
    GP-Flash is pinned to bf16 (the real FlashAttention kernel only
    supports FP16/BF16 — the cause of its accuracy drop in Table VII);
    every other engine defaults to fp32.
    """

    name = "base"
    attention_kind = AttentionKind.DENSE
    precision = "fp32"
    #: whether a plan of this engine may set ``use_bias``; where none can,
    #: no model reads the SPD buckets and the trainers skip the S × S BFS
    plans_bias = True

    def __init__(self, num_layers: int = 4):
        self.num_layers = num_layers

    @classmethod
    def build(cls, num_layers: int = 4, hidden_dim: int = 64,
              **kwargs) -> "Engine":
        """Factory hook for :func:`make_engine`.

        The default ignores ``hidden_dim`` (most engines don't model the
        GPU working set); engines that need more construction context
        override this.
        """
        del hidden_dim
        return cls(num_layers, **kwargs)

    def prepare_graph(self, g: CSRGraph) -> SequenceContext:
        return SequenceContext(graph=g, reordering=None, pattern=None,
                               reformed=None, conditions=None,
                               cluster_dim=0, subblock_dim=0)

    def prepare_inference(self, g: CSRGraph) -> SequenceContext:
        """Like :meth:`prepare_graph`, but must not advance runtime state.

        Engines whose preprocessing records runtime tuner state override
        this to leave that state untouched.  Nothing is memoised here:
        callers that serve repeatedly key their own caches on the graph
        and :meth:`state_fingerprint`.
        """
        return self.prepare_graph(g)

    def state_fingerprint(self):
        """Hashable snapshot of runtime state that affects preprocessing.

        The base engine has none; TorchGT folds in the Auto-Tuner's
        β_thre, since the reformation it produces depends on it.
        """
        return None

    def plan(self, ctx: SequenceContext) -> ExecutionPlan:  # pragma: no cover
        raise NotImplementedError

    def eval_plan(self, ctx: SequenceContext) -> ExecutionPlan:
        """Plan for evaluation passes: must not advance runtime state."""
        return self.plan(ctx)

    def observe_epoch(self, loss: float, epoch_time_s: float) -> None:
        """Runtime feedback hook (only TorchGT uses it)."""

    def refresh(self, ctx: SequenceContext) -> SequenceContext:
        """Re-derive runtime-dependent artifacts (TorchGT: re-reform)."""
        return ctx


class GPRawEngine(Engine):
    """Vanilla graph parallelism: full dense attention with encodings.

    The baseline that OOMs on every large dataset in Table V — the cost
    model raises :class:`OutOfMemoryError` at paper scale; at repro scale
    it runs and serves as the accuracy gold standard.
    """

    name = "gp-raw"
    attention_kind = AttentionKind.DENSE

    def plan(self, ctx: SequenceContext) -> ExecutionPlan:
        return ExecutionPlan("dense", None, use_bias=True)


class GPFlashEngine(Engine):
    """GP-Flash: FlashAttention kernel; bias disabled (kernel limitation).

    Trains in simulated bf16: the real kernel computes in reduced
    precision, which Table VII identifies as the cause of its accuracy
    deficit.  Pass ``precision="fp32"`` to ablate that effect.
    """

    name = "gp-flash"
    attention_kind = AttentionKind.FLASH
    precision = "bf16"
    plans_bias = False

    def __init__(self, num_layers: int = 4, precision: str = "bf16"):
        super().__init__(num_layers)
        self.precision = precision

    def plan(self, ctx: SequenceContext) -> ExecutionPlan:
        return ExecutionPlan("flash", None, use_bias=False)


class GPSparseEngine(Engine):
    """GP-Sparse: pure topology-induced attention, no interleave, no ECR."""

    name = "gp-sparse"
    attention_kind = AttentionKind.SPARSE

    def prepare_graph(self, g: CSRGraph) -> SequenceContext:
        t0 = time.perf_counter()
        pattern = topology_pattern(g)
        return SequenceContext(graph=g, reordering=None, pattern=pattern,
                               reformed=None, conditions=None,
                               cluster_dim=0, subblock_dim=0,
                               preprocess_seconds=time.perf_counter() - t0)

    def plan(self, ctx: SequenceContext) -> ExecutionPlan:
        return ExecutionPlan("sparse", ctx.pattern, use_bias=True)


class FixedPatternEngine(Engine):
    """Sparse attention over an arbitrary caller-supplied pattern.

    ``builder`` maps the input graph to an
    :class:`~repro.attention.patterns.AttentionPattern` — any sparse
    layout, not necessarily derived from the topology.  This is the
    ablation hook behind the paper's I2 argument: plugging in an
    NLP-style pattern (BigBird window+random+global, sliding window, …)
    with the same entry budget as the topology pattern isolates *edge
    placement* as the variable, and measures the accuracy cost of
    ignoring graph structure.
    """

    name = "fixed-pattern"
    attention_kind = AttentionKind.SPARSE
    deployable = False  # needs a concrete builder; not a paper baseline

    def __init__(self, builder, num_layers: int = 4, name: str | None = None):
        super().__init__(num_layers)
        self.builder = builder
        if name is not None:
            self.name = name

    @classmethod
    def build(cls, num_layers: int = 4, hidden_dim: int = 64, builder=None,
              pattern: str | None = None, **kwargs) -> "FixedPatternEngine":
        """Accept a builder callable or a registered pattern-builder name."""
        del hidden_dim
        if builder is None:
            if pattern is None:
                raise ValueError(
                    "fixed-pattern engine needs builder=<callable> or "
                    "pattern=<registered builder name>")
            spec = get_pattern_builder(pattern)
            builder = lambda g, _spec=spec, _kw=dict(kwargs): _spec.build(g, **_kw)
            return cls(builder, num_layers, name=f"fixed-{pattern}")
        return cls(builder, num_layers, **kwargs)

    def prepare_graph(self, g: CSRGraph) -> SequenceContext:
        t0 = time.perf_counter()
        pattern = self.builder(g)
        if pattern.seq_len != g.num_nodes:
            raise ValueError(
                f"pattern covers {pattern.seq_len} rows but the graph has "
                f"{g.num_nodes} nodes")
        return SequenceContext(graph=g, reordering=None, pattern=pattern,
                               reformed=None, conditions=None,
                               cluster_dim=0, subblock_dim=0,
                               preprocess_seconds=time.perf_counter() - t0)

    def plan(self, ctx: SequenceContext) -> ExecutionPlan:
        return ExecutionPlan("sparse", ctx.pattern, use_bias=True)


class TorchGTEngine(Engine):
    """The full TorchGT system: all three techniques composed.

    Parameters
    ----------
    num_layers:
        Transformer depth L (drives the C3 reachability check).
    device:
        Modeled GPU whose cache sizes drive k and db selection.
    interleave_period:
        One dense pass every T iterations (0 disables interleaving).
    reorder_min_nodes:
        Graphs smaller than this skip cluster reordering/ECR (molecule
        graphs gain nothing from it).
    use_elastic:
        True → Auto Tuner drives β_thre; False → indolent transferring
        (β_thre pinned at β_G).
    """

    name = "torchgt"
    attention_kind = AttentionKind.CLUSTER_SPARSE

    def __init__(self, num_layers: int = 4, hidden_dim: int = 64,
                 device: DeviceSpec = RTX3090, interleave_period: int = 8,
                 reorder_min_nodes: int = 128, use_elastic: bool = True,
                 beta_thre: float | None = None, seed: int = 0,
                 precision: str = "fp32"):
        super().__init__(num_layers)
        self.precision = precision
        self.hidden_dim = hidden_dim
        self.device = device
        self.interleave_period = interleave_period
        self.reorder_min_nodes = reorder_min_nodes
        self.use_elastic = use_elastic
        self.fixed_beta_thre = beta_thre
        self.seed = seed
        self.scheduler: InterleaveScheduler | None = None
        self.autotuner: AutoTuner | None = None
        self._beta_in_use: float | None = None

    @classmethod
    def build(cls, num_layers: int = 4, hidden_dim: int = 64,
              **kwargs) -> "TorchGTEngine":
        return cls(num_layers=num_layers, hidden_dim=hidden_dim, **kwargs)

    # -- preprocessing --------------------------------------------------- #
    def prepare_graph(self, g: CSRGraph) -> SequenceContext:
        t0 = time.perf_counter()
        if g.num_nodes >= self.reorder_min_nodes:
            k = select_cluster_dim(self.device, g.num_nodes, self.hidden_dim)
            k = min(k, max(g.num_nodes // 16, 2))
            ro = cluster_reorder(g, k, seed=self.seed)
            graph = ro.graph
            bounds = ro.bounds
            reordering = ro
        else:
            k = 0
            graph = g
            bounds = None
            reordering = None
        pattern = topology_pattern(graph)
        conditions = check_conditions(pattern, self.num_layers)
        # With interleaving enabled, the periodic fully-connected pass
        # itself supplies the global reach C2/C3 demand — every node pair
        # interacts directly on each dense pass.  So the sparse pattern is
        # acceptable whenever it is connected with self-loops; only without
        # interleaving do the strict per-pattern conditions gate it.
        # (Without this, tree-shaped molecules and large-diameter graphs —
        # which the paper trains with interleaved attention in Fig. 10/11 —
        # would permanently fall back to dense.)
        sparse_ok = conditions.all_hold
        if not sparse_ok and self.interleave_period > 0:
            from ..graph.algorithms import is_connected
            sparse_ok = (conditions.c1_self_loops
                         and is_connected(pattern.to_graph()))

        reformed = None
        db = 0
        if bounds is not None:
            db = select_subblock_dim(self.device, self.hidden_dim,
                                     pattern.num_entries, cluster_dim=k)
            db = max(min(db, max(graph.num_nodes // (2 * k), 2)), 2)
            beta_g = pattern.sparsity()
            if self.autotuner is None and self.use_elastic:
                self.autotuner = AutoTuner(beta_g=beta_g)
            beta = (self.fixed_beta_thre if self.fixed_beta_thre is not None
                    else (self.autotuner.beta_thre if self.autotuner else beta_g))
            self._beta_in_use = beta
            reformed = reform_pattern(pattern, bounds, beta_thre=beta, db=db)

        if self.scheduler is None:
            self.scheduler = InterleaveScheduler(
                period=self.interleave_period,
                conditions_ok=sparse_ok)

        return SequenceContext(
            graph=graph, reordering=reordering, pattern=pattern,
            reformed=reformed, conditions=conditions,
            cluster_dim=k, subblock_dim=db,
            preprocess_seconds=time.perf_counter() - t0,
            sparse_ok=sparse_ok)

    def prepare_inference(self, g: CSRGraph) -> SequenceContext:
        """Preprocess for inference without moving any runtime state.

        ``prepare_graph`` records the β_thre it reformed with in
        ``_beta_in_use`` (what lets :meth:`refresh` detect an Auto-Tuner
        move) and lazily creates the interleave scheduler and Auto Tuner
        from the *prepared graph's* conditions and sparsity.  An
        inference call — between epochs, or on a subgraph before
        training ever starts — must leave all three exactly as they
        were, or the training run would interleave and tune against the
        inference input's statistics.
        """
        prev = (self._beta_in_use, self.scheduler, self.autotuner)
        try:
            return self.prepare_graph(g)
        finally:
            self._beta_in_use, self.scheduler, self.autotuner = prev

    def state_fingerprint(self):
        """β_thre inputs that change what reformation an inference
        preprocessing pass would produce — an Auto-Tuner move between
        calls must miss any cache keyed on it."""
        return (self.fixed_beta_thre,
                self.autotuner.beta_thre if self.autotuner is not None else None)

    # -- per-iteration plan ------------------------------------------------ #
    def plan(self, ctx: SequenceContext) -> ExecutionPlan:
        scheduler = self.scheduler
        if scheduler is None:  # prepare_graph not called (defensive)
            scheduler = InterleaveScheduler(period=self.interleave_period)
            self.scheduler = scheduler
        if not scheduler.use_sparse() or ctx.pattern is None:
            # fully-connected interleave pass (FP32, bias supported)
            return ExecutionPlan("dense", None, use_bias=True)
        pattern = ctx.reformed.pattern if ctx.reformed is not None else ctx.pattern
        return ExecutionPlan("sparse", pattern, use_bias=True)

    def eval_plan(self, ctx: SequenceContext) -> ExecutionPlan:
        """Evaluation always runs the (cheap) sparse pattern, statelessly.

        Consults only the context's own ``sparse_ok`` (recorded at
        preprocessing) — never the engine-global scheduler, which may
        reflect a different graph than the one being evaluated.
        """
        if ctx.pattern is None or not ctx.sparse_ok:
            return ExecutionPlan("dense", None, use_bias=True)
        pattern = ctx.reformed.pattern if ctx.reformed is not None else ctx.pattern
        return ExecutionPlan("sparse", pattern, use_bias=True)

    # -- runtime feedback -------------------------------------------------- #
    def observe_epoch(self, loss: float, epoch_time_s: float) -> None:
        if self.autotuner is not None and self.fixed_beta_thre is None:
            self.autotuner.observe(loss, epoch_time_s)

    def refresh(self, ctx: SequenceContext) -> SequenceContext:
        """Re-reform the pattern if the Auto Tuner moved β_thre.

        The superseded reformed pattern's cached workspace is dropped
        eagerly — ECR reformation is the one runtime event that
        invalidates pattern-derived state.
        """
        if (self.autotuner is None or ctx.reordering is None
                or ctx.pattern is None or self.fixed_beta_thre is not None):
            return ctx
        beta = self.autotuner.beta_thre
        if self._beta_in_use is not None and np.isclose(beta, self._beta_in_use):
            return ctx
        self._beta_in_use = beta
        if ctx.reformed is not None:
            invalidate_workspace(ctx.reformed.pattern)
        ctx.reformed = reform_pattern(ctx.pattern, ctx.reordering.bounds,
                                      beta_thre=beta, db=max(ctx.subblock_dim, 2))
        return ctx


# ------------------------------------------------------------------ #
# engine registry / factory
# ------------------------------------------------------------------ #
_ENGINES: dict[str, type[Engine]] = {}


def register_engine(cls: type[Engine]) -> type[Engine]:
    """Class decorator: register an engine under its ``name`` attribute."""
    _ENGINES[cls.name] = cls
    return cls


def engine_names() -> list[str]:
    """Registered engine names (the CLI ``--engine`` choice list)."""
    return sorted(_ENGINES)


def engine_registry() -> dict[str, type[Engine]]:
    """Name → engine class mapping (copy; mutate via register_engine)."""
    return dict(_ENGINES)


def deployable_engine_kinds() -> dict[str, str]:
    """Engine name → attention kind, for paper-scale cost modeling.

    Engines flagged ``deployable = False`` (e.g. fixed-pattern, which
    needs a concrete builder) are excluded.
    """
    return {name: cls.attention_kind
            for name, cls in sorted(_ENGINES.items())
            if getattr(cls, "deployable", True)}


for _cls in (GPRawEngine, GPFlashEngine, GPSparseEngine, FixedPatternEngine,
             TorchGTEngine):
    register_engine(_cls)


def make_engine(name: str, num_layers: int = 4, hidden_dim: int = 64,
                **kwargs) -> Engine:
    """Engine factory by registered name (gp-raw / gp-flash / gp-sparse /
    fixed-pattern / torchgt / any plugin).

    ``fixed-pattern`` accepts either an explicit ``builder`` callable or a
    ``pattern`` name resolved through the pattern-builder registry (e.g.
    ``make_engine("fixed-pattern", pattern="bigbird")``).
    """
    name = name.lower()
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}; registered engines: "
                         f"{', '.join(engine_names())}") from None
    return cls.build(num_layers=num_layers, hidden_dim=hidden_dim, **kwargs)
