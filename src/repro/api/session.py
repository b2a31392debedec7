"""The :class:`Session` — one object that owns a run's full lifecycle.

Callers used to hand-wire dataset→reorder→engine→model→trainer through
free functions with long keyword lists.  A ``Session`` takes one
:class:`~repro.api.config.RunConfig` and owns everything behind it:

>>> from repro.api import RunConfig, DataConfig, Session
>>> s = Session(RunConfig(data=DataConfig("ogbn-arxiv", scale=0.2)))
>>> record = s.fit()
>>> logits = s.predict()            # serving-shaped batched inference
>>> s.save_config("run.json")       # replay later: Session.from_config_file

Dataset, model and engine are built lazily (and exactly once) from the
config; ``fit()`` runs the matching trainer (full-graph, sampled-sequence
or graph-level) with the config's seed threaded through model init,
engine randomness and training noise; ``evaluate()`` scores a split;
``predict()`` is the inference entry point — batched logits over node
subsets or per-graph outputs.  Callbacks passed to ``fit()`` receive the
:mod:`repro.train.callbacks` hooks (``on_epoch_end``, ``on_reform``, …).
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from typing import Sequence

import numpy as np

from .._clock import now as _obs_now
from ..backend import compile_plan, resolve_backend
from ..core import make_engine
from ..obs import hooks as _hooks
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..graph import dataset_fingerprint, load_graph_dataset, load_node_dataset
from ..models import build_model
from ..tensor import no_grad, precision_scope
from ..train import (
    Callback,
    TrainingRecord,
    batched_node_predictions,
    planned_forward,
    prepare_inputs,
    train_graph_task,
    train_node_classification,
    train_node_classification_batched,
)
from ..train.metrics import accuracy, mae
from .config import RunConfig

__all__ = ["Session"]


class Session:
    """Owns one run: config → dataset/model/engine → fit/evaluate/predict."""

    def __init__(self, config: RunConfig, dataset=None):
        """``dataset`` (optional) injects an already-loaded dataset that
        matches ``config.data`` — sweeps over many engine/model variants
        of the same data can share one loaded instance instead of
        re-synthesizing it per session."""
        if not isinstance(config, RunConfig):
            raise TypeError(f"Session takes a RunConfig, got {type(config).__name__}")
        if dataset is not None and dataset.name != config.data.name:
            raise ValueError(
                f"injected dataset {dataset.name!r} does not match "
                f"config.data.name {config.data.name!r}")
        self.config = config
        self.record: TrainingRecord | None = None
        self._dataset = dataset
        self._model = None
        self._engine = None
        self._fitting = False
        self._wal = None
        # memoized (dataset, graph_version, context, encodings) for
        # repeated full-graph inference; keyed by dataset identity AND
        # its graph_version — a session whose dataset object is swapped
        # (shared-dataset sweeps, pool admission) or mutated in place by
        # a GraphDelta (possibly through *another* session sharing the
        # dataset) must never serve a context built for different
        # topology — and dropped whenever fit() may have moved engine
        # runtime state or a checkpoint load moved the weights
        self._infer_cache = None
        # compiled-backend cache: LRU of prepared serving entries keyed by
        # (scope, dataset identity, graph_version[, node-set bytes]) →
        # (ctx, enc, CompiledProgram | None).  A None program records that
        # compilation was attempted and fell back, so the reference path
        # is not re-traced on every call.  Weights are folded into the
        # programs as constants, so every weight-moving event (fit, a
        # checkpoint load) must clear this alongside _infer_cache.
        self._compiled: OrderedDict = OrderedDict()

    _COMPILED_CAP = 8  # distinct serving plans kept warm per session

    @property
    def backend_spec(self):
        """The resolved :class:`~repro.backend.BackendSpec` for this run."""
        return resolve_backend(self.config.engine.backend)

    def _compiled_get(self, key):
        entry = self._compiled.get(key)
        if entry is not None:
            self._compiled.move_to_end(key)
        return entry

    def compiled_stats(self) -> dict:
        """Counters for the compiled-backend cache (observability).

        ``entries`` counts cached serving plans (including reference
        fallbacks), ``programs`` counts the ones holding a live compiled
        program, ``jit`` reports whether any program uses numba kernels.
        """
        progs = [e[2] for e in self._compiled.values()]
        return {"entries": len(progs),
                "programs": sum(p is not None for p in progs),
                "jit": any(p is not None and p.uses_jit for p in progs)}

    def _compiled_put(self, key, entry):
        self._compiled[key] = entry
        self._compiled.move_to_end(key)
        while len(self._compiled) > self._COMPILED_CAP:
            self._compiled.popitem(last=False)

    @classmethod
    def from_config_file(cls, path: str) -> "Session":
        """Rebuild a session from a ``save_config`` JSON file."""
        return cls(RunConfig.load(path))

    # -- lazily-built components ---------------------------------------- #
    @property
    def task(self) -> str:
        """The model-level task string derived from the dataset."""
        ds, c = self.dataset, self.config
        if c.data.task_kind == "node":
            return "node-classification"
        return "regression" if ds.num_classes == 0 else "graph-classification"

    @property
    def dataset(self):
        """The loaded dataset (synthesized on first access, then cached)."""
        if self._dataset is None:
            c = self.config
            loader = (load_node_dataset if c.data.task_kind == "node"
                      else load_graph_dataset)
            data_seed = c.data.seed if c.data.seed is not None else c.seed
            self._dataset = loader(c.data.name, scale=c.data.scale,
                                   seed=data_seed)
        return self._dataset

    @property
    def model(self):
        """The built model (constructed once from config + dataset dims)."""
        if self._model is None:
            ds, c = self.dataset, self.config
            if c.data.task_kind == "node":
                feature_dim, num_classes = ds.features.shape[1], ds.num_classes
            else:
                feature_dim, num_classes = ds.features[0].shape[1], ds.num_classes
            self._model = build_model(
                c.model.name, feature_dim, num_classes, task=self.task,
                seed=c.seed, **c.model.overrides())
        return self._model

    @property
    def model_config(self):
        """The resolved architecture config (registry defaults + overrides)."""
        return self.model.config

    @property
    def engine(self):
        """The built execution engine (constructed once from the config)."""
        if self._engine is None:
            self._engine = self._build_engine()
        return self._engine

    def _build_engine(self):
        from ..core import engine_registry

        c = self.config
        mc = self.model_config
        kwargs = dict(c.engine.options)
        if c.engine.pattern is not None:
            kwargs["pattern"] = c.engine.pattern
        # thread the cross-cutting knobs only into engines whose
        # constructor accepts them (TorchGT: all three; GP-Flash: precision)
        cls = engine_registry()[c.engine.name.lower()]
        accepted = set(inspect.signature(cls.__init__).parameters)
        for key, value in (("precision", c.engine.precision),
                           ("interleave_period", c.engine.interleave_period),
                           ("seed", c.seed)):
            if value is not None and key in accepted:
                kwargs[key] = value
        return make_engine(c.engine.name, num_layers=mc.num_layers,
                           hidden_dim=mc.hidden_dim, **kwargs)

    # -- lifecycle ------------------------------------------------------- #
    def fit(self, callbacks: Sequence[Callback] | Callback | None = None,
            checkpoint_path: str | None = None,
            resume_path: str | None = None) -> TrainingRecord:
        """Train per the config; returns (and stores) the TrainingRecord.

        ``checkpoint_path`` writes a full training checkpoint (model +
        optimizer + noise-stream positions + epoch) after every epoch;
        ``resume_path`` restores one and continues from its epoch to
        ``config.train.epochs`` (see :meth:`resume`).
        """
        c, t = self.config, self.config.train
        ds, model, engine = self.dataset, self.model, self.engine
        # engine runtime state (β_thre, …) moves during training, so any
        # cached inference context — including one built by a callback
        # calling predict() mid-fit — is stale on both sides of the run;
        # _fitting additionally disables caching *between* epochs, where
        # an Auto-Tuner re-reform can invalidate a context at any time
        self._infer_cache = None
        self._compiled.clear()  # folded weights are about to move
        self._fitting = True
        try:
            persist = dict(checkpoint_path=checkpoint_path,
                           resume_path=resume_path)
            if c.data.task_kind == "graph":
                self.record = train_graph_task(
                    model, ds, engine, epochs=t.epochs, lr=t.lr,
                    weight_decay=t.weight_decay, grad_clip=t.grad_clip,
                    lap_pe_dim=t.lap_pe_dim, seed=c.seed, patience=t.patience,
                    callbacks=callbacks, **persist)
            elif t.seq_len is not None:
                self.record = train_node_classification_batched(
                    model, ds, engine, seq_len=t.seq_len, epochs=t.epochs,
                    lr=t.lr, weight_decay=t.weight_decay, grad_clip=t.grad_clip,
                    lap_pe_dim=t.lap_pe_dim, seed=c.seed, patience=t.patience,
                    callbacks=callbacks, **persist)
            else:
                self.record = train_node_classification(
                    model, ds, engine, epochs=t.epochs, lr=t.lr,
                    weight_decay=t.weight_decay, grad_clip=t.grad_clip,
                    lap_pe_dim=t.lap_pe_dim, eval_every=t.eval_every,
                    seed=c.seed, patience=t.patience, callbacks=callbacks,
                    **persist)
        finally:
            self._infer_cache = None
            self._compiled.clear()
            self._fitting = False
        return self.record

    def evaluate(self, split: str = "test") -> dict[str, float]:
        """Score one split (``train`` / ``val`` / ``test``) with the task metric."""
        if split not in ("train", "val", "test"):
            raise ValueError(f"unknown split {split!r} (train/val/test)")
        ds = self.dataset
        if self.config.data.task_kind == "node":
            logits = self.predict()
            mask = getattr(ds, f"{split}_mask")
            return {"accuracy": accuracy(logits, ds.labels, mask)}
        idx = getattr(ds, f"{split}_idx")
        preds = self.predict(indices=idx)
        if ds.num_classes == 0:
            return {"mae": mae(preds.reshape(-1), ds.targets[idx])}
        return {"accuracy": accuracy(preds, ds.targets[idx])}

    # -- streaming updates ------------------------------------------------ #
    @property
    def graph_version(self) -> int:
        """The dataset's monotonic mutation version (0 = as loaded).

        Bumped by every applied :class:`~repro.stream.GraphDelta` —
        including one applied through *another* session sharing this
        dataset object.  Serving results are stamped with the version
        they were computed at, so clients can detect staleness.
        """
        return int(getattr(self.dataset, "graph_version", 0))

    def _stream_tag(self) -> tuple:
        """The workspace-scope tag for this session's dataset object."""
        return ("dataset", id(self.dataset))

    def _stamp_context(self, ctx) -> None:
        """Stamp a prepared context's patterns for targeted invalidation.

        Records the dataset tag plus the original node ids each pattern
        row covers (the cluster-reordering inverse, or the identity for
        unreordered layouts), so a later delta drops exactly the
        workspaces it staled and leaves other datasets' warm.
        """
        from ..attention.workspace import stamp_workspace_scope

        inv = ctx.node_permutation_inverse()
        node_ids = inv if inv is not None else None
        for pattern in (ctx.pattern,
                        ctx.reformed.pattern if ctx.reformed else None):
            if pattern is not None:
                stamp_workspace_scope(pattern, tag=self._stream_tag(),
                                      node_ids=node_ids)

    def attach_wal(self, log) -> int:
        """Route this session's mutations through a durable WAL.

        Every subsequent :meth:`apply_delta` goes through
        :func:`repro.stream.log_apply` — validate, append to ``log``,
        apply, maybe snapshot — so a crashed process replays back to
        the last acknowledged ``graph_version``.  Records in ``log``
        past the dataset's current version are replayed immediately;
        returns the number replayed.
        """
        from ..attention.workspace import invalidate_touching

        self._wal = log
        applied = log.replay(self.dataset)
        if applied:
            # replay bypassed this session's per-delta invalidation, so
            # drop everything scoped to this dataset conservatively
            invalidate_touching(
                np.arange(self.dataset.num_nodes, dtype=np.int64),
                tag=self._stream_tag())
            self._infer_cache = None
            self._compiled.clear()
        return applied

    def apply_delta(self, delta, log=None, version: int | None = None):
        """Apply a :class:`~repro.stream.GraphDelta` to the live dataset.

        The topology change goes through the incremental CSR rebuild
        (only touched rows recomputed), the dataset's ``graph_version``
        is bumped, this session's inference cache is dropped, and
        cached pattern workspaces are invalidated **targeted**: only
        workspaces over this dataset whose rows intersect the delta's
        touched set are dropped — other datasets' (and disjoint
        subgraphs') workspaces stay warm.  Prepared contexts and
        encodings are rebuilt lazily on the next :meth:`predict`.

        With a WAL — ``log``, or else the one :meth:`attach_wal`
        attached — the delta is committed through
        :func:`repro.stream.log_apply` (validate, append, apply,
        snapshot cadence), making the mutation durable.  ``version`` is
        the ``graph_version`` an outside authority (a cluster router, a
        tailed log) says this delta produces: the log records it, and a
        dataset that had fallen behind is aligned to it so redelivery
        guards stay aligned (node additions are not idempotent — a
        requeued delta must never apply twice).

        Node-level datasets only; raises mid-``fit()`` (the trainer owns
        the graph then).  Returns the :class:`~repro.stream.DeltaReport`.
        """
        from ..attention.workspace import invalidate_touching
        from ..stream import apply_delta as stream_apply
        from ..stream import log_apply

        if self.config.data.task_kind != "node":
            raise ValueError(
                "apply_delta supports node-level datasets; graph-level "
                "datasets are collections of independent frozen graphs")
        if self._fitting:
            raise RuntimeError("cannot apply a delta while fit() is running")
        log = self._wal if log is None else log
        if log is not None:
            report = log_apply(log, self.dataset, delta, version)
        else:
            report = stream_apply(self.dataset, delta)
        if version is not None and self.graph_version < version:
            self.dataset.graph_version = version
        invalidate_touching(report.touched_rows, tag=self._stream_tag())
        self._infer_cache = None
        self._compiled.clear()  # folded encodings reflect the old topology
        return report

    # -- weights ---------------------------------------------------------- #
    def load_weights(self, path: str) -> None:
        """Load checkpoint weights into the live model, dropping caches.

        The audited mutation point for serving-time weight swaps (pool
        admission, hot reload): every inference-side cache that could
        embed model state is invalidated here, so a live session never
        serves logits computed from the pre-load weights.  (The cached
        ``(ctx, enc)`` pair is weight-independent today — invalidating
        it keeps that an implementation detail rather than a trap.)
        """
        from ..train.checkpointing import load_checkpoint

        load_checkpoint(path, self.model)
        self._infer_cache = None
        self._compiled.clear()  # compiled programs fold the old weights

    # -- inference ------------------------------------------------------- #
    def predict(self, nodes: np.ndarray | None = None,
                indices: np.ndarray | None = None,
                batch_size: int | None = None) -> np.ndarray:
        """Batched inference — the serving-shaped entry point.

        Node-level tasks return logits in **original node order**:
        all nodes by default, or the induced subgraph of ``nodes`` (a
        node-id array); ``batch_size`` splits inference into sampled
        sequences of that length (deployment-matched to ``seq_len``
        training).  Graph-level tasks return stacked per-graph outputs
        for ``indices`` (default: every graph in the dataset).
        """
        if self.config.data.task_kind == "graph":
            if nodes is not None or batch_size is not None:
                raise ValueError("nodes=/batch_size= apply to node-level "
                                 "datasets; use indices= for graph tasks")
            return self._predict_graphs(indices)
        if indices is not None:
            raise ValueError("indices= applies to graph-level datasets; "
                             "use nodes= for node tasks")
        return self._predict_nodes(nodes, batch_size)

    def _predict_nodes(self, nodes, batch_size) -> np.ndarray:
        ds, engine, model = self.dataset, self.engine, self.model
        t = self.config.train
        with precision_scope(engine.precision):
            if batch_size is not None:
                if nodes is not None:
                    raise ValueError("pass either nodes= or batch_size=, not both")
                rng = np.random.default_rng(self.config.seed)
                return batched_node_predictions(model, ds, engine, batch_size,
                                                rng, lap_pe_dim=t.lap_pe_dim)
            # the fused backend is active only off the training path (fit()
            # moves weights and tuner state continuously) and for precisions
            # whose fast path is bitwise-reproducible (bf16 rounds every op
            # output, which a fused replay cannot mirror cheaply)
            spec = self.backend_spec
            fused = (spec.compiled and not self._fitting
                     and spec.supports_precision(engine.precision))
            version = getattr(ds, "graph_version", 0)
            # cache keys carry the dataset's content fingerprint (stable
            # across handles onto the same store bytes) rather than the
            # handle's id(), so store-backed sessions share compiled
            # programs and prepared contexts across reopens
            ds_key = dataset_fingerprint(ds)
            entry = None
            if nodes is None:
                # repeated full-graph inference reuses one prepared context:
                # cluster reordering + pattern + ECR reformation dominate
                # small-model inference cost and are identical across calls
                # while the engine is idle (mid-fit, a re-reform can land
                # between calls, so caching is suspended) and the topology
                # is unchanged (an applied GraphDelta bumps graph_version,
                # which misses here even when another session holding the
                # same dataset object applied it)
                key = ("full", ds_key, version)
                if (self._infer_cache is not None
                        and self._infer_cache[0] == ds_key
                        and self._infer_cache[1] == version):
                    _, _, ctx, enc = self._infer_cache
                else:
                    ctx, enc = prepare_inputs(engine, ds.graph, t.lap_pe_dim,
                                              train=False)
                    self._stamp_context(ctx)
                    if not self._fitting:
                        self._infer_cache = (ds_key, version, ctx, enc)
                feats = ds.features
            else:
                nodes = np.asarray(nodes)
                sorted_nodes = np.sort(nodes)
                key = ("nodes", ds_key, version, sorted_nodes.tobytes())
                entry = self._compiled_get(key) if fused else None
                if entry is not None:
                    # the compiled cache carries the prepared subgraph
                    # context and encodings too — subgraph extraction and
                    # encoding recomputation dominate repeated subset
                    # serving, and the entry's program was traced against
                    # exactly this context
                    ctx, enc = entry[0], entry[1]
                else:
                    graph, _ = ds.graph.subgraph(sorted_nodes)
                    ctx, enc = prepare_inputs(engine, graph, t.lap_pe_dim,
                                              train=False)
                feats = ds.features[sorted_nodes]
            inv = ctx.node_permutation_inverse()
            model.eval()
            # np.asarray materializes store-backed feature views; in-RAM
            # arrays pass through untouched
            feats_in = feats[inv] if inv is not None else np.asarray(feats)
            prog = None
            if fused:
                if entry is None and nodes is None:
                    entry = self._compiled_get(key)
                    if entry is not None and entry[0] is not ctx:
                        entry = None  # context was rebuilt; program is stale
                if entry is not None:
                    prog = entry[2]
                else:
                    def ref_forward(f):
                        with no_grad():
                            return planned_forward(model, engine, ctx, f, enc,
                                                   train=False)
                    t0 = _obs_now()
                    prog = compile_plan(ref_forward, feats_in,
                                        engine.precision)
                    seconds = _obs_now() - t0
                    outcome = "compiled" if prog is not None else "fallback"
                    get_registry().counter(
                        "repro_backend_compile_total",
                        "compile attempts by outcome (compiled / fallback)",
                        labels=("outcome",)).inc(outcome=outcome)
                    _hooks.fire("on_compile", key=key[0], outcome=outcome,
                                seconds=seconds)
                    self._compiled_put(key, (ctx, enc, prog))
            if prog is not None and prog.input_shape == feats_in.shape:
                tracer = get_tracer()
                if tracer.enabled and tracer.current() is not None:
                    with tracer.span("compiled_replay",
                                     attrs={"steps": prog.num_steps}):
                        logits = prog.run(feats_in)
                else:
                    logits = prog.run(feats_in)
            else:
                with no_grad():
                    out = planned_forward(model, engine, ctx, feats_in, enc,
                                          train=False)
                logits = out.data
            if inv is not None:  # undo the cluster reordering
                restored = np.empty_like(logits)
                restored[inv] = logits
                logits = restored
            if nodes is not None:  # back to the caller's node order
                order = np.argsort(np.argsort(nodes))
                logits = logits[order]
            return logits

    def _predict_graphs(self, indices) -> np.ndarray:
        ds, engine, model = self.dataset, self.engine, self.model
        t = self.config.train
        idx = np.arange(ds.num_graphs) if indices is None else np.asarray(indices)
        outs = []
        model.eval()
        with precision_scope(engine.precision), no_grad():
            for i in idx:
                ctx, enc = prepare_inputs(engine, ds.graphs[i], t.lap_pe_dim,
                                          train=False)
                feats = ds.features[i]
                inv = ctx.node_permutation_inverse()
                if inv is not None:
                    feats = feats[inv]
                out = planned_forward(model, engine, ctx, feats, enc,
                                      train=False)
                outs.append(out.data.reshape(-1))
        return np.stack(outs)

    # -- persistence ----------------------------------------------------- #
    def save_config(self, path: str) -> None:
        """Write the run's JSON config for exact replay via ``repro run``."""
        self.config.save(path)

    def save_checkpoint(self, path: str) -> None:
        """Write the session's model weights as a checkpoint archive.

        The archive embeds the run config and the number of epochs
        trained as metadata; it is what a
        :class:`~repro.serve.pool.SessionPool` loads on admission, and
        :func:`~repro.train.checkpointing.load_checkpoint` reads it.
        For a *resumable* mid-training checkpoint (optimizer state
        included), pass ``checkpoint_path=`` to :meth:`fit` instead.
        """
        from ..train import save_checkpoint
        # epochs_trained counts pre-resume epochs too, so a checkpoint
        # saved after resume() reports the model's full training history
        epochs_done = self.record.epochs_trained if self.record else 0
        save_checkpoint(path, self.model, epoch=epochs_done,
                        metadata={"config": self.config.to_dict(),
                                  "task": self.task})

    def resume(self, path: str,
               callbacks: Sequence[Callback] | Callback | None = None,
               checkpoint_path: str | None = None) -> TrainingRecord:
        """Continue training from a mid-fit checkpoint to the config's epochs.

        ``path`` must be a per-epoch training checkpoint written by
        ``fit(checkpoint_path=…)`` (it holds optimizer state and
        noise-stream positions, so the continued run is bit-compatible
        with the uninterrupted one for engines without runtime tuner
        state).  The returned record covers only the resumed epochs.
        ``checkpoint_path`` keeps checkpointing the continued run.
        """
        return self.fit(callbacks=callbacks, checkpoint_path=checkpoint_path,
                        resume_path=path)

    def __repr__(self) -> str:
        c = self.config
        return (f"Session(dataset={c.data.name!r}, model={c.model.name!r}, "
                f"engine={c.engine.name!r}, seed={c.seed}, "
                f"fitted={self.record is not None})")
