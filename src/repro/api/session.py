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
config; ``fit()`` runs the matching training task (full-graph,
sampled-sequence or graph-level) under the one epoch loop, with the
config's seed threaded through model init, engine randomness and
training noise; ``evaluate()`` scores a split;
``predict()`` is the inference entry point — batched logits over node
subsets or per-graph outputs.  Callbacks passed to ``fit()`` receive the
:mod:`repro.train.callbacks` hooks (``on_epoch_end``, ``on_reform``, …).
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..backend import compile_plan, resolve_backend
from ..core import make_engine
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
    run_epochs,
)
from ..train.batching import SampledSequenceTask
from ..train.trainer import FullGraphTask, GraphTask
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
        # the one derivation cache: an LRU keyed by everything an entry
        # is a function of — (dataset fingerprint, graph_version,
        # node-set bytes or None for the full graph, engine state
        # fingerprint) → (ctx, enc, program, weight version the program
        # was traced at); a graph collection's prepared graphs are one
        # entry, slot "graphs" → ({graph index: (ctx, enc)}, None, None,
        # None), which grows to at most the collection's size.  A
        # mutation moves a key component and clears nothing; stale
        # entries age out.  A traced-at of None means no
        # compile was attempted; a None program after an attempt records
        # a fallback, so the reference path is not re-traced every call.
        self._cache: OrderedDict = OrderedDict()

    _COMPILED_CAP = 8  # distinct serving plans kept warm per session

    @property
    def backend_spec(self):
        """The resolved :class:`~repro.backend.BackendSpec` for this run."""
        return resolve_backend(self.config.engine.backend)

    def compiled_stats(self) -> dict:
        """Counters for the compiled-backend cache (observability).

        ``entries`` counts cached serving plans a compile was attempted
        for (including reference fallbacks), ``programs`` counts the
        ones holding a compiled program.
        """
        traced = [e[2] for e in self._cache.values() if e[3] is not None]
        return {"entries": len(traced),
                "programs": sum(p is not None for p in traced)}

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
        if c.data.task_kind == "graph":
            task = GraphTask(model, ds, engine, t.lap_pe_dim)
        elif t.seq_len is not None:
            task = SampledSequenceTask(model, ds, engine, t.seq_len,
                                       t.lap_pe_dim, seed=c.seed)
        else:
            task = FullGraphTask(model, ds, engine, t.lap_pe_dim)
        # refuses apply_delta and keeps mid-fit predicts off the fused
        # backend; tuner and weight moves reach the cache through its key
        self._fitting = True
        try:
            self.record = run_epochs(
                task, t.epochs, lr=t.lr, weight_decay=t.weight_decay,
                grad_clip=t.grad_clip, eval_every=t.eval_every, seed=c.seed,
                patience=t.patience, callbacks=callbacks,
                checkpoint_path=checkpoint_path, resume_path=resume_path)
        finally:
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
        """Stamp a prepared context's patterns for targeted release.

        Records the dataset tag plus the original node ids each pattern
        row covers (the cluster-reordering inverse, or the identity for
        unreordered layouts), so a later delta frees exactly the
        workspaces it staled and leaves other datasets' warm.  This is
        memory management only: a stale context is never served, since
        the delta's ``graph_version`` bump moves the cache key.
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
            # replay bypassed this session's per-delta workspace release,
            # so release everything scoped to this dataset
            invalidate_touching(
                np.arange(self.dataset.num_nodes, dtype=np.int64),
                tag=self._stream_tag())
        return applied

    def apply_delta(self, delta, log=None, version: int | None = None):
        """Apply a :class:`~repro.stream.GraphDelta` to the live dataset.

        The topology change goes through the incremental CSR rebuild
        (only touched rows recomputed) and the dataset's
        ``graph_version`` is bumped, so every cached prepared context,
        encoding and program misses from then on and is rebuilt lazily
        on the next :meth:`predict`.  Cached pattern workspaces are
        released **targeted**: only workspaces over this dataset whose
        rows intersect the delta's touched set are dropped — other
        datasets' (and disjoint subgraphs') workspaces stay warm.

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
        return report

    # -- weights ---------------------------------------------------------- #
    def load_weights(self, path: str) -> None:
        """Load checkpoint weights into the live model.

        The serving-time weight swap (pool admission, hot reload).  The
        load moves the model's ``weight_version``, so a compiled program
        traced at the old weights is re-traced on its next replay; the
        prepared contexts and encodings are weight-independent and stay.
        """
        from ..train.checkpointing import load_checkpoint

        load_checkpoint(path, self.model)

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
            if nodes is not None:
                nodes = np.asarray(nodes)
                if nodes.size and (nodes.dtype.kind not in "iu"
                                   or nodes.min() < 0
                                   or nodes.max() >= ds.num_nodes):
                    raise ValueError(f"nodes= must be integer node ids in "
                                     f"[0, {ds.num_nodes}), got {nodes!r}")
                sorted_nodes = np.sort(nodes)
            model.eval()
            logits, inv = self._forward(
                None if nodes is None else sorted_nodes.tobytes(),
                # subset serving adds subgraph extraction to the prepare
                lambda: (ds.graph if nodes is None
                         else ds.graph.subgraph(sorted_nodes)[0]),
                ds.features if nodes is None else ds.features[sorted_nodes],
                fused)
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
        idx = np.arange(ds.num_graphs) if indices is None else np.asarray(indices)
        # one cache entry holds the collection's prepared graphs and each
        # call adds only the graphs it is missing, so any subset, order or
        # batch union reuses earlier prepares; an entry per graph let a
        # split of more than _COMPILED_CAP graphs evict itself
        key = self._cache_key("graphs")
        entry = self._cache.get(key) or ({}, None, None, None)
        self._remember(key, entry)
        prepared = entry[0]
        model.eval()
        with precision_scope(engine.precision):
            outs = []
            for i in map(int, idx):
                if i not in prepared:
                    prepared[i] = prepare_inputs(engine, model, ds.graphs[i],
                                                 self.config.train.lap_pe_dim,
                                                 train=False)
                # the reference forward: no program is compiled per graph
                out, _inv = self._run_prepared(*prepared[i], ds.features[i])
                outs.append(out.reshape(-1))
            return np.stack(outs)

    def _cache_key(self, slot) -> tuple:
        """The derivation-cache key of ``slot`` at the current state."""
        ds = self.dataset
        # keyed on the dataset's content fingerprint (stable across
        # handles onto the same store bytes) rather than the handle's
        # id(), so store-backed sessions share entries across reopens
        return (dataset_fingerprint(ds), getattr(ds, "graph_version", 0),
                slot, self.engine.state_fingerprint())

    def _remember(self, key, entry) -> None:
        """Store ``entry`` as the most recently used; evict past the cap."""
        self._cache[key] = entry
        self._cache.move_to_end(key)
        if len(self._cache) > self._COMPILED_CAP:
            self._cache.popitem(last=False)

    def _forward(self, slot, graph_of, feats, fused: bool):
        """Prepare (through the cache) → permute → forward one graph.

        ``slot`` is the key's node-set component (``None``: the full
        node graph; a subset's node-id bytes); ``graph_of()`` builds the
        graph on a miss.  Returns the output in the prepared node order
        and its inverse permutation.
        """
        key = self._cache_key(slot)
        entry = self._cache.get(key)
        if entry is None:
            # cluster reordering + pattern + ECR reformation and the
            # encodings dominate small-model inference cost
            ctx, enc = prepare_inputs(self.engine, self.model, graph_of(),
                                      self.config.train.lap_pe_dim,
                                      train=False)
            if slot is None:
                self._stamp_context(ctx)
            entry = (ctx, enc, None, None)
        self._remember(key, entry)
        program = (lambda feats_in: self._program(key, feats_in)) if fused else None
        return self._run_prepared(entry[0], entry[1], feats, program)

    def _program(self, key, feats_in):
        """Cache entry ``key``'s compiled program at the current weights.

        Programs fold the weights as constants, so one traced at another
        weight version is re-traced on ``feats_in``; ``None`` records a
        fallback, which is not re-traced until the weights move.
        """
        engine, model = self.engine, self.model
        ctx, enc, prog, traced_at = self._cache[key]
        if traced_at == model.weight_version:
            return prog

        def ref_forward(f):
            with no_grad():
                return planned_forward(model, engine, ctx, f, enc, train=False)
        prog = compile_plan(ref_forward, feats_in, engine.precision)
        outcome = "compiled" if prog is not None else "fallback"
        get_registry().counter(
            "repro_backend_compile_total",
            "compile attempts by outcome (compiled / fallback)",
            labels=("outcome",)).inc(outcome=outcome)
        self._cache[key] = (ctx, enc, prog, model.weight_version)
        return prog

    def _run_prepared(self, ctx, enc, feats, program=None):
        """Permute ``feats`` into ``ctx``'s node order and forward them.

        ``program(feats_in)``, when given, returns a compiled program to
        replay (``None``: run the reference forward).  Returns the output
        in the prepared node order and its inverse permutation.
        """
        inv = ctx.node_permutation_inverse()
        # np.asarray materializes store-backed feature views; in-RAM
        # arrays pass through untouched
        feats_in = feats[inv] if inv is not None else np.asarray(feats)
        prog = program(feats_in) if program is not None else None
        if prog is not None and prog.input_shape == feats_in.shape:
            tracer = get_tracer()
            if tracer.enabled and tracer.current() is not None:
                with tracer.span("compiled_replay",
                                 attrs={"steps": prog.num_steps}):
                    return prog.run(feats_in), inv
            return prog.run(feats_in), inv
        with no_grad():
            out = planned_forward(self.model, self.engine, ctx, feats_in,
                                  enc, train=False)
        return out.data, inv

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
