"""Typed, serializable run configuration — the public contract of a run.

A :class:`RunConfig` is the complete, JSON-serializable description of one
training/inference run: which dataset at what scale, which model with
which architecture overrides, which engine with which system knobs, and
the optimization schedule.  Every name-valued field is validated against
the corresponding registry **at construction time** — dataset names
against :func:`repro.graph.available_datasets`, model names against the
:mod:`repro.models.registry`, engine names against the engine registry,
pattern names against the attention pattern-builder registry — so a typo
fails when the config is built, not twenty minutes into preprocessing.

``RunConfig.to_dict()`` / ``from_dict()`` round-trip through plain JSON
types; ``save()`` / ``load()`` go to a file.  A saved ``run.json``
replayed through ``repro run --config run.json`` (or
``Session(RunConfig.load(path))``) reproduces the original run: the one
``seed`` field drives dataset synthesis, model initialization, engine
randomness, and training-time noise streams alike.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "DataConfig",
    "ModelConfig",
    "EngineConfig",
    "TrainConfig",
    "RunConfig",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class DataConfig:
    """Which dataset to load, at what synthetic scale.

    ``name`` must be a registered node- or graph-level dataset; the task
    family is derived from which registry lists it.  ``seed`` (optional)
    pins dataset synthesis independently of the run seed — resample the
    data while keeping model init fixed, or vice versa.
    """

    name: str
    scale: float = 0.2
    seed: int | None = None

    def __post_init__(self):
        from ..graph import available_datasets

        _require(self.scale > 0.0,
                 f"scale must be positive, got {self.scale}")
        names = available_datasets()
        if self.name not in names["node"] and self.name not in names["graph"]:
            raise ValueError(
                f"unknown dataset {self.name!r}; registered datasets: "
                f"{', '.join(names['node'] + names['graph'])}")

    @property
    def task_kind(self) -> str:
        """``"node"`` or ``"graph"`` — which training task family applies."""
        from ..graph import available_datasets

        return "node" if self.name in available_datasets()["node"] else "graph"


@dataclass(frozen=True)
class ModelConfig:
    """Which registered model to build, with architecture overrides.

    The optional fields override the registered architecture defaults
    (the knob set every example and benchmark shrinks for laptop
    wall-clock); ``None`` means "use the registry default".
    """

    name: str = "graphormer-slim"
    num_layers: int | None = None
    hidden_dim: int | None = None
    num_heads: int | None = None
    dropout: float | None = None

    def __post_init__(self):
        from ..models import get_model_spec

        spec = get_model_spec(self.name)  # raises UnknownModelError
        # probe the config factory so bad override *names* fail here too
        spec.build_config(1, 2, **self.overrides())

    def overrides(self) -> dict[str, Any]:
        """The non-``None`` architecture overrides."""
        out = {}
        for f in ("num_layers", "hidden_dim", "num_heads", "dropout"):
            v = getattr(self, f)
            if v is not None:
                out[f] = v
        return out


@dataclass(frozen=True)
class EngineConfig:
    """Which training engine runs the system side, with its knobs.

    ``pattern`` names a registered pattern builder and is only meaningful
    for the ``fixed-pattern`` engine (mirroring the CLI's constraint).
    ``precision`` / ``interleave_period`` are threaded to engines whose
    constructor accepts them; ``options`` is a free-form escape hatch for
    engine-specific keywords (e.g. pattern-builder arguments).
    ``backend`` names a registered compute backend
    (:mod:`repro.backend`): ``"numpy"`` is the per-op reference path,
    ``"fused"`` compiles each serving plan into a preallocated-workspace
    program with a bitwise-verified fallback to the reference.
    """

    name: str = "torchgt"
    pattern: str | None = None
    precision: str | None = None
    interleave_period: int | None = None
    options: Mapping[str, Any] = field(default_factory=dict)
    backend: str = "numpy"

    def __post_init__(self):
        from ..attention import get_pattern_builder
        from ..backend import get_backend
        from ..core import engine_names
        from ..tensor.precision import Precision

        object.__setattr__(self, "name", self.name.lower())
        if self.name not in engine_names():
            raise ValueError(
                f"unknown engine {self.name!r}; registered engines: "
                f"{', '.join(engine_names())}")
        if self.pattern is not None:
            get_pattern_builder(self.pattern)  # raises UnknownPatternBuilderError
            _require(self.name == "fixed-pattern",
                     "pattern= only applies to the fixed-pattern engine")
        if self.name == "fixed-pattern":
            _require(self.pattern is not None,
                     "the fixed-pattern engine needs pattern=<builder name>")
        if self.precision is not None:
            _require(self.precision in Precision.ALL,
                     f"unknown precision {self.precision!r} "
                     f"(valid: {', '.join(sorted(Precision.ALL))})")
        get_backend(self.backend)  # raises UnknownBackendError
        object.__setattr__(self, "options", dict(self.options))


@dataclass(frozen=True)
class TrainConfig:
    """Optimization schedule and evaluation cadence."""

    epochs: int = 30
    lr: float = 1e-3
    weight_decay: float = 1e-4
    grad_clip: float = 5.0
    lap_pe_dim: int = 8
    eval_every: int = 1
    patience: int | None = None
    seq_len: int | None = None  # None = full graph; set = sampled sequences

    def __post_init__(self):
        _require(self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}")
        _require(self.lr > 0, f"lr must be > 0, got {self.lr}")
        _require(self.eval_every >= 1, "eval_every must be >= 1")
        if self.patience is not None:
            _require(self.patience >= 1, "patience must be >= 1")
        if self.seq_len is not None:
            _require(self.seq_len >= 2, "seq_len must be >= 2")


@dataclass(frozen=True)
class RunConfig:
    """The full description of one run: data × model × engine × schedule.

    ``seed`` is the single reproducibility knob: it seeds dataset
    synthesis, model weight initialization, engine randomness (cluster
    reordering), and training-time noise streams.
    """

    data: DataConfig
    model: ModelConfig = field(default_factory=ModelConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self):
        from ..models import get_model_spec

        spec = get_model_spec(self.model.name)
        if not spec.engine_protocol:
            raise ValueError(
                f"model {spec.name!r} does not speak the engine protocol "
                "(features, encodings, backend=, pattern=, use_bias=) and "
                "cannot train through Session; choose one of: "
                + ", ".join(n for n in _engine_protocol_models()))
        if self.data.task_kind == "graph":
            _require(self.train.seq_len is None,
                     "seq_len (sampled sequences) applies to node-level "
                     "datasets only")

    # -- serialization -------------------------------------------------- #
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-types dict (round-trips through :meth:`from_dict`)."""
        d = dataclasses.asdict(self)
        d["engine"]["options"] = dict(self.engine.options)
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunConfig":
        """Rebuild from :meth:`to_dict` output (re-validates everything)."""
        d = dict(d)
        unknown = sorted(set(d) - {"data", "model", "engine", "train", "seed"})
        if unknown:
            raise ValueError(f"unknown RunConfig sections: {', '.join(unknown)}")

        def section(key, sub_cls, required=False):
            sub = d.get(key)
            if sub is None:
                if required:
                    raise ValueError(f"RunConfig dict is missing {key!r}")
                return sub_cls()
            if dataclasses.is_dataclass(sub):
                return sub
            valid = {f.name for f in dataclasses.fields(sub_cls)}
            bad = sorted(set(sub) - valid)
            if bad:
                raise ValueError(
                    f"unknown {key} config fields: {', '.join(bad)} "
                    f"(valid: {', '.join(sorted(valid))})")
            try:
                return sub_cls(**sub)
            except TypeError as e:  # e.g. a required field is missing
                raise ValueError(f"invalid {key} config: {e}") from None

        seed = d.get("seed", 0)
        try:
            seed = int(seed if seed is not None else 0)
        except (TypeError, ValueError):
            raise ValueError(f"invalid seed: {seed!r}") from None
        return cls(
            data=section("data", DataConfig, required=True),
            model=section("model", ModelConfig),
            engine=section("engine", EngineConfig),
            train=section("train", TrainConfig),
            seed=seed,
        )

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON text (sorted keys — stable for hashing)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Rebuild (and re-validate) a config from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the config as JSON (the ``repro run --config`` input)."""
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        """Read a config back from a :meth:`save`\\ d JSON file."""
        with open(path) as f:
            return cls.from_json(f.read())


def _engine_protocol_models() -> list[str]:
    from ..models import model_names

    return model_names(engine_protocol_only=True)
