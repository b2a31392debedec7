"""Training-state persistence: save and resume a full training run.

A checkpoint bundles everything a resumed run needs to continue
*bit-compatibly* with the uninterrupted one:

* model parameters (:meth:`~repro.tensor.module.Module.state_dict`),
* optimizer buffers (Adam moments, momentum, step count),
* the positions of the model's stochastic streams (dropout, gumbel
  noise generators), so a resumed run draws the *same* noise the
  uninterrupted run would have drawn from that epoch on,
* the epoch counter and any user metadata (dataset name, engine config).

Storage is a single compressed ``.npz``: arrays are stored natively and
the nesting structure is flattened with ``/``-separated keys, so loading
never unpickles arbitrary objects (``allow_pickle`` stays off — a
checkpoint from an untrusted source cannot execute code).
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..tensor.module import Dropout, Module
from ..tensor.optim import Optimizer

__all__ = ["save_checkpoint", "load_checkpoint", "noise_streams"]

_FORMAT = "repro-train-checkpoint-v1"


def _flatten_optimizer(state: dict, out: dict) -> None:
    out["opt/lr"] = np.float64(state["lr"])
    for name, values in state["buffers"].items():
        if isinstance(values, list):
            for i, arr in enumerate(values):
                out[f"opt/buf/{name}/{i}"] = arr
        else:
            out[f"opt/scalar/{name}"] = np.asarray(values)


def noise_streams(model: Module):
    """``(traversal index, kind, module, attribute)`` of every stochastic
    stream in ``model`` (dropout, gumbel noise): the one addressing that
    seeding, capture and restore share."""
    for i, m in enumerate(model.modules()):
        if isinstance(m, Dropout):
            yield i, "dropout", m, "rng"
        if hasattr(m, "_gumbel_rng"):
            yield i, "gumbel", m, "_gumbel_rng"


def _capture_rng(model: Module) -> str:
    """JSON-encode the bit-generator state of every noise stream."""
    return json.dumps([[i, kind, getattr(m, attr).bit_generator.state]
                       for i, kind, m, attr in noise_streams(model)])


def _restore_rng(model: Module, payload: str) -> None:
    states = {(int(i), kind): st for i, kind, st in json.loads(payload)}
    for i, kind, m, attr in noise_streams(model):
        if (i, kind) in states:
            rng = np.random.default_rng()
            rng.bit_generator.state = states[(i, kind)]
            setattr(m, attr, rng)


def _unflatten_optimizer(z) -> dict:
    buffers: dict = {}
    lists: dict[str, dict[int, np.ndarray]] = {}
    for key in z.files:
        if key.startswith("opt/buf/"):
            _, _, name, idx = key.split("/")
            lists.setdefault(name, {})[int(idx)] = z[key]
        elif key.startswith("opt/scalar/"):
            name = key.split("/", 2)[2]
            val = z[key]
            buffers[name] = val.item() if val.ndim == 0 else val
    for name, items in lists.items():
        buffers[name] = [items[i] for i in sorted(items)]
    return {"lr": float(z["opt/lr"]), "buffers": buffers}


def save_checkpoint(path: str | os.PathLike, model: Module,
                    optimizer: Optimizer | None = None,
                    epoch: int = 0,
                    metadata: dict | None = None) -> None:
    """Write model (+ optimizer) state to one npz archive."""
    arrays: dict[str, np.ndarray] = {"format": np.str_(_FORMAT),
                                     "epoch": np.int64(epoch)}
    for key, arr in model.state_dict().items():
        arrays[f"model/{key}"] = arr
    if optimizer is not None:
        _flatten_optimizer(optimizer.state_dict(), arrays)
    if metadata:
        arrays["metadata"] = np.str_(json.dumps(metadata))
    arrays["rng"] = np.str_(_capture_rng(model))
    np.savez_compressed(path, **arrays)


def load_checkpoint(path: str | os.PathLike, model: Module,
                    optimizer: Optimizer | None = None) -> dict:
    """Restore state in place; returns ``{"epoch": int, "metadata": dict}``.

    Components passed as ``None`` are skipped, so an inference-only
    consumer can load just the model from a full training checkpoint.
    """
    with np.load(path, allow_pickle=False) as z:
        if str(z["format"]) != _FORMAT:
            raise ValueError(f"not a {_FORMAT} archive: {path}")
        model_state = {key.split("/", 1)[1]: z[key]
                       for key in z.files if key.startswith("model/")}
        model.load_state_dict(model_state)
        if "rng" in z.files:  # absent in pre-v1.2 archives
            _restore_rng(model, str(z["rng"]))
        if optimizer is not None:
            if "opt/lr" not in z.files:
                raise ValueError("checkpoint holds no optimizer state")
            optimizer.load_state_dict(_unflatten_optimizer(z))
        meta = (json.loads(str(z["metadata"]))
                if "metadata" in z.files else {})
        return {"epoch": int(z["epoch"]), "metadata": meta}
