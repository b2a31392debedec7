"""Minimal nn.Module system over the numpy autograd tensor.

Mirrors the subset of ``torch.nn`` the graph transformer models need:
parameter registration/traversal, train/eval mode, and the Linear /
Embedding / LayerNorm / Dropout building blocks.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import functional as F
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "ModuleList",
]


class Parameter(Tensor):
    """A tensor registered as a trainable model parameter.

    ``version`` counts the times its values were replaced: bumped by
    :meth:`Optimizer.step <repro.tensor.optim.Optimizer.step>` and
    :meth:`Module.load_state_dict`, never anywhere else.
    """

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)
        self.version = 0


class Module:
    """Base class with parameter traversal and train/eval switching."""

    def __init__(self) -> None:
        self.training = True

    # -- traversal ----------------------------------------------------- #
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters reachable from this module (depth-first)."""
        seen: set[int] = set()
        yield from self._parameters(seen)

    def _parameters(self, seen: set[int]) -> Iterator[Parameter]:
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                if id(value) not in seen:
                    seen.add(id(value))
                    yield value
            elif isinstance(value, Module):
                yield from value._parameters(seen)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item._parameters(seen)
                    elif isinstance(item, Parameter) and id(item) not in seen:
                        seen.add(id(item))
                        yield item

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules."""
        yield self
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    @property
    def weight_version(self) -> int:
        """Monotonic counter that moves whenever any parameter's values do.

        The sum of the parameters' ``version`` counters: equal readings
        mean no optimizer step or state load touched the weights in
        between, so anything computed from the weights is still current.
        """
        return sum(p.version for p in self.parameters())

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- mode ---------------------------------------------------------- #
    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state --------------------------------------------------------- #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter paths to copies of their arrays."""
        out: dict[str, np.ndarray] = {}
        self._collect_state("", out)
        return out

    def _collect_state(self, prefix: str, out: dict[str, np.ndarray]) -> None:
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                out[path] = value.data.copy()
            elif isinstance(value, Module):
                value._collect_state(path + ".", out)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._collect_state(f"{path}.{i}.", out)
                    elif isinstance(item, Parameter):
                        out[f"{path}.{i}"] = item.data.copy()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` (shapes must match)."""
        current = dict(self._named_parameters(""))
        for path, arr in state.items():
            if path not in current:
                raise KeyError(f"unknown parameter path: {path}")
            param = current[path]
            if param.data.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {path}: {param.data.shape} vs {arr.shape}")
            param.data = arr.astype(param.data.dtype, copy=True)
            param.version += 1

    def _named_parameters(self, prefix: str) -> Iterator[tuple[str, Parameter]]:
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value._named_parameters(path + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_parameters(f"{path}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{path}.{i}", item

    # -- call ---------------------------------------------------------- #
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x @ W + b`` with Xavier-uniform initialization."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        bound = float(np.sqrt(6.0 / (in_features + out_features)))
        self.weight = Parameter(rng.uniform(-bound, bound, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table of ``num_embeddings × dim`` learnable rows."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None, scale: float = 0.02):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Parameter(rng.standard_normal((num_embeddings, dim)) * scale)
        self.num_embeddings = num_embeddings
        self.dim = dim

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.weight, indices)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, self.eps)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class Sequential(Module):
    """Chain modules, feeding each output into the next."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class ModuleList(Module):
    """A list container whose items are registered as submodules."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self.items = list(modules) if modules else []

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]
