"""Optimizers for the numpy substrate.

AdamW is the optimizer Graphormer and GT use in their original papers; SGD
and plain Adam are provided for the GNN baselines and the ablations.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .module import Parameter
from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "AdamW", "clip_grad_norm"]


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is ≤ ``max_norm``.

    Returns the pre-clip norm (useful for logging training stability).
    """
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad * p.grad).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimizer holding a parameter list and a mutable lr."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params = [p for p in params]
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update, then bump every :class:`Parameter`'s version."""
        self._update()
        for p in self.params:
            if isinstance(p, Parameter):
                p.version += 1

    def _update(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- checkpointing --------------------------------------------------- #
    def state_dict(self) -> dict:
        """Hyperparameters plus per-parameter buffers (momentum, moments).

        Buffers are keyed by parameter position, so loading requires the
        same parameter list order — the same contract torch optimizers
        have.
        """
        return {"lr": self.lr, "buffers": self._buffers()}

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self._load_buffers(state["buffers"])

    def _buffers(self) -> dict:
        """Subclass hook: name → list of per-parameter arrays/scalars."""
        return {}

    def _load_buffers(self, buffers: dict) -> None:
        for name, values in buffers.items():
            current = getattr(self, name)
            if isinstance(current, list):
                if len(current) != len(values):
                    raise ValueError(
                        f"buffer {name!r} has {len(values)} entries for "
                        f"{len(current)} parameters")
                for buf, arr in zip(current, values):
                    if buf.shape != arr.shape:
                        raise ValueError(f"shape mismatch in buffer {name!r}")
                    buf[...] = arr
            else:
                setattr(self, name, values)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def _update(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g

    def _buffers(self) -> dict:
        return {"_velocity": [v.copy() for v in self._velocity]}


class Adam(Optimizer):
    """Adam with bias correction (L2 folded into the gradient)."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def _update(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def _buffers(self) -> dict:
        return {"_m": [m.copy() for m in self._m],
                "_v": [v.copy() for v in self._v],
                "_t": self._t}


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def _update(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
