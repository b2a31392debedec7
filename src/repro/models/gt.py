"""GT — the graph transformer of Dwivedi & Bresson (2021).

The second evaluation model (Table IV: 4 layers, hidden 128, 8 heads).
GT's structural encoding is the Laplacian positional encoding added to the
projected node features; it uses no attention bias, which makes it the
clean test of pattern-only attention restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention.patterns import AttentionPattern
from ..tensor import LayerNorm, Linear, Module, ModuleList, Tensor
from .encodings import GraphEncodings
from ..attention import KernelSpec
from .layers import AttentionBackend, GraphTransformerLayer

__all__ = ["GTConfig", "GT", "GT_BASE"]


@dataclass(frozen=True)
class GTConfig:
    """Architecture hyperparameters (Table IV row 'GT')."""

    num_layers: int
    hidden_dim: int
    num_heads: int
    feature_dim: int
    num_classes: int
    lap_pe_dim: int = 8
    dropout: float = 0.1
    task: str = "node-classification"


def GT_BASE(feature_dim: int, num_classes: int, task: str = "node-classification",
            lap_pe_dim: int = 8, dropout: float = 0.1) -> GTConfig:
    """GT: 4 layers, hidden 128, 8 heads."""
    return GTConfig(4, 128, 8, feature_dim, num_classes, lap_pe_dim, dropout, task)


class GT(Module):
    """Dwivedi–Bresson graph transformer with Laplacian PE."""

    def __init__(self, config: GTConfig, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        c = config
        self.config = c
        self.input_proj = Linear(c.feature_dim, c.hidden_dim, rng=rng)
        self.pe_proj = Linear(c.lap_pe_dim, c.hidden_dim, rng=rng)
        self.layers = ModuleList([
            GraphTransformerLayer(c.hidden_dim, c.num_heads, c.dropout, rng=rng)
            for _ in range(c.num_layers)
        ])
        self.final_ln = LayerNorm(c.hidden_dim)
        out_dim = 1 if c.task == "regression" else c.num_classes
        self.head = Linear(c.hidden_dim, out_dim, rng=rng)

    #: attention runs without a bias, so the trainers skip the SPD matrix
    reads_spd = False

    @property
    def reads_lap_pe(self) -> bool:
        """Whether :meth:`encode` reads ``enc.lap_pe`` (else it is not computed)."""
        return self.config.lap_pe_dim > 0

    def encode(self, features: np.ndarray, enc: GraphEncodings,
               backend: str | KernelSpec = AttentionBackend.DENSE,
               pattern: AttentionPattern | None = None) -> Tensor:
        """Node embeddings under the chosen attention backend."""
        h = self.input_proj(Tensor(features))
        if enc.lap_pe is not None and self.reads_lap_pe:
            pe = enc.lap_pe[:, : self.config.lap_pe_dim]
            if pe.shape[1] < self.config.lap_pe_dim:  # pad tiny graphs
                pad = np.zeros((pe.shape[0], self.config.lap_pe_dim - pe.shape[1]))
                pe = np.concatenate([pe, pad], axis=1)
            h = h + self.pe_proj(Tensor(pe))
        for layer in self.layers:
            h = layer(h, backend=backend, pattern=pattern, bias=None)
        return self.final_ln(h)

    def forward(self, features: np.ndarray, enc: GraphEncodings,
                backend: str | KernelSpec = AttentionBackend.DENSE,
                pattern: AttentionPattern | None = None,
                use_bias: bool = True) -> Tensor:
        """Task output (``use_bias`` accepted for API parity; GT has none)."""
        h = self.encode(features, enc, backend=backend, pattern=pattern)
        if self.config.task == "node-classification":
            return self.head(h)
        pooled = h.mean(axis=0, keepdims=True)
        out = self.head(pooled)
        if self.config.task == "regression":
            return out.reshape(1)
        return out
