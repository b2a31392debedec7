"""Graphormer (Ying et al., NeurIPS'21) on the numpy substrate.

Implements the two encodings that define the architecture (paper Eq. 2–3):

* **centrality encoding** — learnable in-/out-degree embeddings added to
  node features (our graphs are symmetric, so both tables are indexed by
  the same degree, preserving the formulation);
* **SPD spatial bias** — a learnable per-head scalar for each
  shortest-path-distance bucket, added to every attention score.

Both evaluation configurations are provided: GraphormerSlim (4 layers,
d=64, 8 heads) and GraphormerLarge (12 layers, d=768, 32 heads), per
Table IV.  The attention backend is selected per forward call so the same
weights run under GP-Raw (dense+bias), GP-Flash (flash, bias disabled —
the real kernel's limitation), GP-Sparse and TorchGT (pattern+bias).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention import KernelSpec, resolve_kernel
from ..attention.patterns import AttentionPattern
from ..tensor import Embedding, LayerNorm, Linear, Module, ModuleList, Parameter, Tensor
from ..tensor import functional as F
from .encodings import GraphEncodings
from .layers import AttentionBackend, GraphTransformerLayer

__all__ = ["GraphormerConfig", "Graphormer", "GRAPHORMER_SLIM", "GRAPHORMER_LARGE"]


@dataclass(frozen=True)
class GraphormerConfig:
    """Architecture hyperparameters (Table IV)."""

    num_layers: int
    hidden_dim: int
    num_heads: int
    feature_dim: int
    num_classes: int
    dropout: float = 0.1
    max_degree: int = 64
    max_spd: int = 8
    task: str = "node-classification"  # or "graph-classification" / "regression"


def GRAPHORMER_SLIM(feature_dim: int, num_classes: int, task: str = "node-classification",
                    dropout: float = 0.1) -> "GraphormerConfig":
    """GPH_slim: 4 layers, hidden 64, 8 heads."""
    return GraphormerConfig(4, 64, 8, feature_dim, num_classes, dropout, task=task)


def GRAPHORMER_LARGE(feature_dim: int, num_classes: int, task: str = "node-classification",
                     dropout: float = 0.1) -> "GraphormerConfig":
    """GPH_large: 12 layers, hidden 768, 32 heads."""
    return GraphormerConfig(12, 768, 32, feature_dim, num_classes, dropout, task=task)


class Graphormer(Module):
    """Graphormer with degree centrality encoding and SPD attention bias."""

    #: structure enters through degrees and SPD only, so the trainers skip
    #: the Laplacian eigensolve for this model
    reads_lap_pe = False
    reads_spd = True

    def __init__(self, config: GraphormerConfig, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        c = config
        self.config = c
        self.input_proj = Linear(c.feature_dim, c.hidden_dim, rng=rng)
        # z⁻ / z⁺ of Eq. 2 — both indexed by the symmetric degree
        self.in_degree_emb = Embedding(c.max_degree, c.hidden_dim, rng=rng)
        self.out_degree_emb = Embedding(c.max_degree, c.hidden_dim, rng=rng)
        # bias_φ of Eq. 3: one scalar per head per SPD bucket
        # buckets: 0..max_spd plus the "farther/unreachable" bucket
        self.spd_bias_table = Parameter(
            rng.standard_normal((c.max_spd + 2, c.num_heads)) * 0.02)
        self.layers = ModuleList([
            GraphTransformerLayer(c.hidden_dim, c.num_heads, c.dropout, rng=rng)
            for _ in range(c.num_layers)
        ])
        self.final_ln = LayerNorm(c.hidden_dim)
        out_dim = 1 if c.task == "regression" else c.num_classes
        self.head = Linear(c.hidden_dim, out_dim, rng=rng)

    # ------------------------------------------------------------------ #
    def _input_embedding(self, features: np.ndarray, enc: GraphEncodings) -> Tensor:
        h = self.input_proj(Tensor(features))
        h = h + F.embedding_lookup(self.in_degree_emb.weight, enc.degree_buckets)
        h = h + F.embedding_lookup(self.out_degree_emb.weight, enc.degree_buckets)
        return h

    def _dense_bias(self, enc: GraphEncodings) -> Tensor | None:
        """SPD bias as a contiguous (H, S, S) tensor for dense attention."""
        if enc.spd_buckets is None:
            return None
        return F.head_major_lookup(self.spd_bias_table, enc.spd_buckets)

    def _sparse_bias(self, enc: GraphEncodings, pattern: AttentionPattern) -> Tensor:
        """SPD bias gathered at pattern entries, shape (H, E)."""
        return F.head_major_lookup(self.spd_bias_table,
                                   enc.spd_for_pattern(pattern))

    # ------------------------------------------------------------------ #
    def encode(self, features: np.ndarray, enc: GraphEncodings,
               backend: str | KernelSpec = AttentionBackend.DENSE,
               pattern: AttentionPattern | None = None,
               use_bias: bool = True) -> Tensor:
        """Node embeddings ``(S, d)`` under the chosen attention backend.

        The SPD bias is built in whichever format the kernel's registry
        metadata declares (dense ``(H, S, S)`` or per-entry ``(H, E)``).
        ``use_bias=False`` reproduces the GP-Flash configuration: the
        paper disables the bias encoding because FlashAttention cannot
        apply it (§II-C) — kernels with no bias support simply get none.
        """
        kernel = resolve_kernel(backend)
        h = self._input_embedding(features, enc)
        bias = None
        if use_bias and kernel.bias_format == "dense":
            bias = self._dense_bias(enc)
        elif use_bias and kernel.bias_format == "entries" and pattern is not None:
            bias = self._sparse_bias(enc, pattern)
        for layer in self.layers:
            h = layer(h, backend=kernel, pattern=pattern, bias=bias)
        return self.final_ln(h)

    def forward(self, features: np.ndarray, enc: GraphEncodings,
                backend: str | KernelSpec = AttentionBackend.DENSE,
                pattern: AttentionPattern | None = None,
                use_bias: bool = True) -> Tensor:
        """Task output: per-node logits, or pooled graph logits/score."""
        h = self.encode(features, enc, backend=backend, pattern=pattern,
                        use_bias=use_bias)
        if self.config.task == "node-classification":
            return self.head(h)
        pooled = h.mean(axis=0, keepdims=True)
        out = self.head(pooled)
        if self.config.task == "regression":
            return out.reshape(1)
        return out
