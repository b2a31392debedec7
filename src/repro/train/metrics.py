"""Evaluation metrics used across the paper's tasks."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "mae"]


def accuracy(logits: np.ndarray, labels: np.ndarray,
             mask: np.ndarray | None = None) -> float:
    """Top-1 accuracy of row-wise logits vs integer labels, optionally masked."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    pred = logits.argmax(axis=-1)
    correct = pred == labels
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.sum() == 0:
            return 0.0
        return float(correct[mask].mean())
    return float(correct.mean())


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error (ZINC / PCQM4M metric)."""
    return float(np.abs(np.asarray(pred) - np.asarray(target)).mean())
