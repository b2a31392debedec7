"""The epoch loop, its training tasks, metrics, callbacks and convergence
recording."""

from .metrics import accuracy, mae
from .callbacks import (
    Callback,
    CallbackList,
    EarlyStoppingCallback,
    EpochLogger,
)
from .trainer import (
    TrainingRecord,
    planned_forward,
    prepare_inputs,
    run_epochs,
    seed_stochastic_modules,
    train_graph_task,
    train_node_classification,
)
from .batching import batched_node_predictions, train_node_classification_batched
from .checkpointing import load_checkpoint, save_checkpoint

__all__ = [
    "accuracy",
    "mae",
    "Callback",
    "CallbackList",
    "EarlyStoppingCallback",
    "EpochLogger",
    "TrainingRecord",
    "planned_forward",
    "prepare_inputs",
    "seed_stochastic_modules",
    "run_epochs",
    "train_node_classification",
    "train_graph_task",
    "train_node_classification_batched",
    "batched_node_predictions",
    "save_checkpoint",
    "load_checkpoint",
]
