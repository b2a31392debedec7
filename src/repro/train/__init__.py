"""Training loops, metrics, callbacks and convergence recording."""

from .metrics import EarlyStopping, accuracy, macro_f1, mae, running_average
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
    seed_stochastic_modules,
    train_graph_task,
    train_node_classification,
)
from .batching import batched_node_predictions, train_node_classification_batched
from .checkpointing import load_checkpoint, save_checkpoint

__all__ = [
    "accuracy",
    "mae",
    "macro_f1",
    "EarlyStopping",
    "running_average",
    "Callback",
    "CallbackList",
    "EarlyStoppingCallback",
    "EpochLogger",
    "TrainingRecord",
    "planned_forward",
    "prepare_inputs",
    "seed_stochastic_modules",
    "train_node_classification",
    "train_graph_task",
    "train_node_classification_batched",
    "batched_node_predictions",
    "save_checkpoint",
    "load_checkpoint",
]
