from .engine import (
    Tensor,
    add,
    batch_norm_eval,
    batch_norm_train,
    concat,
    conv1d,
    conv2d,
    global_avg_pool,
    grad_reverse,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
)
from .losses import cross_entropy, focal_loss
from .nn import BatchNorm2d, Conv1d, Conv2d, Dense, Layer
from .optim import AdamState, adam_step, cosine_anneal

__all__ = [
    "Tensor", "no_grad", "add", "mul", "scale", "matmul", "relu", "reshape",
    "concat", "global_avg_pool", "grad_reverse", "conv1d", "conv2d",
    "batch_norm_train", "batch_norm_eval", "cross_entropy", "focal_loss",
    "Dense", "Conv1d", "Conv2d", "BatchNorm2d", "Layer",
    "AdamState", "adam_step", "cosine_anneal",
]
