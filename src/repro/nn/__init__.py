"""Neural-network layer substrate (replaces ``torch.nn``, see ``docs/paper-claims.md``)."""

from . import fused, init
from .containers import ModuleList, Sequential
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from .module import Module, Parameter
from .serialization import (
    load_into,
    load_state,
    save_module,
    save_state,
    state_dict_nbytes,
)

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "Identity",
    "Flatten",
    "AvgPool2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "init",
    "fused",
    "save_state",
    "load_state",
    "save_module",
    "load_into",
    "state_dict_nbytes",
]
