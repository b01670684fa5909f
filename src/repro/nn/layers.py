"""Neural network layers built on the autograd tensor engine."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, conv2d, batch_norm2d, avg_pool2d, max_pool2d, global_avg_pool2d
from ..tensor import functional as F
from . import init as weight_init
from .module import Module, Parameter

__all__ = [
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
]


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight_init.kaiming_normal((out_features, in_features), rng, gain=1.0))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    """2D convolution over NCHW inputs (square kernels, as in WRN)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            weight_init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class BatchNorm2d(Module):
    """Batch normalisation over the channel axis of NCHW tensors.

    Training mode normalises with batch statistics and maintains running
    estimates; eval mode uses the running estimates.  The library component
    of PoE is used in eval mode while frozen (its statistics were fixed by
    the library-extraction KD run).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if not self.training:
            stats = (self.running_mean, self.running_var)
            return batch_norm2d(x, self.weight, self.bias, stats, self.eps)[0]
        out, mean, var = batch_norm2d(x, self.weight, self.bias, eps=self.eps)
        m = self.momentum
        self._update_buffer(
            "running_mean", (1 - m) * self.running_mean + m * mean.astype(np.float32)
        )
        self._update_buffer(
            "running_var", (1 - m) * self.running_var + m * var.astype(np.float32)
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def __repr__(self) -> str:  # pragma: no cover
        return "ReLU()"


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:  # pragma: no cover
        return "Identity()"


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def __repr__(self) -> str:  # pragma: no cover
        return "Flatten()"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AvgPool2d({self.kernel_size})"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MaxPool2d({self.kernel_size})"


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return global_avg_pool2d(x)

    def __repr__(self) -> str:  # pragma: no cover
        return "GlobalAvgPool2d()"


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, rng=self._rng, training=self.training)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dropout(p={self.p})"
