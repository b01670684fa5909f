"""From-scratch numpy tensor engine with reverse-mode autodiff.

This package replaces PyTorch as the substrate for the reproduction (see
``docs/paper-claims.md``).  Public surface:

* :class:`~repro.tensor.tensor.Tensor` — the autograd array type.
* :mod:`~repro.tensor.functional` — activations and the paper's losses.
* :mod:`~repro.tensor.conv` — channels-last convolution, pooling and batch norm.
* :func:`~repro.tensor.autograd.no_grad` — disable graph recording.
* :func:`~repro.tensor.gradcheck.gradcheck` — numerical gradient checking.
"""

from . import functional
from .autograd import enable_grad, is_grad_enabled, no_grad, set_grad_enabled
from .conv import (
    avg_pool2d,
    batch_norm2d,
    conv2d,
    conv_output_size,
    global_avg_pool2d,
    max_pool2d,
)
from .gradcheck import gradcheck, numerical_gradient
from .tensor import DEFAULT_DTYPE, Tensor

__all__ = [
    "Tensor",
    "DEFAULT_DTYPE",
    "functional",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "conv2d",
    "batch_norm2d",
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool2d",
    "conv_output_size",
    "gradcheck",
    "numerical_gradient",
]
