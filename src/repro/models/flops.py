"""Analytic parameter and FLOPs accounting for the model zoo.

The paper reports model cost as multiply-accumulate counts (its Table 1
gives 1.30B for WRN-40-(4,4) on 32×32 inputs, which matches MAC counting);
we follow the same convention.  ``count_flops`` walks the module tree with a
shape simulator, so it needs no forward pass and works for any architecture
built from the known layer/zoo types.
"""

from __future__ import annotations

from typing import Tuple

from ..nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from ..tensor.conv import conv_output_size
from .branched import BranchedSpecialistNet
from .wrn import BasicBlock, WideResNet, WRNGroup, WRNHead, WRNTrunk

__all__ = ["count_params", "frozen_param_count", "count_flops", "profile"]

Shape = Tuple[int, ...]


def count_params(module: Module) -> int:
    """Number of scalar parameters in a module tree."""
    return module.num_parameters()


#: Attribute used to memoize the parameter count on a frozen module.
_PARAM_COUNT_ATTR = "_frozen_param_count"


def frozen_param_count(module: Module) -> int:
    """:func:`count_params` of a frozen module, memoized on the object.

    For modules whose structure is fixed once they are in service — the
    pool's library trunk and expert heads, fetched remote heads.  Same
    lifetime rule as :func:`~repro.nn.fused.fused_trunk_for`: a
    re-extraction installs a *new* object (fresh count) and an in-place
    ``load_state_dict`` cannot change a count, so the memo needs no
    invalidation and dies with the module.  This is what lets the serving
    caches price an entry without walking the module tree.
    """
    count = module.__dict__.get(_PARAM_COUNT_ATTR)
    if count is None:
        count = module.num_parameters()
        object.__setattr__(module, _PARAM_COUNT_ATTR, count)
    return count


def profile(module: Module, input_shape: Shape) -> Tuple[int, Shape]:
    """Return ``(macs, output_shape)`` for one sample of ``input_shape``.

    ``input_shape`` excludes the batch axis: ``(C, H, W)`` for conv nets.
    """
    if isinstance(module, Conv2d):
        c, h, w = input_shape
        oh = conv_output_size(h, module.kernel_size, module.stride, module.padding)
        ow = conv_output_size(w, module.kernel_size, module.stride, module.padding)
        macs = module.out_channels * oh * ow * module.in_channels * module.kernel_size ** 2
        if module.bias is not None:
            macs += module.out_channels * oh * ow
        return macs, (module.out_channels, oh, ow)
    if isinstance(module, Linear):
        flat = 1
        for d in input_shape:
            flat *= d
        if flat != module.in_features:
            raise ValueError(
                f"Linear expects {module.in_features} features, got shape {input_shape}"
            )
        macs = module.in_features * module.out_features
        if module.bias is not None:
            macs += module.out_features
        return macs, (module.out_features,)
    if isinstance(module, BatchNorm2d):
        c, h, w = input_shape
        return 2 * c * h * w, input_shape
    if isinstance(module, (ReLU, Identity, Dropout)):
        return 0, input_shape
    if isinstance(module, Flatten):
        flat = 1
        for d in input_shape:
            flat *= d
        return 0, (flat,)
    if isinstance(module, (AvgPool2d, MaxPool2d)):
        c, h, w = input_shape
        stride = module.stride or module.kernel_size
        oh = conv_output_size(h, module.kernel_size, stride, 0)
        ow = conv_output_size(w, module.kernel_size, stride, 0)
        return c * oh * ow * module.kernel_size ** 2, (c, oh, ow)
    if isinstance(module, GlobalAvgPool2d):
        c, h, w = input_shape
        return c * h * w, (c,)
    if isinstance(module, Sequential):
        total = 0
        shape = input_shape
        for child in module:
            macs, shape = profile(child, shape)
            total += macs
        return total, shape
    if isinstance(module, BasicBlock):
        total, shape = profile(module.bn1, input_shape)
        macs, shape1 = profile(module.conv1, input_shape)
        total += macs
        macs, _ = profile(module.bn2, shape1)
        total += macs
        macs, out_shape = profile(module.conv2, shape1)
        total += macs
        if module.needs_projection:
            macs, _ = profile(module.shortcut, input_shape)
            total += macs
        c, h, w = out_shape
        total += c * h * w  # residual addition
        return total, out_shape
    if isinstance(module, WRNGroup):
        total = 0
        shape = input_shape
        for block in module.blocks:
            macs, shape = profile(block, shape)
            total += macs
        return total, shape
    if isinstance(module, WRNTrunk):
        total, shape = profile(module.conv1, input_shape)
        for group in module.groups:
            macs, shape = profile(group, shape)
            total += macs
        return total, shape
    if isinstance(module, WRNHead):
        total = 0
        shape = input_shape
        for group in module.groups:
            macs, shape = profile(group, shape)
            total += macs
        macs, shape = profile(module.bn, shape)
        total += macs
        macs, shape = profile(module.pool, shape)
        total += macs
        macs, shape = profile(module.fc, shape)
        total += macs
        return total, shape
    if isinstance(module, WideResNet):
        trunk_macs, shape = profile(module.trunk, input_shape)
        head_macs, out_shape = profile(module.head, shape)
        return trunk_macs + head_macs, out_shape
    if isinstance(module, BranchedSpecialistNet):
        total, shape = profile(module.trunk, input_shape)
        classes = 0
        for head in module.heads:
            macs, head_out = profile(head, shape)
            total += macs
            classes += head_out[0]
        return total, (classes,)
    raise TypeError(f"don't know how to profile {type(module).__name__}")


def count_flops(module: Module, input_shape: Shape) -> int:
    """Total MACs for one forward pass of a single sample."""
    macs, _ = profile(module, input_shape)
    return macs
