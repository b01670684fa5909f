"""Wide residual networks with the paper's fine-grained widening split.

The paper (§5.1) extends the basic WRN-l-k of Zagoruyko & Komodakis into
``WRN-l-(k_c, k_s)``: the widths of conv2/conv3 are controlled by a common
factor ``k_c`` (16·k_c and 32·k_c channels) while conv4's width is controlled
independently by ``k_s`` (64·k_s channels).  Shrinking only ``k_s`` (e.g. to
0.25) is how PoE makes each *expert* tiny while the shared library keeps its
representational width.

The network is explicitly split into

* :class:`WRNTrunk` — conv1 up to the library level ℓ (default: through
  conv3).  This is the **library component** shared by all experts.
* :class:`WRNHead` — the remaining groups plus BN/ReLU, global average
  pooling and the classifier.  This is the per-expert **expert component**.

``WideResNet = WRNTrunk ∘ WRNHead`` so a generic model, the library student,
and every expert all share one code path.  :class:`WRNHeadBank` stacks
same-shape heads so a pool's experts train in lockstep.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    Module,
    ModuleList,
    Parameter,
)
from ..tensor import Tensor
from ..tensor import functional as F

__all__ = [
    "scaled_channels",
    "BasicBlock",
    "WRNGroup",
    "WRNTrunk",
    "WRNHead",
    "WRNHeadBank",
    "WideResNet",
    "wrn_group_widths",
]


def scaled_channels(base: int, k: float) -> int:
    """Channel count ``base · k`` rounded to at least one channel."""
    return max(1, int(round(base * k)))


def wrn_group_widths(k_c: float, k_s: float) -> Tuple[int, int, int, int]:
    """Widths of (conv1, conv2, conv3, conv4) for a WRN-l-(k_c, k_s)."""
    return (
        16,
        scaled_channels(16, k_c),
        scaled_channels(32, k_c),
        scaled_channels(64, k_s),
    )


class BasicBlock(Module):
    """Pre-activation WRN basic block (BN-ReLU-conv ×2 + shortcut)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.bn1 = BatchNorm2d(in_channels)
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, rng=rng)
        self.needs_projection = stride != 1 or in_channels != out_channels
        if self.needs_projection:
            self.shortcut = Conv2d(in_channels, out_channels, 1, stride=stride, padding=0, rng=rng)
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        pre = F.relu(self.bn1(x))
        residual = self.shortcut(pre) if self.needs_projection else x
        out = self.conv1(pre)
        out = self.conv2(F.relu(self.bn2(out)))
        return out + residual


class WRNGroup(Module):
    """A stack of ``n`` basic blocks; the first block carries the stride."""

    def __init__(
        self,
        n_blocks: int,
        in_channels: int,
        out_channels: int,
        stride: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        blocks: List[BasicBlock] = []
        for i in range(n_blocks):
            blocks.append(
                BasicBlock(
                    in_channels if i == 0 else out_channels,
                    out_channels,
                    stride=stride if i == 0 else 1,
                    rng=rng,
                )
            )
        self.blocks = ModuleList(blocks)
        self.out_channels = out_channels

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x


def _blocks_per_group(depth: int) -> int:
    if (depth - 4) % 6 != 0 or depth < 10:
        raise ValueError(f"WRN depth must be 6n+4 with n>=1, got {depth}")
    return (depth - 4) // 6


class WRNTrunk(Module):
    """conv1 plus the convolution groups up to ``library_level``.

    ``library_level`` is the paper's ℓ hyperparameter: the number of
    convolution groups (counting conv1) kept in the shared library.  The
    default 3 matches the experiments (conv1-conv3 shared, conv4 per expert).
    """

    def __init__(
        self,
        depth: int,
        k_c: float,
        k_s: float,
        library_level: int = 3,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if library_level not in (2, 3):
            raise ValueError("library_level must be 2 (conv1-conv2) or 3 (conv1-conv3)")
        n = _blocks_per_group(depth)
        widths = wrn_group_widths(k_c, k_s)
        self.depth = depth
        self.k_c = k_c
        self.k_s = k_s
        self.library_level = library_level
        self.conv1 = Conv2d(in_channels, widths[0], 3, stride=1, padding=1, rng=rng)
        groups: List[WRNGroup] = []
        strides = (1, 2, 2)  # conv2, conv3, conv4
        prev = widths[0]
        for gi in range(1, library_level):
            group = WRNGroup(n, prev, widths[gi], strides[gi - 1], rng=rng)
            groups.append(group)
            prev = widths[gi]
        self.groups = ModuleList(groups)
        self.out_channels = prev

    def forward(self, x: Tensor) -> Tensor:
        h = self.conv1(x)
        for group in self.groups:
            h = group(h)
        return h


class WRNHead(Module):
    """The expert component: remaining groups + BN/ReLU + GAP + classifier.

    For ``library_level=3`` this is exactly the conv4 group the paper uses
    as the per-expert component, with ``k_s`` controlling its width.
    """

    def __init__(
        self,
        depth: int,
        k_c: float,
        k_s: float,
        num_classes: int,
        library_level: int = 3,
        in_channels: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        n = _blocks_per_group(depth)
        widths = wrn_group_widths(k_c, k_s)
        strides = (1, 2, 2)
        prev = in_channels if in_channels is not None else widths[library_level - 1]
        groups: List[WRNGroup] = []
        for gi in range(library_level, 4):
            group = WRNGroup(n, prev, widths[gi], strides[gi - 1], rng=rng)
            groups.append(group)
            prev = widths[gi]
        self.groups = ModuleList(groups)
        self.bn = BatchNorm2d(prev)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(prev, num_classes, rng=rng)
        self.num_classes = num_classes
        self.out_channels = prev

    def forward(self, h: Tensor) -> Tensor:
        for group in self.groups:
            h = group(h)
        h = F.relu(self.bn(h))
        h = self.pool(h)
        return self.fc(h)


class WRNHeadBank(Module):
    """``G`` same-shape :class:`WRNHead` experts trained as one module.

    Every parameter and running statistic is the heads' arrays stacked on a
    leading member axis, and activations fold the member into the batch
    axis, (G·N, C, H, W), which ``conv2d`` and ``batch_norm2d`` take with
    member-stacked weights.  Members share nothing but their input, so one
    step on the *sum* of their losses updates each exactly as a step on its
    own loss would.  :meth:`unstack` writes the trained slices back into the
    heads the bank was built from.  (:class:`~repro.models.FusedHeadBank`
    is the serving-side counterpart: inference only, batch norm folded.)
    """

    def __init__(self, heads: Sequence[WRNHead]) -> None:
        super().__init__()
        if not heads:
            raise ValueError("a head bank needs at least one head")
        shapes = [[p.shape for p in head.parameters()] for head in heads]
        if any(s != shapes[0] for s in shapes[1:]):
            raise ValueError("a head bank stacks same-shape heads only")
        self.heads = list(heads)
        # a copy of the first head's module tree, its arrays then replaced
        stacked = copy.deepcopy(heads[0])
        for module, *members in self._walk(stacked):
            for name in module._parameters:
                stacked_data = np.stack([m._parameters[name].data for m in members])
                setattr(module, name, Parameter(stacked_data))
            for name in module._buffers:
                module.register_buffer(name, np.stack([getattr(m, name) for m in members]))
        self.stacked = stacked

    def _walk(self, stacked: Module):
        """``(bank module, member modules…)`` rows in one tree order."""
        return zip(stacked.modules(), *(head.modules() for head in self.heads))

    def forward(self, features: Tensor) -> Tensor:
        """(G, N, K) logits of every member over the same (N, C, H, W)
        features, which are the frozen library's output (a constant)."""
        g = len(self.heads)
        n, c, h, w = features.shape
        tiled = np.empty((g, n, h, w, c), dtype=features.dtype)
        tiled[:] = features.data.transpose(0, 2, 3, 1)
        x = Tensor(tiled.reshape(g * n, h, w, c).transpose(0, 3, 1, 2))
        head = self.stacked
        for group in head.groups:
            x = group(x)
        pooled = head.pool(F.relu(head.bn(x))).reshape(g, n, -1)
        logits = pooled @ head.fc.weight.transpose(0, 2, 1)
        return logits + head.fc.bias.reshape(g, 1, -1)

    def unstack(self) -> List[WRNHead]:
        """Write each member's slice back into its head; returns the heads.

        Every array a head receives is its own C-contiguous float32 copy,
        so no head keeps the bank's stacked arrays alive.
        """
        for module, *members in self._walk(self.stacked):
            for index, member in enumerate(members):
                for name, param in module._parameters.items():
                    member._parameters[name].data = param.data[index].copy()
                for name in module._buffers:
                    member._update_buffer(name, getattr(module, name)[index].copy())
        return self.heads


class WideResNet(Module):
    """``WRN-depth-(k_c, k_s)`` classifier = trunk ∘ head.

    Used for the oracle (large k), the library student (small k) and — with
    ``num_classes = |H_i|`` and tiny ``k_s`` — each expert's standalone
    specialized model.
    """

    def __init__(
        self,
        depth: int,
        k_c: float,
        k_s: float,
        num_classes: int,
        library_level: int = 3,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.depth = depth
        self.k_c = k_c
        self.k_s = k_s
        self.num_classes = num_classes
        self.library_level = library_level
        self.trunk = WRNTrunk(depth, k_c, k_s, library_level, in_channels, rng=rng)
        self.head = WRNHead(depth, k_c, k_s, num_classes, library_level, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.trunk(x))

    def features(self, x: Tensor) -> Tensor:
        """Library-level feature map (input to the expert component)."""
        return self.trunk(x)

    def arch_name(self) -> str:
        return f"WRN-{self.depth}-({self.k_c:g}, {self.k_s:g})"
