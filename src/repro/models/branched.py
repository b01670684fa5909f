"""The branched task-specific architecture of PoE (paper Figure 3).

A consolidated model ``M(Q)`` is a single shared library trunk feeding
``n(Q)`` expert heads whose sub-logits are concatenated into one unified
logit vector.  Assembly is purely structural — modules are *shared by
reference* with the pool, so building ``M(Q)`` moves no weights and takes
microseconds; that is the train-free property the paper's service phase
depends on.

The paper denotes this architecture ``WRN-l-(k_c, [k_s^(1..n(Q))]^T)`` and
notes its parameter advantage: n(Q) separate conv4 blocks of width 64·k_s
cost n(Q)× the parameters of one such block, whereas a single conv4 block
with n(Q)·64·k_s channels would cost n(Q)²× (§5.1, Table 3).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..nn import Module, ModuleList
from ..nn.fused import invalidate_fused_trunk
from ..tensor import Tensor
from .fused_head import FusedHeadBank
from .wrn import WRNHead, WRNTrunk

__all__ = ["BranchedSpecialistNet"]


class BranchedSpecialistNet(Module):
    """Library trunk + several expert heads with concatenated logits.

    Parameters
    ----------
    trunk:
        The shared library component (frozen; shared by reference).
    heads:
        ``(name, head)`` pairs in concatenation order.  The output logit
        layout is ``[head_0's classes | head_1's classes | ...]``.
    """

    def __init__(self, trunk: WRNTrunk, heads: Sequence[Tuple[str, WRNHead]]) -> None:
        super().__init__()
        if not heads:
            raise ValueError("a branched model needs at least one expert head")
        self.trunk = trunk
        self.head_names: Tuple[str, ...] = tuple(name for name, _ in heads)
        if len(set(self.head_names)) != len(self.head_names):
            raise ValueError(f"duplicate expert names in {self.head_names}")
        self.heads = ModuleList([head for _, head in heads])
        self.num_classes = sum(head.num_classes for head in self.heads)
        self._fused: Optional[FusedHeadBank] = None

    @property
    def n_branches(self) -> int:
        """The paper's ``n(Q)``."""
        return len(self.head_names)

    def eval_over_frozen(self) -> "BranchedSpecialistNet":
        """Eval mode for a wrapper just built over pool-held modules.

        The pool keeps its trunk and heads frozen and in eval mode from
        install to replacement, so only the two modules the constructor
        created (this wrapper and its ``heads`` list) need flipping — no
        tree walk per consolidation.  A borrowed module that reports
        ``training`` (someone called ``.train()`` on it) gets the full
        :meth:`eval` walk, which also puts it back in eval mode.
        """
        if self.trunk.training or any(head.training for head in self.heads):
            return self.eval()
        object.__setattr__(self, "training", False)
        object.__setattr__(self.heads, "training", False)
        return self

    def forward(self, x: Tensor) -> Tensor:
        """Unified logits ``s_Q``: expert sub-logits concatenated (Fig. 3)."""
        features = self.trunk(x)
        sub_logits = [head(features) for head in self.heads]
        if len(sub_logits) == 1:
            return sub_logits[0]
        return Tensor.concatenate(sub_logits, axis=1)

    def fused_bank(self) -> FusedHeadBank:
        """The stacked-weight fast path over this model's heads (lazy).

        Built on first use and kept for the model's lifetime: heads are
        shared by reference with the pool but never mutated in place — a
        re-extraction installs a *new* head object and invalidates every
        cached model, so a freshly consolidated model always stacks current
        weights.  Call :meth:`invalidate_fused` after mutating head weights
        directly (e.g. ``load_state_dict``) to force a restack.
        """
        if self._fused is None:
            self._fused = FusedHeadBank(list(self.heads))
        return self._fused

    def invalidate_fused(self) -> None:
        """Drop the stacked bank (and the trunk compile) so the next
        fast-path call rebuilds them — required after mutating weights in
        place (e.g. ``load_state_dict``)."""
        self._fused = None
        invalidate_fused_trunk(self.trunk)

    def fused_logits(self, features: np.ndarray) -> np.ndarray:
        """Unified logits from precomputed trunk features, fused path.

        ``features`` is the raw array output of :attr:`trunk` (NCHW).
        Matches :meth:`forward` on those features to float32 round-off —
        one vectorized pass instead of ``n(Q)`` per-head loop iterations.
        """
        return self.fused_bank()(features)

    def sub_logits(self, x: Tensor) -> Dict[str, Tensor]:
        """Per-expert sub-logits keyed by expert name (diagnostics)."""
        features = self.trunk(x)
        return {
            name: head(features) for name, head in zip(self.head_names, self.heads)
        }

    def logit_slices(self) -> Dict[str, slice]:
        """Position of each expert's block inside the unified logit."""
        slices: Dict[str, slice] = {}
        offset = 0
        for name, head in zip(self.head_names, self.heads):
            slices[name] = slice(offset, offset + head.num_classes)
            offset += head.num_classes
        return slices

    def arch_name(self) -> str:
        trunk = self.trunk
        ks = ", ".join(f"{h.out_channels / 64:g}" for h in self.heads)
        return f"WRN-{trunk.depth}-({trunk.k_c:g}, [{ks}]^T)"
