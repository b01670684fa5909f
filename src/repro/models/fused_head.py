"""Batched execution of a bank of same-shaped :class:`WRNHead` experts.

A consolidated ``M(Q)`` runs one frozen trunk and then ``n(Q)`` expert
heads over the *same* feature map.  The straightforward loop executes each
head through the autograd tensor engine — ``n(Q)`` × (im2col + GEMM +
Python-composed batch norm) per block.  :class:`FusedHeadBank` stacks the
heads' weights once and replays the identical computation with the head
index folded into the batch dimension (:mod:`repro.nn.fused`): one shared
im2col slab and stacked GEMMs per conv layer, batch norm folded to a
per-channel affine (``bn2`` into ``conv1`` itself), one padded GEMM for
all classifiers — against the calling thread's workspace, so a warm call
allocates only the logits it returns.

The bank is a *derived* artifact: it copies weights at build time, so a
re-extracted expert must not be served from an old one (the serving
tiers key their models on the versions they were built from;
:meth:`BranchedSpecialistNet.fused_bank` builds lazily per consolidated
model, and consolidation always sees current heads).  Numerically the bank
matches the per-head loop to float32 round-off (``allclose``), not bit
exactness — folding BN reorders a handful of multiplies.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..nn.fused import (
    FusedAffine,
    FusedBlock,
    FusedLinearBank,
    mean_pool,
    stack_affine,
    stack_linear,
)
from .wrn import WRNHead

__all__ = ["FusedHeadBank", "bank_share_nbytes"]


class FusedHeadBank:
    """``n`` same-shape expert heads executed as one vectorized pass.

    Parameters
    ----------
    heads:
        The expert components, in concatenation order.  All heads must
        share conv/BN geometry (guaranteed for heads extracted from one
        pool config); class counts may differ.
    """

    def __init__(self, heads: Sequence[WRNHead]) -> None:
        if not heads:
            raise ValueError("a fused bank needs at least one head")
        depth = len(heads[0].groups)
        blocks_per_group = [len(g.blocks) for g in heads[0].groups]
        for head in heads[1:]:
            if len(head.groups) != depth or [
                len(g.blocks) for g in head.groups
            ] != blocks_per_group:
                raise ValueError("cannot stack heads with differing block structure")
        self.n_heads = len(heads)
        self._blocks: List[FusedBlock] = []
        for gi in range(depth):
            for bi in range(blocks_per_group[gi]):
                self._blocks.append(
                    FusedBlock([head.groups[gi].blocks[bi] for head in heads])
                )
        self._final_bn: FusedAffine = stack_affine([head.bn for head in heads])
        self._fc: FusedLinearBank = stack_linear([head.fc for head in heads])
        self.class_widths: Tuple[int, ...] = self._fc.widths
        self.num_classes = sum(self.class_widths)

    # ------------------------------------------------------------------
    def __call__(self, features: np.ndarray) -> np.ndarray:
        """Unified logits (N, Σ classes) from trunk features (N, C, H, W).

        Matches ``concat([head(features) for head in heads], axis=1)`` up
        to float32 round-off.
        """
        features = np.asarray(features, dtype=np.float32)
        if features.ndim != 4:
            raise ValueError(f"expected NCHW features, got shape {features.shape}")
        # compiled-trunk features are NHWC in memory already, so this is
        # a view; plain NCHW arrays (the autograd fallback) pay one copy
        x = np.ascontiguousarray(features.transpose(0, 2, 3, 1))[None]
        for slot, block in enumerate(self._blocks):
            x = block(x, slot % 2)
        # the final affine leaves both output slabs idle for pool and FC
        pooled = mean_pool(self._final_bn(x), slot=0)
        return self._fc.concatenate(self._fc(pooled, slot=1))

    def nbytes(self) -> int:
        """Resident size of the stacked arrays."""
        return (
            self._final_bn.nbytes()
            + self._fc.nbytes()
            + sum(block.nbytes() for block in self._blocks)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FusedHeadBank(heads={self.n_heads}, blocks={len(self._blocks)}, "
            f"classes={self.class_widths})"
        )


#: Attribute used to memoize one head's share of a stacked bank.
_BANK_SHARE_ATTR = "_fused_bank_share_nbytes"


def bank_share_nbytes(head: WRNHead) -> int:
    """Bytes ``head`` adds to whatever :class:`FusedHeadBank` stacks it.

    Measured once per head object as the size of a bank of that head alone
    — stacked conv weights, tiled constants and classifier, which is its
    share of any bank up to classifier padding — and memoized on the
    module under the lifetime rule of
    :func:`~repro.models.frozen_param_count` (a re-extraction installs a
    new object, and in-place mutation cannot change a shape), so a serving
    cache prices a model's bank in O(heads) without building it.
    """
    share = head.__dict__.get(_BANK_SHARE_ATTR)
    if share is None:
        share = FusedHeadBank([head]).nbytes()
        object.__setattr__(head, _BANK_SHARE_ATTR, share)
    return share
