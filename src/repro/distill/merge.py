"""Model-unification baselines: SD and UHC (Vongkulbhisal et al., CVPR'19).

Both merge ``n(Q)`` pre-built expert teachers — each covering one primitive
task ``H_i`` — into a single student for the composite task ``Q`` *by
training* (which is precisely the cost PoE's train-free consolidation
avoids, §5.3):

* **SD** ("standard distillation"): the teachers' raw logits are simply
  concatenated into one target vector and standard KD is applied over the
  union softmax.  Because the teachers' logits live in arbitrary scales,
  SD inherits the logit scale problem in full.
* **UHC**: the unified posterior over ``Q`` is reconstructed from the
  teachers and distilled into the student as two coupled terms:

  1. a per-teacher *conditional* KL — each teacher's distribution over its
     own classes vs. a softmax over the student's matching sub-logit block
     (a sub-logit softmax is exactly the conditional renormalisation the
     UHC paper derives); and
  2. a *block-mass* KL that assigns probability mass to each teacher's
     class set via the log-sum-exp of its (temperature-softened) logits —
     the probability-combination step that makes the per-block conditionals
     identifiable as one distribution over the union.

  The conditional terms are scale-invariant, but the block masses are not:
  they are only meaningful when the teachers' logits share a scale.  CKD
  experts inherit the oracle's scale (via ``L_scale``), Scratch experts do
  not — which is why UHC+CKD works so much better than UHC+Scratch in
  Table 3.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn import Module
from ..tensor import Tensor
from .caches import batched_forward
from .losses import kl_div_from_logits
from .trainer import EvalFn, History, TrainConfig, Trainer

__all__ = ["merge_sd", "merge_uhc", "teacher_logit_blocks"]


def teacher_logit_blocks(
    teachers: Sequence[Module], images: np.ndarray
) -> List[np.ndarray]:
    """Each teacher's logits over the merge dataset, in concatenation order."""
    return [batched_forward(t, images) for t in teachers]


def _block_slices(blocks: Sequence[np.ndarray]) -> List[slice]:
    slices = []
    offset = 0
    for block in blocks:
        width = block.shape[1]
        slices.append(slice(offset, offset + width))
        offset += width
    return slices


def merge_sd(
    teachers: Sequence[Module] | Sequence[np.ndarray],
    student: Module,
    images: np.ndarray,
    config: TrainConfig = TrainConfig(),
    temperature: float = 4.0,
    eval_fn: Optional[EvalFn] = None,
) -> History:
    """SD merging: standard KD against the concatenated teacher logits."""
    blocks = [
        t if isinstance(t, np.ndarray) else batched_forward(t, images) for t in teachers
    ]
    target = np.concatenate(blocks, axis=1)

    def loss_fn(model: Module, batch: np.ndarray, idx: np.ndarray) -> Tensor:
        logits = model(Tensor(batch))
        return kl_div_from_logits(Tensor(target[idx]), logits, temperature)

    trainer = Trainer(student, loss_fn, config)
    return trainer.fit(images, eval_fn=eval_fn)


def merge_uhc(
    teachers: Sequence[Module] | Sequence[np.ndarray],
    student: Module,
    images: np.ndarray,
    config: TrainConfig = TrainConfig(),
    temperature: float = 4.0,
    mass_weight: float = 1.0,
    eval_fn: Optional[EvalFn] = None,
) -> History:
    """UHC merging: per-block conditional KLs + a block-mass KL.

    See the module docstring for the decomposition; ``mass_weight`` balances
    the block-mass term against the conditionals.
    """
    blocks = [
        t if isinstance(t, np.ndarray) else batched_forward(t, images) for t in teachers
    ]
    slices = _block_slices(blocks)
    # Teacher block-mass logits: lse of each softened block, per sample.
    teacher_mass = np.stack(
        [Tensor(block / temperature).logsumexp(axis=1).numpy() for block in blocks], axis=1
    )

    def loss_fn(model: Module, batch: np.ndarray, idx: np.ndarray) -> Tensor:
        logits = model(Tensor(batch))
        total = None
        for block, sl in zip(blocks, slices):
            term = kl_div_from_logits(Tensor(block[idx]), logits[:, sl], temperature)
            total = term if total is None else total + term
        total = total * (1.0 / len(blocks))
        student_mass = Tensor.stack(
            [(logits[:, sl] * (1.0 / temperature)).logsumexp(axis=1) for sl in slices],
            axis=1,
        )
        mass_term = kl_div_from_logits(
            Tensor(teacher_mass[idx]), student_mass, temperature=1.0
        )
        return total + mass_weight * mass_term

    trainer = Trainer(student, loss_fn, config)
    return trainer.fit(images, eval_fn=eval_fn)
