"""Conditional knowledge distillation (CKD) — the paper's §4.1 contribution.

CKD extracts *only* the specialized knowledge of a primitive (or composite)
task from the oracle into a tiny expert component:

* the shared library trunk stays **frozen** (and in eval mode, so its batch
  statistics are fixed) — only the expert head is updated;
* the loss is ``L_CKD = L_soft + α·L_scale`` over the oracle's *sub-logits*
  for the task's classes, computed on **all** training data so the expert
  also learns the oracle's low confidence on out-of-distribution inputs.

Implementation notes: because the trunk is frozen, its features over the
training set are computed once and the head is trained directly on the
cached feature maps; this changes nothing mathematically and speeds up
expert extraction by roughly the trunk/head cost ratio.  For the same
reason every expert of a pool sees the same features, minibatches and
schedule, so same-shape experts train in lockstep as one bank — one
forward, backward and optimizer step per minibatch for all of them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn import Module
from ..tensor import Tensor
from .losses import ckd_loss
from .trainer import EvalFn, History, HistoryPoint, TrainConfig, Trainer

__all__ = ["distill_ckd", "CKDSettings"]


class CKDSettings:
    """Loss settings of CKD; defaults follow the paper (T from KD, α=0.3).

    ``soft_weight=0`` or ``alpha=0`` produce the Table 5 ablation variants;
    ``scale_norm='l2'`` produces the L1-vs-L2 design ablation.
    """

    def __init__(
        self,
        temperature: float = 4.0,
        alpha: float = 0.3,
        soft_weight: float = 1.0,
        scale_norm: str = "l1",
    ) -> None:
        if alpha < 0 or soft_weight < 0:
            raise ValueError("loss weights must be non-negative")
        self.temperature = temperature
        self.alpha = alpha
        self.soft_weight = soft_weight
        self.scale_norm = scale_norm

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CKDSettings(T={self.temperature}, alpha={self.alpha}, "
            f"soft={self.soft_weight}, norm={self.scale_norm!r})"
        )


def distill_ckd(
    oracle_logits: np.ndarray,
    head: Module,
    features: np.ndarray,
    class_ids: Sequence,
    config: TrainConfig = TrainConfig(),
    settings: CKDSettings = CKDSettings(),
    eval_fn: Optional[EvalFn] = None,
) -> List[History]:
    """Train an expert ``head``, or a bank of them, with CKD.

    Parameters
    ----------
    oracle_logits:
        Pre-computed oracle logits over the training images (N, |C|).
    head:
        The expert component to train, fed the frozen library's
        ``features`` of the same images.  A plain head outputs
        ``len(class_ids)`` logits; a bank (:class:`~repro.models.WRNHeadBank`)
        outputs its G members' logits stacked as (G, N, K).
    class_ids:
        Global class ids of the task, in output order — for a bank, one
        such list per member.
    eval_fn:
        Optional accuracy probe, called on ``head`` after each epoch.

    Returns one :class:`History` per member (one for a plain head): the
    shared clock and accuracy, each with that member's own loss.  A bank
    trains on the sum of its members' losses; members share no parameter,
    so each receives exactly the gradient it would get training alone.
    """
    class_ids = np.asarray(class_ids, dtype=np.int64)
    teacher_sub = oracle_logits[:, class_ids]  # (N, K), or (N, G, K) for a bank
    if class_ids.ndim == 2:
        teacher_sub = np.ascontiguousarray(teacher_sub.transpose(1, 0, 2))
    step_losses: List[np.ndarray] = []

    def loss_fn(model: Module, batch: np.ndarray, idx: np.ndarray) -> Tensor:
        logits = model(Tensor(batch))
        losses = ckd_loss(
            Tensor(teacher_sub[..., idx, :]),
            logits,
            class_ids=None,  # teacher already restricted
            temperature=settings.temperature,
            alpha=settings.alpha,
            soft_weight=settings.soft_weight,
            scale_norm=settings.scale_norm,
        )
        step_losses.append(losses.data)
        return losses.sum()

    shared = Trainer(head, loss_fn, config).fit(features, eval_fn=eval_fn)
    per_step = np.asarray(step_losses, dtype=np.float64).reshape(len(step_losses), -1)
    per_epoch = np.split(per_step, len(shared.points))
    return [
        History(
            [
                HistoryPoint(
                    point.epoch, point.seconds, float(losses[:, member].mean()), point.accuracy
                )
                for point, losses in zip(shared.points, per_epoch)
            ]
        )
        for member in range(per_step.shape[1])
    ]
