"""Loss functions of the distillation framework.

Maps paper equations to code:

* Eq. (1) ``L_KD``    -> :func:`repro.tensor.functional.kd_loss` (re-exported)
* Eq. (3) ``L_soft``  -> :func:`soft_subtask_loss`
* Eq. (4) ``L_scale`` -> :func:`scale_subtask_loss`
* Eq. (2) ``L_CKD``   -> :func:`ckd_loss`

The *sub-logit* ``t_Hi`` of teacher logits ``t`` is the restriction of ``t``
to the columns of the classes in ``H_i`` — taking it **before** any softmax
is what distinguishes conditional distillation from masking probabilities.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..tensor import Tensor
from ..tensor.functional import (
    cross_entropy,
    kd_loss,
    kl_div_from_logits,
    l1_loss,
    mse_loss,
)

__all__ = [
    "sub_logits",
    "soft_subtask_loss",
    "scale_subtask_loss",
    "ckd_loss",
    "kd_loss",
    "cross_entropy",
    "kl_div_from_logits",
]


def sub_logits(logits: Tensor, class_ids: Sequence[int]) -> Tensor:
    """Restrict a logit tensor (N, |C|) to the columns in ``class_ids``."""
    idx = np.asarray(class_ids, dtype=np.int64)
    return logits[:, idx]


def soft_subtask_loss(
    teacher_logits: Tensor,
    student_logits: Tensor,
    class_ids: Sequence[int] | None = None,
    temperature: float = 4.0,
) -> Tensor:
    """``L_soft`` (Eq. 3): KL between softened teacher/student *sub-logits*.

    ``teacher_logits`` are the oracle's full logits; ``class_ids`` selects
    the primitive task's columns.  ``student_logits`` must already have
    ``len(class_ids)`` outputs (the expert's head is that small).  Because
    the loss is computed on **all** training samples — including ones whose
    true class lies outside the task — the expert learns the oracle's *low*
    confidence on out-of-distribution inputs, avoiding the overconfidence
    failure of Scratch/Transfer (Figure 2).
    """
    t = teacher_logits if class_ids is None else sub_logits(teacher_logits, class_ids)
    if t.shape[-1] != student_logits.shape[-1]:
        raise ValueError(
            f"student produces {student_logits.shape[-1]} logits but the task has "
            f"{t.shape[-1]} classes"
        )
    return kl_div_from_logits(t, student_logits, temperature)


def scale_subtask_loss(
    teacher_logits: Tensor,
    student_logits: Tensor,
    class_ids: Sequence[int] | None = None,
    norm: str = "l1",
) -> Tensor:
    """``L_scale`` (Eq. 4): hard match of raw sub-logits.

    Transfers the oracle's global logit *scale* into each expert so that
    independently extracted experts can be concatenated (the logit scale
    problem, §4.2).  The paper argues for L1 (robust to outliers: carries
    scale, not exact values); ``norm='l2'`` is kept for the ablation bench.
    """
    t = teacher_logits if class_ids is None else sub_logits(teacher_logits, class_ids)
    if norm == "l1":
        return l1_loss(student_logits, t)
    if norm == "l2":
        return mse_loss(student_logits, t)
    raise ValueError(f"unknown norm {norm!r}; expected 'l1' or 'l2'")


def ckd_loss(
    teacher_logits: Tensor,
    student_logits: Tensor,
    class_ids: Sequence[int] | None = None,
    temperature: float = 4.0,
    alpha: float = 0.3,
    soft_weight: float = 1.0,
    scale_norm: str = "l1",
) -> Tensor:
    """``L_CKD = L_soft + α·L_scale`` (Eq. 2).

    ``soft_weight``/``alpha`` allow the Table 5 ablations (L_soft only,
    L_scale only, both); α defaults to the paper's 0.3.  On a bank's
    stacked (G, N, K) logits it returns the G members' losses, each over
    its own rows.
    """
    total = None
    if soft_weight:
        total = soft_weight * soft_subtask_loss(
            teacher_logits, student_logits, class_ids, temperature
        )
    if alpha:
        scale = alpha * scale_subtask_loss(
            teacher_logits, student_logits, class_ids, scale_norm
        )
        total = scale if total is None else total + scale
    if total is None:
        raise ValueError("ckd_loss needs at least one of soft_weight/alpha nonzero")
    return total
