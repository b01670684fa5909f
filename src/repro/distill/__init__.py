"""Distillation framework: losses, trainer, CKD, and all paper baselines."""

from .baselines import train_scratch, train_transfer
from .caches import LogitCache, batched_forward
from .ckd import CKDSettings, distill_ckd
from .dmc import merge_dmc
from .ensemble import DisjointEnsemble, average_probabilities, majority_vote
from .kd import distill_kd
from .losses import (
    ckd_loss,
    cross_entropy,
    kd_loss,
    kl_div_from_logits,
    scale_subtask_loss,
    soft_subtask_loss,
    sub_logits,
)
from .merge import merge_sd, merge_uhc, teacher_logit_blocks
from .trainer import History, HistoryPoint, TrainConfig, Trainer

__all__ = [
    "Trainer",
    "TrainConfig",
    "History",
    "HistoryPoint",
    "batched_forward",
    "LogitCache",
    "distill_kd",
    "distill_ckd",
    "CKDSettings",
    "train_scratch",
    "train_transfer",
    "merge_sd",
    "merge_uhc",
    "merge_dmc",
    "teacher_logit_blocks",
    "average_probabilities",
    "majority_vote",
    "DisjointEnsemble",
    "sub_logits",
    "soft_subtask_loss",
    "scale_subtask_loss",
    "ckd_loss",
    "kd_loss",
    "cross_entropy",
    "kl_div_from_logits",
]
