"""Functional neural-network operations and the paper's loss functions.

Everything the distillation framework needs lives here:

* classification losses (cross-entropy with hard targets),
* the standard knowledge-distillation loss ``L_KD`` (paper Eq. 1),
* the conditional-distillation pieces ``L_soft`` (Eq. 3) and ``L_scale``
  (Eq. 4), assembled into ``L_CKD`` (Eq. 2) by :mod:`repro.distill.ckd`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor

__all__ = [
    "relu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "kd_loss",
    "kl_div_from_logits",
    "l1_loss",
    "mse_loss",
    "one_hot",
    "dropout",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return x - x.logsumexp(axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label vector."""
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given log-probabilities."""
    labels = np.asarray(labels)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits and integer hard targets.

    This is the loss used by the paper's Scratch and Transfer baselines
    (Figure 2a) — the one that produces *overconfident* experts because it
    only ever sees in-distribution hard targets.
    """
    return nll_loss(log_softmax(logits, axis=-1), labels)


def kl_div_from_logits(
    teacher_logits: Tensor, student_logits: Tensor, temperature: float = 1.0
) -> Tensor:
    """``T² · D_KL( softmax(t/T) || softmax(s/T) )`` averaged over the batch.

    The KL divergence of paper Eq. (1)/(3).  Gradients flow only into the
    student; the teacher side is detached, as in standard distillation.
    Logits are (N, K); leading axes before those, as in a bank's (G, N, K),
    index independent problems and are kept: the result is one mean per
    problem.

    The conventional ``T²`` factor (Hinton et al., 2015) keeps the gradient
    magnitude of the softened objective comparable to a hard cross-entropy,
    so distillation and the cross-entropy baselines can share one learning
    rate, exactly as the paper's single experimental configuration does.
    """
    t = teacher_logits.detach() * (1.0 / temperature)
    s = student_logits * (1.0 / temperature)
    log_p = log_softmax(t, axis=-1)  # teacher log-probs (constant)
    log_q = log_softmax(s, axis=-1)  # student log-probs
    p = log_p.exp()
    per_sample = (p * (log_p - log_q)).sum(axis=-1)
    return per_sample.mean(axis=-1) * (temperature * temperature)


def kd_loss(
    teacher_logits: Tensor, student_logits: Tensor, temperature: float = 4.0
) -> Tensor:
    """Standard knowledge-distillation loss ``L_KD`` (paper Eq. 1)."""
    return kl_div_from_logits(teacher_logits, student_logits, temperature)


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over (N, K) values, one mean per leading index.

    The paper's ``L_scale`` (Eq. 4) uses an L1 match of raw sub-logits:
    robust to outliers, it transfers the *scale* of the oracle's logits
    rather than their exact values, which is what makes independently
    extracted experts concatenable (the "logit scale problem", §4.2).
    Leading axes are kept as in :func:`kl_div_from_logits`.
    """
    return (prediction - target.detach()).abs().mean(axis=(-2, -1))


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error (used by the L2 variant of the scale ablation);
    reduces like :func:`l1_loss`."""
    diff = prediction - target.detach()
    return (diff * diff).mean(axis=(-2, -1))


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator] = None, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * Tensor(mask)
