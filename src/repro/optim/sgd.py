"""Stochastic gradient descent with momentum and decoupled L2 weight decay.

The paper trains every model with SGD, momentum 0.9 and weight decay 5e-4
(§5.1); those are the defaults here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..nn.module import Parameter

__all__ = ["SGD"]


class SGD:
    """SGD optimizer: ``v = mu*v + (g + wd*w); w -= lr*v``.

    Parameters whose ``requires_grad`` flag is False are skipped entirely,
    which is how the frozen library component stays untouched during expert
    extraction.

    Each parameter owns one velocity buffer, and both the buffer and
    ``param.data`` are updated in place.  Snapshots stay safe because
    ``Module.state_dict()`` hands out copies, never the arrays a step
    writes into.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.1,
        momentum: float = 0.9,
        weight_decay: float = 5e-4,
        nesterov: bool = False,
    ) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"invalid learning rate {lr}")
        if momentum < 0:
            raise ValueError(f"invalid momentum {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients accumulated in ``.grad``."""
        for param in self.params:
            if not param.requires_grad or param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = self._velocity[id(param)] = np.zeros_like(param.data)
                velocity *= self.momentum
                velocity += grad
                grad = grad + self.momentum * velocity if self.nesterov else velocity
            param.data -= self.lr * grad

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "nesterov": self.nesterov,
        }
