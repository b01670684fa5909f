"""Module/Parameter abstractions, mirroring the familiar torch.nn API.

A :class:`Module` tracks parameters (trainable tensors), buffers
(non-trainable state such as batch-norm running statistics) and child
modules, and provides the train/eval switch, state-dict (de)serialization and
parameter freezing that the PoE preprocessing phase relies on (the library
component is frozen while experts are extracted, paper §4.1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

import numpy as np

from ..tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor that is trainable by default and discoverable by Modules."""

    def __init__(self, data, requires_grad: bool = True) -> None:
        super().__init__(data, requires_grad=requires_grad)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state saved with the state dict."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _update_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a registered buffer in-place-like fashion."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, getattr(self, name)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix + child_name + ".")

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(
            p.size
            for p in self.parameters()
            if not trainable_only or p.requires_grad
        )

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, flag: bool = True) -> "Module":
        """Freeze (or unfreeze) every parameter in the module tree.

        PoE freezes the shared library component during expert extraction so
        that all experts remain attachable to the exact same trunk.
        """
        for param in self.parameters():
            param.requires_grad = flag
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """A snapshot of every parameter and buffer: copies, so training
        the module on (an optimizer updates parameters in place) never
        rewrites a state dict a caller holds."""
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        own_buffer_owners: Dict[str, Tuple[Module, str]] = {}
        self._collect_buffer_owners(own_buffer_owners, "")
        missing = []
        for name, param in own_params.items():
            if name in state:
                if state[name].shape != param.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: have {param.shape}, got {state[name].shape}"
                    )
                param.data = np.array(state[name], dtype=param.dtype)
            elif strict:
                missing.append(name)
        for name, (owner, local) in own_buffer_owners.items():
            if name in state:
                owner._update_buffer(local, np.array(state[name]))
            elif strict:
                missing.append(name)
        if strict:
            known = set(own_params) | set(own_buffer_owners)
            unexpected = [k for k in state if k not in known]
            if missing or unexpected:
                raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")

    def _collect_buffer_owners(
        self, out: Dict[str, Tuple["Module", str]], prefix: str
    ) -> None:
        for name in self._buffers:
            out[prefix + name] = (self, name)
        for child_name, child in self._modules.items():
            child._collect_buffer_owners(out, prefix + child_name + ".")

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lines = [self.__class__.__name__ + "("]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        lines.append(")")
        return "\n".join(lines)
