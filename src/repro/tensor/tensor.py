"""A numpy-backed tensor with reverse-mode automatic differentiation.

This module is the lowest substrate of the reproduction.  The paper's
reference implementation was written in PyTorch; no deep-learning framework is
available in this environment, so we implement the minimal-but-complete
tensor engine that every higher layer (``repro.nn``, ``repro.distill``,
``repro.core``) builds on.

Design notes
------------
* Reverse-mode autodiff with a topologically-sorted backward pass over a
  dynamically recorded graph (define-by-run), like PyTorch.
* Full numpy broadcasting is supported; gradients are "unbroadcast" by
  summing over broadcast axes.
* Gradient tracking obeys :mod:`repro.tensor.autograd`'s global switch so
  evaluation and PoE's train-free consolidation pay no autograd overhead.
* dtype defaults to float32 for speed; gradcheck tests run in float64.

Graph lifetime
--------------
* The graph is **acyclic**.  An op's backward closure takes the output
  gradient and *returns* its parents' gradients — a tuple aligned with
  ``_parents``, ``None`` where a parent needs none.  It may capture its
  parents and plain arrays (``out_data``) but never its own output tensor,
  so references only point from an output towards its inputs and a graph
  nobody holds any more is freed by reference counting, whether or not it
  was ever backpropagated.
* The graph is **single-use**.  :meth:`Tensor.backward` drops each node's
  closure and parents as it runs it, so activations, unfold buffers and
  gradients die during the walk; a second ``backward`` through any node of
  a consumed graph raises ``RuntimeError``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .autograd import is_grad_enabled, no_grad

__all__ = ["Tensor", "DEFAULT_DTYPE"]

DEFAULT_DTYPE = np.float32

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    numpy broadcasting can add leading axes and stretch size-1 axes; the
    gradient of a broadcast is the sum over every stretched axis.
    """
    if grad.shape == shape:
        return grad
    # Sum out any prepended broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were originally size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _consumed(*_) -> tuple:
    """What ``backward`` leaves in place of the closure of a node it has run."""
    raise RuntimeError(
        "graph already consumed by backward(): a graph is single-use, "
        "run the forward pass again to backpropagate again"
    )


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype or DEFAULT_DTYPE)


class Tensor:
    """A multi-dimensional array that records operations for backprop.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts, or another Tensor (copied view).
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _op: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        was_array = isinstance(data, (np.ndarray, np.generic))
        arr = np.asarray(data)
        if arr.dtype.kind == "f":
            # float64 ndarrays are kept (gradcheck precision); python floats
            # and lists default to float32 like everything else.
            if arr.dtype == np.float64 and was_array:
                pass
            elif arr.dtype != DEFAULT_DTYPE:
                arr = arr.astype(DEFAULT_DTYPE)
        elif arr.dtype.kind not in "iub":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], tuple]] = None
        self._parents = _parents
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        out = Tensor(self.data.astype(dtype), requires_grad=False)
        return out

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        op: str,
        backward: Callable[[np.ndarray], tuple],
    ) -> "Tensor":
        """Create an op output, recording the graph only when it matters."""
        track = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track, _parents=parents if track else (), _op=op)
        if track:
            out._backward = backward
        return out

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        The graph is consumed: every node reached gives up its closure and
        parents, and a later ``backward`` through any of them raises.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order of the graph above `self`.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                _consumed()
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        with no_grad():
            while order:
                # popped, not iterated: the walk must not keep a node alive
                node = order.pop()
                node_grad = grads.pop(id(node), None)
                closure, parents = node._backward, node._parents
                if closure is None:  # leaf: accumulate across backwards
                    if node_grad is not None:
                        node.grad = node_grad if node.grad is None else node.grad + node_grad
                    continue
                node._backward, node._parents = _consumed, ()
                if node_grad is None:
                    continue
                for parent, parent_grad in zip(parents, closure(node_grad)):
                    if parent_grad is not None:
                        held = grads.get(id(parent))
                        grads[id(parent)] = parent_grad if held is None else held + parent_grad

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    # A node is only recorded when some parent requires grad, so a closure
    # with one parent returns that parent's gradient unconditionally.
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))

        def backward(g: np.ndarray, a=self, b=other_t) -> tuple:
            return (
                _unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None,
            )

        return Tensor._make(self.data + other_t.data, (self, other_t), "add", backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), "neg", lambda g: (-g,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))

        def backward(g: np.ndarray, a=self, b=other_t) -> tuple:
            return (
                _unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None,
            )

        return Tensor._make(self.data - other_t.data, (self, other_t), "sub", backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other, self.dtype)).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))

        def backward(g: np.ndarray, a=self, b=other_t) -> tuple:
            return (
                _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
            )

        return Tensor._make(self.data * other_t.data, (self, other_t), "mul", backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))

        def backward(g: np.ndarray, a=self, b=other_t) -> tuple:
            return (
                _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data ** 2), b.shape) if b.requires_grad else None,
            )

        return Tensor._make(self.data / other_t.data, (self, other_t), "div", backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other, self.dtype)).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(g: np.ndarray, x=self.data, p=exponent) -> tuple:
            return (g * p * x ** (p - 1),)

        return Tensor._make(self.data ** exponent, (self,), "pow", backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor._make(out_data, (self,), "exp", lambda g: (g * out_data,))

    def log(self) -> "Tensor":
        return Tensor._make(np.log(self.data), (self,), "log", lambda g, x=self.data: (g / x,))

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return Tensor._make(out_data, (self,), "sqrt", lambda g: (g * 0.5 / out_data,))

    def abs(self) -> "Tensor":
        """Elementwise absolute value; subgradient at 0 is 0 (as in PyTorch).

        Needed by the paper's L1 ``L_scale`` regularizer (Eq. 4).
        """
        return Tensor._make(
            np.abs(self.data), (self,), "abs", lambda g, x=self.data: (g * np.sign(x),)
        )

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return Tensor._make(out_data, (self,), "tanh", lambda g: (g * (1.0 - out_data ** 2),))

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> tuple:
            return (g * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (self,), "sigmoid", backward)

    def relu(self) -> "Tensor":
        return Tensor._make(
            np.maximum(self.data, 0.0), (self,), "relu", lambda g, x=self.data: (g * (x > 0),)
        )

    def clip(self, low: float, high: float) -> "Tensor":
        def backward(g: np.ndarray, x=self.data) -> tuple:
            return (g * ((x >= low) & (x <= high)),)

        return Tensor._make(np.clip(self.data, low, high), (self,), "clip", backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(_as_array(other, self.dtype))

        def backward(g: np.ndarray, a=self, b=other) -> tuple:
            ga = gb = None
            if a.data.ndim == 1 and b.data.ndim == 1:  # dot product
                if a.requires_grad:
                    ga = g * b.data
                if b.requires_grad:
                    gb = g * a.data
                return ga, gb
            if a.requires_grad:
                if b.data.ndim == 1:
                    ga = np.expand_dims(g, -1) * b.data
                else:
                    ga = g @ np.swapaxes(b.data, -1, -2)
                ga = _unbroadcast(ga, a.shape)
            if b.requires_grad:
                if a.data.ndim == 1:
                    gb = np.outer(a.data, g)
                else:
                    gb = np.swapaxes(a.data, -1, -2) @ g
                gb = _unbroadcast(gb, b.shape)
            return ga, gb

        return Tensor._make(self.data @ other.data, (self, other), "matmul", backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g: np.ndarray, shape=self.shape, dtype=self.dtype) -> tuple:
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % len(shape) for a in axes):
                    g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum", backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased variance (divides by N), matching batch-norm statistics."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g: np.ndarray, x=self.data) -> tuple:
            if axis is None:
                mask = x == x.max()
                grad = mask * (g / mask.sum())
            else:
                mask = x == x.max(axis=axis, keepdims=True)
                counts = mask.sum(axis=axis, keepdims=True)
                grad = mask * ((g if keepdims else np.expand_dims(g, axis)) / counts)
            return (grad.astype(x.dtype, copy=False),)

        return Tensor._make(self.data.max(axis=axis, keepdims=keepdims), (self,), "max", backward)

    def logsumexp(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        """Numerically stable log-sum-exp with exact softmax backward."""
        m = self.data.max(axis=axis, keepdims=True)
        s = np.exp(self.data - m).sum(axis=axis, keepdims=True)
        out_data = np.log(s) + m
        if not keepdims:
            out_data = np.squeeze(out_data, axis=axis)

        def backward(g: np.ndarray, x=self.data) -> tuple:
            soft = np.exp(x - m) / s
            gg = g if keepdims else np.expand_dims(g, axis)
            return ((gg * soft).astype(x.dtype, copy=False),)

        return Tensor._make(out_data, (self,), "logsumexp", backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor._make(
            self.data.reshape(shape), (self,), "reshape", lambda g: (g.reshape(old),)
        )

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        return Tensor._make(
            self.data.transpose(axes), (self,), "transpose", lambda g: (g.transpose(inverse),)
        )

    def __getitem__(self, index) -> "Tensor":
        def backward(g: np.ndarray, x=self.data) -> tuple:
            grad = np.zeros_like(x)
            np.add.at(grad, index, g)
            return (grad,)

        return Tensor._make(self.data[index], (self,), "getitem", backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the trailing two (spatial) axes of an NCHW tensor."""
        if padding == 0:
            return self
        p = padding
        pads = [(0, 0)] * (self.ndim - 2) + [(p, p), (p, p)]
        return Tensor._make(
            np.pad(self.data, pads), (self,), "pad2d", lambda g: (g[..., p:-p, p:-p],)
        )

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis``.

        This op is the heart of the paper's train-free knowledge
        consolidation: expert sub-logits are concatenated into one unified
        logit vector (Figure 3).
        """
        parts = tuple(t if isinstance(t, Tensor) else Tensor(t) for t in tensors)
        out_data = np.concatenate([t.data for t in parts], axis=axis)
        offsets = np.cumsum([0] + [t.shape[axis] for t in parts])

        def backward(g: np.ndarray) -> tuple:
            slicer = [slice(None)] * g.ndim
            grads = []
            for tensor, start, stop in zip(parts, offsets[:-1], offsets[1:]):
                slicer[axis] = slice(int(start), int(stop))
                grads.append(g[tuple(slicer)] if tensor.requires_grad else None)
            return tuple(grads)

        return Tensor._make(out_data, parts, "concat", backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        parts = tuple(t if isinstance(t, Tensor) else Tensor(t) for t in tensors)

        def backward(g: np.ndarray) -> tuple:
            moved = np.moveaxis(g, axis, 0)
            return tuple(moved[i] if t.requires_grad else None for i, t in enumerate(parts))

        return Tensor._make(np.stack([t.data for t in parts], axis=axis), parts, "stack", backward)

    # ------------------------------------------------------------------
    # Comparison (no grad) and misc
    # ------------------------------------------------------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other, self.dtype)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other, self.dtype)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape).astype(DEFAULT_DTYPE), requires_grad=requires_grad)
