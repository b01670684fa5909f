"""Convolution, pooling and batch-norm primitives with custom backward.

These ops dominate the runtime of every experiment, so rather than
composing them from elementwise autograd ops we implement them as fused
autograd nodes whose forward/backward are a few big numpy calls.

**Layout.**  Tensors are *logically* NCHW (batch, channels, height, width),
the same as the paper's PyTorch reference code — that is what ``.shape``
says and what every caller indexes.  *Physically* every op here computes
channels-last: it reads its input through the ``(N, H, W, C)`` transpose,
works on ``(N·H·W, C)`` matrices, and returns its ``(N, OH, OW, C_out)``
result as a transposed **view**, so activations flow between layers as
logical NCHW over physical NHWC — the contract :mod:`repro.nn.fused` set
for the serving path.  A GEMM's output then *is* the next layer's input
layout, an unfold copies runs of ``KW·C`` floats instead of ``KW``, and
elementwise numpy ops in between (ReLU, the residual add) keep whatever
layout their operands have.  Nothing depends on the physical layout for
correctness: an NCHW-contiguous array (a dataset batch, a hand-made
gradient) is accepted anywhere and costs one strided copy at entry.
Gradients returned for *parameters* are always C-contiguous in the parameter's
declared shape, so weights and optimizer state never drift to a permuted
layout.

**Member-stacked weights.**  ``conv2d`` and ``batch_norm2d`` also run a
*bank* of ``G`` same-shape layers in one call: the weights carry a leading
member axis and the activations fold the member into the batch axis,
``(G·N, C, H, W)`` with member ``g``'s rows at ``[g·N, (g+1)·N)``.  Each
member sees only its own rows and its own weights (a batched GEMM, batch
statistics per member), so a bank computes what ``G`` separate calls would.
An unstacked weight is the one-member case, and runs the same numpy calls
on the same operands as a single layer always has.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = [
    "conv2d",
    "batch_norm2d",
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool2d",
    "conv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    return (size + 2 * padding - kernel) // stride + 1


def _channels_last(x: np.ndarray) -> np.ndarray:
    """Logical NCHW -> the (N, H, W, C) view every op here computes on."""
    return x.transpose(0, 2, 3, 1)


def _unfold(
    x: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold channels-last ``x`` (N, H, W, C; any strides) into columns.

    Returns ``(cols, OH, OW)`` with ``cols`` of shape (N·OH·OW, KH·KW·C): one
    strided copy out of a zero-bordered buffer, or no copy at all when the
    window *is* the input (1×1, stride 1, contiguous).
    """
    n, h, w, c = x.shape
    oh = conv_output_size(h, kh, stride, ph)
    ow = conv_output_size(w, kw, stride, pw)
    if ph or pw:
        padded = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
        padded[:, ph : ph + h, pw : pw + w] = x
        x = padded
    sn, sh, sw, sc = x.strides
    window = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    return window.reshape(n * oh * ow, kh * kw * c), oh, ow


def _fold(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Sum columns (N·OH·OW, KH·KW·C) back into a channels-last (N, H, W, C)
    image: the adjoint of :func:`_unfold`."""
    n, h, w, c = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    image = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, kh, kw, c)
    for i in range(kh):
        rows = slice(i, i + stride * oh, stride)
        for j in range(kw):
            image[:, rows, j : j + stride * ow : stride] += cols6[:, :, :, i, j]
    return image[:, padding : padding + h, padding : padding + w]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D cross-correlation, ``weight`` of shape (C_out, C_in, KH, KW).

    A member-stacked ``weight`` (G, C_out, C_in, KH, KW), with ``bias``
    (G, C_out), convolves each of the G row blocks of ``x`` with its own
    kernels (see the module docstring).
    """
    n, c, h, w = x.shape
    *members, c_out, c_in, kh, kw = weight.shape
    g = members[0] if members else 1
    if c_in != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {c_in}")
    if n % g:
        raise ValueError(f"conv2d: {n} rows do not split into {g} members")
    cols, oh, ow = _unfold(_channels_last(x.data), kh, kw, stride, padding, padding)
    cols = cols.reshape(g, -1, kh * kw * c)  # (G, N/G*OH*OW, KH*KW*C)
    # (C_out, C, KH, KW) -> (C_out, KH*KW*C) per member: the unfold's column order
    w5 = weight.data.reshape(g, c_out, c, kh, kw)
    w2 = w5.transpose(0, 1, 3, 4, 2).reshape(g, c_out, kh * kw * c)
    out_data = cols @ w2.transpose(0, 2, 1)  # (G, N/G*OH*OW, C_out)
    if bias is not None:
        out_data += bias.data.reshape(g, 1, c_out)
    out_data = out_data.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> tuple:
        gl = _channels_last(grad)  # (N, OH, OW, C_out)
        g2 = gl.reshape(g, -1, c_out)
        gx = gw = gb = None
        if bias is not None and bias.requires_grad:
            gb = g2.sum(axis=1).reshape(bias.shape)
        if weight.requires_grad:
            gw = (g2.transpose(0, 2, 1) @ cols).reshape(g, c_out, kh, kw, c)
            gw = np.ascontiguousarray(gw.transpose(0, 1, 4, 2, 3)).reshape(weight.shape)
        if x.requires_grad:
            if stride == 1 and padding < min(kh, kw):
                # a gather, not a scatter: dX is the correlation of the (zero-
                # bordered) output gradient with the flipped kernels
                gcols, _, _ = _unfold(gl, kh, kw, 1, kh - 1 - padding, kw - 1 - padding)
                flipped = w5[:, :, :, ::-1, ::-1].transpose(0, 3, 4, 1, 2)
                gx = gcols.reshape(g, -1, kh * kw * c_out) @ flipped.reshape(
                    g, kh * kw * c_out, c
                )
                gx = gx.reshape(n, h, w, c)
            else:
                gx = (g2 @ w2).reshape(-1, kh * kw * c)
                gx = _fold(gx, (n, h, w, c), kh, kw, stride, padding)
            gx = gx.transpose(0, 3, 1, 2)
        return (gx, gw, gb)[: len(parents)]

    return Tensor._make(out_data, parents, "conv2d", backward)


def batch_norm2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stats: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    eps: float = 1e-5,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Per-channel normalisation of an NCHW tensor as one graph node.

    ``stats=None`` normalises with the batch's own mean and (biased)
    variance and backpropagates through them (training mode); a given
    ``(mean, var)`` pair is a constant, which makes the op a per-channel
    scale and shift (eval mode).  Returns the output and the mean and
    variance it used, for the caller's running estimates.

    A member-stacked ``weight``/``bias`` (G, C) normalises each of the G
    row blocks of ``x`` with its own statistics (``stats`` and the returned
    mean and variance are then (G, C) too).
    """
    n, c, h, w = x.shape
    g = weight.shape[0] if weight.ndim == 2 else 1
    if n % g:
        raise ValueError(f"batch_norm2d: {n} rows do not split into {g} members")
    x3 = _channels_last(x.data).reshape(g, -1, c)  # (G, N/G*H*W, C)
    gamma = weight.data.reshape(g, 1, c)
    beta = bias.data.reshape(g, 1, c)
    if stats is None:
        count = x3.shape[1]
        mean = x3.sum(axis=1, keepdims=True) / count
        x_hat = x3 - mean
        var = np.einsum("gij,gij->gj", x_hat, x_hat)[:, None] / count
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat *= inv_std
        out_data = x_hat * gamma
        out_data += beta
    else:
        mean, var = (np.asarray(s, dtype=x3.dtype).reshape(g, 1, c) for s in stats)
        inv_std = 1.0 / np.sqrt(var + eps)
        scale = gamma * inv_std
        out_data = x3 * scale
        out_data += beta - mean * scale
    out_data = out_data.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray) -> tuple:
        g3 = _channels_last(grad).reshape(g, -1, c)
        g_beta = g_gamma = gx = None
        # the batch-statistics input gradient needs both parameter gradients
        if stats is None or bias.requires_grad:
            g_beta = g3.sum(axis=1, keepdims=True)
        if stats is None or weight.requires_grad:
            normed = x_hat if stats is None else (x3 - mean) * inv_std
            g_gamma = np.einsum("gij,gij->gj", g3, normed)[:, None]
        if x.requires_grad:
            if stats is None:
                # closed form through the batch mean and variance
                gx = g3 - g_beta / count
                gx -= normed * (g_gamma / count)
                gx *= gamma * inv_std
            else:
                gx = g3 * (gamma * inv_std)
            gx = gx.reshape(n, h, w, c).transpose(0, 3, 1, 2)
        return (
            gx,
            g_gamma.reshape(weight.shape) if weight.requires_grad else None,
            g_beta.reshape(bias.shape) if bias.requires_grad else None,
        )

    out = Tensor._make(out_data, (x, weight, bias), "batch_norm2d", backward)
    return out, mean.reshape(weight.shape), var.reshape(weight.shape)


def _pool_windows(x: Tensor, kernel: int, stride: int) -> Tuple[np.ndarray, int, int]:
    """Pooling windows of ``x`` as (N·OH·OW, K·K, C), plus (OH, OW)."""
    cols, oh, ow = _unfold(_channels_last(x.data), kernel, kernel, stride, 0, 0)
    return cols.reshape(-1, kernel * kernel, x.shape[1]), oh, ow


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling with square kernel (no padding)."""
    stride = stride or kernel
    n, c, h, w = x.shape
    windows, oh, ow = _pool_windows(x, kernel, stride)
    out_data = windows.mean(axis=1).reshape(n, oh, ow, c).transpose(0, 3, 1, 2)

    def backward(g: np.ndarray) -> tuple:
        share = _channels_last(g).reshape(-1, 1, c) / (kernel * kernel)
        gcols = np.broadcast_to(share, windows.shape)
        gx = _fold(gcols, (n, h, w, c), kernel, kernel, stride, 0)
        return (gx.transpose(0, 3, 1, 2),)

    return Tensor._make(out_data, (x,), "avg_pool2d", backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling with square kernel (no padding)."""
    stride = stride or kernel
    n, c, h, w = x.shape
    windows, oh, ow = _pool_windows(x, kernel, stride)
    arg = windows.argmax(axis=1)[:, None, :]
    out_data = np.take_along_axis(windows, arg, axis=1)
    out_data = out_data.reshape(n, oh, ow, c).transpose(0, 3, 1, 2)

    def backward(g: np.ndarray) -> tuple:
        gcols = np.zeros_like(windows)
        np.put_along_axis(gcols, arg, _channels_last(g).reshape(-1, 1, c), axis=1)
        gx = _fold(gcols, (n, h, w, c), kernel, kernel, stride, 0)
        return (gx.transpose(0, 3, 1, 2),)

    return Tensor._make(out_data, (x,), "max_pool2d", backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions, returning (N, C)."""
    return x.mean(axis=(2, 3))
