"""Fused batched execution primitives for same-shaped module banks.

The service phase assembles one model per query out of *structurally
identical* expert heads (same conv/BN/FC shapes, possibly different class
counts).  Running those heads with a Python loop pays the per-op overhead
of the autograd tensor engine ``n(Q)`` times per layer; these primitives
instead fold the head index into the batch dimension and execute every
head's layer as **one** vectorized numpy call:

* convolutions become stacked GEMMs — ``(N·OH·OW, KH·KW·C) @ (KH·KW·C,
  C_out)`` per bank member over one shared im2col slab — instead of ``n``
  im2col+GEMM round trips through the graph machinery;
* eval-mode batch norm collapses to a per-channel affine ``x·scale +
  shift`` with the scale/shift folded once at stack-build time — and a
  batch norm that follows a conv with no non-linearity in between (a
  block's ``bn2``) disappears into that conv's weight and bias;
* the classifiers become one padded batched GEMM, sliced back to each
  head's class count afterwards.

**Layout** is channels-last: activations flow as ``(n, N, H, W, C)`` —
``n`` stacked modules, batch ``N``.  NHWC is what makes the path fast on
numpy, not just batched: a GEMM's output *is* the next layer's input
layout (no transpose copies between layers), the im2col window view
copies into GEMM-ready order with no transpose, and 1×1 (shortcut)
convolutions are a gathered strided slice plus matmul with no unfolding
at all.  Nothing in a forward pass allocates its activations: every op
runs against the calling thread's :class:`_Workspace` — flat float32
slabs (padded conv inputs whose zero border is written once, one im2col
block, two ping-pong GEMM outputs, one affine temp) that grow to the
largest chunk the thread has seen and are re-sliced for smaller ones,
plus a bounded memo of the views each op needs per shape.  A producer
writes straight into the next conv's padded input (``ReLU`` lands there,
not in a buffer of its own), a conv unfolds and multiplies in blocks of
``_UNFOLD_BYTES`` so the columns are still in cache when the GEMM reads
them, and per-channel constants are tiled across ``_TILE_PIXELS`` so
element-wise ops run long contiguous rows.  What a primitive returns is
therefore a **view of the workspace, valid until the thread's next fused
call**; only the two walkers return arrays of their own.  Features cross
the trunk → cache → head-bank boundary as **logical NCHW over physical
NHWC**: :class:`FusedTrunk` returns its channels-last result transposed,
every consumer sees the autograd trunk's shape, and the bank's transpose
back is a view.  Everything here is inference-only (no autograd, no
training-mode BN) and operates on plain ``np.ndarray``\\ s;
:class:`repro.models.fused_head.FusedHeadBank` composes these into the
full WRN head fast path, and :class:`FusedTrunk` applies the same
lowering to the *shared library trunk* (a bank of one) so cold
predictions skip the autograd engine end to end.

Single-module banks (``n = 1``) **alias** the live parameters wherever
the GEMM layout is reachable by a view — 1×1 shortcut weights and
classifier weights; k×k conv weights need a layout transform (a copy),
and folded batch norms, folded conv weights and tiled biases are derived
by construction.  Either way a compiled artifact must be treated as
frozen: mutate a module's weights in place (``load_state_dict``) and you
must recompile (a pool re-extraction never does this: it installs *new*
module objects, at new versions).

**Public entry points.**  Layer builders: :func:`stack_conv`,
:func:`stack_affine` (+ :func:`fold_batchnorm`), :func:`stack_linear`,
composed per residual stage by :class:`FusedBlock`; :func:`mean_pool` is
the head's global average pool.  Trunk compilation: :class:`FusedTrunk`
(one-shot compiler over a frozen eval-mode ``WRNTrunk``,
``allclose``-probed against autograd at compile time), normally reached
through :func:`fused_trunk_for` — the per-trunk-object memo that makes a
``LIBRARY_TASK`` re-extraction recompile by construction — with
:func:`invalidate_fused_trunk` as the escape hatch for deliberate
in-place mutation.  Higher layers should not call the primitives
directly: ``repro.models.FusedHeadBank`` wraps the head bank,
``repro.core.features.fused_trunk_features`` the trunk.

**Thread-safety expectations.**  Compiled artifacts are **frozen after
construction** — weights, folded and tiled constants, geometry — so any
number of serving threads may run the same
``FusedTrunk``/``FusedBlock``/bank concurrently.  Everything a forward
pass mutates is **thread-local**: the workspace's slabs and its plan
memo belong to the calling thread, live as long as it does, and hold
views of their own slabs only — never an array of a bank or a trunk, so
an evicted model is collected even though a pool thread ran it.  A
workspace costs its thread the largest activations it has run (a
512-image chunk at most) plus one ``_UNFOLD_BYTES`` im2col block.
*Compilation* is not internally locked — :func:`fused_trunk_for` may
compile the same trunk twice under a race, which costs a duplicate probe
but is harmless because the memo write is atomic and either artifact is
valid.  Callers that mutate module weights in place must ensure no
forward is concurrently reading the aliased views; the serving tiers
never do this (they swap module objects and recompile instead).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import prod
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor.conv import conv_output_size

__all__ = [
    "fold_batchnorm",
    "mean_pool",
    "stack_affine",
    "stack_conv",
    "stack_linear",
    "FusedAffine",
    "FusedBlock",
    "FusedConv",
    "FusedLinearBank",
    "FusedTrunk",
    "fused_trunk_for",
    "invalidate_fused_trunk",
]

#: Pixels every per-channel constant (affine scale/shift, conv bias) is tiled
#: across at stack time.  An element-wise op then runs over rows of up to
#: ``_TILE_PIXELS · C`` contiguous floats instead of ``C``; past ~256 floats a
#: longer row buys nothing, so the tile stays small next to the weights.
_TILE_PIXELS = 16
#: Bytes of im2col columns unfolded per GEMM.  A conv runs as copy-then-GEMM
#: over blocks of whole images this size, so the columns are still in the
#: core's cache when the GEMM reads them (and the im2col slab never holds a
#: batch's worth of columns, only a block — or one shortcut's gathered pixels).
_UNFOLD_BYTES = 128 << 10


class _Workspace(threading.local):
    """One thread's scratch memory for the fused walkers.

    Flat float32 **slabs** that only ever grow — to the largest chunk this
    thread has run — and a bounded memo of **plans**: the views of those
    slabs (reshapes, padded interiors, strided im2col windows) one op needs
    at one shape.  A warm forward therefore allocates nothing but what it
    returns.  Plans hold views of slabs only, never an array of a compiled
    artifact, so a workspace keeps no bank or trunk alive.
    """

    #: Plans kept per thread; the oldest goes first.  One trunk or bank at
    #: one batch size needs 10-15.
    _MAX_PLANS = 256

    def __init__(self) -> None:
        self._slabs: Dict[Hashable, np.ndarray] = {}
        self._plans: Dict[tuple, tuple] = {}

    def slab(self, key: Hashable, size: int) -> np.ndarray:
        """The first ``size`` elements of slab ``key``, grown if too small.

        New memory is zero (what a padded-input slab's border relies on);
        growing drops every plan, because any of them may view the old slab.
        """
        slab = self._slabs.get(key)
        if slab is None or slab.size < size:
            slab = self._slabs[key] = np.zeros(size, dtype=np.float32)
            self._plans.clear()
        return slab[:size]

    def plan(self, build: Callable[..., tuple], *args) -> tuple:
        """``build(self, *args)``, memoized on the builder and its arguments."""
        key = (build, *args)
        plan = self._plans.get(key)
        if plan is None:
            plan = build(self, *args)
            while len(self._plans) >= self._MAX_PLANS:
                del self._plans[next(iter(self._plans))]
            self._plans[key] = plan
        return plan


_WORKSPACE = _Workspace()


def _row_width(pixels: int, channels: int) -> int:
    """Longest row of whole pixels that divides ``pixels`` and fits the tile."""
    for tile in range(min(_TILE_PIXELS, pixels), 0, -1):
        if pixels % tile == 0:
            return tile * channels
    return channels


def _padded_plan(ws: _Workspace, n, batch, h, w, c, padding) -> tuple:
    """``(padded4d, interior)`` of the padded-input slab for one input shape.

    ``interior`` is its (n, batch, H, W, C) inside: whoever produces a
    conv's input writes it there, and the border — zero since the slab was
    allocated, the slab being keyed on everything that fixes where the
    border is — is never touched again.
    """
    m, hp, wp = n * batch, h + 2 * padding, w + 2 * padding
    padded = ws.slab(("padded", hp, wp, c, padding), m * hp * wp * c).reshape(m, hp, wp, c)
    interior = padded[:, padding : padding + h, padding : padding + w, :]
    return padded, interior.reshape(n, batch, h, w, c)


def _activation_plan(ws: _Workspace, key, n, batch, h, w, c) -> tuple:
    """``(act5d, rows, width)``: slab ``key`` as one (n, batch, H, W, C)
    activation, and as the rows of whole pixels its tiled constants apply to."""
    act = ws.slab(key, n * batch * h * w * c)
    width = _row_width(batch * h * w, c)
    return act.reshape(n, batch, h, w, c), act.reshape(n, -1, width), width


def _conv_plan(ws: _Workspace, slot, n, batch, h, w, c, c_out, k, stride, padding) -> tuple:
    """``(steps, out5d, rows, width)`` of one k×k conv into output slab ``slot``.

    The unfold is cut into blocks of whole images whose columns fit
    ``_UNFOLD_BYTES``; a step is ``(window, cols6d, cols2d, member, out2d)``:
    copy the strided window view of the padded input into the im2col slab,
    multiply it by bank member ``member``'s weight into its rows of the output.
    """
    padded, _ = ws.plan(_padded_plan, n, batch, h, w, c, padding)
    oh = conv_output_size(h, k, stride, padding)
    ow = conv_output_size(w, k, stride, padding)
    out5d, rows, width = ws.plan(_activation_plan, ("out", slot), n, batch, oh, ow, c_out)
    out3d = out5d.reshape(n, batch * oh * ow, c_out)
    pixels, depth = oh * ow, k * k * c
    group = max(1, min(batch, _UNFOLD_BYTES // (4 * pixels * depth)))
    cols = ws.slab("cols", group * pixels * depth)
    sm, sh, sw, sc = padded.strides
    window = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n * batch, oh, ow, k, k, c),
        strides=(sm, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    steps = []
    for member in range(n):
        for first in range(0, batch, group):
            count = min(group, batch - first)
            block = cols[: count * pixels * depth]
            image = member * batch + first
            steps.append(
                (
                    window[image : image + count],
                    block.reshape(count, oh, ow, k, k, c),
                    block.reshape(count * pixels, depth),
                    member,
                    out3d[member, first * pixels : (first + count) * pixels],
                )
            )
    return steps, out5d, rows, width


def _view_plan(ws: _Workspace, key, *shape) -> tuple:
    return (ws.slab(key, prod(shape)).reshape(shape),)


def fold_batchnorm(bn) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse an eval-mode :class:`~repro.nn.BatchNorm2d` into ``(scale, shift)``.

    ``y = (x - mean) / sqrt(var + eps) * gamma + beta`` is affine per
    channel once the statistics are frozen:
    ``scale = gamma / sqrt(var + eps)``, ``shift = beta - mean * scale``.
    """
    inv_std = 1.0 / np.sqrt(bn.running_var.astype(np.float64) + bn.eps)
    scale = bn.weight.data.astype(np.float64) * inv_std
    shift = bn.bias.data.astype(np.float64) - bn.running_mean.astype(np.float64) * scale
    return scale.astype(np.float32), shift.astype(np.float32)


def _fold_bank(bns: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """Folded ``(scale, shift)`` of ``n`` same-width batch norms, each (n, C)."""
    scales, shifts = zip(*(fold_batchnorm(bn) for bn in bns))
    return np.stack(scales), np.stack(shifts)


def _tile_channels(values: np.ndarray) -> np.ndarray:
    """Per-channel ``values`` (n, C) repeated across one row block (n, 1, T·C)."""
    return np.tile(values.astype(np.float32, copy=False), (1, _TILE_PIXELS))[:, None, :]


@dataclass(frozen=True)
class FusedAffine:
    """A bank of per-channel affines followed by ReLU.

    ``scale``/``shift`` are tiled to (n, 1, T·C) at stack time so the
    multiply and the add run over long contiguous rows.
    """

    scale: np.ndarray
    shift: np.ndarray

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``relu(x·scale + shift)`` for contiguous (n_x, N, H, W, C) ``x``.

        Written into ``out`` (n, N, H, W, C; any strides — typically the
        next conv's padded interior) or, without one, left in the affine
        temp; n_x ∈ {1, n}.
        """
        n_x, batch, h, w, c = x.shape
        temp, rows, width = _WORKSPACE.plan(
            _activation_plan, "affine", self.scale.shape[0], batch, h, w, c
        )
        np.multiply(x.reshape(n_x, -1, width), self.scale[:, :, :width], out=rows)
        np.add(rows, self.shift[:, :, :width], out=rows)
        return np.maximum(temp, 0.0, out=temp if out is None else out)

    def nbytes(self) -> int:
        return self.scale.nbytes + self.shift.nbytes


def stack_affine(bns: Sequence) -> FusedAffine:
    """Stack the folded affines of ``n`` same-width BatchNorm2d modules."""
    scale, shift = _fold_bank(bns)
    return FusedAffine(scale=_tile_channels(scale), shift=_tile_channels(shift))


@dataclass(frozen=True)
class FusedConv:
    """A bank of ``n`` same-shape convolutions executed as one stacked GEMM.

    ``weight`` is pre-reshaped to (n, KH·KW·C_in, C_out) so the hot path
    is a single ``np.matmul`` against the shared im2col columns; a 1×1
    kernel multiplies a gathered strided slice with no unfolding at all.
    ``bias`` is tiled like an affine's constants.
    """

    weight: np.ndarray  # (n, KH*KW*C_in, C_out)
    bias: Optional[np.ndarray]  # (n, 1, T*C_out) or None
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int

    def output_size(self, h: int, w: int) -> Tuple[int, int]:
        k, s, p = self.kernel_size, self.stride, self.padding
        return conv_output_size(h, k, s, p), conv_output_size(w, k, s, p)

    def staged(self, batch: int, h: int, w: int) -> np.ndarray:
        """Where to write this conv's (n, N, H, W, C_in) input to save a copy.

        The inside of the padded-input slab: pass the returned array to
        :meth:`__call__` once it is filled.
        """
        return _WORKSPACE.plan(
            _padded_plan, self.weight.shape[0], batch, h, w, self.in_channels, self.padding
        )[1]

    def __call__(
        self, x: np.ndarray, slot: int = 0, relu_to: Optional["FusedConv"] = None
    ) -> np.ndarray:
        """(n_x, N, H, W, C_in) -> (n, N, OH, OW, C_out); n_x ∈ {1, n}.

        The result is a view of output slab ``slot`` — or, with ``relu_to``,
        its ReLU written into that conv's :meth:`staged` input.
        """
        n_x, batch, h, w, c = x.shape
        n = self.weight.shape[0]
        k = self.kernel_size
        oh, ow = self.output_size(h, w)
        if k == 1 and self.padding == 0:
            # shortcut path: a 1x1 conv is a channel mix over a strided
            # slice, gathered first so the GEMM gets a contiguous operand
            out5d, rows, width = _WORKSPACE.plan(
                _activation_plan, ("out", slot), n, batch, oh, ow, self.out_channels
            )
            (pixels,) = _WORKSPACE.plan(_view_plan, "cols", n_x, batch, oh, ow, c)
            np.copyto(pixels, x[:, :, :: self.stride, :: self.stride, :])
            np.matmul(
                pixels.reshape(n_x, -1, c),
                self.weight,
                out=out5d.reshape(n, -1, self.out_channels),
            )
            if self.bias is not None:
                np.add(rows, self.bias[:, :, :width], out=rows)
            return out5d
        interior = self.staged(batch, h, w)
        if x is not interior:  # not staged: copy in (a shared input broadcasts)
            np.copyto(interior, x)
        steps, out5d, rows, width = _WORKSPACE.plan(
            _conv_plan, slot, n, batch, h, w, c, self.out_channels, k, self.stride, self.padding
        )
        for window, cols6d, cols2d, member, out2d in steps:
            np.copyto(cols6d, window)
            np.matmul(cols2d, self.weight[member], out=out2d)
        if self.bias is not None:
            np.add(rows, self.bias[:, :, :width], out=rows)
        if relu_to is None:
            return out5d
        return np.maximum(out5d, 0.0, out=relu_to.staged(batch, oh, ow))

    def nbytes(self) -> int:
        return self.weight.nbytes + (0 if self.bias is None else self.bias.nbytes)


def stack_conv(convs: Sequence, bns: Optional[Sequence] = None) -> FusedConv:
    """Stack ``n`` same-shape :class:`~repro.nn.Conv2d` modules into a bank.

    ``bns`` are eval-mode batch norms applied to each conv's output with
    nothing in between; they are folded into the weight and the bias, so
    the bank computes ``bn(conv(x))`` at the cost of ``conv(x)``.
    """
    first = convs[0]
    shape = first.weight.shape
    for conv in convs[1:]:
        if conv.weight.shape != shape or (conv.stride, conv.padding) != (
            first.stride,
            first.padding,
        ):
            raise ValueError(
                f"cannot stack convs of differing geometry: {conv.weight.shape} "
                f"vs {shape}"
            )
    c_out, c_in, kh, kw = shape
    if len(convs) == 1 and kh == 1 and kw == 1 and bns is None:
        # single 1x1 module: the GEMM operand (1, C_in, C_out) is a pure
        # view of the live parameter — aliased, not copied
        weight = first.weight.data.reshape(c_out, c_in).T[None]
    else:
        # (C_out, C_in, KH, KW) -> channels-last GEMM operand (KH*KW*C_in, C_out)
        weight = np.ascontiguousarray(
            np.stack(
                [
                    conv.weight.data.transpose(2, 3, 1, 0).reshape(kh * kw * c_in, c_out)
                    for conv in convs
                ]
            ),
            dtype=np.float32,
        )
    bias = None
    if first.bias is not None:
        bias = np.stack([conv.bias.data for conv in convs])
    if bns is not None:
        scale, shift = _fold_bank(bns)
        weight = weight * scale[:, None, :]
        bias = shift if bias is None else bias * scale + shift
    return FusedConv(
        weight=weight,
        bias=None if bias is None else _tile_channels(bias),
        in_channels=c_in,
        out_channels=c_out,
        kernel_size=kh,
        stride=first.stride,
        padding=first.padding,
    )


@dataclass(frozen=True)
class FusedLinearBank:
    """A bank of classifiers with (possibly) different output widths.

    Weights are zero-padded to the widest head so the whole bank is one
    batched GEMM; ``widths`` remembers each head's true class count so the
    caller can slice the padded logits back apart.
    """

    weight: np.ndarray  # (n, C, max_out)
    bias: np.ndarray  # (n, 1, max_out)
    widths: Tuple[int, ...]

    def __call__(self, feats: np.ndarray, slot: int = 0) -> np.ndarray:
        """(n, N, C) -> padded logits (n, N, max_out), a view of output slab ``slot``."""
        n, _, max_out = self.weight.shape
        (out,) = _WORKSPACE.plan(_view_plan, ("out", slot), n, feats.shape[1], max_out)
        np.matmul(feats, self.weight, out=out)
        return np.add(out, self.bias, out=out)

    def concatenate(self, padded: np.ndarray) -> np.ndarray:
        """Slice padded logits back to true widths and join along classes
        (a new array: this is what leaves the workspace)."""
        return np.concatenate(
            [padded[i, :, :width] for i, width in enumerate(self.widths)], axis=1
        )

    def nbytes(self) -> int:
        return self.weight.nbytes + self.bias.nbytes


def mean_pool(x: np.ndarray, slot: int = 0) -> np.ndarray:
    """Global average pool (n, N, H, W, C) -> (n, N, C), a view of output slab ``slot``."""
    n, batch, h, w, c = x.shape
    (pooled,) = _WORKSPACE.plan(_view_plan, ("out", slot), n, batch, c)
    # sum then scale, in float32 throughout: np.mean(out=) divides through
    # float64 cast buffers
    np.add.reduce(x.reshape(n, batch, h * w, c), axis=2, out=pooled)
    return np.multiply(pooled, np.float32(1.0 / (h * w)), out=pooled)


def stack_linear(linears: Sequence) -> FusedLinearBank:
    """Stack ``n`` :class:`~repro.nn.Linear` classifiers (same in_features)."""
    in_features = linears[0].in_features
    for lin in linears[1:]:
        if lin.in_features != in_features:
            raise ValueError(
                f"cannot stack linears with differing in_features: "
                f"{lin.in_features} vs {in_features}"
            )
    widths = tuple(lin.out_features for lin in linears)
    max_out = max(widths)
    n = len(linears)
    if n == 1 and linears[0].bias is not None:
        # single classifier needs no padding: both operands are views of
        # the live parameters (aliased, not copied)
        lin = linears[0]
        return FusedLinearBank(
            weight=lin.weight.data.T[None],
            bias=lin.bias.data.reshape(1, 1, max_out),
            widths=widths,
        )
    weight = np.zeros((n, in_features, max_out), dtype=np.float32)
    bias = np.zeros((n, 1, max_out), dtype=np.float32)
    for i, lin in enumerate(linears):
        weight[i, :, : widths[i]] = lin.weight.data.T
        if lin.bias is not None:
            bias[i, 0, : widths[i]] = lin.bias.data
    return FusedLinearBank(weight=weight, bias=bias, widths=widths)


class FusedBlock:
    """One pre-activation WRN basic block across a bank of ``n`` modules.

    Duck-typed over block modules exposing ``bn1``/``conv1``/``bn2``/
    ``conv2``/``needs_projection``/``shortcut`` (the
    :class:`~repro.models.wrn.BasicBlock` contract) so both the expert
    head bank and the single-trunk compiler lower through one code path.
    ``bn2`` follows ``conv1`` with no non-linearity in between, so it is
    folded into ``conv1``'s weight and bias: a block runs one affine, not two.
    """

    def __init__(self, blocks: Sequence) -> None:
        self.bn1 = stack_affine([b.bn1 for b in blocks])
        self.conv1 = stack_conv([b.conv1 for b in blocks], bns=[b.bn2 for b in blocks])
        self.conv2 = stack_conv([b.conv2 for b in blocks])
        projections = {b.needs_projection for b in blocks}
        if len(projections) != 1:
            raise ValueError("cannot stack blocks with differing shortcut shapes")
        self.shortcut = (
            stack_conv([b.shortcut for b in blocks]) if projections.pop() else None
        )

    def __call__(self, x: np.ndarray, slot: int = 0) -> np.ndarray:
        """(n_x, N, H, W, C) -> (n, N, OH, OW, C_out) in output slab ``slot``.

        ``x`` may live in the other output slab (walkers alternate slots):
        a projection overwrites it there, but only once ``bn1`` has read it.
        """
        _, batch, h, w, _ = x.shape
        pre = self.bn1(x, out=self.conv1.staged(batch, h, w))
        residual = x if self.shortcut is None else self.shortcut(pre, 1 - slot)
        out = self.conv2(self.conv1(pre, slot, relu_to=self.conv2), slot)
        return np.add(out, residual, out=out)

    def nbytes(self) -> int:
        parts = (self.bn1, self.conv1, self.conv2, self.shortcut)
        return sum(part.nbytes() for part in parts if part is not None)


class FusedTrunk:
    """A frozen eval-mode WRN trunk compiled to channels-last primitives.

    The one-shot compiler behind the *cold* prediction fast path: walks a
    trunk module (duck-typed — ``conv1`` plus ``groups[i].blocks[j]`` in
    the :class:`~repro.models.wrn.WRNTrunk` shape) and lowers every layer
    to the same NHWC bank primitives the expert head bank uses, with a
    bank size of one: blocked im2col + GEMM per conv, eval-BN folded into
    per-channel affines (or into the conv before it), 1×1 residual
    shortcuts as gather+matmul.  The compiled program runs on plain numpy
    with **no autograd graph** and no allocation but its result; NCHW
    becomes NHWC inside the first conv's input copy and the features go
    out as a transposed view, so they keep the loop path's shape.

    Weights are aliased from the live modules where a view reaches the
    GEMM layout (1×1 shortcuts) and layout-copied otherwise, so
    the compile is cheap but the artifact goes stale if the source trunk
    is mutated *in place* — the ``LIBRARY_TASK`` version machinery never
    does that (re-extraction installs a new trunk object, and
    :func:`fused_trunk_for` memoizes per object), but after a manual
    ``load_state_dict`` call :func:`invalidate_fused_trunk`.

    ``verify=True`` (the default) runs a deterministic probe batch through
    both the compiled program and the autograd trunk at compile time and
    raises if they diverge beyond float32 round-off — the fast path can
    never silently serve wrong features.
    """

    #: Spatial size of the deterministic compile-time verification probe.
    _PROBE_SIZE = 8

    def __init__(self, trunk, verify: bool = True) -> None:
        self.conv1 = stack_conv([trunk.conv1])
        self._blocks: List[FusedBlock] = [
            FusedBlock([block]) for group in trunk.groups for block in group.blocks
        ]
        self.in_channels = int(trunk.conv1.in_channels)
        self.out_channels = int(
            self._blocks[-1].conv2.out_channels if self._blocks else self.conv1.out_channels
        )
        if verify:
            self.verify(trunk)

    # ------------------------------------------------------------------
    def __call__(self, images: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Library-level features (N, C, H, W) for NCHW ``images``.

        Matches the autograd trunk's eval-mode forward to float32
        round-off (``allclose``); chunks over the batch so the workspace
        stays bounded for large prediction batches.  The returned array is
        **logical NCHW over physical NHWC** memory (a transposed view of
        the channels-last result), so the head bank reads it back
        channels-last without a copy while every other consumer sees the
        autograd trunk's shape.
        """
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4:
            raise ValueError(f"expected NCHW images, got shape {images.shape}")
        total = images.shape[0]
        if total == 0:
            raise ValueError("expected at least one image")
        features = None
        for start in range(0, total, batch_size):
            chunk = images[start : start + batch_size]
            # NCHW -> NHWC happens inside conv1's copy into its padded
            # input; the interior flows channels-last with no layout copies
            x = self.conv1(chunk.transpose(0, 2, 3, 1)[None], 0)
            for i, block in enumerate(self._blocks, start=1):
                x = block(x, i % 2)
            if features is None:  # the one allocation of a warm forward
                features = np.empty((total, *x.shape[2:]), dtype=np.float32)
            np.copyto(features[start : start + batch_size], x[0])
        return features.transpose(0, 3, 1, 2)

    def verify(
        self,
        trunk,
        images: Optional[np.ndarray] = None,
        rtol: float = 1e-4,
        atol: float = 1e-5,
    ) -> float:
        """Assert the compiled program matches the autograd trunk.

        Runs ``images`` (or a deterministic random probe) through both
        paths in eval mode and raises :class:`ValueError` on divergence;
        returns the max absolute difference for reporting.
        """
        from ..tensor import Tensor, no_grad

        if images is None:
            rng = np.random.default_rng(0)
            images = rng.standard_normal(
                (2, self.in_channels, self._PROBE_SIZE, self._PROBE_SIZE)
            ).astype(np.float32)
        was_training = trunk.training
        trunk.eval()
        try:
            with no_grad():
                reference = trunk(Tensor(np.asarray(images, dtype=np.float32))).numpy()
        finally:
            if was_training:
                trunk.train()
        fused = self(images)
        max_abs_diff = float(np.abs(reference - fused).max())
        if not np.allclose(reference, fused, rtol=rtol, atol=atol):
            raise ValueError(
                "compiled trunk diverged from the autograd trunk "
                f"(max abs diff {max_abs_diff:.3e})"
            )
        return max_abs_diff

    def nbytes(self) -> int:
        """Resident size of the compiled arrays (views count their logical
        bytes — the aliased share is not double-charged by the serving
        caches, which charge module weights separately)."""
        return self.conv1.nbytes() + sum(block.nbytes() for block in self._blocks)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FusedTrunk(blocks={len(self._blocks)}, "
            f"channels={self.in_channels}->{self.out_channels})"
        )


#: Attribute used to memoize one compiled program per live trunk module.
_FUSED_TRUNK_ATTR = "_fused_eval_trunk"


def fused_trunk_for(trunk, verify: bool = True) -> FusedTrunk:
    """The compiled eval-mode program for ``trunk``, memoized per object.

    The library trunk is frozen after extraction and *replaced* (never
    mutated) on re-extraction, so caching the compiled program on the
    module object itself makes invalidation automatic: every serving tier
    that follows the ``LIBRARY_TASK`` version bump to a new trunk object
    gets a fresh compile, and the old program dies with the old trunk.
    Concurrent first calls may compile twice; the race is benign (both
    programs are equivalent, one wins the attribute write).

    A *failed* compile (unwalkable structure, or a verify-probe
    divergence) is memoized too — the original exception is re-raised on
    every subsequent call instead of re-stacking the weights and re-probing
    per prediction, so the autograd fallback stays cheap and the root
    cause stays inspectable.  :func:`invalidate_fused_trunk` clears either
    outcome.
    """
    cached = getattr(trunk, _FUSED_TRUNK_ATTR, None)
    if isinstance(cached, FusedTrunk):
        return cached
    if isinstance(cached, Exception):
        raise cached
    try:
        cached = FusedTrunk(trunk, verify=verify)
    except (AttributeError, TypeError, ValueError) as error:
        setattr(trunk, _FUSED_TRUNK_ATTR, error)
        raise
    setattr(trunk, _FUSED_TRUNK_ATTR, cached)
    return cached


def invalidate_fused_trunk(trunk) -> None:
    """Drop ``trunk``'s memoized compile (after an in-place weight mutation)."""
    if getattr(trunk, _FUSED_TRUNK_ATTR, None) is not None:
        setattr(trunk, _FUSED_TRUNK_ATTR, None)
