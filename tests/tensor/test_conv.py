"""Convolution and pooling: shape math, reference values, gradients."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import signal

from repro.tensor import (
    Tensor,
    avg_pool2d,
    conv2d,
    conv_output_size,
    global_avg_pool2d,
    gradcheck,
    max_pool2d,
    numerical_gradient,
)
from tests.conftest import in_layout


def reference_conv2d(x, w, b, stride, padding):
    """Slow NCHW cross-correlation, one kernel offset at a time (np.pad +
    einsum): shares no code and no layout with the op under test."""
    n, _, h, width = x.shape
    c_out, _, kh, kw = w.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(width, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, oh, ow))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
            out += np.einsum("nchw,oc->nohw", patch, w[:, :, i, j])
    return out if b is None else out + b[None, :, None, None]


class TestOutputSize:
    @pytest.mark.parametrize(
        "size,k,s,p,expected",
        [
            (8, 3, 1, 1, 8),
            (8, 3, 2, 1, 4),
            (8, 1, 1, 0, 8),
            (8, 1, 2, 0, 4),
            (7, 3, 2, 1, 4),
            (32, 3, 1, 1, 32),
        ],
    )
    def test_formula(self, size, k, s, p, expected):
        assert conv_output_size(size, k, s, p) == expected


class TestConvForward:
    def test_matches_scipy_correlate(self, rng):
        x = rng.standard_normal((1, 1, 6, 6))
        w = rng.standard_normal((1, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), stride=1, padding=0).numpy()
        ref = signal.correlate2d(x[0, 0], w[0, 0], mode="valid")
        assert np.allclose(out[0, 0], ref, atol=1e-4)

    def test_multi_channel_sums_inputs(self, rng):
        x = rng.standard_normal((1, 3, 5, 5))
        w = rng.standard_normal((2, 3, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), padding=0).numpy()
        ref = np.zeros((2, 3, 3))
        for o in range(2):
            for c in range(3):
                ref[o] += signal.correlate2d(x[0, c], w[o, c], mode="valid")
        assert np.allclose(out[0], ref, atol=1e-4)

    def test_bias_added_per_channel(self, rng):
        x = rng.standard_normal((2, 1, 4, 4))
        w = np.zeros((3, 1, 1, 1))
        b = np.array([1.0, 2.0, 3.0])
        out = conv2d(Tensor(x), Tensor(w), Tensor(b)).numpy()
        assert np.allclose(out[:, 0], 1.0)
        assert np.allclose(out[:, 2], 3.0)

    def test_stride_two_shape(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), padding=1).numpy()
        assert np.allclose(out, x, atol=1e-6)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w)


class TestConvBackward:
    def test_gradcheck_basic(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        gradcheck(lambda x_, w_, b_: conv2d(x_, w_, b_, padding=1), [x, w, b])

    def test_gradcheck_strided(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((2, 2, 3, 3))
        gradcheck(lambda x_, w_: conv2d(x_, w_, stride=2, padding=1), [x, w])

    def test_gradcheck_1x1(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((5, 3, 1, 1))
        gradcheck(lambda x_, w_: conv2d(x_, w_, stride=2), [x, w])

    def test_no_grad_to_frozen_input(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)).astype(np.float32), requires_grad=True)
        conv2d(x, w, padding=1).sum().backward()
        assert x.grad is None
        assert w.grad is not None


@st.composite
def conv_cases(draw):
    """The geometries the WRN trunks and heads run (3x3 same / strided, 1x1
    stride-1 / stride-2 shortcuts, odd sizes) and the ones around them."""
    k = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1]))
    h = draw(st.integers(3, 6))
    w = draw(st.integers(3, 6).filter(lambda v: v != h))
    return dict(
        members=draw(st.sampled_from([None, 2])),
        n=draw(st.integers(1, 2)),
        c_in=draw(st.integers(1, 3)),
        c_out=draw(st.integers(1, 3)),
        h=h,
        w=w,
        k=k,
        stride=stride,
        padding=padding,
        bias=draw(st.booleans()),
        frozen=draw(st.sampled_from([None, "x", "weight"])),
        x_layout=draw(st.sampled_from(["nchw", "nhwc"])),
        g_layout=draw(st.sampled_from(["nchw", "nhwc"])),
        seed=draw(st.integers(0, 2**16)),
    )


def reference_bank_conv2d(x, w, b, stride, padding):
    """:func:`reference_conv2d` of each member's row block with its own
    kernels; a 4-D ``w`` is a plain layer."""
    if w.ndim == 4:
        return reference_conv2d(x, w, b, stride, padding)
    rows = x.shape[0] // w.shape[0]
    return np.concatenate([
        reference_conv2d(
            x[g * rows : (g + 1) * rows], w[g], None if b is None else b[g], stride, padding
        )
        for g in range(w.shape[0])
    ])


class TestConvGradientOracle:
    """conv2d against an independent slow forward and finite differences,
    with inputs and upstream gradients in both physical layouts (float64),
    as a plain layer and as a two-member bank."""

    @given(conv_cases())
    def test_forward_and_gradients(self, case):
        rng = np.random.default_rng(case["seed"])
        stride, padding, k = case["stride"], case["padding"], case["k"]
        lead = () if case["members"] is None else (case["members"],)
        rows = case["n"] * (case["members"] or 1)
        x = rng.standard_normal((rows, case["c_in"], case["h"], case["w"]))
        w = rng.standard_normal(lead + (case["c_out"], case["c_in"], k, k))
        b = rng.standard_normal(lead + (case["c_out"],)) if case["bias"] else None

        def run(x_, w_, b_=None):
            return conv2d(x_, w_, b_, stride=stride, padding=padding)

        xt = Tensor(in_layout(x, case["x_layout"]), requires_grad=case["frozen"] != "x")
        wt = Tensor(w.copy(), requires_grad=case["frozen"] != "weight")
        bt = None if b is None else Tensor(b.copy(), requires_grad=True)
        out = run(xt, wt, bt)
        reference = reference_bank_conv2d(x, w, b, stride, padding)
        assert out.shape == reference.shape
        assert np.allclose(out.numpy(), reference, atol=1e-10)

        upstream = rng.standard_normal(reference.shape)
        out.backward(in_layout(upstream, case["g_layout"]))

        inputs = [x, w] if b is None else [x, w, b]
        weighted = lambda *tensors: run(*tensors) * Tensor(upstream)  # noqa: E731
        for index, tensor in enumerate([xt, wt] if bt is None else [xt, wt, bt]):
            if not tensor.requires_grad:
                assert tensor.grad is None
                continue
            numeric = numerical_gradient(weighted, inputs, index)
            assert tensor.grad.shape == numeric.shape
            assert np.allclose(tensor.grad, numeric, atol=1e-6, rtol=1e-5)
        # a parameter's gradient arrives in the parameter's own layout
        if wt.grad is not None:
            assert wt.grad.flags.c_contiguous

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_float32_matches_float64_in_either_layout(self, rng, layout):
        x = rng.standard_normal((3, 4, 5, 7))
        w = rng.standard_normal((6, 4, 3, 3))
        out = conv2d(
            Tensor(in_layout(x.astype(np.float32), layout)),
            Tensor(w.astype(np.float32)),
            stride=2,
            padding=1,
        )
        assert out.dtype == np.float32
        assert np.allclose(out.numpy(), reference_conv2d(x, w, None, 2, 1), atol=1e-4)


class TestPooling:
    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2).numpy()
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2).numpy()
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_gradcheck(self, rng):
        gradcheck(lambda x: avg_pool2d(x, 2), [rng.standard_normal((1, 2, 4, 4))])

    def test_max_pool_gradcheck(self, rng):
        x = rng.permutation(32).reshape(1, 2, 4, 4).astype(np.float64)
        gradcheck(lambda x_: max_pool2d(x_, 2), [x])

    @pytest.mark.parametrize("pool", [avg_pool2d, max_pool2d])
    def test_overlapping_windows_in_either_layout(self, rng, pool):
        # distinct values: a max over ties has no gradient to check
        x = rng.permutation(2 * 3 * 5 * 5).reshape(2, 3, 5, 5).astype(np.float64)
        results = []
        for layout in ("nchw", "nhwc"):
            tensor = Tensor(in_layout(x, layout), requires_grad=True)
            out = pool(tensor, 3, 2)
            out.sum().backward()
            results.append((out.numpy(), tensor.grad))
        assert results[0][0].shape == (2, 3, 2, 2)
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])
        gradcheck(lambda x_: pool(x_, 3, 2), [x])

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((3, 4, 5, 5))
        out = global_avg_pool2d(Tensor(x))
        assert out.shape == (3, 4)
        assert np.allclose(out.numpy(), x.mean(axis=(2, 3)), atol=1e-6)

    def test_global_avg_pool_gradcheck(self, rng):
        gradcheck(lambda x: global_avg_pool2d(x), [rng.standard_normal((2, 3, 3, 3))])
