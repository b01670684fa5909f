"""Property-based gradient checks: autograd vs central finite differences.

These are the load-bearing correctness tests of the substrate — every op
used by the distillation framework is checked on hypothesis-generated
inputs.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import (
    Tensor,
    batch_norm2d,
    conv2d,
    functional as F,
    gradcheck,
    numerical_gradient,
)
from tests.conftest import in_layout

SMALL = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    elements=st.floats(-2.0, 2.0, allow_nan=False),
)
POSITIVE = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4),
    elements=st.floats(0.2, 3.0, allow_nan=False),
)
MATRIX = hnp.arrays(
    np.float64, (3, 5), elements=st.floats(-3.0, 3.0, allow_nan=False)
)


class TestElementwiseGrads:
    @given(SMALL)
    def test_add_mul(self, a):
        gradcheck(lambda x: x * 3.0 + x, [a])

    @given(SMALL)
    def test_square(self, a):
        gradcheck(lambda x: x * x, [a])

    @given(POSITIVE)
    def test_div(self, a):
        gradcheck(lambda x: 1.0 / x, [a])

    @given(POSITIVE)
    def test_log(self, a):
        gradcheck(lambda x: x.log(), [a])

    @given(SMALL)
    def test_exp(self, a):
        gradcheck(lambda x: x.exp(), [a])

    @given(POSITIVE)
    def test_sqrt(self, a):
        gradcheck(lambda x: x.sqrt(), [a])

    @given(POSITIVE)
    def test_pow(self, a):
        gradcheck(lambda x: x**2.5, [a])

    @given(SMALL)
    def test_tanh(self, a):
        gradcheck(lambda x: x.tanh(), [a])

    @given(SMALL)
    def test_sigmoid(self, a):
        gradcheck(lambda x: x.sigmoid(), [a])

    @given(SMALL.filter(lambda a: (np.abs(a) > 1e-2).all()))
    def test_abs_away_from_zero(self, a):
        gradcheck(lambda x: x.abs(), [a])

    @given(SMALL.filter(lambda a: (np.abs(a) > 1e-2).all()))
    def test_relu_away_from_zero(self, a):
        gradcheck(lambda x: x.relu(), [a])


class TestReductionGrads:
    @given(SMALL)
    def test_sum_all(self, a):
        gradcheck(lambda x: x.sum(), [a])

    @given(MATRIX)
    def test_sum_axis0(self, a):
        gradcheck(lambda x: x.sum(axis=0), [a])

    @given(MATRIX)
    def test_sum_axis_keepdims(self, a):
        gradcheck(lambda x: x.sum(axis=1, keepdims=True), [a])

    @given(MATRIX)
    def test_mean(self, a):
        gradcheck(lambda x: x.mean(axis=1), [a])

    @given(MATRIX)
    def test_var(self, a):
        gradcheck(lambda x: x.var(axis=0), [a])

    @given(MATRIX)
    def test_logsumexp(self, a):
        gradcheck(lambda x: x.logsumexp(axis=1), [a])

    def test_max_unique(self, rng):
        # ties break gradient smoothness; use distinct values
        a = rng.permutation(20).reshape(4, 5).astype(np.float64)
        gradcheck(lambda x: x.max(axis=1), [a])


class TestMatmulGrads:
    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-2, 2)),
        hnp.arrays(np.float64, (4, 2), elements=st.floats(-2, 2)),
    )
    def test_matmul_2d(self, a, b):
        gradcheck(lambda x, y: x @ y, [a, b])

    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-2, 2)),
        hnp.arrays(np.float64, (4,), elements=st.floats(-2, 2)),
    )
    def test_matmul_matvec(self, a, b):
        gradcheck(lambda x, y: x @ y, [a, b])

    @given(
        hnp.arrays(np.float64, (4,), elements=st.floats(-2, 2)),
        hnp.arrays(np.float64, (4,), elements=st.floats(-2, 2)),
    )
    def test_dot(self, a, b):
        gradcheck(lambda x, y: x @ y, [a, b])


class TestShapeOpGrads:
    @given(MATRIX)
    def test_reshape(self, a):
        gradcheck(lambda x: x.reshape(5, 3) * 2.0, [a])

    @given(MATRIX)
    def test_transpose(self, a):
        gradcheck(lambda x: x.T @ x, [a])

    @given(MATRIX)
    def test_slice(self, a):
        gradcheck(lambda x: x[1:, 2:], [a])

    @given(MATRIX)
    def test_concat_self(self, a):
        gradcheck(lambda x: Tensor.concatenate([x[:, :2], x[:, 2:] * 2.0], axis=1), [a])

    def test_pad2d(self, rng):
        a = rng.standard_normal((1, 2, 3, 3))
        gradcheck(lambda x: x.pad2d(1), [a])


class TestFunctionalGrads:
    @given(MATRIX)
    def test_log_softmax(self, a):
        gradcheck(lambda x: F.log_softmax(x), [a])

    @given(MATRIX)
    def test_softmax(self, a):
        gradcheck(lambda x: F.softmax(x), [a])

    @given(MATRIX)
    def test_cross_entropy(self, a):
        labels = np.array([0, 1, 2])
        gradcheck(lambda x: F.cross_entropy(x, labels), [a])

    @given(
        hnp.arrays(np.float64, (3, 5), elements=st.floats(-3, 3)),
        hnp.arrays(np.float64, (3, 5), elements=st.floats(-3, 3)),
    )
    def test_kl_from_logits_student_side(self, t, s):
        gradcheck(lambda s_: F.kl_div_from_logits(Tensor(t), s_, temperature=2.0), [s])

    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-3, 3)),
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-3, 3)),
    )
    def test_mse(self, t, s):
        gradcheck(lambda s_: F.mse_loss(s_, Tensor(t)), [s])

    def test_l1_away_from_equality(self, rng):
        t = rng.standard_normal((3, 4))
        s = t + np.sign(rng.standard_normal((3, 4))) * (0.1 + rng.random((3, 4)))
        gradcheck(lambda s_: F.l1_loss(s_, Tensor(t)), [s])


def primitive_batch_norm(x, weight, bias, stats=None, eps=1e-5):
    """Batch norm as the chain of ~12 primitive graph nodes it was before
    ``batch_norm2d`` became one node — the slow reference for that node.
    A member-stacked (G, C) ``weight`` runs it once per member's rows."""
    if weight.ndim == 2:
        rows = x.shape[0] // weight.shape[0]
        parts = [
            primitive_batch_norm(
                x[g * rows : (g + 1) * rows],
                weight[g],
                bias[g],
                None if stats is None else (stats[0][g], stats[1][g]),
                eps,
            )
            for g in range(weight.shape[0])
        ]
        out = Tensor.concatenate([part[0] for part in parts])
        return out, np.stack([part[1] for part in parts]), np.stack([part[2] for part in parts])
    if stats is None:
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    else:
        mean, var = (Tensor(np.asarray(s, dtype=x.dtype)) for s in stats)
    shape = (1, x.shape[1], 1, 1)
    x_hat = (x - mean.reshape(shape)) / (var.reshape(shape) + eps).sqrt()
    return x_hat * weight.reshape(shape) + bias.reshape(shape), mean.data, var.data


BN_INPUT = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 3), st.integers(1, 3), st.integers(1, 3), st.integers(2, 4)),
    elements=st.floats(-2.0, 2.0, allow_nan=False, width=32),
    # batch statistics of a near-constant channel are all round-off
    unique=True,
)
LAYOUTS = st.sampled_from(["nchw", "nhwc"])
#: None: a plain (C,) layer; G: a bank of G members with (G, C) weights
MEMBERS = st.sampled_from([None, 1, 2, 3])


def member_rows(x, members):
    """``x`` as the (G·N, ...) input of a ``members``-bank: G distinct
    affine copies of the drawn rows, so every member has its own statistics."""
    if members is None:
        return x
    return np.concatenate([x * (1.0 + 0.5 * g) + g for g in range(members)])


class TestBatchNormGrads:
    """``batch_norm2d``: finite differences in float64, and the old primitive
    composition as a differential oracle, in train and eval mode, as a plain
    layer and as a member-stacked bank."""

    @staticmethod
    def _params(x, members=None, seed=0):
        rng = np.random.default_rng(seed)
        shape = (x.shape[1],) if members is None else (members, x.shape[1])
        stats = (rng.standard_normal(shape), 0.5 + rng.random(shape))
        return rng.standard_normal(shape), rng.standard_normal(shape), stats

    def _check_against_finite_differences(self, x, layout, training, members):
        x = member_rows(x, members)
        gamma, beta, stats = self._params(x, members)
        stats = None if training else stats
        upstream = np.random.default_rng(1).standard_normal(x.shape)
        tensors = [
            Tensor(a, requires_grad=True)
            for a in (in_layout(x, layout), gamma.copy(), beta.copy())
        ]
        out, _, _ = batch_norm2d(*tensors, stats=stats)
        out.backward(in_layout(upstream, layout))

        def weighted(*args):
            return batch_norm2d(*args, stats=stats)[0] * Tensor(upstream)

        for index, tensor in enumerate(tensors):
            numeric = numerical_gradient(weighted, [x, gamma, beta], index)
            assert tensor.grad.shape == numeric.shape
            assert np.allclose(tensor.grad, numeric, atol=1e-5, rtol=1e-3)

    @given(BN_INPUT, LAYOUTS, MEMBERS)
    def test_train_mode(self, x, layout, members):
        self._check_against_finite_differences(x, layout, True, members)

    @given(BN_INPUT, LAYOUTS, MEMBERS)
    def test_eval_mode(self, x, layout, members):
        self._check_against_finite_differences(x, layout, False, members)

    @given(BN_INPUT, LAYOUTS, LAYOUTS, st.booleans(), MEMBERS)
    def test_matches_primitive_composition(self, x, x_layout, g_layout, training, members):
        x = member_rows(x, members)
        gamma, beta, stats = self._params(x, members)
        upstream = np.random.default_rng(1).standard_normal(x.shape)
        results = []
        for op in (batch_norm2d, primitive_batch_norm):
            tensors = [
                Tensor(a, requires_grad=True)
                for a in (in_layout(x, x_layout), gamma.copy(), beta.copy())
            ]
            out, mean, var = op(*tensors, stats=None if training else stats)
            out.backward(in_layout(upstream, g_layout))
            results.append([out.numpy(), mean, var, *(t.grad for t in tensors)])
        for fused, reference in zip(*results):
            assert fused.shape == reference.shape
            assert np.allclose(fused, reference, atol=1e-8, rtol=1e-8)

    @given(LAYOUTS, st.booleans())
    def test_frozen_parameters_get_no_gradient(self, layout, training):
        rng = np.random.default_rng(5)
        x = Tensor(in_layout(rng.standard_normal((2, 3, 2, 2)), layout), requires_grad=True)
        gamma, beta, stats = self._params(x)
        weight, bias = Tensor(gamma), Tensor(beta)
        out, _, _ = batch_norm2d(x, weight, bias, stats=None if training else stats)
        out.sum().backward()
        assert weight.grad is None and bias.grad is None
        assert x.grad.shape == x.shape


@st.composite
def stacked_conv_cases(draw):
    """A bank of G ≥ 2 convolutions over the WRN head geometries: 3x3
    same-padded at stride 1 (the gathered dX) and 2 (the folded dX), and
    the 1x1 strided shortcut."""
    k, padding = draw(st.sampled_from([(3, 1), (1, 0)]))
    return dict(
        members=draw(st.integers(2, 3)),
        rows=draw(st.integers(1, 2)),
        c_in=draw(st.integers(1, 2)),
        c_out=draw(st.integers(1, 3)),
        size=draw(st.integers(3, 5)),
        k=k,
        padding=padding,
        stride=draw(st.sampled_from([1, 2])),
        bias=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


class TestMemberStackedConvGrads:
    """``conv2d`` with a (G, C_out, C_in, K, K) weight against finite
    differences, and against G separate one-member calls."""

    @given(stacked_conv_cases())
    def test_against_finite_differences_and_separate_members(self, case):
        rng = np.random.default_rng(case["seed"])
        g, rows, k = case["members"], case["rows"], case["k"]
        x = rng.standard_normal((g * rows, case["c_in"], case["size"], case["size"]))
        w = rng.standard_normal((g, case["c_out"], case["c_in"], k, k))
        inputs = [x, w] + ([rng.standard_normal((g, case["c_out"]))] if case["bias"] else [])

        def run(*tensors):
            return conv2d(*tensors, stride=case["stride"], padding=case["padding"])

        gradcheck(run, inputs, atol=1e-6, rtol=1e-5)
        separate = [
            run(*[Tensor(x[m * rows : (m + 1) * rows]), *(Tensor(a[m]) for a in inputs[1:])])
            for m in range(g)
        ]
        stacked = run(*(Tensor(a) for a in inputs))
        assert np.allclose(
            stacked.numpy(), np.concatenate([s.numpy() for s in separate]), atol=1e-12
        )


class TestBatchNormLayer:
    """The module around the node: running statistics and float32."""

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_running_stats_match_primitive_composition(self, rng, layout):
        from repro.nn import BatchNorm2d

        bn = BatchNorm2d(3, eps=1e-3, momentum=0.3)
        bn.weight.data[:] = rng.standard_normal(3)
        bn.bias.data[:] = rng.standard_normal(3)
        mean, var = np.zeros(3, np.float32), np.ones(3, np.float32)
        for step in range(3):
            x = rng.standard_normal((4, 3, 5, 2)).astype(np.float32) * (step + 1)
            out = bn(Tensor(in_layout(x, layout)))
            reference, batch_mean, batch_var = primitive_batch_norm(
                Tensor(x), bn.weight, bn.bias, eps=bn.eps
            )
            mean = 0.7 * mean + 0.3 * batch_mean
            var = 0.7 * var + 0.3 * batch_var
            assert out.dtype == np.float32
            assert np.allclose(out.numpy(), reference.numpy(), atol=1e-5)
        assert bn.running_mean.dtype == bn.running_var.dtype == np.float32
        assert np.allclose(bn.running_mean, mean, rtol=1e-6, atol=1e-7)
        assert np.allclose(bn.running_var, var, rtol=1e-6, atol=1e-7)
        # eval mode: the running estimates, as constants
        bn.eval()
        x = rng.standard_normal((2, 3, 5, 2)).astype(np.float32)
        reference, _, _ = primitive_batch_norm(
            Tensor(x), bn.weight, bn.bias, stats=(mean, var), eps=bn.eps
        )
        assert np.allclose(bn(Tensor(in_layout(x, layout))).numpy(), reference.numpy(), atol=1e-5)
        assert np.allclose(bn.running_mean, mean, rtol=1e-6, atol=1e-7)
