"""Forward-value tests of the tensor engine against numpy references."""

import numpy as np
import pytest

from repro.tensor import Tensor


class TestArithmetic:
    def test_add(self, rng):
        a, b = rng.random((3, 4)), rng.random((3, 4))
        assert np.allclose((Tensor(a) + Tensor(b)).numpy(), a + b)

    def test_add_scalar(self, rng):
        a = rng.random((3, 4))
        assert np.allclose((Tensor(a) + 2.5).numpy(), a + 2.5)

    def test_radd(self, rng):
        a = rng.random(5)
        assert np.allclose((2.0 + Tensor(a)).numpy(), a + 2.0)

    def test_sub(self, rng):
        a, b = rng.random((2, 3)), rng.random(3)
        assert np.allclose((Tensor(a) - Tensor(b)).numpy(), a - b)

    def test_rsub(self, rng):
        a = rng.random(4)
        assert np.allclose((1.0 - Tensor(a)).numpy(), 1.0 - a)

    def test_mul_broadcast(self, rng):
        a, b = rng.random((4, 1, 3)), rng.random((2, 3))
        assert np.allclose((Tensor(a) * Tensor(b)).numpy(), a * b)

    def test_div(self, rng):
        a, b = rng.random((3, 3)) + 1, rng.random((3, 3)) + 1
        assert np.allclose((Tensor(a) / Tensor(b)).numpy(), a / b)

    def test_rdiv(self, rng):
        a = rng.random(4) + 0.5
        assert np.allclose((2.0 / Tensor(a)).numpy(), 2.0 / a)

    def test_neg(self, rng):
        a = rng.random((2, 2))
        assert np.allclose((-Tensor(a)).numpy(), -a)

    def test_pow(self, rng):
        a = rng.random((3, 2)) + 0.1
        assert np.allclose((Tensor(a) ** 3).numpy(), a**3)

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(3)) ** np.ones(3)


class TestElementwiseFunctions:
    def test_exp_log_roundtrip(self, rng):
        a = rng.random((3, 3)) + 0.5
        assert np.allclose(Tensor(a).log().exp().numpy(), a, atol=1e-6)

    def test_sqrt(self, rng):
        a = rng.random(6) + 0.1
        assert np.allclose(Tensor(a).sqrt().numpy(), np.sqrt(a))

    def test_abs(self, rng):
        a = rng.standard_normal((4, 4))
        assert np.allclose(Tensor(a).abs().numpy(), np.abs(a))

    def test_tanh(self, rng):
        a = rng.standard_normal(5)
        assert np.allclose(Tensor(a).tanh().numpy(), np.tanh(a))

    def test_sigmoid(self, rng):
        a = rng.standard_normal(5)
        assert np.allclose(Tensor(a).sigmoid().numpy(), 1 / (1 + np.exp(-a)))

    def test_relu(self, rng):
        a = rng.standard_normal((3, 3))
        assert np.allclose(Tensor(a).relu().numpy(), np.maximum(a, 0))


class TestLinearAlgebra:
    def test_matmul_2d(self, rng):
        a, b = rng.random((3, 4)), rng.random((4, 5))
        assert np.allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b)

    def test_matmul_vector(self, rng):
        a, b = rng.random((3, 4)), rng.random(4)
        assert np.allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b)

    def test_dot(self, rng):
        a, b = rng.random(4), rng.random(4)
        assert np.allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b)

    def test_transpose_default(self, rng):
        a = rng.random((2, 3, 4))
        assert (Tensor(a).transpose().numpy() == a.transpose()).all()

    def test_transpose_axes(self, rng):
        a = rng.random((2, 3, 4))
        assert (Tensor(a).transpose(1, 0, 2).numpy() == a.transpose(1, 0, 2)).all()

    def test_T_property(self, rng):
        a = rng.random((2, 5))
        assert (Tensor(a).T.numpy() == a.T).all()


class TestReductions:
    def test_sum_all(self, rng):
        a = rng.random((3, 4))
        assert np.isclose(Tensor(a).sum().item(), a.sum())

    def test_sum_axis(self, rng):
        a = rng.random((3, 4, 5))
        assert np.allclose(Tensor(a).sum(axis=1).numpy(), a.sum(axis=1))

    def test_sum_axis_tuple_keepdims(self, rng):
        a = rng.random((2, 3, 4))
        got = Tensor(a).sum(axis=(0, 2), keepdims=True).numpy()
        assert np.allclose(got, a.sum(axis=(0, 2), keepdims=True))

    def test_mean(self, rng):
        a = rng.random((4, 6))
        assert np.allclose(Tensor(a).mean(axis=0).numpy(), a.mean(axis=0))

    def test_var_biased(self, rng):
        a = rng.random((8, 3))
        assert np.allclose(Tensor(a).var(axis=0).numpy(), a.var(axis=0), atol=1e-6)

    def test_max(self, rng):
        a = rng.random((3, 7))
        assert np.allclose(Tensor(a).max(axis=1).numpy(), a.max(axis=1))

    def test_logsumexp_matches_scipy(self, rng):
        from scipy.special import logsumexp

        a = rng.standard_normal((4, 9)) * 10
        assert np.allclose(Tensor(a).logsumexp(axis=1).numpy(), logsumexp(a, axis=1), atol=1e-5)

    def test_logsumexp_stable_for_large_logits(self):
        a = np.array([[1000.0, 1000.0]])
        out = Tensor(a).logsumexp(axis=1).numpy()
        assert np.isfinite(out).all()
        assert np.allclose(out, 1000.0 + np.log(2.0))


class TestShapes:
    def test_reshape(self, rng):
        a = rng.random((2, 6))
        assert Tensor(a).reshape(3, 4).shape == (3, 4)

    def test_reshape_infer(self, rng):
        a = rng.random((2, 6))
        assert Tensor(a).reshape(4, -1).shape == (4, 3)

    def test_getitem_row(self, rng):
        a = rng.random((5, 3))
        assert np.allclose(Tensor(a)[2].numpy(), a[2])

    def test_getitem_fancy(self, rng):
        a = rng.random((5, 6))
        idx = np.array([0, 2, 4])
        assert np.allclose(Tensor(a)[:, idx].numpy(), a[:, idx])

    def test_concatenate(self, rng):
        a, b = rng.random((2, 3)), rng.random((2, 5))
        out = Tensor.concatenate([Tensor(a), Tensor(b)], axis=1)
        assert np.allclose(out.numpy(), np.concatenate([a, b], axis=1))

    def test_stack(self, rng):
        parts = [rng.random((2, 2)) for _ in range(3)]
        out = Tensor.stack([Tensor(p) for p in parts], axis=0)
        assert np.allclose(out.numpy(), np.stack(parts))

    def test_pad2d(self, rng):
        a = rng.random((1, 2, 3, 3))
        out = Tensor(a).pad2d(2)
        assert out.shape == (1, 2, 7, 7)
        assert np.allclose(out.numpy()[:, :, 2:-2, 2:-2], a)
        assert out.numpy()[:, :, 0, :].sum() == 0

    def test_pad2d_zero_is_identity(self, rng):
        a = rng.random((1, 1, 2, 2))
        assert Tensor(a).pad2d(0).shape == (1, 1, 2, 2)


class TestDtypeAndConstructors:
    def test_float64_kept(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_float32_default(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_int_labels_kept(self):
        assert Tensor(np.array([1, 2, 3])).dtype.kind == "i"

    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).numpy().sum() == 0
        assert Tensor.ones(2, 3).numpy().sum() == 6

    def test_randn_seeded(self):
        r1 = Tensor.randn(4, rng=np.random.default_rng(0)).numpy()
        r2 = Tensor.randn(4, rng=np.random.default_rng(0)).numpy()
        assert np.allclose(r1, r2)

    def test_item_scalar_only(self, rng):
        with pytest.raises(Exception):
            Tensor(rng.random((2, 2))).item()

    def test_len(self, rng):
        assert len(Tensor(rng.random((7, 2)))) == 7

    def test_detach_cuts_graph(self, rng):
        t = Tensor(rng.random(3), requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_argmax(self, rng):
        a = rng.random((4, 5))
        assert (Tensor(a).argmax(axis=1) == a.argmax(axis=1)).all()
