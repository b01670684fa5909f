"""SGD optimizer semantics and convergence."""

import numpy as np
import pytest

from repro.nn import Linear, Parameter
from repro.optim import SGD
from repro.tensor import Tensor


def linear_step(model, optimizer, rng):
    """One optimization step of a small least-squares problem on ``model``."""
    optimizer.zero_grad()
    (model(Tensor(rng.standard_normal((5, 4)))) ** 2).sum().backward()
    optimizer.step()


def quadratic_step(param, optimizer):
    """One optimization step of f(w) = ||w||^2 / 2."""
    optimizer.zero_grad()
    loss = (param * param).sum() * 0.5
    loss.backward()
    optimizer.step()
    return loss.item()


class TestBasics:
    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([])

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.ones(2))], lr=0.0)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.ones(2))], momentum=-0.1)

    def test_plain_sgd_update(self):
        p = Parameter(np.array([1.0, -2.0]))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        p.grad = np.array([0.5, 0.5])
        opt.step()
        assert np.allclose(p.data, [0.95, -2.05])

    def test_none_grad_skipped(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad -> no update, no crash
        assert np.allclose(p.data, 1.0)

    def test_frozen_param_skipped(self):
        p = Parameter(np.ones(2))
        p.requires_grad = False
        p.grad = np.ones(2)
        SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0).step()
        assert np.allclose(p.data, 1.0)

    def test_zero_grad(self):
        p = Parameter(np.ones(2))
        p.grad = np.ones(2)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


class TestWeightDecayAndMomentum:
    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.1)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 10.0

    def test_momentum_accelerates(self):
        losses = {}
        for momentum in (0.0, 0.9):
            p = Parameter(np.array([5.0]))
            opt = SGD([p], lr=0.01, momentum=momentum, weight_decay=0.0)
            for _ in range(30):
                loss = quadratic_step(p, opt)
            losses[momentum] = loss
        assert losses[0.9] < losses[0.0]

    def test_nesterov_converges(self):
        p = Parameter(np.array([3.0]))
        opt = SGD([p], lr=0.05, momentum=0.9, weight_decay=0.0, nesterov=True)
        for _ in range(100):
            quadratic_step(p, opt)
        assert abs(p.data[0]) < 0.1

    def test_state_dict(self):
        opt = SGD([Parameter(np.ones(1))], lr=0.2, momentum=0.8, weight_decay=1e-4)
        sd = opt.state_dict()
        assert sd["lr"] == 0.2 and sd["momentum"] == 0.8

    def test_step_leaves_earlier_state_dict_snapshots_alone(self, rng):
        # Module.state_dict() hands out parameter arrays by reference: the
        # step must rebind param.data, not write into it
        model = Linear(4, 3, rng=rng)
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
        for _ in range(2):  # second step: velocities exist and are non-zero
            before = model.state_dict()
            copies = {name: array.copy() for name, array in before.items()}
            linear_step(model, opt, rng)
            for name, array in before.items():
                assert array.tobytes() == copies[name].tobytes()
                assert not np.array_equal(model.state_dict()[name], array)

    def test_one_velocity_buffer_per_parameter_updated_in_place(self, rng):
        model = Linear(4, 3, rng=rng)
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
        buffers = None
        for _ in range(3):
            linear_step(model, opt, rng)
            if buffers is None:
                buffers = {key: id(v) for key, v in opt._velocity.items()}
        assert {key: id(v) for key, v in opt._velocity.items()} == buffers
        for param in model.parameters():
            velocity = opt._velocity[id(param)]
            assert velocity.dtype == np.float32 and velocity.flags.c_contiguous
            assert velocity.shape == param.data.shape


class TestConvergence:
    def test_quadratic_convergence(self):
        p = Parameter(np.array([4.0, -3.0, 2.0]))
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(200):
            quadratic_step(p, opt)
        assert np.abs(p.data).max() < 1e-3

    def test_linear_regression(self, rng):
        true_w = np.array([2.0, -1.0])
        x = rng.standard_normal((64, 2))
        y = x @ true_w
        w = Parameter(np.zeros(2))
        opt = SGD([w], lr=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(150):
            opt.zero_grad()
            pred = Tensor(x) @ w
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            opt.step()
        assert np.allclose(w.data, true_w, atol=1e-2)
