"""The autograd graph is acyclic and single-use: freed by reference counting.

Everything here runs with the cycle collector **off**, so a passing test
means the memory went away by refcount alone — no RSS thresholds, nothing
that depends on when a collection happens to run.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.models import WideResNet
from repro.optim import SGD
from repro.tensor import Tensor, conv2d, gradcheck
from repro.tensor.functional import cross_entropy

# the oracle of the request-path benchmark's pool recipe
NUM_CLASSES, IMAGE_SHAPE, BATCH = 16, (3, 6, 6), 32


@pytest.fixture(autouse=True)
def cycle_collector_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def nodes(monkeypatch):
    """Records ``(op, data ref, closure ref)`` for every graph node made.

    Arrays and closures take weak references (a slotted Tensor does not);
    a node whose output array and closure are both gone holds no memory.
    """
    recorded = []
    make = Tensor._make

    def recording_make(data, parents, op, backward):
        out = make(data, parents, op, backward)
        if out._backward is not None:
            recorded.append((op, weakref.ref(out.data), weakref.ref(out._backward)))
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    return recorded


def alive(nodes):
    return [op for op, data, closure in nodes if data() is not None or closure() is not None]


def live_tensors():
    return sum(isinstance(obj, Tensor) for obj in gc.get_objects())


def oracle(rng):
    model = WideResNet(10, 2, 2, NUM_CLASSES, rng=rng)
    model.train()
    return model, SGD(model.parameters(), lr=0.05)


def batch(rng):
    images = rng.standard_normal((BATCH, *IMAGE_SHAPE)).astype(np.float32)
    return images, rng.integers(0, NUM_CLASSES, BATCH)


def train_step(model, optimizer, rng):
    images, labels = batch(rng)
    optimizer.zero_grad()
    loss = cross_entropy(model(Tensor(images)), labels)
    loss.backward()
    optimizer.step()
    return loss.item()


class TestFreedByRefcount:
    def test_training_step_leaves_no_intermediate_behind(self, rng, nodes):
        model, _ = oracle(rng)
        images, labels = batch(rng)
        before = live_tensors()
        loss = cross_entropy(model(Tensor(images)), labels)
        assert len(nodes) > 30 and len(alive(nodes)) == len(nodes)
        loss.backward()
        del loss
        assert alive(nodes) == []
        assert live_tensors() == before
        assert all(p.grad is not None for p in model.parameters())

    def test_backward_frees_the_graph_while_the_root_is_still_held(self, rng, nodes):
        model, _ = oracle(rng)
        images, labels = batch(rng)
        loss = cross_entropy(model(Tensor(images)), labels)
        loss.backward()
        # everything but the root's own scalar is gone before `loss` is
        assert len(alive(nodes)) == 1
        assert loss._parents == ()

    def test_forward_never_backpropagated_is_freed(self, rng, nodes):
        model, _ = oracle(rng)
        images, labels = batch(rng)
        before = live_tensors()
        loss = cross_entropy(model(Tensor(images)), labels)
        assert len(alive(nodes)) == len(nodes)
        del loss
        assert alive(nodes) == []
        assert live_tensors() == before

    def test_backward_that_raises_half_way_is_freed(self, rng, nodes, monkeypatch):
        model, _ = oracle(rng)
        images, labels = batch(rng)
        before = live_tensors()
        make = Tensor._make  # the recording wrapper

        def failing_make(data, parents, op, backward):
            if op == "batch_norm2d" and sum(n[0] == op for n in nodes) == 3:

                def backward(grad):
                    raise FloatingPointError("boom")

            return make(data, parents, op, backward)

        monkeypatch.setattr(Tensor, "_make", staticmethod(failing_make))
        loss = cross_entropy(model(Tensor(images)), labels)
        with pytest.raises(FloatingPointError, match="boom"):
            loss.backward()
        grads = [p.grad is not None for p in model.parameters()]
        assert any(grads) and not all(grads)  # it did stop half-way
        del loss
        assert alive(nodes) == []
        assert live_tensors() == before

    def test_twenty_steps_leave_the_cycle_collector_nothing(self, rng):
        model, optimizer = oracle(rng)
        train_step(model, optimizer, rng)
        gc.collect()
        for _ in range(20):
            train_step(model, optimizer, rng)
        assert gc.collect() < 50

    def test_peak_memory_of_a_step_does_not_grow(self, rng):
        model, optimizer = oracle(rng)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(20):
                tracemalloc.reset_peak()
                train_step(model, optimizer, rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[19] <= 1.25 * peaks[1]


class TestSingleUse:
    def test_second_backward_from_the_root_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="graph already consumed by backward"):
            loss.backward()
        assert np.allclose(x.grad, [2.0, 4.0])  # and wrote nothing anywhere
        assert loss.grad is None

    def test_backward_through_an_interior_node_of_a_consumed_graph_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = x * x
        hidden.sum().backward()
        with pytest.raises(RuntimeError, match="graph already consumed by backward"):
            hidden.backward(np.ones(2))
        # a new graph grown on the consumed node is refused before any of it runs
        fresh = x * 3.0
        loss = (fresh + hidden).sum()
        with pytest.raises(RuntimeError, match="graph already consumed by backward"):
            loss.backward()
        assert fresh._backward is not None and np.allclose(x.grad, [2.0, 4.0])


class TestSharedNodesStillAccumulate:
    def test_diamond_graph_matches_finite_differences(self, rng):
        def diamond(x):
            hidden = x.tanh()  # one tensor, two consumers
            return hidden.exp() * hidden + hidden.reshape(3, 4).sum(axis=0).sum() * x

        assert gradcheck(diamond, [rng.standard_normal((4, 3))])

    def test_parameter_used_twice_matches_finite_differences(self, rng):
        def twice(x, w, kernel):
            dense = ((x @ w).relu() @ w).sum()
            image = x.reshape(1, 1, 4, 4)
            return dense + conv2d(conv2d(image, kernel, padding=1), kernel, padding=1).sum()

        arrays = [rng.standard_normal(s) for s in [(4, 4), (4, 4), (1, 1, 3, 3)]]
        assert gradcheck(twice, arrays)
