"""FusedHeadBank: batched multi-head execution vs the per-head loop."""

import numpy as np
import pytest

from repro.distill import batched_forward
from repro.models import FusedHeadBank
from repro.models.wrn import WRNHead
from repro.nn.fused import fused_trunk_for, stack_conv, stack_linear
from repro.nn.layers import Conv2d, Linear


def _consolidate(pool, n_tasks):
    names = sorted(pool.expert_names())[:n_tasks]
    network, composite = pool.consolidate(names)
    return network, composite


def _loop_logits(network, features_np):
    from repro.tensor import Tensor, no_grad

    with no_grad():
        feats = Tensor(features_np)
        sub = [head(feats) for head in network.heads]
        return Tensor.concatenate(sub, axis=1).numpy() if len(sub) > 1 else sub[0].numpy()


class TestFusedEquivalence:
    @pytest.mark.parametrize("n_tasks", [1, 2, 4])
    def test_matches_loop_across_widths(self, micro_pool, n_tasks):
        """n(Q) ∈ {1, 2, 4}: fused logits allclose to the per-head loop."""
        pool, data, _ = micro_pool
        network, _ = _consolidate(pool, n_tasks)
        features = batched_forward(network.trunk, data.test.images[:20])
        fused = network.fused_logits(features)
        loop = _loop_logits(network, features)
        assert fused.shape == loop.shape
        assert np.allclose(fused, loop, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("batch", [1, 3, 7, 33])
    def test_odd_batch_sizes(self, micro_pool, batch):
        pool, data, _ = micro_pool
        network, _ = _consolidate(pool, 3)
        images = np.concatenate([data.test.images] * 2, axis=0)[:batch]
        features = batched_forward(network.trunk, images)
        assert np.allclose(
            network.fused_logits(features),
            _loop_logits(network, features),
            rtol=1e-4,
            atol=1e-5,
        )

    def test_end_to_end_fused_logits_match(self, micro_pool):
        """TaskSpecificModel.fused_logits == .logits (loop) within round-off."""
        from repro.core import TaskSpecificModel

        pool, data, _ = micro_pool
        model = TaskSpecificModel(*pool.consolidate(sorted(pool.expert_names())))
        x = data.test.images[:25]
        assert np.allclose(model.fused_logits(x), model.logits(x), rtol=1e-4, atol=1e-5)
        # chunked execution must agree with single-shot
        assert np.allclose(
            model.fused_logits(x, batch_size=8), model.fused_logits(x), atol=1e-6
        )

    def test_rebuilt_after_reextraction(self, tiny_hierarchy, tiny_dataset):
        """A consolidation after re-extraction stacks the *new* head weights."""
        from tests.conftest import build_micro_pool

        pool, data, _ = build_micro_pool(tiny_hierarchy, seed=9, train_per_class=15)
        name = sorted(pool.expert_names())[0]
        query = sorted(pool.expert_names())[:2]
        before, _ = pool.consolidate(query)
        x = data.test.images[:10]
        feats = batched_forward(before.trunk, x)
        logits_before = before.fused_logits(feats)

        from repro.distill import TrainConfig

        # re-extract under a different budget so the new head's weights
        # actually move (same budget would deterministically reproduce it)
        pool.extract_expert(
            name,
            data.train.images,
            train_config=TrainConfig(epochs=1, batch_size=32, lr=0.05, seed=1),
        )
        after, _ = pool.consolidate(query)
        logits_after = after.fused_logits(feats)
        # the new bank reflects the retrained head (weights moved)...
        assert not np.allclose(logits_before, logits_after, atol=1e-6)
        # ...and still matches its own loop path exactly enough
        assert np.allclose(
            logits_after, _loop_logits(after, feats), rtol=1e-4, atol=1e-5
        )

    def test_invalidate_fused_restacks_mutated_weights(self, micro_pool):
        """Direct in-place weight mutation needs an explicit invalidate."""
        pool, data, _ = micro_pool
        network, _ = _consolidate(pool, 2)
        features = batched_forward(network.trunk, data.test.images[:8])
        stale = network.fused_logits(features).copy()
        head = network.heads[0]
        head.fc.bias.data = head.fc.bias.data + 1.0
        try:
            assert np.allclose(network.fused_logits(features), stale)  # stale bank
            network.invalidate_fused()
            fresh = network.fused_logits(features)
            assert np.allclose(fresh, _loop_logits(network, features), rtol=1e-4, atol=1e-5)
            assert not np.allclose(fresh, stale, atol=1e-6)
        finally:
            head.fc.bias.data = head.fc.bias.data - 1.0
            network.invalidate_fused()


class TestFusedPrimitives:
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 2, 1), (3, 1, 1), (1, 2, 0)])
    def test_conv_bank_matches_autograd_convs(self, rng, kernel, stride, padding):
        """Unfold order, blocking and the shared-input broadcast, per member."""
        from repro.tensor import Tensor, no_grad

        convs = [
            Conv2d(4, 8, kernel, stride=stride, padding=padding, rng=rng) for _ in range(2)
        ]
        x = rng.standard_normal((3, 4, 5, 5)).astype(np.float32)
        out = stack_conv(convs)(np.ascontiguousarray(x.transpose(0, 2, 3, 1))[None])
        with no_grad():
            for member, conv in zip(out, convs):
                reference = conv(Tensor(x)).numpy()
                assert np.allclose(
                    member.transpose(0, 3, 1, 2), reference, rtol=1e-4, atol=1e-5
                )

    def test_stack_conv_rejects_mismatched_geometry(self, rng):
        a = Conv2d(4, 8, 3, stride=1, padding=1, rng=rng)
        b = Conv2d(4, 8, 3, stride=2, padding=1, rng=rng)
        with pytest.raises(ValueError):
            stack_conv([a, b])

    def test_stack_linear_pads_mixed_widths(self, rng):
        a, b = Linear(6, 2, rng=rng), Linear(6, 4, rng=rng)
        bank = stack_linear([a, b])
        feats = rng.standard_normal((2, 5, 6)).astype(np.float32)
        out = bank.concatenate(bank(feats))
        assert out.shape == (5, 6)
        ref_a = feats[0] @ a.weight.data.T + a.bias.data
        ref_b = feats[1] @ b.weight.data.T + b.bias.data
        assert np.allclose(out, np.concatenate([ref_a, ref_b], axis=1), atol=1e-5)

    def test_bank_rejects_mismatched_heads(self, rng):
        small = WRNHead(10, 1.0, 0.25, num_classes=2, rng=rng)
        wide = WRNHead(10, 1.0, 0.5, num_classes=2, rng=rng)
        with pytest.raises(ValueError):
            FusedHeadBank([small, wide])

    def test_bank_rejects_empty(self):
        with pytest.raises(ValueError):
            FusedHeadBank([])


class TestWorkspace:
    """Banks on the per-thread workspace: re-slicing, threads, lifetime, layout."""

    @staticmethod
    def _features(pool, batch, size, seed):
        """Compiled-trunk features of a random batch of ``size``×``size`` images."""
        rng = np.random.default_rng(seed)
        images = rng.standard_normal((batch, 3, size, size)).astype(np.float32)
        return fused_trunk_for(pool.library)(images)

    def test_shape_and_bank_sequence_reslices_and_grows(self, micro_pool):
        """Banks of 1 -> 4 -> 1 heads over shrinking and growing feature maps."""
        pool, _, _ = micro_pool
        for n_tasks in (1, 4, 1):
            network, _ = _consolidate(pool, n_tasks)
            for size in (6, 8, 6):
                for batch in (64, 1, 7, 64, 513):
                    features = self._features(pool, batch, size, seed=batch + size)
                    assert np.allclose(
                        network.fused_logits(features),
                        _loop_logits(network, np.ascontiguousarray(features)),
                        rtol=1e-4,
                        atol=1e-5,
                    ), (n_tasks, size, batch)

    def test_plain_nchw_features_give_the_same_logits(self, micro_pool):
        """The autograd-fallback edge: C-contiguous NCHW in, one copy, same answer."""
        pool, _, _ = micro_pool
        network, _ = _consolidate(pool, 3)
        channels_last = self._features(pool, 9, 6, seed=1)
        plain = np.ascontiguousarray(channels_last)
        assert channels_last.transpose(0, 2, 3, 1).flags.c_contiguous
        assert not plain.transpose(0, 2, 3, 1).flags.c_contiguous
        assert np.array_equal(network.fused_logits(channels_last), network.fused_logits(plain))

    def test_warm_call_allocates_only_its_result(self, micro_pool):
        import tracemalloc

        pool, _, _ = micro_pool
        bank = _consolidate(pool, 2)[0].fused_bank()
        features = self._features(pool, 512, 8, seed=2)
        bank(features)  # slabs and plans for this shape
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            logits = bank(features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # slack: view objects and numpy's fixed 8192-element ufunc iterator
        # buffers — never an activation (the smallest here is 256 KiB)
        assert peak - before <= logits.nbytes + (64 << 10)

    def test_threads_share_one_bank(self, micro_pool):
        import sys
        import threading

        pool, _, _ = micro_pool
        bank = _consolidate(pool, 3)[0].fused_bank()
        batches = [self._features(pool, n, 6, seed=n) for n in (3, 17, 32, 64)]
        serial = [bank(features) for features in batches]
        barrier = threading.Barrier(len(batches))
        results = [None] * len(batches)

        def work(i):
            barrier.wait(timeout=30)
            for _ in range(20):
                results[i] = bank(batches[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)

    def test_bank_is_collected_though_a_live_thread_ran_it(self, micro_pool):
        """The workspace of a pool thread pins no bank: an evicted model dies."""
        import gc
        import weakref
        from concurrent.futures import ThreadPoolExecutor

        pool, _, _ = micro_pool
        features = self._features(pool, 8, 6, seed=3)
        with ThreadPoolExecutor(max_workers=1) as executor:
            bank = FusedHeadBank(list(_consolidate(pool, 2)[0].heads))
            executor.submit(bank, features).result(timeout=30)
            gone = weakref.ref(bank)
            del bank
            gc.collect()
            assert gone() is None
            # the worker (and its workspace) is still alive and usable
            other = _consolidate(pool, 2)[0].fused_bank()
            assert np.array_equal(
                executor.submit(other, features).result(timeout=30), other(features)
            )

    def test_nbytes_counts_what_the_bank_holds(self, micro_pool):
        pool, _, _ = micro_pool
        for n_tasks in (1, 3):
            network, _ = _consolidate(pool, n_tasks)
            bank = network.fused_bank()
            parts = [bank._final_bn, bank._fc]
            for block in bank._blocks:
                assert not hasattr(block, "bn2")  # folded into conv1
                parts += [block.bn1, block.conv1, block.conv2, block.shortcut]
            arrays = [
                value
                for part in parts
                if part is not None
                for value in vars(part).values()
                if isinstance(value, np.ndarray)
            ]
            assert bank.nbytes() == sum(a.nbytes for a in arrays)
        # a model's cache charge prices exactly those banks, head by head
        from repro.core import TaskSpecificModel
        from repro.models import count_params

        model = TaskSpecificModel(*_consolidate(pool, 3))
        shares = sum(FusedHeadBank([head]).nbytes() for head in model.network.heads)
        assert model.cache_nbytes() == 4 * count_params(model.network) + shares
        single = _consolidate(pool, 1)[0]
        assert single.fused_bank().nbytes() == FusedHeadBank(list(single.heads)).nbytes()
        # single-module banks still alias what a view can reach
        head = single.heads[0]
        assert np.shares_memory(single.fused_bank()._fc.weight, head.fc.weight.data)
