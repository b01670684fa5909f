"""FusedTrunk: the compiled eval-mode trunk vs the autograd engine.

The cold-prediction fast path stands on three guarantees exercised here:
the compiled program is ``allclose`` to the autograd trunk across WRN
geometries (identity *and* 1×1-projection shortcuts, both library
levels), batch-norm folding respects non-default ``eps``/``momentum``
and arbitrary running statistics, and the per-object memoization makes a
library re-extraction (``LIBRARY_TASK`` bump → new trunk object) compile
fresh while in-place mutation has an explicit invalidation hook.
"""

import numpy as np
import pytest

from repro.distill import batched_forward
from repro.models.wrn import WRNTrunk
from repro.nn.fused import FusedTrunk, fused_trunk_for, invalidate_fused_trunk


def _randomize_bn_stats(trunk, seed=7):
    """Give every BN non-trivial running stats so folding is exercised."""
    rng = np.random.default_rng(seed)
    for module in trunk.modules():
        if hasattr(module, "running_var"):
            n = module.num_features
            module._update_buffer(
                "running_mean", rng.standard_normal(n).astype(np.float32)
            )
            module._update_buffer(
                "running_var", (0.5 + rng.random(n)).astype(np.float32)
            )
            module.weight.data[:] = rng.standard_normal(n).astype(np.float32)
            module.bias.data[:] = rng.standard_normal(n).astype(np.float32)


def _probe(trunk, n=9, size=12, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, trunk.conv1.in_channels, size, size)).astype(
        np.float32
    )


class TestEquivalence:
    @pytest.mark.parametrize(
        "depth,k_c,library_level",
        [
            (10, 1.0, 3),  # first group identity shortcut (16 -> 16)
            (10, 1.5, 3),  # first group 1x1 projection (16 -> 24)
            (16, 0.5, 3),  # two blocks per group, shrinking widths
            (10, 1.0, 2),  # library level 2: conv1-conv2 only
            (16, 2.0, 2),  # wide level-2 trunk with projection
        ],
    )
    def test_matches_autograd_across_geometries(self, depth, k_c, library_level):
        trunk = WRNTrunk(
            depth, k_c, 0.25, library_level, rng=np.random.default_rng(1)
        ).eval()
        _randomize_bn_stats(trunk)
        fused = FusedTrunk(trunk)  # verify=True probes at compile time too
        x = _probe(trunk)
        reference = batched_forward(trunk, x)
        features = fused(x)
        assert features.shape == reference.shape
        assert features.dtype == np.float32
        assert np.allclose(reference, features, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("batch", [1, 3, 7])
    def test_odd_batches_and_chunking(self, batch):
        trunk = WRNTrunk(10, 1.0, 0.25, rng=np.random.default_rng(2)).eval()
        _randomize_bn_stats(trunk)
        fused = FusedTrunk(trunk)
        x = _probe(trunk, n=batch, size=8)
        reference = batched_forward(trunk, x)
        # batch_size=2 forces the multi-chunk concatenate path
        assert np.allclose(reference, fused(x, batch_size=2), rtol=1e-4, atol=1e-5)

    def test_rejects_non_nchw_input(self):
        trunk = WRNTrunk(10, 1.0, 0.25, rng=np.random.default_rng(2)).eval()
        with pytest.raises(ValueError, match="NCHW"):
            FusedTrunk(trunk)(np.zeros((3, 6, 6), dtype=np.float32))


class TestBatchNormFolding:
    def test_non_default_eps(self):
        """BN fold must use each module's own eps, not assume the default."""
        trunk = WRNTrunk(10, 1.5, 0.25, rng=np.random.default_rng(4)).eval()
        _randomize_bn_stats(trunk)
        for module in trunk.modules():
            if hasattr(module, "running_var"):
                module.eps = 1e-2  # large enough that the wrong eps diverges
        fused = FusedTrunk(trunk)
        x = _probe(trunk, size=8)
        assert np.allclose(
            batched_forward(trunk, x), fused(x), rtol=1e-4, atol=1e-5
        )

    def test_stats_updated_with_non_default_momentum(self):
        """Fold the stats a non-default momentum actually produced."""
        from repro.tensor import Tensor

        trunk = WRNTrunk(10, 1.0, 0.25, rng=np.random.default_rng(5))
        for module in trunk.modules():
            if hasattr(module, "running_var"):
                module.momentum = 0.7
        trunk.train()
        trunk(Tensor(_probe(trunk, n=6, size=8, seed=11)))  # updates running stats
        trunk.eval()
        fused = FusedTrunk(trunk)
        x = _probe(trunk, size=8, seed=12)
        assert np.allclose(
            batched_forward(trunk, x), fused(x), rtol=1e-4, atol=1e-5
        )


class TestMemoizationAndInvalidation:
    def test_memoized_per_trunk_object(self):
        trunk = WRNTrunk(10, 1.0, 0.25, rng=np.random.default_rng(6)).eval()
        assert fused_trunk_for(trunk) is fused_trunk_for(trunk)

    def test_invalidate_recompiles_after_inplace_mutation(self):
        trunk = WRNTrunk(10, 1.0, 0.25, rng=np.random.default_rng(6)).eval()
        _randomize_bn_stats(trunk)
        fused = fused_trunk_for(trunk)
        x = _probe(trunk, size=8)
        before = fused(x)
        # in-place weight mutation (load_state_dict-style) goes stale ...
        trunk.conv1.weight.data[:] *= 2.0
        with pytest.raises(ValueError, match="diverged"):
            fused.verify(trunk, x)
        # ... until the memoized compile is dropped
        invalidate_fused_trunk(trunk)
        recompiled = fused_trunk_for(trunk)
        assert recompiled is not fused
        after = recompiled(x)
        assert not np.allclose(before, after, rtol=1e-4, atol=1e-5)
        assert np.allclose(
            batched_forward(trunk, x), after, rtol=1e-4, atol=1e-5
        )

    def test_library_reextraction_compiles_fresh_program(self, tiny_hierarchy):
        """LIBRARY_TASK bump installs a new trunk object -> new compile."""
        from tests.conftest import build_micro_pool

        pool, data, _ = build_micro_pool(tiny_hierarchy, seed=9, train_per_class=15)
        old_trunk = pool.library
        old_program = fused_trunk_for(old_trunk)
        pool.extract_library(data.train.images)
        assert pool.library is not old_trunk
        new_program = fused_trunk_for(pool.library)
        assert new_program is not old_program
        x = data.test.images[:10]
        assert np.allclose(
            batched_forward(pool.library, x),
            new_program(x),
            rtol=1e-4,
            atol=1e-5,
        )

    def test_shortcut_weights_aliased_not_copied(self):
        """1x1 projection weights are views of the live parameters."""
        trunk = WRNTrunk(10, 1.5, 0.25, rng=np.random.default_rng(8)).eval()
        fused = FusedTrunk(trunk)
        shortcuts = [
            block.shortcut
            for group in trunk.groups
            for block in group.blocks
            if block.needs_projection
        ]
        assert shortcuts, "expected at least one projection block"
        fused_shortcuts = [b.shortcut for b in fused._blocks if b.shortcut is not None]
        assert len(fused_shortcuts) == len(shortcuts)
        for module, bank in zip(shortcuts, fused_shortcuts):
            assert np.shares_memory(bank.weight, module.weight.data)


class TestCompileFailureMemoization:
    def test_failed_compile_memoized_and_reraised(self):
        """An unwalkable trunk fails once; later calls re-raise, not recompile."""

        class NotATrunk:
            pass

        broken = NotATrunk()
        with pytest.raises(AttributeError) as first:
            fused_trunk_for(broken)
        with pytest.raises(AttributeError) as second:
            fused_trunk_for(broken)
        assert second.value is first.value  # the memoized exception, verbatim
        invalidate_fused_trunk(broken)
        with pytest.raises(AttributeError) as third:
            fused_trunk_for(broken)
        assert third.value is not first.value  # invalidation allows a retry

    def test_fallback_helper_stays_correct_after_failure(self):
        """fused_trunk_features falls back to autograd for unwalkable modules."""
        from repro.core.features import fused_trunk_features
        from repro.nn import Linear, Module

        class FlatModel(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(4, 3, rng=np.random.default_rng(0))

            def forward(self, x):
                return self.fc(x.reshape(x.shape[0], -1))

        model = FlatModel().eval()
        x = np.random.default_rng(1).standard_normal((5, 1, 2, 2)).astype(np.float32)
        out1, used1 = fused_trunk_features(model, x)
        out2, used2 = fused_trunk_features(model, x)  # memoized failure path
        assert not used1 and not used2
        assert np.array_equal(out1, out2)


def _owned_arrays(*parts):
    """Every ndarray field of the given stacked primitives."""
    return [
        value
        for part in parts
        if part is not None
        for value in vars(part).values()
        if isinstance(value, np.ndarray)
    ]


def _block_parts(block):
    return (block.bn1, block.conv1, block.conv2, block.shortcut)


class TestWorkspace:
    """The per-thread workspace: re-slicing, growth, threads, allocation."""

    @pytest.fixture(scope="class")
    def compiled(self):
        trunk = WRNTrunk(10, 1.5, 0.25, rng=np.random.default_rng(21)).eval()
        _randomize_bn_stats(trunk)
        return trunk, FusedTrunk(trunk)

    def test_shape_sequence_reslices_and_grows(self, compiled):
        """Smaller, larger and chunk-crossing shapes on one thread's slabs."""
        trunk, fused = compiled
        for size in (6, 8, 6):
            for batch in (64, 1, 7, 64, 513):  # 513 crosses the 512 chunk
                x = _probe(trunk, n=batch, size=size, seed=batch + size)
                assert np.allclose(
                    batched_forward(trunk, x), fused(x), rtol=1e-4, atol=1e-5
                ), (size, batch)

    def test_result_outlives_the_next_call(self, compiled):
        """What the walker returns is its own array, not a workspace view."""
        trunk, fused = compiled
        x = _probe(trunk, n=5, size=6)
        first = fused(x)
        kept = first.copy()
        fused(_probe(trunk, n=5, size=6, seed=99))
        assert np.array_equal(first, kept)

    def test_features_are_logical_nchw_physical_nhwc(self, compiled):
        trunk, fused = compiled
        features = fused(_probe(trunk, n=4, size=8))
        assert features.shape == (4, fused.out_channels, 4, 4)
        assert features.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_warm_call_allocates_only_its_result(self, compiled):
        import tracemalloc

        trunk, fused = compiled
        x = _probe(trunk, n=256, size=6)
        fused(x)  # slabs and plans for this shape
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            features = fused(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # slack: view objects and numpy's fixed 8192-element ufunc iterator
        # buffers — never an activation (576 KiB and up at this batch)
        assert peak - before <= features.nbytes + (64 << 10)

    def test_threads_share_one_trunk(self, compiled):
        import sys
        import threading

        trunk, fused = compiled
        batches = [_probe(trunk, n=n, size=6, seed=n) for n in (3, 17, 32, 64)]
        serial = [fused(x) for x in batches]
        barrier = threading.Barrier(len(batches))
        results = [None] * len(batches)

        def work(i):
            barrier.wait(timeout=30)
            for _ in range(20):
                results[i] = fused(batches[i])

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

    def test_nbytes_counts_what_the_artifact_holds(self, compiled):
        _, fused = compiled
        for block in fused._blocks:
            assert not hasattr(block, "bn2")  # folded into conv1
            assert block.conv1.bias is not None
            assert block.nbytes() == sum(a.nbytes for a in _owned_arrays(*_block_parts(block)))
        arrays = _owned_arrays(fused.conv1, *(p for b in fused._blocks for p in _block_parts(b)))
        assert fused.nbytes() == sum(a.nbytes for a in arrays)
