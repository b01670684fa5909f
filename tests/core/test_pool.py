"""PoolOfExperts: preprocessing phase mechanics and quality."""

import numpy as np
import pytest

from repro.core import PoEConfig, PoolOfExperts
from repro.distill import TrainConfig
from repro.eval.metrics import specialized_accuracy


def quick_config():
    """Tiny budgets: enough to exercise mechanics, not to reach quality."""
    return PoEConfig(
        library_depth=10,
        library_k=1.0,
        expert_ks=0.25,
        library_train=TrainConfig(epochs=2, batch_size=64, lr=0.05, seed=0),
        expert_train=TrainConfig(epochs=2, batch_size=64, lr=0.05, seed=0),
    )


class TestPreprocessingMechanics:
    def test_expert_before_library_rejected(self, micro_pool):
        pool, data, oracle = micro_pool
        fresh = PoolOfExperts(oracle, pool.hierarchy, quick_config())
        with pytest.raises(RuntimeError):
            fresh.extract_expert("c0", data.train.images)

    def test_consolidate_on_empty_pool_rejected(self, micro_pool):
        pool, data, oracle = micro_pool
        fresh = PoolOfExperts(oracle, pool.hierarchy, quick_config())
        with pytest.raises(RuntimeError):
            fresh.consolidate(["c0"])

    def test_library_extraction_freezes_trunk(self, micro_pool):
        pool, data, oracle = micro_pool
        fresh = PoolOfExperts(oracle, pool.hierarchy, quick_config())
        fresh.extract_library(data.train.images)
        assert fresh.library is not None
        assert all(not p.requires_grad for p in fresh.library.parameters())
        assert not fresh.library.training  # eval mode: fixed BN statistics

    def test_expert_extraction_adds_named_expert(self, micro_pool):
        pool, data, oracle = micro_pool
        fresh = PoolOfExperts(oracle, pool.hierarchy, quick_config())
        fresh.extract_library(data.train.images)
        fresh.extract_expert("c1", data.train.images)
        assert fresh.expert_names() == ("c1",)
        assert fresh.experts["c1"].num_classes == 2

    def test_library_untouched_by_expert_training(self, micro_pool):
        pool, data, oracle = micro_pool
        fresh = PoolOfExperts(oracle, pool.hierarchy, quick_config())
        fresh.extract_library(data.train.images)
        before = {k: v.copy() for k, v in fresh.library.state_dict().items()}
        fresh.extract_expert("c0", data.train.images)
        after = fresh.library.state_dict()
        for key in before:
            assert np.allclose(before[key], after[key]), key

    def test_preprocess_subset_of_tasks(self, micro_pool):
        pool, data, oracle = micro_pool
        fresh = PoolOfExperts(oracle, pool.hierarchy, quick_config())
        fresh.preprocess(data.train, tasks=["c0", "c3"])
        assert set(fresh.expert_names()) == {"c0", "c3"}

    def test_oracle_logits_cached(self, micro_pool):
        pool, data, oracle = micro_pool
        fresh = PoolOfExperts(oracle, pool.hierarchy, quick_config())
        first = fresh._oracle_logits_for(data.train.images)
        second = fresh._oracle_logits_for(data.train.images)
        assert first is second

    def test_oracle_memo_keyed_on_content_not_row_count(self, micro_pool, rng):
        """Regression: a different batch with the same shape must recompute.

        The memo used to key on ``images.shape[0]`` only, silently serving
        the *previous* batch's logits to any same-sized batch.
        """
        pool, data, oracle = micro_pool
        fresh = PoolOfExperts(oracle, pool.hierarchy, quick_config())
        batch_a = data.train.images[:32]
        batch_b = data.train.images[32:64]
        assert batch_a.shape == batch_b.shape
        logits_a = fresh._oracle_logits_for(batch_a)
        logits_b = fresh._oracle_logits_for(batch_b)
        assert not np.allclose(logits_a, logits_b)
        from repro.distill import batched_forward

        assert np.allclose(logits_b, batched_forward(oracle, batch_b))

    def test_feature_memo_keyed_on_content_not_row_count(self, micro_pool):
        """Same regression for the frozen-library feature memo."""
        pool, data, _ = micro_pool
        batch_a = data.train.images[:24]
        batch_b = data.train.images[24:48]
        feats_a = pool._features_for(batch_a)
        feats_b = pool._features_for(batch_b)
        assert feats_a.shape == feats_b.shape
        assert not np.allclose(feats_a, feats_b)
        # repeat lookups of the same content stay memoized
        assert pool._features_for(batch_b) is feats_b


class TestPreprocessedPoolQuality:
    """Assertions on the session-scoped, properly trained micro pool."""

    def test_all_experts_extracted(self, micro_pool):
        pool, _, _ = micro_pool
        assert set(pool.expert_names()) == {"c0", "c1", "c2", "c3"}

    def test_histories_recorded(self, micro_pool):
        pool, _, _ = micro_pool
        assert "library" in pool.histories
        assert "expert/c2" in pool.histories
        assert pool.histories["library"].total_seconds > 0

    def test_experts_accurate_on_own_task(self, micro_pool):
        pool, data, _ = micro_pool
        for name in pool.expert_names():
            model, composite = pool.consolidate([name])
            acc = specialized_accuracy(model, data.test, composite)
            assert acc > 0.8, f"expert {name} at {acc}"

    def test_composite_accuracy(self, micro_pool):
        pool, data, _ = micro_pool
        model, composite = pool.consolidate(["c0", "c1", "c2"])
        assert specialized_accuracy(model, data.test, composite) > 0.7

    def test_library_student_kept_for_table1(self, micro_pool):
        pool, _, _ = micro_pool
        assert pool.library_student is not None
        assert pool.library_student.trunk is pool.library


@pytest.fixture(scope="module")
def mixed_pool():
    """``(pool, data, banks)``: 2- and 3-class tasks, interleaved, and the
    member task names of every head bank the build trained."""
    from repro.data import ClassHierarchy
    from repro.models import WRNHeadBank
    from repro.serving import build_demo_pool

    banks = []
    with pytest.MonkeyPatch.context() as patch:
        original = WRNHeadBank.__init__

        def recording(self, heads):
            original(self, heads)
            banks.append([head.num_classes for head in heads])

        patch.setattr(WRNHeadBank, "__init__", recording)
        pool, data = build_demo_pool(
            hierarchy=ClassHierarchy.variable([2, 3, 2, 3, 2]),
            train_per_class=8,
            epochs=2,
            seed=5,
        )
    return pool, data, banks


class TestLockstepBanks:
    def test_one_bank_per_head_shape_installed_in_task_order(self, mixed_pool):
        pool, _, banks = mixed_pool
        assert banks == [[2, 2, 2], [3, 3]]
        assert pool.expert_names() == tuple(t.name for t in pool.hierarchy.primitive_tasks())
        for task in pool.hierarchy.primitive_tasks():
            assert pool.experts[task.name].num_classes == len(task)
            assert not pool.experts[task.name].training
            assert not any(p.requires_grad for p in pool.experts[task.name].parameters())
            assert pool.expert_version(task.name) == 1
            assert len(pool.histories[f"expert/{task.name}"].points) == 2

    def test_members_keep_their_own_loss_history(self, mixed_pool):
        pool, _, _ = mixed_pool
        losses = {
            name: [p.loss for p in pool.histories[f"expert/{name}"].points]
            for name in pool.expert_names()
        }
        assert len({tuple(curve) for curve in losses.values()}) == len(losses)
        seconds = {
            tuple(p.seconds for p in pool.histories[f"expert/{name}"].points)
            for name in ("group0", "group2", "group4")
        }
        assert len(seconds) == 1  # one bank, one clock

    def test_reextracting_one_task_leaves_the_others_alone(self, mixed_pool):
        pool, data, _ = mixed_pool
        view = pool.subset(pool.expert_names())
        before = {name: (view.experts[name], view.expert_version(name)) for name in view.experts}
        retrained = view.expert_version("group1")
        view.extract_expert("group1", data.train.images)
        assert view.experts["group1"] is not before["group1"][0]
        assert view.expert_version("group1") == retrained + 1
        for name, (head, version) in before.items():
            if name != "group1":
                assert view.experts[name] is head
                assert view.expert_version(name) == version
        # same seed, same budget: the bank of one lands on the bank member
        for key, value in pool.experts["group1"].state_dict().items():
            assert np.allclose(view.experts["group1"].state_dict()[key], value, atol=1e-6)
