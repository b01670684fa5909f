"""Integration: ablation pool variants, KD students, and model shipping
on the shared micro track (artifacts reused from test_end_to_end)."""

import numpy as np
import pytest

from repro.core import deserialize_task_model
from repro.distill import batched_forward
from repro.eval.metrics import specialized_accuracy
from repro.serving import ServingGateway


class TestPoolVariants:
    def test_variants_share_library(self, micro_track, store):
        base = store.pool(micro_track)
        soft = store.pool_variant(micro_track, "soft")
        assert soft.library is base.library

    def test_variant_experts_differ_from_base(self, micro_track, store):
        base = store.pool(micro_track)
        scale = store.pool_variant(micro_track, "scale")
        name = micro_track.selected_tasks(store.dataset(micro_track).hierarchy)[0]
        base_state = base.experts[name].state_dict()
        scale_state = scale.experts[name].state_dict()
        assert any(
            not np.allclose(base_state[k], scale_state[k]) for k in base_state
        )

    def test_both_variant_is_base_pool(self, micro_track, store):
        assert store.pool_variant(micro_track, "both") is store.pool(micro_track)

    def test_unknown_variant_rejected(self, micro_track, store):
        with pytest.raises(ValueError):
            store.pool_variant(micro_track, "l3")

    def test_l2_variant_builds_and_serves(self, micro_track, store):
        pool = store.pool_variant(micro_track, "l2")
        data = store.dataset(micro_track)
        tasks = micro_track.selected_tasks(data.hierarchy)
        model, composite = pool.consolidate(list(tasks[:2]))
        acc = specialized_accuracy(model, data.test, composite)
        assert acc > 1.5 / len(composite)  # well above chance


class TestKDGenericStudents:
    def test_width_scales_with_multiplier(self, micro_track, store):
        from repro.models import count_params

        small = store.kd_generic(micro_track, ks_multiplier=1)
        wide = store.kd_generic(micro_track, ks_multiplier=3)
        assert count_params(wide) > count_params(small)
        assert small.num_classes == wide.num_classes == store.dataset(micro_track).num_classes

    def test_cached_instance_reused(self, micro_track, store):
        a = store.kd_generic(micro_track, ks_multiplier=1)
        b = store.kd_generic(micro_track, ks_multiplier=1)
        assert a is b


class TestShippingOnRealPool:
    def test_client_receives_equivalent_model(self, micro_track, store):
        pool = store.pool(micro_track)
        data = store.dataset(micro_track)
        tasks = list(micro_track.selected_tasks(data.hierarchy)[:2])
        with ServingGateway(pool) as gateway:
            shipped = deserialize_task_model(gateway.serve(tasks).payload)
        local, composite = pool.consolidate(tasks)
        x = data.test.images[:20]
        assert np.allclose(shipped.logits(x), batched_forward(local, x), atol=1e-4)

    def test_quantized_shipping_preserves_accuracy(self, micro_track, store):
        pool = store.pool(micro_track)
        data = store.dataset(micro_track)
        tasks = list(micro_track.selected_tasks(data.hierarchy)[:2])
        composite = data.hierarchy.composite(tasks)
        with ServingGateway(pool) as gateway:
            full = deserialize_task_model(gateway.serve(tasks, "float32").payload)
            packed = deserialize_task_model(gateway.serve(tasks, "uint8").payload)
        acc_full = specialized_accuracy(full.network, data.test, composite)
        acc_packed = specialized_accuracy(packed.network, data.test, composite)
        assert acc_packed > acc_full - 0.05

    def test_scratch_teachers_cached_on_disk(self, micro_track, store):
        from repro.eval import ArtifactStore

        name = micro_track.selected_tasks(store.dataset(micro_track).hierarchy)[0]
        first = store.scratch_teacher(micro_track, name)
        fresh_store = ArtifactStore(store.root)
        second = fresh_store.scratch_teacher(micro_track, name)
        x = store.dataset(micro_track).test.images[:8]
        assert np.allclose(
            batched_forward(first, x), batched_forward(second, x), atol=1e-5
        )
