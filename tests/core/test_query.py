"""TaskSpecificModel over pool.consolidate, and the gateway that serves it."""

import numpy as np
import pytest

from repro.core import TaskSpecificModel
from repro.serving import GatewayConfig, ServingGateway


def _model(pool, tasks):
    return TaskSpecificModel(*pool.consolidate(tasks))


class TestEngine:
    """Model delivery through ``ServingGateway.get_model``."""

    def test_available_tasks(self, named_pool):
        pool, _, _ = named_pool
        with ServingGateway(pool) as gateway:
            assert set(gateway.available_tasks()) == {"pets", "birds", "fish"}

    def test_query_returns_task_model(self, named_pool):
        pool, _, _ = named_pool
        with ServingGateway(pool) as gateway:
            model = gateway.get_model(["pets", "fish"])
        assert isinstance(model, TaskSpecificModel)
        assert model.class_names == ("eel", "cod", "cat", "dog")  # canonical order

    def test_query_accepts_composite(self, named_pool):
        pool, _, _ = named_pool
        composite = pool.hierarchy.composite(["birds"])
        assert _model(pool, composite).task is composite
        with ServingGateway(pool) as gateway:
            assert gateway.get_model(composite).task.names == ("birds",)

    def test_cache_hits_marked(self, named_pool):
        pool, _, _ = named_pool
        with ServingGateway(pool) as gateway:
            m1 = gateway.get_model(["pets", "birds"])
            m2 = gateway.get_model(["pets", "birds"])
            assert m1 is m2
            stats = gateway.model_cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_cache_disabled(self, named_pool):
        pool, _, _ = named_pool
        with ServingGateway(pool, GatewayConfig(model_cache_bytes=0)) as gateway:
            assert gateway.get_model(["pets"]) is not gateway.get_model(["pets"])

    def test_permutations_share_cache_entry(self, micro_pool):
        pool, _, _ = micro_pool
        with ServingGateway(pool) as gateway:
            a = gateway.get_model(["c0", "c1"])
            b = gateway.get_model(["c1", "c0"])
        assert a is b
        assert a.task.names == ("c0", "c1")
        # consolidating directly keeps each requested layout, weights shared
        ordered = _model(pool, ["c1", "c0"])
        assert ordered.task.names == ("c1", "c0")
        assert ordered.network.trunk is a.network.trunk


class TestTaskSpecificModel:
    def test_predict_returns_global_ids(self, named_pool):
        pool, data, _ = named_pool
        model = _model(pool, ["birds"])  # global classes (2, 3)
        preds = model.predict(data.test.images[:20])
        assert set(np.unique(preds)).issubset({2, 3})

    def test_predict_names(self, named_pool):
        pool, data, _ = named_pool
        model = _model(pool, ["fish"])
        names = model.predict_names(data.test.images[:5])
        assert all(n in ("eel", "cod") for n in names)

    def test_predict_proba_normalised(self, named_pool):
        pool, data, _ = named_pool
        model = _model(pool, ["pets", "birds"])
        probs = model.predict_proba(data.test.images[:8])
        assert probs.shape == (8, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-4)

    def test_accuracy_on_own_task(self, named_pool):
        pool, data, _ = named_pool
        model = _model(pool, ["pets", "fish"])
        mask = np.isin(data.test.labels, model.classes)
        preds = model.predict(data.test.images[mask])
        assert (preds == data.test.labels[mask]).mean() > 0.7

    def test_size_accessors(self, named_pool):
        pool, _, _ = named_pool
        model = _model(pool, ["pets"])
        assert model.num_params() > 0
        assert model.num_flops((3, 6, 6)) > 0

    def test_mismatched_network_rejected(self, named_pool):
        pool, _, _ = named_pool
        network, _ = pool.consolidate(["pets", "birds"])
        wrong = pool.hierarchy.composite(["pets"])
        with pytest.raises(ValueError):
            TaskSpecificModel(network, wrong)
