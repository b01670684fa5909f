"""The harness recipe's pool, seeded: reproduction *shape* and layout hygiene.

Every harness workload, every paper bench and a third of this suite stand
on ``build_demo_pool``; a change to ``repro.tensor`` / ``repro.nn`` moves
its trained floats in the last bits.  This module is the guard for such a
change until the full reproduction ledger exists: it asserts the shape of
the paper's Table 1-3 ordering on the exact pool the benchmark harness
builds (orderings and ratios to chance, not digits), that the build is
deterministic down to the served bytes, and that training leaves every
parameter in its declared memory layout whatever physical layout the
activations flowing past it had.
"""

import numpy as np
import pytest

from repro.core.features import array_digest
from repro.distill import batched_forward
from repro.eval.metrics import accuracy
from repro.optim import SGD
from repro.serving import ServingGateway, build_demo_pool

#: ``benchmarks/harness/workloads.py:POOL_RECIPE`` (the harness is not importable from here).
POOL_RECIPE = dict(num_tasks=8, train_per_class=20, epochs=4, seed=13)
TRANSPORTS = ("float32", "raw+zlib", "uint8")
QUERIES = (["task0"], ["task5", "task2"], [f"task{i}" for i in range(8)])


def served_payloads(pool):
    with ServingGateway(pool) as gateway:
        return [
            gateway.serve(query, transport).payload
            for query in QUERIES
            for transport in TRANSPORTS
        ]


def in_nchw_memory(forward):
    """``forward`` with every result copied into NCHW-contiguous memory."""

    def wrapper(*args, **kwargs):
        return np.ascontiguousarray(forward(*args, **kwargs))

    return wrapper


@pytest.fixture(scope="module")
def harness_build():
    """``(pool, data, optimizers)``: the recipe's pool and every SGD it ran."""
    optimizers = []
    with pytest.MonkeyPatch.context() as patch:
        original = SGD.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            optimizers.append(self)

        patch.setattr(SGD, "__init__", recording)
        pool, data = build_demo_pool(**POOL_RECIPE)
    return pool, data, optimizers


class TestReproductionShape:
    def test_oracle_library_expert_ordering(self, harness_build):
        pool, data, _ = harness_build
        chance = 1.0 / pool.hierarchy.num_classes
        oracle = accuracy(pool.oracle, data.test)
        student = accuracy(pool.library_student, data.test)
        network, composite = pool.consolidate(sorted(pool.expert_names()))
        logits = batched_forward(network, data.test.images)
        predicted = np.asarray(composite.classes)[logits.argmax(axis=1)]
        consolidated = float((predicted == data.test.labels).mean())
        assert oracle >= 0.9
        assert oracle > student > 4 * chance
        assert consolidated > 4 * chance

    def test_same_seed_builds_serve_identical_bytes(self, harness_build):
        pool, _, _ = harness_build
        again, _ = build_demo_pool(**POOL_RECIPE)
        assert served_payloads(again) == served_payloads(pool)


class TestLockstepBank:
    def test_a_bank_member_matches_its_task_extracted_alone(self, harness_build):
        """The recipe's eight heads train as one bank; each ends where its
        own bank of one, from the same seed, does."""
        pool, data, _ = harness_build
        for name in ("task0", "task5"):
            view = pool.subset([])
            view.extract_expert(name, data.train.images)
            alone = view.experts[name].state_dict()
            for key, value in pool.experts[name].state_dict().items():
                assert np.allclose(value, alone[key], rtol=1e-5, atol=1e-6), (name, key)


class TestLayoutHygiene:
    def test_parameters_and_velocities_keep_their_declared_layout(self, harness_build):
        pool, _, optimizers = harness_build
        # oracle, library student and one bank for every (same-shape) head
        assert len(optimizers) == 3
        assert optimizers[-1].params[0].shape[0] == POOL_RECIPE["num_tasks"]
        models = [pool.oracle, pool.library_student, *pool.experts.values()]
        arrays = [p.data for model in models for p in model.parameters()]
        for optimizer in optimizers:
            assert len(optimizer._velocity) == len(optimizer.params)
            arrays.extend(optimizer._velocity.values())
        for array in arrays:
            assert array.dtype == np.float32
            assert array.flags.c_contiguous

    def test_features_cross_the_cache_channels_last(self, harness_build):
        pool, data, _ = harness_build
        features = batched_forward(pool.library, data.train.images, batch_size=64)
        assert features.transpose(0, 2, 3, 1).flags.c_contiguous
        assert array_digest(features) == array_digest(np.ascontiguousarray(features))

    def test_payloads_do_not_depend_on_activation_layout(self, harness_build, monkeypatch):
        """The same build with the cached features and teacher logits forced
        into NCHW memory trains to the same bytes."""
        import repro.core.pool as pool_module

        pool, _, _ = harness_build
        monkeypatch.setattr(
            pool_module, "batched_forward", in_nchw_memory(pool_module.batched_forward)
        )
        relaid, _ = build_demo_pool(**POOL_RECIPE)
        assert not relaid._library_features.transpose(0, 2, 3, 1).flags.c_contiguous
        assert served_payloads(relaid) == served_payloads(pool)
