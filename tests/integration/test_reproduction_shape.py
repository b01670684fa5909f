"""The harness recipe's pool, seeded: reproduction *shape* and layout hygiene.

Every harness workload, every paper bench and a third of this suite stand
on ``build_demo_pool``; a change to ``repro.tensor`` / ``repro.nn`` moves
its trained floats in the last bits.  This module is the guard for such a
change until the full reproduction ledger exists: it asserts the shape of
the paper's Table 1-3 ordering on the exact pool the benchmark harness
builds (orderings and ratios to chance, not digits), that the build is
deterministic down to the served bytes, that training leaves every
parameter in its declared memory layout whatever physical layout the
activations flowing past it had, and that the build still produces the
bits committed in ``golden_recipe.json``.
"""

import json

import numpy as np
import pytest

from golden_recipe import (
    GOLDEN_PATH,
    PATHS,
    POOL_RECIPE,
    QUERIES,
    TRANSPORTS,
    accuracies,
    cross_shard_queries,
    digest,
    fingerprint,
    parameter_record,
    recorded_modules,
    served_digests,
)
from repro.core.features import array_digest
from repro.distill import batched_forward
from repro.eval.metrics import accuracy
from repro.optim import SGD
from repro.serving import ServingGateway, build_demo_pool


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


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _same_bits(golden) -> None:
    if golden["fingerprint"] != fingerprint():
        pytest.skip(
            f"golden digests were taken on {golden['fingerprint']}, this box is "
            f"{fingerprint()}: float bits need not repeat across BLAS builds"
        )


class TestGoldenBits:
    """The recipe's build against ``golden_recipe.json`` (regenerate it with
    ``tests/integration/golden_recipe.py`` when a change moves bits on purpose)."""

    def test_datasets_and_accuracies(self, harness_build, golden):
        pool, data, _ = harness_build
        assert golden["recipe"] == POOL_RECIPE
        for name, expected in golden["datasets"].items():
            split, field = name.split(".")
            assert digest(getattr(getattr(data, split), field)) == expected, name
        assert accuracies(pool, data) == golden["accuracies"]

    def test_weights_are_close(self, harness_build, golden):
        pool, _, _ = harness_build
        modules = recorded_modules(pool)
        assert sorted(modules) == sorted(golden["parameters"])
        for owner, module in modules.items():
            record, expected = parameter_record(module), golden["parameters"][owner]
            assert sorted(record) == sorted(expected), owner
            for name, (_, *summary) in record.items():
                assert np.allclose(summary, expected[name][1:], rtol=1e-3, atol=1e-4), (owner, name)

    def test_every_path_serves_the_golden_bytes(self, harness_build, golden):
        pool, _, _ = harness_build
        served = served_digests(pool)
        assert set(served) == set(PATHS)
        for path in PATHS:
            assert served[path] == served["gateway"], path
        assert cross_shard_queries(pool) == golden["cross_shard"] != []
        _same_bits(golden)
        assert served["gateway"] == golden["payloads"]

    def test_parameter_digests(self, harness_build, golden):
        _same_bits(golden)
        pool, _, _ = harness_build
        for owner, module in recorded_modules(pool).items():
            digests = {name: entry[0] for name, entry in parameter_record(module).items()}
            expected = {name: entry[0] for name, entry in golden["parameters"][owner].items()}
            assert digests == expected, owner


class TestHarnessCatalogue:
    def test_four_mib_composite_tiers_hold_every_harness_key(self, harness_build, monkeypatch):
        """``mixed_zipf_net``'s 4 MiB front payload tier holds all 64
        composites x 3 transports, and no payload tier evicts: an entry is
        charged its container head, not a joined copy of the library trunk
        (a relayed single-shard payload's segments are the front pool's).
        Every key is served twice: a tier keeps it from its second sighting
        and refuses only its first."""
        import importlib.util
        import sys
        from pathlib import Path

        from repro.cluster import ClusterConfig, ClusterGateway

        path = Path(__file__).parents[2] / "benchmarks" / "harness" / "opgen.py"
        spec = importlib.util.spec_from_file_location("harness_opgen", path)
        opgen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, opgen)  # its dataclasses look it up
        spec.loader.exec_module(opgen)
        pool, _, _ = harness_build
        catalogue = opgen.composite_catalogue(pool.expert_names())
        config = ClusterConfig(
            num_shards=2, shard_payload_cache_bytes=4 << 20, composite_payload_cache_bytes=4 << 20
        )
        with ClusterGateway(pool, config) as cluster:
            for _ in range(2):
                for names in catalogue:
                    for transport in opgen.TRANSPORTS:
                        cluster.serve(names, transport)
            front = cluster.cache_stats()["composite_payload"]
            tiers = [front] + [shard.cache_stats()["payload"] for shard in cluster.shards]
        assert len(catalogue) * len(opgen.TRANSPORTS) == 192
        assert front.current_entries == 192
        assert front.current_bytes < 192 * 1024  # heads only
        assert all(stats.evictions == 0 for stats in tiers)
        assert all(stats.rejections == stats.current_entries for stats in tiers)
