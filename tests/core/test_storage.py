"""ExpertStore persistence and Table 4 volume accounting."""

import os

import numpy as np
import pytest

from repro.core import (
    ExpertStore,
    PoolOfExperts,
    estimate_all_specialists_volume,
)
from repro.distill import batched_forward


class TestPersistence:
    def test_empty_pool_rejected(self, tmp_path, micro_pool):
        pool, _, oracle = micro_pool
        empty = PoolOfExperts(oracle, pool.hierarchy)
        with pytest.raises(RuntimeError):
            ExpertStore(str(tmp_path / "x")).save(empty)

    def test_roundtrip_preserves_outputs(self, tmp_path, micro_pool):
        pool, data, oracle = micro_pool
        store = ExpertStore(str(tmp_path / "pool"))
        store.save(pool)
        loaded = store.load(oracle, pool.hierarchy)
        assert set(loaded.expert_names()) == set(pool.expert_names())
        x = data.test.images[:8]
        for names in (["c0"], ["c1", "c2"]):
            m1, _ = pool.consolidate(names)
            m2, _ = loaded.consolidate(names)
            assert np.allclose(
                batched_forward(m1, x), batched_forward(m2, x), atol=1e-5
            )

    def test_loaded_library_frozen(self, tmp_path, micro_pool):
        pool, _, oracle = micro_pool
        store = ExpertStore(str(tmp_path / "pool2"))
        store.save(pool)
        loaded = store.load(oracle, pool.hierarchy)
        for module in (loaded.library, *loaded.experts.values()):
            assert all(not p.requires_grad for p in module.parameters())
            assert not module.training

    def test_manifest_written(self, tmp_path, micro_pool):
        pool, _, _ = micro_pool
        root = str(tmp_path / "pool3")
        ExpertStore(root).save(pool)
        assert os.path.exists(os.path.join(root, "pool.json"))
        assert os.path.exists(os.path.join(root, "library.npz"))
        assert os.path.exists(os.path.join(root, "expert_c0.npz"))

    def test_on_disk_bytes_positive(self, tmp_path, micro_pool):
        pool, _, _ = micro_pool
        store = ExpertStore(str(tmp_path / "pool4"))
        store.save(pool)
        assert store.on_disk_bytes() > 0

    def test_loaded_config_matches(self, tmp_path, micro_pool):
        pool, _, oracle = micro_pool
        store = ExpertStore(str(tmp_path / "pool5"))
        store.save(pool)
        loaded = store.load(oracle, pool.hierarchy)
        assert loaded.config.expert_ks == pool.config.expert_ks
        assert loaded.config.alpha == pool.config.alpha


class TestVolumeAccounting:
    def test_estimate_formula(self):
        assert estimate_all_specialists_volume(3, 100) == 700  # (2^3 - 1) * 100
        assert estimate_all_specialists_volume(1, 10) == 10

    def test_estimate_rejects_zero_tasks(self):
        with pytest.raises(ValueError):
            estimate_all_specialists_volume(0, 10)

    def test_estimate_exponential_growth(self):
        """The paper's terabyte blow-up: 2^n dominates any per-model size."""
        small = estimate_all_specialists_volume(10, 1000)
        large = estimate_all_specialists_volume(34, 1000)  # paper's Tiny-ImageNet n
        assert large / small > 1e6

    def test_volume_report_pool_smaller_than_oracle(self, tmp_path, micro_pool):
        pool, _, oracle = micro_pool
        report = ExpertStore(str(tmp_path / "v1")).volume_report(pool, oracle)
        assert report.pool_bytes < report.oracle_bytes
        assert report.oracle_to_pool_ratio > 1.0

    def test_volume_report_specialists_blow_up(self, tmp_path, micro_pool):
        """At the paper's scale (n>=20 primitives) storing all 2^n
        specialists dwarfs the oracle; verified via the report's per-
        specialist size and the closed-form estimate."""
        pool, _, oracle = micro_pool
        report = ExpertStore(str(tmp_path / "v2")).volume_report(pool, oracle)
        per_specialist = int(report.mean_expert_bytes) + report.library_bytes
        at_paper_scale = estimate_all_specialists_volume(20, per_specialist)
        assert at_paper_scale > 100 * report.oracle_bytes

    def test_report_components_sum(self, tmp_path, micro_pool):
        pool, _, oracle = micro_pool
        report = ExpertStore(str(tmp_path / "v3")).volume_report(pool, oracle)
        assert report.pool_bytes == report.library_bytes + report.experts_total_bytes
        assert len(report.expert_bytes) == 4

    def test_as_dict_keys(self, tmp_path, micro_pool):
        pool, _, oracle = micro_pool
        d = ExpertStore(str(tmp_path / "v4")).volume_report(pool, oracle).as_dict()
        for key in ("oracle_bytes", "library_bytes", "pool_bytes", "all_specialists_bytes"):
            assert key in d
