"""Expert versioning, install listeners, subset views, stable seeding."""

import copy
import os
import subprocess
import sys

import pytest

import repro
from repro.core.pool import expert_init_seed

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))


class TestVersioning:
    def test_versions_start_at_zero_and_bump_on_attach(self, named_pool):
        pool, _, _ = named_pool
        assert pool.expert_version("nope") == 0
        before = pool.expert_version("pets")
        assert before >= 1  # extracted during preprocessing
        pool.attach_expert("pets", pool.experts["pets"])
        assert pool.expert_version("pets") == before + 1

    def test_listeners_notified_with_name_and_version(self, named_pool):
        pool, _, _ = named_pool
        events = []
        listener = lambda name, version: events.append((name, version))
        pool.add_listener(listener)
        try:
            pool.attach_expert("birds", pool.experts["birds"])
            assert events == [("birds", pool.expert_version("birds"))]
        finally:
            pool.remove_listener(listener)

    def test_each_install_journals_one_update(self, named_pool):
        """One emitter: the pool journals each version bump once, however
        many gateways serve from it."""
        from repro.core.pool import LIBRARY_TASK
        from repro.obs import JOURNAL
        from repro.serving import ServingGateway

        pool = named_pool[0].subset(["pets", "birds"])
        JOURNAL.reset()
        JOURNAL.enable()
        try:
            with ServingGateway(pool), ServingGateway(pool):
                pool.attach_expert("pets", pool.experts["pets"])
                pool.install_library(pool.library, pool.library_student)
            events = [(e["kind"], e["task"], e["version"]) for e in JOURNAL.events()]
        finally:
            JOURNAL.reset()
        assert events == [
            ("expert_update", "pets", pool.expert_version("pets")),
            ("library_update", LIBRARY_TASK, pool.expert_version(LIBRARY_TASK)),
        ]

    def test_attach_with_explicit_version(self, named_pool):
        pool, _, _ = named_pool
        pool.attach_expert("fish", pool.experts["fish"], version=41)
        assert pool.expert_version("fish") == 41

    def test_attached_head_is_frozen_and_in_eval_mode(self, named_pool):
        pool, _, _ = named_pool
        view = pool.subset(["pets"])
        arrived = copy.deepcopy(pool.experts["pets"]).requires_grad_(True).train()
        view.attach_expert("pets", arrived)  # as a deserialized or trained head arrives
        assert view.experts["pets"] is arrived
        assert not any(module.training for module in arrived.modules())
        assert not any(param.requires_grad for param in arrived.parameters())

    def test_detach_notifies_and_removes(self, named_pool):
        pool, _, _ = named_pool
        head = pool.experts["fish"]
        events = []
        listener = lambda name, version: events.append(name)
        pool.add_listener(listener)
        try:
            assert pool.detach_expert("fish") is head
            assert "fish" not in pool.experts
            assert events == ["fish"]
            assert pool.detach_expert("fish") is None  # idempotent
        finally:
            pool.remove_listener(listener)
            pool.attach_expert("fish", head)  # undo for other tests


class TestSubset:
    def test_subset_shares_library_and_heads_by_reference(self, named_pool):
        pool, _, _ = named_pool
        view = pool.subset(["pets", "birds"])
        assert view.library is pool.library
        assert view.experts["pets"] is pool.experts["pets"]
        assert sorted(view.experts) == ["birds", "pets"]
        assert view.expert_version("pets") == pool.expert_version("pets")

    def test_subset_consolidates_only_its_slice(self, named_pool):
        pool, _, _ = named_pool
        view = pool.subset(["pets"])
        view.consolidate(["pets"])
        with pytest.raises(KeyError):
            view.consolidate(["birds"])

    def test_subset_unknown_task_rejected(self, named_pool):
        pool, _, _ = named_pool
        with pytest.raises(KeyError):
            pool.subset(["dragons"])


class TestStableSeeding:
    def test_seed_is_crc32_stable_across_hash_salts(self):
        """Expert init seeds must not depend on PYTHONHASHSEED."""
        snippet = (
            "from repro.core.pool import expert_init_seed;"
            "print([expert_init_seed(0, n) for n in ('pets', 'birds', 'fish')])"
        )
        outputs = set()
        for hash_seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": hash_seed},
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1
        assert outputs.pop() == str(
            [expert_init_seed(0, n) for n in ("pets", "birds", "fish")]
        )

    def test_scratch_teacher_init_is_stable_across_hash_salts(self, tmp_path):
        """An SD/UHC scratch teacher starts from the same weights in every
        process, whatever PYTHONHASHSEED says (training is patched out:
        only the initialization is under test)."""
        snippet = "\n".join(
            [
                "import hashlib, sys",
                "import numpy as np",
                "import repro.eval.artifacts as artifacts",
                "from repro.eval.experiments import cifar_track",
                "artifacts.train_scratch = lambda *args, **kwargs: None",
                "track = cifar_track(fast=True)",
                "store = artifacts.ArtifactStore(sys.argv[1])",
                "name = track.selected_tasks(store.dataset(track).hierarchy)[0]",
                "digest = hashlib.sha256()",
                "for key, value in sorted(store.scratch_teacher(track, name).state_dict().items()):",
                "    digest.update(key.encode())",
                "    digest.update(np.ascontiguousarray(value).tobytes())",
                "print(digest.hexdigest())",
            ]
        )
        outputs = set()
        for hash_seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", snippet, str(tmp_path / hash_seed)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": hash_seed},
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1

    def test_distinct_tasks_get_distinct_seeds(self):
        seeds = {expert_init_seed(0, f"task{i}") for i in range(100)}
        assert len(seeds) > 95  # crc32 % 10_000 collisions are rare

    def test_reextraction_is_deterministic(self, named_pool):
        """Same task, same data, same config -> bit-identical expert."""
        import numpy as np

        pool, data, _ = named_pool
        images = data.train.images
        pool.extract_expert("pets", images)
        first = {
            k: np.array(v, copy=True)
            for k, v in pool.experts["pets"].state_dict().items()
        }
        pool.extract_expert("pets", images)
        second = pool.experts["pets"].state_dict()
        for key, value in first.items():
            assert np.array_equal(value, np.asarray(second[key])), key
