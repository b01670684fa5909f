"""Canonical query identity: one key for every permutation of a task set."""

import pytest

from repro.data import ClassHierarchy
from repro.serving import canonical_tasks, model_key, payload_key


class TestCanonicalTasks:
    def test_sorts_names(self):
        assert canonical_tasks(["pets", "birds", "fish"]) == ("birds", "fish", "pets")

    def test_permutations_share_identity(self):
        assert canonical_tasks(["a", "b"]) == canonical_tasks(["b", "a"])

    def test_deduplicates(self):
        assert canonical_tasks(["a", "b", "a"]) == ("a", "b")

    def test_single_string_is_one_task(self):
        assert canonical_tasks("pets") == ("pets",)

    def test_composite_task_accepted(self):
        hierarchy = ClassHierarchy({"x": ["x0"], "y": ["y0"], "z": ["z0"]})
        composite = hierarchy.composite(["z", "x"])
        assert canonical_tasks(composite) == ("x", "z")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonical_tasks([])

    def test_result_is_hashable(self):
        assert hash(canonical_tasks(["b", "a"])) == hash(("a", "b"))


class TestKeys:
    def test_model_key_is_canonical(self):
        assert model_key(["b", "a"], [1, 2, 3]) == (("a", "b"), (1, 2, 3))
        assert model_key(["a", "b"], (1, 2, 3)) != model_key(["a", "b"], (1, 2, 4))

    def test_payload_key_includes_transport(self):
        assert payload_key(["b", "a"], "uint8", [1, 1, 1]) == (("a", "b"), "uint8", (1, 1, 1))
        assert payload_key(["a", "b"], "float32", ()) != payload_key(["a", "b"], "uint8", ())
        assert payload_key(["a"], "uint8", (1, 1)) != payload_key(["a"], "uint8", (2, 1))
