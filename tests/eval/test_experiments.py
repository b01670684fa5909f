"""Experiment tracks and combo selection."""

import numpy as np
import pytest

from repro.eval import TrackConfig, cifar_track, get_track, select_combos, tiny_track


class TestTracks:
    def test_cifar_track_shape(self):
        track = cifar_track(fast=False)
        assert track.kind == "cifar"
        # mirrors CIFAR-100: 20 superclasses x 5 classes
        assert track.num_superclasses == 20
        assert track.num_classes == 100
        assert track.oracle_k == 4.0 and track.library_k == 1.0
        assert track.expert_ks == 0.25  # the paper's conv4 factor

    def test_tiny_track_variable_groups(self):
        track = tiny_track(fast=False)
        assert track.kind == "tiny"
        assert len(track.group_sizes) >= 6
        assert all(3 <= s for s in track.group_sizes)
        assert track.library_k == 2.0  # paper: WRN-16-(2, 2) library for Tiny

    def test_fast_variants_are_smaller(self):
        slow, fast = cifar_track(fast=False), cifar_track(fast=True)
        assert fast.oracle_epochs < slow.oracle_epochs
        assert fast.num_classes < slow.num_classes
        assert fast.name != slow.name  # distinct cache keys

    def test_get_track(self):
        assert get_track("synth-cifar", fast=False).name == "synth-cifar"
        with pytest.raises(KeyError):
            get_track("imagenet")

    def test_dataset_materialisation(self):
        track = cifar_track(fast=True)
        data = track.dataset()
        assert data.num_classes == track.num_classes
        assert len(data.train) == track.num_classes * track.train_per_class

    def test_selected_tasks_deterministic(self):
        track = cifar_track(fast=False)
        data = track.dataset()
        t1 = track.selected_tasks(data.hierarchy)
        t2 = track.selected_tasks(data.hierarchy)
        assert t1 == t2
        assert len(t1) == 6  # the paper selects six primitive tasks

    def test_cache_key_changes_with_config(self):
        from dataclasses import replace

        base = cifar_track(fast=False)
        assert base.cache_key() != replace(base, oracle_epochs=99).cache_key()
        assert base.cache_key() != replace(base, seed=5).cache_key()

    def test_cache_key_covers_every_field(self):
        """Two tracks that differ in any one field share no cached oracle,
        pool or result record."""
        from dataclasses import fields, replace

        base = cifar_track(fast=True)
        bumped = {int: lambda v: v + 1, float: lambda v: v + 0.5, str: lambda v: v + "x",
                  tuple: lambda v: v + (3,)}
        keys = {base.cache_key()}
        for field in fields(base):
            value = getattr(base, field.name)
            keys.add(replace(base, **{field.name: bumped[type(value)](value)}).cache_key())
        assert len(keys) == len(fields(base)) + 1

    def test_train_config_passthrough(self):
        track = cifar_track(fast=False)
        cfg = track.train_config(7, seed_offset=3)
        assert cfg.epochs == 7
        assert cfg.seed == track.seed + 3
        assert cfg.batch_size == track.batch_size


class TestSelectCombos:
    TASKS = ("a", "b", "c", "d", "e", "f")

    def test_counts(self):
        combos = select_combos(self.TASKS, 2, 3, seed=0)
        assert len(combos) == 3
        assert all(len(c) == 2 for c in combos)

    def test_no_duplicates_within_combo(self):
        for combo in select_combos(self.TASKS, 4, 5, seed=1):
            assert len(set(combo)) == 4

    def test_deterministic(self):
        assert select_combos(self.TASKS, 3, 2, seed=7) == select_combos(
            self.TASKS, 3, 2, seed=7
        )

    def test_different_seeds_differ(self):
        a = select_combos(self.TASKS, 3, 2, seed=1)
        b = select_combos(self.TASKS, 3, 2, seed=2)
        assert a != b

    def test_k_larger_than_population(self):
        combos = select_combos(self.TASKS, 5, 100, seed=0)
        assert len(combos) == 6  # C(6,5)

    def test_distinct_combos(self):
        combos = select_combos(self.TASKS, 2, 10, seed=3)
        assert len(set(combos)) == len(combos)
