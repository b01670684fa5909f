"""Experiment tracks: the scaled-down counterparts of the paper's two setups.

A :class:`TrackConfig` bundles everything one evaluation track needs — the
synthetic dataset recipe, the oracle/library/expert architectures and the
training budgets.  Two canonical tracks mirror the paper:

* ``synth-cifar``  — CIFAR-100-like: equal-size superclasses.
* ``synth-tiny``   — Tiny-ImageNet-like: variable-size primitive tasks.

Like the paper (§5.1), six primitive tasks are selected per track and all
specialization/consolidation experiments are run over them.

``fast=True`` (or env ``REPRO_FAST=1``) shrinks budgets for CI/test runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data import (
    ClassHierarchy,
    HierarchicalImageDataset,
    make_synth_cifar,
    make_synth_tiny_imagenet,
)
from ..distill import TrainConfig

__all__ = [
    "TrackConfig",
    "cifar_track",
    "tiny_track",
    "get_track",
    "select_combos",
    "is_fast_mode",
]


def is_fast_mode() -> bool:
    """True when the environment requests reduced experiment budgets."""
    return os.environ.get("REPRO_FAST", "").strip() not in ("", "0", "false")


@dataclass(frozen=True)
class TrackConfig:
    """One evaluation track (dataset + architectures + budgets)."""

    name: str
    kind: str  # 'cifar' (uniform groups) or 'tiny' (variable groups)
    # dataset (defaults mirror CIFAR-100's 20x5 hierarchy at reduced size)
    num_superclasses: int = 20
    classes_per_super: int = 5
    group_sizes: Tuple[int, ...] = ()
    train_per_class: int = 60
    test_per_class: int = 25
    image_size: int = 8
    noise_std: float = 1.1
    class_strength: float = 0.7  # fine-grained intra-superclass separation
    data_seed: int = 0
    # architectures (paper: oracle WRN-40-(4,4); library WRN-16-(1,1); expert ks=0.25)
    depth: int = 10
    oracle_k: float = 4.0
    library_k: float = 1.0
    expert_ks: float = 0.25
    library_level: int = 3
    # distillation hyperparameters (paper: alpha=0.3)
    temperature: float = 4.0
    alpha: float = 0.3
    # training budgets: baselines are trained to convergence like the paper
    # (saturation also produces the overconfidence Figure 5 measures)
    oracle_epochs: int = 12
    library_epochs: int = 15
    expert_epochs: int = 20
    service_epochs: int = 10
    batch_size: int = 128
    lr: float = 0.05
    seed: int = 0
    # experiment design: how many primitive tasks participate (paper: 6)
    num_selected_tasks: int = 6
    combos_per_nq: int = 1

    # ------------------------------------------------------------------
    def dataset(self) -> HierarchicalImageDataset:
        """Materialise the track's dataset (deterministic in the config)."""
        from ..data.synthetic import SyntheticConfig

        cfg = SyntheticConfig(
            image_size=self.image_size,
            noise_std=self.noise_std,
            class_strength=self.class_strength,
        )
        if self.kind == "cifar":
            return make_synth_cifar(
                num_superclasses=self.num_superclasses,
                classes_per_super=self.classes_per_super,
                train_per_class=self.train_per_class,
                test_per_class=self.test_per_class,
                image_size=self.image_size,
                seed=self.data_seed,
                config=cfg,
            )
        if self.kind == "tiny":
            return make_synth_tiny_imagenet(
                group_sizes=list(self.group_sizes),
                train_per_class=self.train_per_class,
                test_per_class=self.test_per_class,
                image_size=self.image_size,
                seed=self.data_seed,
                config=cfg,
            )
        raise ValueError(f"unknown track kind {self.kind!r}")

    @property
    def num_classes(self) -> int:
        if self.kind == "cifar":
            return self.num_superclasses * self.classes_per_super
        return int(sum(self.group_sizes))

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """One image's (channels, height, width), as FLOP counts take it."""
        return (3, self.image_size, self.image_size)

    def selected_tasks(self, hierarchy: ClassHierarchy) -> Tuple[str, ...]:
        """The six primitive tasks used by the experiments (seeded choice)."""
        names = [t.name for t in hierarchy.primitive_tasks()]
        rng = np.random.default_rng(self.seed + 17)
        chosen = rng.choice(len(names), size=min(self.num_selected_tasks, len(names)), replace=False)
        return tuple(names[i] for i in sorted(chosen))

    def train_config(self, epochs: int, seed_offset: int = 0) -> TrainConfig:
        return TrainConfig(
            epochs=epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=self.seed + seed_offset,
            eval_every=2,  # learning-curve sampling (paper: every 5 epochs)
        )

    def cache_key(self) -> str:
        """Stable identifier for artifact caching."""
        return (
            f"{self.name}-d{self.depth}-ok{self.oracle_k:g}-lk{self.library_k:g}"
            f"-ek{self.expert_ks:g}-n{self.num_classes}-s{self.image_size}"
            f"-tr{self.train_per_class}-ns{self.noise_std:g}-cs{self.class_strength:g}"
            f"-oe{self.oracle_epochs}-le{self.library_epochs}"
            f"-ee{self.expert_epochs}-se{self.service_epochs}-sd{self.seed}"
        )


def cifar_track(fast: Optional[bool] = None) -> TrackConfig:
    """The CIFAR-100-like track (uniform 3-class superclasses)."""
    fast = is_fast_mode() if fast is None else fast
    track = TrackConfig(name="synth-cifar", kind="cifar")
    if fast:
        track = replace(
            track,
            name="synth-cifar-fast",
            num_superclasses=6,
            classes_per_super=3,
            train_per_class=60,
            test_per_class=20,
            noise_std=0.7,
            class_strength=0.9,
            batch_size=64,
            oracle_epochs=6,
            library_epochs=6,
            expert_epochs=5,
            service_epochs=5,
            combos_per_nq=1,
        )
    return track


def tiny_track(fast: Optional[bool] = None) -> TrackConfig:
    """The Tiny-ImageNet-like track (variable-size primitive tasks)."""
    fast = is_fast_mode() if fast is None else fast
    track = TrackConfig(
        name="synth-tiny",
        kind="tiny",
        group_sizes=(3, 4, 5, 6, 7, 8, 9, 10, 3, 5),  # paper: groups of 3-10
        train_per_class=50,
        test_per_class=25,
        library_k=2.0,
        oracle_k=4.0,
    )
    if fast:
        track = replace(
            track,
            name="synth-tiny-fast",
            group_sizes=(3, 4, 3, 4, 3, 3),
            train_per_class=60,
            test_per_class=20,
            noise_std=0.7,
            class_strength=0.9,
            batch_size=64,
            oracle_epochs=6,
            library_epochs=6,
            expert_epochs=5,
            service_epochs=5,
            combos_per_nq=1,
        )
    return track


_TRACKS = {"synth-cifar": cifar_track, "synth-tiny": tiny_track}


def get_track(name: str, fast: Optional[bool] = None) -> TrackConfig:
    try:
        return _TRACKS[name](fast)
    except KeyError:
        raise KeyError(f"unknown track {name!r}; known: {sorted(_TRACKS)}") from None


def select_combos(
    task_names: Sequence[str], n_primitives: int, k: int, seed: int = 0
) -> List[Tuple[str, ...]]:
    """Deterministically pick ``k`` composite tasks with ``n_primitives`` each.

    The paper averages over *all* combinations of its six tasks; on this
    substrate we subsample (deterministically) to keep the matrix tractable
    and report the combo list alongside results.
    """
    import itertools

    all_combos = list(itertools.combinations(task_names, n_primitives))
    rng = np.random.default_rng(seed + 1000 * n_primitives)
    order = rng.permutation(len(all_combos))
    return [all_combos[i] for i in order[: min(k, len(all_combos))]]
