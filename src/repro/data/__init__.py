"""Datasets, class hierarchies, loaders and transforms.

The synthetic generators substitute for CIFAR-100 / Tiny-ImageNet (offline
environment); see ``docs/paper-claims.md`` for the substitution argument.
"""

from .dataloader import DataLoader
from .dataset import ArrayDataset, Dataset, Subset, label_remap, task_subset
from .hierarchy import ClassHierarchy, CompositeTask, PrimitiveTask
from .synthetic import (
    HierarchicalImageDataset,
    SyntheticConfig,
    SyntheticImageGenerator,
    make_synth_cifar,
    make_synth_tiny_imagenet,
)
from .transforms import (
    Compose,
    Normalize,
    gaussian_noise,
    random_horizontal_flip,
    random_shift,
    standard_augmentation,
)

__all__ = [
    "DataLoader",
    "Dataset",
    "ArrayDataset",
    "Subset",
    "task_subset",
    "label_remap",
    "ClassHierarchy",
    "PrimitiveTask",
    "CompositeTask",
    "SyntheticConfig",
    "SyntheticImageGenerator",
    "HierarchicalImageDataset",
    "make_synth_cifar",
    "make_synth_tiny_imagenet",
    "Compose",
    "Normalize",
    "gaussian_noise",
    "random_horizontal_flip",
    "random_shift",
    "standard_augmentation",
]
