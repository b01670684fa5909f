"""Synthetic hierarchical image datasets (CIFAR-100 / Tiny-ImageNet stand-ins).

The paper evaluates on CIFAR-100 (100 classes in 20 superclasses) and
Tiny-ImageNet (200 classes grouped into 3-10-class primitive tasks via the
ImageNet semantic tree).  Neither dataset is available offline, so we
generate images procedurally while preserving exactly the structure PoE
exploits (see ``docs/paper-claims.md``):

* **hierarchical similarity** — every superclass has a smooth *prototype
  pattern*; its classes share it and differ by a finer class pattern.
  Classes inside a primitive task are therefore mutually confusable, which
  is what gives the oracle's soft targets their dark knowledge;
* **non-trivial generalisation** — per-sample noise, random gain and random
  translations mean a model trained on few task-specific samples (the
  Scratch baseline) generalises worse than one distilled from the oracle;
* **out-of-distribution structure** — samples of other superclasses are
  drawn from visibly different prototypes, so a well-calibrated expert can
  assign them low confidence (Figure 5's measurement).

Images are float32 NCHW in roughly [-2, 2]; no further normalisation is
required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .dataset import ArrayDataset
from .hierarchy import ClassHierarchy

__all__ = [
    "SyntheticConfig",
    "SyntheticImageGenerator",
    "HierarchicalImageDataset",
    "make_synth_cifar",
    "make_synth_tiny_imagenet",
]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic image distribution."""

    image_size: int = 8
    channels: int = 3
    super_strength: float = 1.0  # amplitude of the shared superclass pattern
    class_strength: float = 0.9  # amplitude of the class-specific pattern
    super_smoothness: float = 2.0  # gaussian sigma: low frequency
    class_smoothness: float = 0.8  # higher frequency detail
    noise_std: float = 0.7  # per-sample pixel noise
    gain_jitter: float = 0.15  # multiplicative per-sample gain jitter
    max_shift: int = 1  # random circular translation


def _gaussian_wrap(x: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    """Periodic Gaussian blur of float64 ``x`` along ``axis``.

    The kernel (truncated at 4σ, normalised to sum 1) and the accumulation
    order are ``scipy.ndimage.gaussian_filter1d(mode="wrap")``'s for a
    symmetric kernel: the centre tap, then ``(x[i+j] + x[i-j])·w_j`` from
    the outermost tap inward — so the result is bit-identical to it.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    taps = taps / taps.sum()
    out = x * taps[radius]
    for j in range(radius, 0, -1):
        out += (np.roll(x, -j, axis=axis) + np.roll(x, j, axis=axis)) * taps[radius - j]
    return out


def _smooth_field(
    rng: np.random.Generator, channels: int, size: int, sigma: float
) -> np.ndarray:
    """A unit-variance smooth random pattern of shape (C, H, W)."""
    field_ = rng.standard_normal((channels, size, size))
    if sigma > 0:
        field_ = _gaussian_wrap(_gaussian_wrap(field_, sigma, axis=1), sigma, axis=2)
    field_ -= field_.mean()
    std = field_.std()
    if std > 0:
        field_ /= std
    return field_.astype(np.float32)


class SyntheticImageGenerator:
    """Draws images for the classes of a :class:`ClassHierarchy`.

    Prototypes are a pure function of ``seed`` so train and test splits (and
    any number of extra samples) come from the same distribution.
    """

    def __init__(
        self,
        hierarchy: ClassHierarchy,
        config: SyntheticConfig = SyntheticConfig(),
        seed: int = 0,
    ) -> None:
        self.hierarchy = hierarchy
        self.config = config
        self.seed = seed
        proto_rng = np.random.default_rng(seed)
        c, s = config.channels, config.image_size
        self._super_proto = {}
        self._class_proto = {}
        for task in hierarchy.primitive_tasks():
            self._super_proto[task.name] = _smooth_field(
                proto_rng, c, s, config.super_smoothness
            )
            for class_id in task.classes:
                self._class_proto[class_id] = _smooth_field(
                    proto_rng, c, s, config.class_smoothness
                )

    def class_mean(self, class_id: int) -> np.ndarray:
        """The noiseless prototype image of a class."""
        cfg = self.config
        task = self.hierarchy.task_of_class(class_id)
        return (
            cfg.super_strength * self._super_proto[task.name]
            + cfg.class_strength * self._class_proto[class_id]
        )

    def sample_batch(
        self, class_ids: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one image per entry of ``class_ids`` -> (N, C, H, W)."""
        cfg = self.config
        class_ids = np.asarray(class_ids)
        n = class_ids.shape[0]
        images = np.empty(
            (n, cfg.channels, cfg.image_size, cfg.image_size), dtype=np.float32
        )
        for i, class_id in enumerate(class_ids):
            images[i] = self.class_mean(int(class_id))
        gains = 1.0 + cfg.gain_jitter * rng.standard_normal((n, 1, 1, 1)).astype(np.float32)
        images *= gains
        images += rng.normal(0.0, cfg.noise_std, size=images.shape).astype(np.float32)
        if cfg.max_shift > 0:
            shifts = rng.integers(-cfg.max_shift, cfg.max_shift + 1, size=(n, 2))
            for i, (dy, dx) in enumerate(shifts):
                if dy or dx:
                    images[i] = np.roll(images[i], (int(dy), int(dx)), axis=(1, 2))
        return images


class HierarchicalImageDataset:
    """Train/test split of synthetic hierarchical images.

    Attributes ``train`` and ``test`` are :class:`ArrayDataset`; labels are
    global class ids consistent with ``hierarchy``.
    """

    def __init__(
        self,
        hierarchy: ClassHierarchy,
        generator: SyntheticImageGenerator,
        train_per_class: int = 100,
        test_per_class: int = 40,
        seed: int = 1,
    ) -> None:
        self.hierarchy = hierarchy
        self.generator = generator
        rng = np.random.default_rng(seed)
        self.train = self._draw(train_per_class, rng)
        self.test = self._draw(test_per_class, rng)

    def _draw(self, per_class: int, rng: np.random.Generator) -> ArrayDataset:
        labels = np.repeat(np.arange(self.hierarchy.num_classes), per_class)
        images = self.generator.sample_batch(labels, rng)
        return ArrayDataset(images, labels)

    @property
    def num_classes(self) -> int:
        return self.hierarchy.num_classes


def make_synth_cifar(
    num_superclasses: int = 20,
    classes_per_super: int = 5,
    train_per_class: int = 100,
    test_per_class: int = 40,
    image_size: int = 8,
    seed: int = 0,
    config: Optional[SyntheticConfig] = None,
) -> HierarchicalImageDataset:
    """CIFAR-100-style dataset: equal-size superclasses.

    Defaults give the paper's 20-superclass structure at reduced resolution;
    the experiment configs (``repro.eval.experiments``) scale class counts
    down so a numpy substrate trains in seconds.
    """
    hierarchy = ClassHierarchy.uniform(num_superclasses, classes_per_super, prefix="sc")
    cfg = config or SyntheticConfig(image_size=image_size)
    generator = SyntheticImageGenerator(hierarchy, cfg, seed=seed)
    return HierarchicalImageDataset(
        hierarchy, generator, train_per_class, test_per_class, seed=seed + 1
    )


def make_synth_tiny_imagenet(
    group_sizes: Optional[Sequence[int]] = None,
    num_groups: int = 12,
    train_per_class: int = 80,
    test_per_class: int = 30,
    image_size: int = 8,
    seed: int = 7,
    config: Optional[SyntheticConfig] = None,
) -> HierarchicalImageDataset:
    """Tiny-ImageNet-style dataset: variable group sizes (3-10 per paper §5.1)."""
    if group_sizes is None:
        rng = np.random.default_rng(seed)
        group_sizes = [int(rng.integers(3, 11)) for _ in range(num_groups)]
    hierarchy = ClassHierarchy.variable(group_sizes, prefix="wn")
    cfg = config or SyntheticConfig(image_size=image_size)
    generator = SyntheticImageGenerator(hierarchy, cfg, seed=seed)
    return HierarchicalImageDataset(
        hierarchy, generator, train_per_class, test_per_class, seed=seed + 1
    )
