"""Synthetic hierarchical dataset: structure, determinism, separability."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.data import ClassHierarchy, make_synth_cifar, make_synth_tiny_imagenet
from repro.data.synthetic import (
    HierarchicalImageDataset,
    SyntheticConfig,
    SyntheticImageGenerator,
    _smooth_field,
)

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))


@pytest.fixture
def hierarchy():
    return ClassHierarchy.uniform(4, 3, prefix="s")


@pytest.fixture
def generator(hierarchy):
    return SyntheticImageGenerator(hierarchy, SyntheticConfig(image_size=8), seed=0)


class TestGenerator:
    def test_prototypes_deterministic(self, hierarchy):
        g1 = SyntheticImageGenerator(hierarchy, seed=5)
        g2 = SyntheticImageGenerator(hierarchy, seed=5)
        assert np.allclose(g1.class_mean(0), g2.class_mean(0))

    def test_different_seeds_differ(self, hierarchy):
        g1 = SyntheticImageGenerator(hierarchy, seed=1)
        g2 = SyntheticImageGenerator(hierarchy, seed=2)
        assert not np.allclose(g1.class_mean(0), g2.class_mean(0))

    def test_sample_shape(self, generator, rng):
        batch = generator.sample_batch([0, 1, 5, 11], rng)
        assert batch.shape == (4, 3, 8, 8)
        assert batch.dtype == np.float32

    def test_hierarchical_similarity(self, generator):
        """Classes of one superclass must be closer than across superclasses.

        This is the structural property PoE exploits (dark knowledge within
        a primitive task), so the generator must guarantee it.
        """
        def dist(a, b):
            return np.linalg.norm(generator.class_mean(a) - generator.class_mean(b))

        # classes 0,1,2 share superclass s0; 3 belongs to s1
        within = np.mean([dist(0, 1), dist(0, 2), dist(1, 2)])
        across = np.mean([dist(0, 3), dist(1, 6), dist(2, 9)])
        assert within < across

    def test_noise_configurable(self, hierarchy, rng):
        quiet = SyntheticImageGenerator(hierarchy, SyntheticConfig(noise_std=0.01), seed=0)
        loud = SyntheticImageGenerator(hierarchy, SyntheticConfig(noise_std=2.0), seed=0)
        q = quiet.sample_batch([0] * 32, np.random.default_rng(1))
        l = loud.sample_batch([0] * 32, np.random.default_rng(1))
        assert l.std(axis=0).mean() > q.std(axis=0).mean()


class TestDatasetSplits:
    def test_split_sizes(self, hierarchy, generator):
        data = HierarchicalImageDataset(hierarchy, generator, 10, 5, seed=0)
        assert len(data.train) == 120
        assert len(data.test) == 60

    def test_all_classes_present(self, hierarchy, generator):
        data = HierarchicalImageDataset(hierarchy, generator, 5, 3, seed=0)
        assert set(np.unique(data.train.labels)) == set(range(12))
        assert set(np.unique(data.test.labels)) == set(range(12))

    def test_train_test_disjoint_noise(self, hierarchy, generator):
        data = HierarchicalImageDataset(hierarchy, generator, 5, 5, seed=0)
        assert not np.allclose(data.train.images[:5], data.test.images[:5])

    def test_deterministic_by_seed(self, hierarchy, generator):
        d1 = HierarchicalImageDataset(hierarchy, generator, 5, 5, seed=9)
        d2 = HierarchicalImageDataset(hierarchy, generator, 5, 5, seed=9)
        assert np.allclose(d1.train.images, d2.train.images)


class TestFactories:
    def test_synth_cifar_structure(self):
        data = make_synth_cifar(num_superclasses=5, classes_per_super=4,
                                train_per_class=3, test_per_class=2)
        assert data.num_classes == 20
        assert data.hierarchy.num_primitive_tasks == 5

    def test_synth_tiny_variable_groups(self):
        data = make_synth_tiny_imagenet(group_sizes=[3, 7, 10],
                                        train_per_class=2, test_per_class=1)
        assert data.num_classes == 20
        sizes = [len(t) for t in data.hierarchy.primitive_tasks()]
        assert sizes == [3, 7, 10]

    def test_synth_tiny_random_groups_in_range(self):
        data = make_synth_tiny_imagenet(num_groups=8, train_per_class=1, test_per_class=1)
        sizes = [len(t) for t in data.hierarchy.primitive_tasks()]
        assert len(sizes) == 8
        assert all(3 <= s <= 10 for s in sizes)  # paper: groups of 3-10 classes


class TestSmoothField:
    """``_smooth_field`` blurs with numpy, bit-identically to the
    ``scipy.ndimage`` call it replaced (scipy is a test reference only)."""

    @given(
        st.floats(0.5, 3.0),
        st.integers(4, 32),
        st.integers(1, 3),
        st.integers(0, 2**16),
    )
    def test_matches_scipy_gaussian_filter(self, sigma, size, channels, seed):
        from scipy import ndimage

        reference = np.random.default_rng(seed).standard_normal((channels, size, size))
        reference = ndimage.gaussian_filter(reference, sigma=(0, sigma, sigma), mode="wrap")
        reference -= reference.mean()
        reference /= reference.std()
        field = _smooth_field(np.random.default_rng(seed), channels, size, sigma)
        assert np.array_equal(field, reference.astype(np.float32))

    def test_serving_import_path_and_pool_build_load_no_scipy(self):
        snippet = (
            "import sys\n"
            "import repro.serving, repro.net, repro.cluster\n"
            "repro.serving.build_demo_pool(num_tasks=2, train_per_class=4, epochs=1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            check=True,
        )
        assert result.stdout.strip() == "[]"
