"""Disk-backed artifact store for trained models and experiment results.

Oracle training is the single most expensive step of the reproduction, and
every table/figure reuses the same oracle, library and expert pool.  The
store trains each artifact at most once per configuration (keyed by the
track's cache key) and persists:

* ``models/<key>/oracle.npz``      — oracle weights + metadata JSON
* ``models/<key>/pool/``           — the PoE library + experts (ExpertStore)
* ``models/<key>/pool-level2/``    — the same at library depth ℓ=2
* ``models/<key>/pool-<variant>/`` — loss-ablated experts over the main library
* ``models/<key>/teacher_<t>.npz`` — per-primitive Scratch teachers (SD/UHC)
* ``results/<key>/summary.json``   — every table/figure of the track
* ``results/<key>/v2/...json``     — per-experiment result records; ``v2``
  is :data:`RESULT_FORMAT`, so a record of an older format (one without
  per-image bits) is recomputed, never read

Set ``REPRO_ARTIFACTS`` to relocate the store (default: ``.artifacts/``
under the repository root / current directory).
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core import ExpertStore, PoEConfig, PoolOfExperts
from ..core.pool import expert_init_seed
from ..data import HierarchicalImageDataset, task_subset
from ..distill import train_scratch
from ..eval.metrics import accuracy
from ..models import WideResNet, count_flops, count_params
from ..nn import load_state, save_module
from .experiments import TrackConfig

__all__ = ["ArtifactStore", "RESULT_FORMAT", "default_artifact_root"]

#: Version of the result-record layout, part of every record's path.
RESULT_FORMAT = 2


def default_artifact_root() -> str:
    env = os.environ.get("REPRO_ARTIFACTS")
    if env:
        return env
    return os.path.join(os.getcwd(), ".artifacts")


class ArtifactStore:
    """Train-once cache for oracles, pools, teachers and result records."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_artifact_root()
        self._datasets: Dict[str, HierarchicalImageDataset] = {}
        self._oracles: Dict[str, WideResNet] = {}
        self._pools: Dict[str, PoolOfExperts] = {}
        self._teachers: Dict[Tuple[str, str], WideResNet] = {}

    # ------------------------------------------------------------------
    # Datasets (deterministic regeneration, no disk needed)
    # ------------------------------------------------------------------
    def dataset(self, track: TrackConfig) -> HierarchicalImageDataset:
        key = track.cache_key()
        if key not in self._datasets:
            self._datasets[key] = track.dataset()
        return self._datasets[key]

    # ------------------------------------------------------------------
    # Oracle
    # ------------------------------------------------------------------
    def oracle(self, track: TrackConfig) -> Tuple[WideResNet, Dict]:
        """Return the trained oracle and its metadata (training it if needed)."""
        key = track.cache_key()
        if key in self._oracles:
            return self._oracles[key], self._read_json(self._oracle_meta_path(track))
        data = self.dataset(track)
        model = WideResNet(
            track.depth,
            track.oracle_k,
            track.oracle_k,
            data.num_classes,
            library_level=track.library_level,
            rng=np.random.default_rng(track.seed),
        )
        weights_path = self._oracle_path(track)
        meta_path = self._oracle_meta_path(track)
        if os.path.exists(weights_path) and os.path.exists(meta_path):
            model.load_state_dict(load_state(weights_path))
            model.eval()
            self._oracles[key] = model
            return model, self._read_json(meta_path)
        start = time.perf_counter()
        history = train_scratch(
            model,
            data.train.images,
            data.train.labels,
            config=track.train_config(track.oracle_epochs),
            eval_fn=lambda m: accuracy(m, data.test),
        )
        seconds = time.perf_counter() - start
        meta = {
            "test_accuracy": history.final_accuracy,
            "seconds": seconds,
            "params": count_params(model),
            "flops": count_flops(model, track.input_shape),
            "arch": model.arch_name(),
        }
        save_module(model, weights_path)
        self._write_json(meta_path, meta)
        self._oracles[key] = model
        return model, meta

    # ------------------------------------------------------------------
    # PoE pool (library + experts)
    # ------------------------------------------------------------------
    def pool(self, track: TrackConfig, library_level: Optional[int] = None) -> PoolOfExperts:
        """Return the preprocessed pool for the track (building if needed).

        ``library_level`` builds the pool at another ℓ over the track's own
        oracle (the pool only reads the oracle's logits), kept under
        ``pool-level<ℓ>/``; the default is the track's ``library_level``."""
        level = track.library_level if library_level is None else library_level
        key = (track.cache_key(), level)
        if key in self._pools:
            return self._pools[key]
        data = self.dataset(track)
        oracle_model, _ = self.oracle(track)
        config = PoEConfig(
            library_depth=track.depth,
            library_k=track.library_k,
            expert_ks=track.expert_ks,
            library_level=level,
            temperature=track.temperature,
            alpha=track.alpha,
            library_train=track.train_config(track.library_epochs),
            expert_train=track.train_config(track.expert_epochs),
            seed=track.seed,
        )
        pool = PoolOfExperts(oracle_model, data.hierarchy, config)
        directory = self.pool_dir(track, level)
        store = ExpertStore(directory)
        if os.path.exists(os.path.join(directory, ExpertStore.MANIFEST)):
            pool = store.load(oracle_model, data.hierarchy)
            pool.oracle = oracle_model
            pool.config = config
            self._pools[key] = pool
            return pool
        selected = track.selected_tasks(data.hierarchy)
        pool.preprocess(data.train, tasks=selected)
        store.save(pool)
        self._pools[key] = pool
        return pool

    # ------------------------------------------------------------------
    # Pool variants for the Table 5 / design ablations
    # ------------------------------------------------------------------
    def pool_variant(self, track: TrackConfig, variant: str) -> PoolOfExperts:
        """A pool whose experts were extracted with an ablated CKD loss.

        Variants: ``both`` (the main pool), ``soft`` (α=0: L_soft only),
        ``scale`` (L_scale only), ``l2`` (L_scale with an L2 norm).  All
        variants share the main pool's library — the ablation concerns only
        the expert-extraction loss.
        """
        if variant == "both":
            return self.pool(track)
        if variant not in ("soft", "scale", "l2"):
            raise ValueError(f"unknown pool variant {variant!r}")
        key = (track.cache_key(), f"pool-{variant}")
        if key in self._pools:
            return self._pools[key]
        from ..distill import CKDSettings

        settings = {
            "soft": CKDSettings(temperature=track.temperature, alpha=0.0),
            "scale": CKDSettings(temperature=track.temperature, soft_weight=0.0, alpha=1.0),
            "l2": CKDSettings(temperature=track.temperature, alpha=track.alpha, scale_norm="l2"),
        }[variant]
        base = self.pool(track)
        data = self.dataset(track)
        oracle_model, _ = self.oracle(track)
        variant_pool = PoolOfExperts(oracle_model, data.hierarchy, base.config)
        variant_pool.library = base.library
        variant_dir = os.path.join(self._model_dir(track), f"pool-{variant}")
        store = ExpertStore(variant_dir)
        if os.path.exists(os.path.join(variant_dir, ExpertStore.MANIFEST)):
            loaded = store.load(oracle_model, data.hierarchy)
            loaded.library = base.library  # share the exact library object
            self._pools[key] = loaded
            return loaded
        variant_pool.extract_experts(
            track.selected_tasks(data.hierarchy), data.train.images, settings=settings
        )
        store.save(variant_pool)
        self._pools[key] = variant_pool
        return variant_pool

    # ------------------------------------------------------------------
    # KD generic students (Table 2 / Table 3 'KD' rows)
    # ------------------------------------------------------------------
    def kd_generic(self, track: TrackConfig, ks_multiplier: int = 1) -> WideResNet:
        """Generic student of expert size distilled from the whole oracle.

        ``ks_multiplier`` scales conv4's width by n(Q), matching the paper's
        ``WRN-16-(1, 0.25·n(Q))`` architecture for the Table 3 KD rows.
        """
        key = (track.cache_key(), f"kd-generic-{ks_multiplier}")
        if key in self._teachers:
            return self._teachers[key]
        data = self.dataset(track)
        oracle_model, _ = self.oracle(track)
        model = WideResNet(
            track.depth,
            track.library_k,
            track.expert_ks * ks_multiplier,
            data.num_classes,
            library_level=track.library_level,
            rng=np.random.default_rng(track.seed + 71 + ks_multiplier),
        )
        path = os.path.join(self._model_dir(track), f"kd_generic_{ks_multiplier}.npz")
        if os.path.exists(path):
            model.load_state_dict(load_state(path))
            model.eval()
        else:
            from ..distill import distill_kd

            distill_kd(
                oracle_model,
                model,
                data.train.images,
                config=track.train_config(track.service_epochs, seed_offset=11),
                temperature=track.temperature,
            )
            save_module(model, path)
        self._teachers[key] = model
        return model

    # ------------------------------------------------------------------
    # Scratch teachers (for SD/UHC + Scratch)
    # ------------------------------------------------------------------
    def scratch_teacher(self, track: TrackConfig, task_name: str) -> WideResNet:
        """Per-primitive specialist trained from scratch (SD/UHC teacher)."""
        key = (track.cache_key(), task_name)
        if key in self._teachers:
            return self._teachers[key]
        data = self.dataset(track)
        task = data.hierarchy.task(task_name)
        model = WideResNet(
            track.depth,
            track.library_k,
            track.expert_ks,
            len(task),
            library_level=track.library_level,
            rng=np.random.default_rng(expert_init_seed(track.seed + 30, task_name)),
        )
        path = os.path.join(self._model_dir(track), f"teacher_{task_name}.npz")
        if os.path.exists(path):
            model.load_state_dict(load_state(path))
            model.eval()
        else:
            subset = task_subset(data.train, task)
            train_scratch(
                model,
                subset.images,
                subset.labels,
                config=track.train_config(track.expert_epochs, seed_offset=3),
            )
            save_module(model, path)
        self._teachers[key] = model
        return model

    # ------------------------------------------------------------------
    # Result records (JSON)
    # ------------------------------------------------------------------
    def result(
        self, track: TrackConfig, section: str, name: str, compute: Callable[[], Dict]
    ) -> Dict:
        """Fetch a cached result record or compute and persist it."""
        path = os.path.join(self._result_dir(track), section, f"{name}.json")
        if os.path.exists(path):
            return self._read_json(path)
        record = compute()
        self._write_json(path, record)
        return record

    # ------------------------------------------------------------------
    # Paths / JSON helpers
    # ------------------------------------------------------------------
    def _model_dir(self, track: TrackConfig) -> str:
        return os.path.join(self.root, "models", track.cache_key())

    def summary_path(self, track: TrackConfig) -> str:
        """Where ``repro build`` writes the track's summary and ``repro
        tables`` reads it."""
        return os.path.join(self.root, "results", track.cache_key(), "summary.json")

    def _result_dir(self, track: TrackConfig) -> str:
        return os.path.join(self.root, "results", track.cache_key(), f"v{RESULT_FORMAT}")

    def pool_dir(self, track: TrackConfig, library_level: Optional[int] = None) -> str:
        """Where :meth:`pool` persists the track's pool at ``library_level``."""
        if library_level in (None, track.library_level):
            return os.path.join(self._model_dir(track), "pool")
        return os.path.join(self._model_dir(track), f"pool-level{library_level}")

    def _oracle_path(self, track: TrackConfig) -> str:
        return os.path.join(self._model_dir(track), "oracle.npz")

    def _oracle_meta_path(self, track: TrackConfig) -> str:
        return os.path.join(self._model_dir(track), "oracle.json")

    @staticmethod
    def _read_json(path: str) -> Dict:
        with open(path) as fh:
            return json.load(fh)

    @staticmethod
    def _write_json(path: str, payload: Dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=float)
