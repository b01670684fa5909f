"""Persistence and storage accounting for the PoE framework (Table 4).

The paper's storage argument: pre-training all ``2^n − 1`` composite-task
specialists would need terabytes, while PoE stores one library plus ``n``
tiny experts — megabytes, 20-30× smaller than the oracle itself.

:class:`ExpertStore` persists a pool to a directory (one ``.npz`` per
component plus a JSON manifest) and measures the byte volumes reported in
the Table 4 reproduction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict

from ..data.hierarchy import ClassHierarchy
from ..models import WRNHead, WRNTrunk
from ..nn import Module, load_state, save_state, state_dict_nbytes
from .pool import PoEConfig, PoolOfExperts

__all__ = ["VolumeReport", "ExpertStore", "estimate_all_specialists_volume"]


def estimate_all_specialists_volume(n_primitives: int, specialist_nbytes: int) -> int:
    """Lower bound on storing every composite specialist separately.

    There are ``2^n − 1`` non-empty composite tasks; each needs at least one
    specialist model of ``specialist_nbytes`` (the single-primitive expert
    size — larger composites only grow).  This mirrors the paper's ≥
    estimates in Table 4.
    """
    if n_primitives < 1:
        raise ValueError("need at least one primitive task")
    return (2**n_primitives - 1) * specialist_nbytes


@dataclass(frozen=True)
class VolumeReport:
    """Byte volumes of a pool, oracle, and the all-specialists estimate."""

    oracle_bytes: int
    library_bytes: int
    expert_bytes: Dict[str, int]
    n_primitives: int

    @property
    def experts_total_bytes(self) -> int:
        return sum(self.expert_bytes.values())

    @property
    def pool_bytes(self) -> int:
        """Library + all experts — the paper's 'All' column for PoE."""
        return self.library_bytes + self.experts_total_bytes

    @property
    def mean_expert_bytes(self) -> float:
        return self.experts_total_bytes / max(1, len(self.expert_bytes))

    @property
    def all_specialists_bytes(self) -> int:
        per_specialist = int(self.mean_expert_bytes) + self.library_bytes
        return estimate_all_specialists_volume(self.n_primitives, per_specialist)

    @property
    def oracle_to_pool_ratio(self) -> float:
        """How many times smaller the pool is than the oracle (paper: 20-30x)."""
        return self.oracle_bytes / max(1, self.pool_bytes)

    def as_dict(self) -> Dict[str, object]:
        return {
            "oracle_bytes": self.oracle_bytes,
            "library_bytes": self.library_bytes,
            "experts_total_bytes": self.experts_total_bytes,
            "mean_expert_bytes": self.mean_expert_bytes,
            "pool_bytes": self.pool_bytes,
            "all_specialists_bytes": self.all_specialists_bytes,
            "oracle_to_pool_ratio": self.oracle_to_pool_ratio,
            "n_primitives": self.n_primitives,
        }


class ExpertStore:
    """Directory-backed persistence of a :class:`PoolOfExperts`."""

    MANIFEST = "pool.json"

    def __init__(self, root: str) -> None:
        self.root = root

    # ------------------------------------------------------------------
    def save(self, pool: PoolOfExperts) -> None:
        """Persist library + experts + manifest under ``root``."""
        if pool.library is None:
            raise RuntimeError("cannot save an empty pool")
        os.makedirs(self.root, exist_ok=True)
        save_state(pool.library.state_dict(), self._path("library"))
        for name, head in pool.experts.items():
            save_state(head.state_dict(), self._path(f"expert_{name}"))
        cfg = pool.config
        manifest = {
            "experts": {
                name: {"num_classes": head.num_classes} for name, head in pool.experts.items()
            },
            "config": {
                "library_depth": cfg.library_depth,
                "library_k": cfg.library_k,
                "expert_ks": cfg.expert_ks,
                "library_level": cfg.library_level,
                "temperature": cfg.temperature,
                "alpha": cfg.alpha,
                "scale_norm": cfg.scale_norm,
            },
        }
        with open(os.path.join(self.root, self.MANIFEST), "w") as fh:
            json.dump(manifest, fh, indent=2)

    def load(self, oracle: Module, hierarchy: ClassHierarchy) -> PoolOfExperts:
        """Rebuild a pool from disk (weights only; histories are not kept)."""
        with open(os.path.join(self.root, self.MANIFEST)) as fh:
            manifest = json.load(fh)
        cfg_raw = manifest["config"]
        config = PoEConfig(
            library_depth=int(cfg_raw["library_depth"]),
            library_k=float(cfg_raw["library_k"]),
            expert_ks=float(cfg_raw["expert_ks"]),
            library_level=int(cfg_raw["library_level"]),
            temperature=float(cfg_raw["temperature"]),
            alpha=float(cfg_raw["alpha"]),
            scale_norm=str(cfg_raw["scale_norm"]),
        )
        pool = PoolOfExperts(oracle, hierarchy, config)
        trunk = WRNTrunk(
            config.library_depth, config.library_k, config.expert_ks, config.library_level
        )
        trunk.load_state_dict(load_state(self._path("library")))
        trunk.requires_grad_(False)
        trunk.eval()
        pool.library = trunk
        for name, meta in manifest["experts"].items():
            head = WRNHead(
                config.library_depth,
                config.library_k,
                config.expert_ks,
                num_classes=int(meta["num_classes"]),
                library_level=config.library_level,
            )
            head.load_state_dict(load_state(self._path(f"expert_{name}")))
            pool.experts[name] = head.requires_grad_(False).eval()
        return pool

    # ------------------------------------------------------------------
    def volume_report(self, pool: PoolOfExperts, oracle: Module) -> VolumeReport:
        """Raw byte volumes (uncompressed), mirroring Table 4's columns."""
        if pool.library is None:
            raise RuntimeError("pool is empty")
        return VolumeReport(
            oracle_bytes=state_dict_nbytes(oracle.state_dict()),
            library_bytes=state_dict_nbytes(pool.library.state_dict()),
            expert_bytes={
                name: state_dict_nbytes(head.state_dict())
                for name, head in pool.experts.items()
            },
            n_primitives=pool.hierarchy.num_primitive_tasks,
        )

    def on_disk_bytes(self) -> int:
        """Actual bytes of the persisted archive directory."""
        total = 0
        for entry in os.scandir(self.root):
            if entry.is_file():
                total += entry.stat().st_size
        return total

    def _path(self, stem: str) -> str:
        return os.path.join(self.root, f"{stem}.npz")
