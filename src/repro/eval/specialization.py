"""Table 1, Table 2 + Figure 5 runners: model specialization experiments (§5.2).

Table 1 scores the oracle and the library student distilled from it.  For
each of the track's six primitive tasks, build a specialist with every
method and score it:

* **Oracle**   — task-specific accuracy of the generic oracle (upper bound).
* **KD**       — the oracle's *entire* knowledge distilled into the tiny
  expert architecture; scored task-specifically (fails: capacity).
* **Scratch**  — tiny architecture trained on task data only.
* **Transfer** — frozen library + expert head trained on task data.
* **CKD**      — the paper's conditional distillation (the pool's experts).

Figure 5 reuses the Scratch/Transfer/CKD specialists of one task and
profiles their confidence on out-of-distribution samples.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..core import ood_confidence_profile
from ..core.pool import PoolOfExperts
from ..data import task_subset
from ..distill import batched_forward, train_transfer
from ..models import BranchedSpecialistNet, WRNHead, count_flops, count_params
from .artifacts import ArtifactStore
from .experiments import TrackConfig
from .metrics import accuracy, accuracy_from_logits, specialized_accuracy, task_specific_accuracy

__all__ = [
    "SPECIALIZATION_METHODS",
    "library_table",
    "run_specialization",
    "specialization_table",
    "confidence_figure",
]

SPECIALIZATION_METHODS = ("oracle", "kd", "scratch", "transfer", "ckd")


def library_table(track: TrackConfig, store: ArtifactStore) -> Dict[str, Dict]:
    """Table 1: the oracle and its library student (a pool loaded from disk
    keeps only the trunk: the student is distilled again, bit-identically)."""
    _, oracle_meta = store.oracle(track)

    def compute() -> Dict:
        pool = store.pool(track)
        data = store.dataset(track)
        student = pool.library_student
        if student is None:
            rebuilt = PoolOfExperts(pool.oracle, pool.hierarchy, pool.config)
            rebuilt.extract_library(data.train.images)
            student = rebuilt.library_student
        return {
            "test_accuracy": accuracy(student, data.test),
            "params": count_params(student),
            "flops": count_flops(student, (3, track.image_size, track.image_size)),
            "arch": student.arch_name(),
        }

    return {"oracle": oracle_meta, "library": store.result(track, "table1", "library", compute)}


def _branched_single(pool: PoolOfExperts, task_name: str) -> BranchedSpecialistNet:
    """A pool expert packaged as a standalone specialist model."""
    model, _ = pool.consolidate([task_name])
    return model


def _feature_eval(head: WRNHead, features: np.ndarray, labels: np.ndarray):
    """Accuracy closure over pre-computed library features (head-only)."""

    def _eval(model) -> float:
        logits = batched_forward(model, features)
        return accuracy_from_logits(logits, labels)

    return _eval


def run_specialization(
    track: TrackConfig, store: ArtifactStore, method: str, task_name: str
) -> Dict:
    """Build + score one (method, primitive task) specialist; returns a record."""
    if method not in SPECIALIZATION_METHODS:
        raise ValueError(f"unknown specialization method {method!r}")
    data = store.dataset(track)
    hierarchy = data.hierarchy
    task = hierarchy.task(task_name)
    shape = (3, track.image_size, track.image_size)

    def compute() -> Dict:
        start = time.perf_counter()
        if method == "oracle":
            oracle_model, meta = store.oracle(track)
            acc = task_specific_accuracy(oracle_model, data.test, task)
            params, flops = meta["params"], meta["flops"]
            arch = meta["arch"]
        elif method == "kd":
            student = store.kd_generic(track, ks_multiplier=1)
            acc = task_specific_accuracy(student, data.test, task)
            params, flops = count_params(student), count_flops(student, shape)
            arch = student.arch_name()
        elif method == "scratch":
            model = store.scratch_teacher(track, task_name)
            acc = specialized_accuracy(model, data.test, task)
            params, flops = count_params(model), count_flops(model, shape)
            arch = model.arch_name()
        elif method == "transfer":
            pool = store.pool(track)
            head = WRNHead(
                track.depth,
                track.library_k,
                track.expert_ks,
                len(task),
                library_level=track.library_level,
                rng=np.random.default_rng(track.seed + 57),
            )
            subset = task_subset(data.train, task)
            train_transfer(
                pool.library,
                head,
                subset.images,
                subset.labels,
                config=track.train_config(track.expert_epochs, seed_offset=5),
            )
            model = BranchedSpecialistNet(pool.library, [(task_name, head)])
            model.eval()
            acc = specialized_accuracy(model, data.test, task)
            params, flops = count_params(model), count_flops(model, shape)
            arch = model.arch_name()
        else:  # ckd — the pool's expert
            pool = store.pool(track)
            model = _branched_single(pool, task_name)
            acc = specialized_accuracy(model, data.test, task)
            params, flops = count_params(model), count_flops(model, shape)
            arch = model.arch_name()
        return {
            "method": method,
            "task": task_name,
            "accuracy": acc,
            "params": params,
            "flops": flops,
            "arch": arch,
            "seconds": time.perf_counter() - start,
        }

    return store.result(track, "specialization", f"{method}_{task_name}", compute)


def specialization_table(track: TrackConfig, store: ArtifactStore) -> List[Dict]:
    """Table 2: mean±std accuracy per method over the six selected tasks."""
    data = store.dataset(track)
    tasks = track.selected_tasks(data.hierarchy)
    rows: List[Dict] = []
    for method in SPECIALIZATION_METHODS:
        records = [run_specialization(track, store, method, t) for t in tasks]
        accs = np.asarray([r["accuracy"] for r in records])
        rows.append(
            {
                "method": method,
                "type": "generic" if method in ("oracle", "kd") else "special",
                "arch": records[0]["arch"],
                "accuracy_mean": float(accs.mean()),
                "accuracy_std": float(accs.std()),
                "params": records[0]["params"],
                "flops": records[0]["flops"],
            }
        )
    return rows


def confidence_figure(
    track: TrackConfig,
    store: ArtifactStore,
    task_name: Optional[str] = None,
    bins: int = 10,
) -> Dict[str, Dict]:
    """Figure 5: OOD max-confidence histograms for Scratch/Transfer/CKD.

    Returns per-method records with the histogram, mode bin and the
    overconfidence rate (fraction of OOD predictions above 0.9).
    """
    data = store.dataset(track)
    hierarchy = data.hierarchy
    if task_name is None:
        task_name = track.selected_tasks(hierarchy)[0]
    task = hierarchy.task(task_name)

    def compute() -> Dict:
        out: Dict[str, Dict] = {}
        # Scratch specialist (cached teacher).
        scratch_model = store.scratch_teacher(track, task_name)
        # Transfer specialist: fresh head over the frozen library.
        pool = store.pool(track)
        transfer_head = WRNHead(
            track.depth,
            track.library_k,
            track.expert_ks,
            len(task),
            library_level=track.library_level,
            rng=np.random.default_rng(track.seed + 91),
        )
        subset = task_subset(data.train, task)
        train_transfer(
            pool.library,
            transfer_head,
            subset.images,
            subset.labels,
            config=track.train_config(track.expert_epochs, seed_offset=7),
        )
        transfer_model = BranchedSpecialistNet(pool.library, [(task_name, transfer_head)])
        transfer_model.eval()
        ckd_model = _branched_single(pool, task_name)
        for method, model in (
            ("scratch", scratch_model),
            ("transfer", transfer_model),
            ("ckd", ckd_model),
        ):
            profile = ood_confidence_profile(model, data.test, task, bins=bins)
            out[method] = {
                "histogram": profile.histogram.tolist(),
                "bin_edges": profile.bin_edges.tolist(),
                "mean": profile.mean,
                "median": profile.median,
                "overconfident_rate": profile.overconfident_rate,
                "mode_bin": list(profile.mode_bin),
            }
        out["task"] = task_name
        return out

    return store.result(track, "confidence", f"fig5_{task_name}", compute)
