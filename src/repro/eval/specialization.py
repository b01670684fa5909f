"""Table 1, Table 2 + Figure 5 runners: model specialization experiments (§5.2).

Table 1 scores the oracle and the library student distilled from it.  For
each of the track's six primitive tasks, build a specialist with every
method, then score it once (:func:`~repro.eval.metrics.score`):

* **Oracle**   — task-specific accuracy of the generic oracle (upper bound).
* **KD**       — the oracle's *entire* knowledge distilled into the tiny
  expert architecture; scored task-specifically (fails: capacity).
* **Scratch**  — tiny architecture trained on task data only.
* **Transfer** — frozen library + expert head trained on task data
  (:func:`library_head`, head seed ``seed + 57``, training seed offset 5).
* **CKD**      — the paper's conditional distillation (the pool's experts).

Figure 5 profiles the confidence of one task's Scratch, Transfer and CKD
specialists on out-of-distribution samples.  Scratch and CKD are the models
Table 2 scores; the Transfer head is trained for the figure alone by the same
:func:`library_head`, from head seed ``seed + 91`` and training seed offset 7.
"""

from __future__ import annotations

import base64
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import ood_confidence_profile
from ..core.pool import PoolOfExperts
from ..data import task_subset
from ..distill import History, TrainConfig, batched_forward, distill_ckd, train_transfer
from ..models import BranchedSpecialistNet, WRNHead, count_flops, count_params
from .artifacts import ArtifactStore
from .experiments import TrackConfig
from .metrics import TaskLike, accuracy, accuracy_from_logits, score

__all__ = [
    "GENERIC_METHODS",
    "SPECIALIZATION_METHODS",
    "library_head",
    "library_table",
    "run_specialization",
    "specialization_table",
    "confidence_figure",
]

SPECIALIZATION_METHODS = ("oracle", "kd", "scratch", "transfer", "ckd")
GENERIC_METHODS = ("oracle", "kd")  # scored task-specifically (paper §5.2)


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
            "flops": count_flops(student, track.input_shape),
            "arch": student.arch_name(),
        }

    return {"oracle": oracle_meta, "library": store.result(track, "table1", "library", compute)}


def library_head(
    track: TrackConfig,
    store: ArtifactStore,
    task: TaskLike,
    branch: str,
    ks: float,
    seed: int,
    config: TrainConfig,
    method: str = "transfer",
    probe: bool = False,
) -> Tuple[BranchedSpecialistNet, History]:
    """A head of conv4 width ``ks`` over the pool's frozen library, packaged
    as a one-branch specialist: the Transfer baseline (hard labels of the
    task's training images) or, with ``method="ckd"``, conditional
    distillation from the oracle.  The head's weights start from ``seed``;
    ``probe`` records a learning curve on the task's test images, read
    through the library's features of them."""
    data, pool = store.dataset(track), store.pool(track)
    head = WRNHead(
        track.depth,
        track.library_k,
        ks,
        len(task),
        library_level=track.library_level,
        rng=np.random.default_rng(seed),
    )
    eval_fn = None
    if probe:
        test = task_subset(data.test, task)
        features = batched_forward(pool.library, test.images)

        def eval_fn(model) -> float:
            return accuracy_from_logits(batched_forward(model, features), test.labels)

    if method == "ckd":
        (history,) = distill_ckd(
            pool._oracle_logits_for(data.train.images),
            head,
            pool._features_for(data.train.images),
            class_ids=task.classes,
            config=config,
            settings=pool.config.ckd_settings(),
            eval_fn=eval_fn,
        )
    else:
        train = task_subset(data.train, task)
        history = train_transfer(
            pool.library, head, train.images, train.labels, config=config, eval_fn=eval_fn
        )
    model = BranchedSpecialistNet(pool.library, [(branch, head)])
    model.eval()
    return model, history


def run_specialization(
    track: TrackConfig, store: ArtifactStore, method: str, task_name: str
) -> Dict:
    """Build + score one (method, primitive task) specialist; returns a record."""
    if method not in SPECIALIZATION_METHODS:
        raise ValueError(f"unknown specialization method {method!r}")
    data = store.dataset(track)
    task = data.hierarchy.task(task_name)

    def build():
        if method == "oracle":
            return store.oracle(track)[0]
        if method == "kd":
            return store.kd_generic(track, ks_multiplier=1)
        if method == "scratch":
            return store.scratch_teacher(track, task_name)
        if method == "transfer":
            config = track.train_config(track.expert_epochs, seed_offset=5)
            return library_head(
                track, store, task, task_name, track.expert_ks, track.seed + 57, config
            )[0]
        return store.pool(track).consolidate([task_name])[0]  # ckd — the pool's expert

    def compute() -> Dict:
        start = time.perf_counter()
        record = {"method": method, "task": task_name}
        record.update(score(build(), data.test, task, method in GENERIC_METHODS, track.input_shape))
        record["seconds"] = time.perf_counter() - start
        return record

    return store.result(track, "specialization", f"{method}_{task_name}", compute)


def specialization_table(track: TrackConfig, store: ArtifactStore) -> List[Dict]:
    """Table 2: mean±std accuracy per method over the six selected tasks,
    with each task's per-image bits (``correct``, ``n_images``).

    ``params`` and ``flops`` are means over the tasks too, as Table 3's
    are over its combos: a specialist's output layer follows its task's
    class count, so its size differs from task to task."""
    tasks = track.selected_tasks(store.dataset(track).hierarchy)
    rows: List[Dict] = []
    for method in SPECIALIZATION_METHODS:
        records = [run_specialization(track, store, method, t) for t in tasks]
        accs = np.asarray([r["accuracy"] for r in records])
        rows.append(
            {
                "method": method,
                "type": records[0]["type"],
                "arch": records[0]["arch"],
                "accuracy_mean": float(accs.mean()),
                "accuracy_std": float(accs.std()),
                "params": float(np.mean([r["params"] for r in records])),
                "flops": float(np.mean([r["flops"] for r in records])),
                "tasks": list(tasks),
                "correct": [r["correct"] for r in records],
                "n_images": [r["n_images"] for r in records],
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

    Returns per-method records with the histogram, mode bin, the
    overconfidence rate (fraction of OOD predictions above 0.9) and every
    OOD image's max-softmax (``confidences``: base64 of little-endian
    float32, in test-set order).
    """
    data = store.dataset(track)
    hierarchy = data.hierarchy
    if task_name is None:
        task_name = track.selected_tasks(hierarchy)[0]
    task = hierarchy.task(task_name)

    def compute() -> Dict:
        models = {"scratch": store.scratch_teacher(track, task_name)}
        config = track.train_config(track.expert_epochs, seed_offset=7)
        models["transfer"], _ = library_head(
            track, store, task, task_name, track.expert_ks, track.seed + 91, config
        )
        models["ckd"], _ = store.pool(track).consolidate([task_name])
        out: Dict[str, Dict] = {}
        for method, model in models.items():
            profile = ood_confidence_profile(model, data.test, task, bins=bins)
            out[method] = {
                "histogram": profile.histogram.tolist(),
                "bin_edges": profile.bin_edges.tolist(),
                "mean": profile.mean,
                "median": profile.median,
                "overconfident_rate": profile.overconfident_rate,
                "mode_bin": list(profile.mode_bin),
                "confidences": base64.b64encode(
                    profile.confidences.astype("<f4").tobytes()
                ).decode("ascii"),
            }
        out["task"] = task_name
        return out

    return store.result(track, "confidence", f"fig5_{task_name}", compute)
