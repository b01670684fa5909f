"""Table 3-5 + Figure 6-7 runners: model consolidation experiments (§5.3).

For a queried composite task ``Q`` (a tuple of primitive task names), build
``M(Q)`` with every compared method and record accuracy, model cost, the
wall-clock learning curve and time-to-best-accuracy:

* **oracle**       — task-specific accuracy of the oracle itself.
* **kd**           — oracle's entire knowledge -> ``WRN-(k_c, 0.25·n(Q))``
  generic student (task-specific accuracy).
* **scratch**      — train ``M(Q)`` from scratch on Q's data.
* **transfer**     — frozen library + wide head on Q's data.
* **ckd**          — frozen library + wide head by conditional distillation.
* **sd+scratch**, **uhc+scratch** — merge per-primitive Scratch teachers.
* **sd+ckd**, **uhc+ckd**         — merge the pool's CKD experts.
* **poe**          — train-free consolidation from the pool (ours).

Ablation variants (Table 5): ``poe-soft``, ``poe-scale``, ``poe-l2``
consolidate pools whose experts were extracted with an ablated CKD loss.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..data import task_subset
from ..distill import (
    batched_forward,
    distill_ckd,
    merge_sd,
    merge_uhc,
    train_scratch,
    train_transfer,
)
from ..models import BranchedSpecialistNet, WideResNet, WRNHead, count_flops, count_params
from .artifacts import ArtifactStore
from .experiments import TrackConfig, select_combos
from .metrics import (
    accuracy_from_logits,
    specialized_accuracy,
    task_specific_accuracy,
)

__all__ = [
    "SERVICE_METHODS",
    "ABLATION_VARIANTS",
    "run_service_method",
    "service_table",
    "ablation_table",
    "learning_curves",
    "consolidation_times",
]

SERVICE_METHODS = (
    "oracle",
    "kd",
    "scratch",
    "transfer",
    "sd+scratch",
    "uhc+scratch",
    "sd+ckd",
    "uhc+ckd",
    "ckd",
    "poe",
)

ABLATION_VARIANTS = ("soft", "scale", "both")


def _combo_key(combo: Sequence[str]) -> str:
    return "+".join(combo)


def _history_payload(history) -> Dict:
    return {
        "train_seconds": history.total_seconds,
        "time_to_best": history.time_to_best(tolerance=0.005),
        "curve": history.curve(),
        "final_accuracy": history.final_accuracy,
        "best_accuracy": history.best_accuracy,
    }


def run_service_method(
    track: TrackConfig,
    store: ArtifactStore,
    method: str,
    combo: Sequence[str],
) -> Dict:
    """Build and score ``M(Q)`` for one method and one composite task."""
    if method not in SERVICE_METHODS and not method.startswith("poe-"):
        raise ValueError(f"unknown service method {method!r}")
    data = store.dataset(track)
    hierarchy = data.hierarchy
    composite = hierarchy.composite(combo)
    n_q = composite.n_primitives
    shape = (3, track.image_size, track.image_size)
    cfg = track.train_config(track.service_epochs, seed_offset=13 + n_q)

    def student_arch(num_classes: int) -> WideResNet:
        return WideResNet(
            track.depth,
            track.library_k,
            track.expert_ks * n_q,
            num_classes,
            library_level=track.library_level,
            rng=np.random.default_rng(track.seed + 101 + n_q),
        )

    def wide_head(num_classes: int) -> WRNHead:
        return WRNHead(
            track.depth,
            track.library_k,
            track.expert_ks * n_q,
            num_classes,
            library_level=track.library_level,
            rng=np.random.default_rng(track.seed + 131 + n_q),
        )

    test_subset = task_subset(data.test, composite)

    def spec_eval(model) -> float:
        logits = batched_forward(model, test_subset.images)
        return accuracy_from_logits(logits, test_subset.labels)

    def compute() -> Dict:
        record: Dict = {
            "method": method,
            "combo": list(combo),
            "n_q": n_q,
            "num_classes": len(composite),
        }
        if method == "oracle":
            oracle_model, meta = store.oracle(track)
            record["accuracy"] = task_specific_accuracy(oracle_model, data.test, composite)
            record["params"], record["flops"] = meta["params"], meta["flops"]
            record["arch"] = meta["arch"]
            record["train_seconds"] = 0.0
            record["time_to_best"] = 0.0
            record["curve"] = []
            record["type"] = "generic"
            return record

        if method == "kd":
            # The generic student depends only on n(Q) (its conv4 width), so
            # it is trained once per n(Q) and reused across combos; its
            # accuracy is measured task-specifically per combo.  Figures 6-7
            # follow the paper in not plotting KD, so no curve is recorded.
            student = store.kd_generic(track, ks_multiplier=n_q)
            record["accuracy"] = task_specific_accuracy(student, data.test, composite)
            record["params"] = count_params(student)
            record["flops"] = count_flops(student, shape)
            record["arch"] = student.arch_name()
            record["type"] = "generic"
            record["train_seconds"] = None
            record["time_to_best"] = None
            record["curve"] = []
            return record

        if method == "scratch":
            model = student_arch(len(composite))
            subset = task_subset(data.train, composite)
            history = train_scratch(
                model, subset.images, subset.labels, config=cfg, eval_fn=spec_eval
            )
            record["accuracy"] = specialized_accuracy(model, data.test, composite)
            record["params"] = count_params(model)
            record["flops"] = count_flops(model, shape)
            record["arch"] = model.arch_name()
            record["type"] = "special"
            record.update(_history_payload(history))
            return record

        pool = store.pool(track)

        if method == "transfer":
            head = wide_head(len(composite))
            subset = task_subset(data.train, composite)
            test_features = batched_forward(pool.library, test_subset.images)

            def head_eval(model) -> float:
                return accuracy_from_logits(
                    batched_forward(model, test_features), test_subset.labels
                )

            history = train_transfer(
                pool.library, head, subset.images, subset.labels, config=cfg, eval_fn=head_eval
            )
            model = BranchedSpecialistNet(pool.library, [(_combo_key(combo), head)])
            model.eval()
            record["accuracy"] = specialized_accuracy(model, data.test, composite)
            record["params"] = count_params(model)
            record["flops"] = count_flops(model, shape)
            record["arch"] = model.arch_name()
            record["type"] = "special"
            record.update(_history_payload(history))
            return record

        if method == "ckd":
            head = wide_head(len(composite))
            oracle_logits = pool._oracle_logits_for(data.train.images)
            test_features = batched_forward(pool.library, test_subset.images)

            def head_eval(model) -> float:
                return accuracy_from_logits(
                    batched_forward(model, test_features), test_subset.labels
                )

            (history,) = distill_ckd(
                oracle_logits,
                head,
                pool._features_for(data.train.images),
                class_ids=composite.classes,
                config=cfg,
                settings=pool.config.ckd_settings(),
                eval_fn=head_eval,
            )
            model = BranchedSpecialistNet(pool.library, [(_combo_key(combo), head)])
            model.eval()
            record["accuracy"] = specialized_accuracy(model, data.test, composite)
            record["params"] = count_params(model)
            record["flops"] = count_flops(model, shape)
            record["arch"] = model.arch_name()
            record["type"] = "special"
            record.update(_history_payload(history))
            return record

        if method in ("sd+scratch", "uhc+scratch", "sd+ckd", "uhc+ckd"):
            if method.endswith("scratch"):
                teachers = [store.scratch_teacher(track, name) for name in combo]
            else:
                teachers = []
                for name in combo:
                    network, _ = pool.consolidate([name])
                    teachers.append(network)
            student = student_arch(len(composite))
            subset = task_subset(data.train, composite)
            merge = merge_sd if method.startswith("sd") else merge_uhc
            history = merge(
                teachers,
                student,
                subset.images,
                config=cfg,
                temperature=track.temperature,
                eval_fn=spec_eval,
            )
            record["accuracy"] = specialized_accuracy(student, data.test, composite)
            record["params"] = count_params(student)
            record["flops"] = count_flops(student, shape)
            record["arch"] = student.arch_name()
            record["type"] = "special"
            record.update(_history_payload(history))
            return record

        # PoE and its loss-ablation variants: train-free consolidation.
        variant = method.split("-", 1)[1] if method.startswith("poe-") else "both"
        variant_pool = store.pool_variant(track, variant)
        start = time.perf_counter()
        model, _ = variant_pool.consolidate(combo)
        build_seconds = time.perf_counter() - start
        acc = specialized_accuracy(model, data.test, composite)
        record["accuracy"] = acc
        record["params"] = count_params(model)
        record["flops"] = count_flops(model, shape)
        record["arch"] = model.arch_name()
        record["type"] = "special"
        record["train_seconds"] = build_seconds
        record["time_to_best"] = build_seconds
        record["curve"] = [[build_seconds, acc]]
        record["build_seconds"] = build_seconds
        return record

    return store.result(track, "service", f"{method}_{_combo_key(combo)}", compute)


def service_table(
    track: TrackConfig,
    store: ArtifactStore,
    methods: Sequence[str] = SERVICE_METHODS,
    n_q_values: Sequence[int] = (2, 3, 4, 5),
) -> List[Dict]:
    """Table 3: per (method, n(Q)) aggregates over the sampled combos."""
    data = store.dataset(track)
    tasks = track.selected_tasks(data.hierarchy)
    rows: List[Dict] = []
    for method in methods:
        for n_q in n_q_values:
            combos = select_combos(tasks, n_q, track.combos_per_nq, seed=track.seed)
            if not combos:  # track has fewer than n_q primitive tasks
                continue
            records = [run_service_method(track, store, method, c) for c in combos]
            accs = np.asarray([r["accuracy"] for r in records])
            rows.append(
                {
                    "method": method,
                    "n_q": n_q,
                    "accuracy_mean": float(accs.mean()),
                    "accuracy_std": float(accs.std()),
                    "params": float(np.mean([r["params"] for r in records])),
                    "flops": float(np.mean([r["flops"] for r in records])),
                    "arch": records[0]["arch"],
                    "combos": [list(c) for c in combos],
                }
            )
    return rows


def ablation_table(
    track: TrackConfig,
    store: ArtifactStore,
    n_q_values: Sequence[int] = (2, 3, 4, 5),
    variants: Sequence[str] = ("poe-soft", "poe-scale", "poe"),
) -> List[Dict]:
    """Table 5: L_soft / L_scale / both, averaged like Table 3."""
    data = store.dataset(track)
    tasks = track.selected_tasks(data.hierarchy)
    rows: List[Dict] = []
    for method in variants:
        for n_q in n_q_values:
            combos = select_combos(tasks, n_q, track.combos_per_nq, seed=track.seed)
            if not combos:
                continue
            records = [run_service_method(track, store, method, c) for c in combos]
            accs = np.asarray([r["accuracy"] for r in records])
            rows.append(
                {
                    "method": method,
                    "n_q": n_q,
                    "accuracy_mean": float(accs.mean()),
                    "accuracy_std": float(accs.std()),
                }
            )
    return rows


def learning_curves(
    track: TrackConfig,
    store: ArtifactStore,
    n_q: int = 5,
    methods: Sequence[str] = (
        "scratch",
        "transfer",
        "sd+scratch",
        "uhc+scratch",
        "sd+ckd",
        "uhc+ckd",
        "ckd",
        "poe",
    ),
) -> Dict[str, List[Tuple[float, float]]]:
    """Figure 6: wall-clock learning curves at ``n(Q)`` (first combo)."""
    data = store.dataset(track)
    tasks = track.selected_tasks(data.hierarchy)
    combo = select_combos(tasks, n_q, 1, seed=track.seed)[0]
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for method in methods:
        record = run_service_method(track, store, method, combo)
        curves[method] = [tuple(point) for point in record["curve"]]
    return curves


def consolidation_times(
    track: TrackConfig,
    store: ArtifactStore,
    n_q_values: Sequence[int] = (2, 3, 4, 5),
    methods: Sequence[str] = (
        "scratch",
        "transfer",
        "sd+scratch",
        "uhc+scratch",
        "sd+ckd",
        "uhc+ckd",
        "ckd",
        "poe",
    ),
) -> List[Dict]:
    """Figure 7: mean time-to-best-accuracy per method as n(Q) grows."""
    data = store.dataset(track)
    tasks = track.selected_tasks(data.hierarchy)
    rows: List[Dict] = []
    for method in methods:
        for n_q in n_q_values:
            combos = select_combos(tasks, n_q, track.combos_per_nq, seed=track.seed)
            if not combos:
                continue
            records = [run_service_method(track, store, method, c) for c in combos]
            times = [r.get("time_to_best") or 0.0 for r in records]
            rows.append(
                {
                    "method": method,
                    "n_q": n_q,
                    "time_to_best_mean": float(np.mean(times)),
                    "train_seconds_mean": float(
                        np.mean([r.get("train_seconds") or 0.0 for r in records])
                    ),
                }
            )
    return rows
