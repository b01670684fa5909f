"""Table 3-5 + Figure 6-7 runners: model consolidation experiments (§5.3).

For a queried composite task ``Q`` (a tuple of primitive task names), build
``M(Q)`` with every compared method, then score it once
(:func:`~repro.eval.metrics.score`) and record its wall-clock learning curve
and time-to-best-accuracy:

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
from ..distill import merge_sd, merge_uhc, train_scratch
from ..models import WideResNet
from .artifacts import ArtifactStore
from .experiments import TrackConfig, select_combos
from .metrics import score, specialized_accuracy
from .specialization import GENERIC_METHODS, library_head

__all__ = [
    "SERVICE_METHODS",
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
N_Q = (2, 3, 4, 5)
# Figures 6-7 follow the paper in plotting only the methods that build M(Q).
CURVE_METHODS = tuple(m for m in SERVICE_METHODS if m not in GENERIC_METHODS)
TABLE_FIELDS = ("method", "n_q", "accuracy_mean", "accuracy_std", "params", "flops", "arch",
                "combos", "correct", "n_images")


def _combo_key(combo: Sequence[str]) -> str:
    return "+".join(combo)


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
    composite = data.hierarchy.composite(combo)
    n_q = composite.n_primitives
    cfg = track.train_config(track.service_epochs, seed_offset=13 + n_q)
    ks = track.expert_ks * n_q

    def probe(model) -> float:
        return specialized_accuracy(model, data.test, composite)

    def build():
        """``M(Q)`` and its history: none for a generic model (trained
        outside the query), the consolidation seconds for PoE."""
        if method == "oracle":
            return store.oracle(track)[0], None
        if method == "kd":
            # The generic student depends only on n(Q) (its conv4 width), so
            # it is trained once per n(Q) and reused across combos.
            return store.kd_generic(track, ks_multiplier=n_q), None
        if method in ("transfer", "ckd"):
            seed = track.seed + 131 + n_q
            return library_head(
                track, store, composite, _combo_key(combo), ks, seed, cfg, method, probe=True
            )
        if method.startswith("poe"):  # train-free consolidation, or a loss-ablated pool's
            variant = method.split("-", 1)[1] if method.startswith("poe-") else "both"
            variant_pool = store.pool_variant(track, variant)
            start = time.perf_counter()
            model, _ = variant_pool.consolidate(combo)
            return model, time.perf_counter() - start
        model = WideResNet(
            track.depth,
            track.library_k,
            ks,
            len(composite),
            library_level=track.library_level,
            rng=np.random.default_rng(track.seed + 101 + n_q),
        )
        train = task_subset(data.train, composite)
        if method == "scratch":
            return model, train_scratch(
                model, train.images, train.labels, config=cfg, eval_fn=probe
            )
        if method.endswith("scratch"):
            teachers = [store.scratch_teacher(track, name) for name in combo]
        else:
            teachers = [store.pool(track).consolidate([name])[0] for name in combo]
        merge = merge_sd if method.startswith("sd") else merge_uhc
        return model, merge(
            teachers, model, train.images, config=cfg, temperature=track.temperature,
            eval_fn=probe,
        )

    def compute() -> Dict:
        model, history = build()
        record = {"method": method, "combo": list(combo), "n_q": n_q,
                  "num_classes": len(composite)}
        record.update(score(model, data.test, composite, method in GENERIC_METHODS,
                            track.input_shape))
        if history is None:
            record.update(train_seconds=None, time_to_best=None, curve=[])
        elif isinstance(history, float):  # PoE: consolidation is the whole curve
            record.update(train_seconds=history, time_to_best=history,
                          curve=[[history, record["accuracy"]]], build_seconds=history)
        else:
            record.update(
                train_seconds=history.total_seconds,
                time_to_best=history.time_to_best(tolerance=0.005),
                curve=history.curve(),
                final_accuracy=history.final_accuracy,
                best_accuracy=history.best_accuracy,
            )
        return record

    return store.result(track, "service", f"{method}_{_combo_key(combo)}", compute)


def _sweep(
    track: TrackConfig,
    store: ArtifactStore,
    methods: Sequence[str],
    n_q_values: Sequence[int],
    fields: Sequence[str],
) -> List[Dict]:
    """The one (method × n(Q) × combo) loop: one row per (method, n(Q)) of
    aggregates over its sampled combos' records, projected onto ``fields``.
    ``correct`` / ``n_images`` list each combo's bits in ``combos`` order."""
    tasks = track.selected_tasks(store.dataset(track).hierarchy)
    rows: List[Dict] = []
    for method in methods:
        for n_q in n_q_values:
            combos = select_combos(tasks, n_q, track.combos_per_nq, seed=track.seed)
            if not combos:  # track has fewer than n_q primitive tasks
                continue
            records = [run_service_method(track, store, method, c) for c in combos]
            accs = np.asarray([r["accuracy"] for r in records])
            row = {
                "method": method,
                "n_q": n_q,
                "accuracy_mean": float(accs.mean()),
                "accuracy_std": float(accs.std()),
                "params": float(np.mean([r["params"] for r in records])),
                "flops": float(np.mean([r["flops"] for r in records])),
                "arch": records[0]["arch"],
                "combos": [list(c) for c in combos],
                "correct": [r["correct"] for r in records],
                "n_images": [r["n_images"] for r in records],
                "time_to_best_mean": float(np.mean([r["time_to_best"] or 0.0 for r in records])),
                "train_seconds_mean": float(
                    np.mean([r["train_seconds"] or 0.0 for r in records])
                ),
            }
            rows.append({field: row[field] for field in fields})
    return rows


def service_table(
    track: TrackConfig,
    store: ArtifactStore,
    methods: Sequence[str] = SERVICE_METHODS,
    n_q_values: Sequence[int] = N_Q,
) -> List[Dict]:
    """Table 3: per (method, n(Q)) aggregates over the sampled combos."""
    return _sweep(track, store, methods, n_q_values, TABLE_FIELDS)


def ablation_table(
    track: TrackConfig,
    store: ArtifactStore,
    n_q_values: Sequence[int] = N_Q,
    variants: Sequence[str] = ("poe-soft", "poe-scale", "poe"),
) -> List[Dict]:
    """Table 5: L_soft / L_scale / both, with Table 3's row fields."""
    return _sweep(track, store, variants, n_q_values, TABLE_FIELDS)


def learning_curves(
    track: TrackConfig,
    store: ArtifactStore,
    n_q: int = 5,
    methods: Sequence[str] = CURVE_METHODS,
) -> Dict[str, List[Tuple[float, float]]]:
    """Figure 6: wall-clock learning curves at ``n(Q)`` (first combo)."""
    tasks = track.selected_tasks(store.dataset(track).hierarchy)
    combo = select_combos(tasks, n_q, 1, seed=track.seed)[0]
    return {
        method: [tuple(point) for point in run_service_method(track, store, method, combo)["curve"]]
        for method in methods
    }


def consolidation_times(
    track: TrackConfig,
    store: ArtifactStore,
    n_q_values: Sequence[int] = N_Q,
    methods: Sequence[str] = CURVE_METHODS,
) -> List[Dict]:
    """Figure 7: mean time-to-best-accuracy per method as n(Q) grows."""
    fields = ("method", "n_q", "time_to_best_mean", "train_seconds_mean")
    return _sweep(track, store, methods, n_q_values, fields)
