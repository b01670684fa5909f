"""End-to-end experiment runner: builds every table/figure artifact.

``python -m repro.cli build [--fast] [--tracks ...]`` drives it.  Results
land in the artifact store (``.artifacts/`` or ``$REPRO_ARTIFACTS``) and are
reused by the pytest benchmarks and by ``repro tables``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from ..core import ExpertStore
from .artifacts import ArtifactStore
from .experiments import TrackConfig, get_track
from .service import (
    ablation_table,
    consolidation_times,
    learning_curves,
    service_table,
)
from .specialization import confidence_figure, library_table, specialization_table

__all__ = ["build_track", "build_all"]


def build_track(track: TrackConfig, store: ArtifactStore, verbose: bool = True) -> Dict:
    """Run every experiment of one track; returns the summary payload."""

    def log(msg: str) -> None:
        if verbose:
            print(f"[{track.name}] {msg}", flush=True)

    started = time.perf_counter()
    data = store.dataset(track)
    log(f"dataset: {data.num_classes} classes, {len(data.train)} train images")
    oracle_model, oracle_meta = store.oracle(track)
    log(f"oracle ready: acc={oracle_meta['test_accuracy']:.3f}")
    pool = store.pool(track)
    log(f"pool ready: experts={list(pool.expert_names())}")

    summary: Dict = {"track": track.name, "oracle": oracle_meta}
    summary["table1"] = library_table(track, store)
    log("table 1 done")

    summary["table2"] = specialization_table(track, store)
    log("table 2 done")
    summary["figure5"] = confidence_figure(track, store)
    log("figure 5 done")
    summary["table3"] = service_table(track, store)
    log("table 3 done")

    expert_store = ExpertStore(os.path.join(store.root, "models", track.cache_key(), "pool"))
    summary["table4"] = expert_store.volume_report(pool, oracle_model).as_dict()
    log("table 4 done")

    summary["table5"] = ablation_table(track, store)
    log("table 5 done")
    summary["figure6"] = {
        method: [list(p) for p in points]
        for method, points in learning_curves(track, store).items()
    }
    log("figure 6 done")
    summary["figure7"] = consolidation_times(track, store)
    log("figure 7 done")

    summary["seconds"] = time.perf_counter() - started
    path = store.summary_path(track)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
    log(f"track complete in {summary['seconds']:.0f}s -> {path}")
    return summary


def build_all(
    tracks: Optional[List[str]] = None,
    fast: Optional[bool] = None,
    root: Optional[str] = None,
) -> Dict[str, Dict]:
    """Build artifacts for the requested tracks (default: both)."""
    store = ArtifactStore(root)
    names = tracks or ["synth-cifar", "synth-tiny"]
    return {name: build_track(get_track(name, fast), store) for name in names}
