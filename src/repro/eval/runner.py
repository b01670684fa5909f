"""End-to-end experiment runner: builds every table/figure artifact.

``python -m repro.cli build [--fast] [--tracks ...]`` drives it.  Results
land in the artifact store (``.artifacts/`` or ``$REPRO_ARTIFACTS``), one
``summary.json`` per track holding every artifact of
:data:`repro.eval.claims.ARTIFACTS`, which ``repro tables`` judges.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from .artifacts import ArtifactStore
from .claims import ARTIFACTS
from .experiments import TrackConfig, get_track

__all__ = ["build_track", "build_all"]


def build_track(track: TrackConfig, store: ArtifactStore, verbose: bool = True) -> Dict:
    """Build every registered artifact of one track; returns the summary payload."""

    def log(msg: str) -> None:
        if verbose:
            print(f"[{track.name}] {msg}", flush=True)

    started = time.perf_counter()
    data = store.dataset(track)
    log(f"dataset: {data.num_classes} classes, {len(data.train)} train images")
    _, oracle_meta = store.oracle(track)
    log(f"oracle ready: acc={oracle_meta['test_accuracy']:.3f}")
    pool = store.pool(track)
    log(f"pool ready: experts={list(pool.expert_names())}")

    summary: Dict = {"track": track.name, "oracle": oracle_meta}
    for key, artifact in ARTIFACTS.items():
        begun = time.perf_counter()
        summary[key] = artifact.build(track, store)
        log(f"{key} done in {time.perf_counter() - begun:.1f}s")

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
