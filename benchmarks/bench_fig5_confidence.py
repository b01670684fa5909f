"""Figure 5: confidence histograms on out-of-distribution samples.

Shape to reproduce (artifact ``figure5`` in ``repro.eval.claims``):
Scratch and Transfer experts are overconfident on OOD inputs
(high-confidence mode), while CKD experts sit in a low-confidence mode
(paper: 0.3-0.4) — the property that makes experts composable.
Timed kernel: the OOD confidence-profile computation.
"""

import pytest

from repro.core import ood_confidence_profile
from repro.eval import claims, confidence_figure


@pytest.mark.parametrize("track_idx", [0, 1], ids=["synth-cifar", "synth-tiny"])
def test_fig5(benchmark, tracks, store, emit, track_idx):
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    result = confidence_figure(track, store)
    emit(f"fig5_{track.name}", claims.render("figure5", result, track.kind))
    claims.check("figure5", result)

    # Timed kernel: one OOD profile over the test set.
    pool = store.pool(track)
    data = store.dataset(track)
    task_name = result["task"]
    model, _ = pool.consolidate([task_name])
    task = data.hierarchy.task(task_name)
    benchmark(lambda: ood_confidence_profile(model, data.test, task))
