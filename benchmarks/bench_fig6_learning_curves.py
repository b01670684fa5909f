"""Figure 6: accuracy-vs-wall-clock learning curves in the service phase.

Shape to reproduce (artifact ``figure6`` in ``repro.eval.claims``): every
training-based method needs seconds-to-minutes of wall-clock to reach its
best accuracy; PoE reaches its accuracy at (effectively) time zero.  The
timed kernel is a full PoE consolidation at n(Q)=5.
"""

import pytest

from repro.eval import claims, learning_curves


@pytest.mark.parametrize("track_idx", [0, 1], ids=["synth-cifar", "synth-tiny"])
def test_fig6(benchmark, tracks, store, emit, track_idx):
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    result = learning_curves(track, store, n_q=5)
    emit(f"fig6_{track.name}", claims.render("figure6", result, track.kind))
    claims.check("figure6", result)

    # Timed kernel: PoE consolidation at n(Q)=5 (the 'curve' of PoE).
    pool = store.pool(track)
    data = store.dataset(track)
    tasks = track.selected_tasks(data.hierarchy)[:5]
    benchmark(lambda: pool.consolidate(list(tasks)))
