"""Table 3: model consolidation for composite tasks, n(Q) ∈ {2..5}.

Regenerates the full method × n(Q) accuracy/size matrix.  Expected shape
(paper §5.3; artifact ``table3`` in ``repro.eval.claims``): PoE beats
every training-based baseline except CKD despite zero training;
SD/UHC+Scratch collapse (overconfidence + logit scales); SD/UHC+CKD
recover much of the gap; the branched PoE model carries the fewest
parameters.  The timed kernel is PoE's train-free consolidation.
"""

import pytest

from repro.eval import claims, service_table


@pytest.mark.parametrize("track_idx", [0, 1], ids=["synth-cifar", "synth-tiny"])
def test_table3(benchmark, tracks, store, emit, track_idx):
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    result = service_table(track, store)
    emit(f"table3_{track.name}", claims.render("table3", result, track.kind))
    claims.check("table3", result)

    # Timed kernel: the train-free consolidation itself at n(Q)=5.
    pool = store.pool(track)
    data = store.dataset(track)
    tasks = track.selected_tasks(data.hierarchy)[:5]
    benchmark(lambda: pool.consolidate(list(tasks)))


@pytest.mark.parametrize("track_idx", [0, 1], ids=["synth-cifar", "synth-tiny"])
def test_table3_poe_param_advantage(benchmark, tracks, store, track_idx):
    """Companion timing: the train-free consolidation at n(Q)=2.

    The parameter advantage itself is the claim
    ``table3.poe_fewest_params``, checked by ``test_table3``.
    """
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    pool = store.pool(track)
    data = store.dataset(track)
    tasks = track.selected_tasks(data.hierarchy)[:2]
    benchmark(lambda: pool.consolidate(list(tasks)))
