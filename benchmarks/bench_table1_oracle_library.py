"""Table 1: oracles vs library students — accuracy, FLOPs, params.

Regenerates the paper's Table 1 rows for both tracks (claims:
``repro.eval.claims``, artifact ``table1``) and benchmarks the inference
cost gap between oracle and library (the wall-clock counterpart of the
FLOPs column).
"""

import pytest

from repro.distill import batched_forward
from repro.eval import claims
from repro.eval.specialization import library_table


@pytest.mark.parametrize("track_idx", [0, 1], ids=["synth-cifar", "synth-tiny"])
def test_table1(benchmark, tracks, store, emit, track_idx):
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    result = library_table(track, store)
    emit(f"table1_{track.name}", claims.render("table1", result, track.kind))
    claims.check("table1", result)
    # Timed kernel: oracle inference over one test batch (the cost the
    # library/specialists avoid).
    data = store.dataset(track)
    oracle_model, _ = store.oracle(track)
    batch = data.test.images[:128]
    benchmark(lambda: batched_forward(oracle_model, batch, batch_size=128))


@pytest.mark.parametrize("track_idx", [0, 1], ids=["synth-cifar", "synth-tiny"])
def test_table1_library_inference(benchmark, tracks, store, track_idx):
    """Companion timing: the library component is far cheaper than the oracle."""
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    data = store.dataset(track)
    pool = store.pool(track)
    # Time the persisted library trunk when the full student head isn't in
    # memory (pools loaded from disk keep only the trunk, which is what all
    # task-specific models actually run).
    model = pool.library_student or pool.library
    batch = data.test.images[:128]
    benchmark(lambda: batched_forward(model, batch, batch_size=128))
