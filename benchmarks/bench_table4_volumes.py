"""Table 4: storage volume of the PoE framework.

Shape to reproduce (artifact ``table4`` in ``repro.eval.claims``): pool
(library + all experts) ≪ oracle (paper: 20-30× smaller), and the estimate
for materialising all 2^n composite specialists explodes past everything
else.  Timed kernel: persisting the pool.
"""

import os

import pytest

from repro.core import ExpertStore
from repro.eval import claims


@pytest.mark.parametrize("track_idx", [0, 1], ids=["synth-cifar", "synth-tiny"])
def test_table4(benchmark, tracks, store, emit, track_idx):
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    pool = store.pool(track)
    oracle_model, _ = store.oracle(track)
    expert_store = ExpertStore(os.path.join(store.root, "models", track.cache_key(), "pool"))
    result = expert_store.volume_report(pool, oracle_model).as_dict()
    emit(f"table4_{track.name}", claims.render("table4", result, track.kind))
    claims.check("table4", result)

    # Timed kernel: serializing the whole pool to disk.
    target = os.path.join(store.root, "bench-tmp", f"pool-{track.name}")
    benchmark(lambda: ExpertStore(target).save(pool))
