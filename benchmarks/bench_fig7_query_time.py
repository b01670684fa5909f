"""Figure 7: time to build M(Q) as n(Q) grows, per method.

Shape to reproduce (artifact ``figure7`` in ``repro.eval.claims``):
training-based methods' time-to-best-accuracy grows with n(Q) (more data,
bigger students); PoE stays flat at ~0 regardless of n(Q).  Timed kernel:
building a query's model through ServingGateway.get_model with its model
cache off, so every call consolidates.
"""

import pytest

from repro.eval import claims, consolidation_times
from repro.serving import GatewayConfig, ServingGateway


@pytest.mark.parametrize("track_idx", [0, 1], ids=["synth-cifar", "synth-tiny"])
def test_fig7(benchmark, tracks, store, emit, track_idx):
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    result = consolidation_times(track, store)
    emit(f"fig7_{track.name}", claims.render("figure7", result, track.kind))
    claims.check("figure7", result)

    # Timed kernel: a full query through the service API.
    pool = store.pool(track)
    data = store.dataset(track)
    tasks = list(track.selected_tasks(data.hierarchy)[:5])
    with ServingGateway(pool, GatewayConfig(model_cache_bytes=0)) as gateway:
        benchmark(lambda: gateway.get_model(tasks))
