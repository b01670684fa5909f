"""Figure 7: time to build M(Q) as n(Q) grows, per method.

Shape to reproduce: training-based methods' time-to-best-accuracy grows
with n(Q) (more data, bigger students); PoE stays flat at ~0 regardless of
n(Q).  Timed kernel: building a query's model through ServingGateway.get_model
with its model cache off, so every call consolidates.
"""

import pytest

from repro.eval import consolidation_times, render_table
from repro.serving import GatewayConfig, ServingGateway


@pytest.mark.parametrize("track_idx", [0, 1], ids=["synth-cifar", "synth-tiny"])
def test_fig7(benchmark, tracks, store, emit, track_idx):
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    rows = consolidation_times(track, store)
    by_method = {}
    for row in rows:
        by_method.setdefault(row["method"], {})[row["n_q"]] = row["time_to_best_mean"]
    cells = [
        [method] + [f"{by_method[method][n]:.2f}s" for n in (2, 3, 4, 5)]
        for method in by_method
    ]
    emit(
        f"fig7_{track.name}",
        render_table(
            ["Method", "n(Q)=2", "n(Q)=3", "n(Q)=4", "n(Q)=5"],
            cells,
            title=f"Figure 7 ({track.name}): wall-clock to best accuracy per query",
        ),
    )

    # Shape: PoE is orders of magnitude faster than every training method
    # at every n(Q), and stays flat as n(Q) grows.
    for n in (2, 3, 4, 5):
        poe = by_method["poe"][n]
        for method, series in by_method.items():
            if method == "poe":
                continue
            assert poe < series[n] / 10, (method, n)
    assert by_method["poe"][5] < 0.05

    # Timed kernel: a full query through the service API.
    pool = store.pool(track)
    data = store.dataset(track)
    tasks = list(track.selected_tasks(data.hierarchy)[:5])
    with ServingGateway(pool, GatewayConfig(model_cache_bytes=0)) as gateway:
        benchmark(lambda: gateway.get_model(tasks))
