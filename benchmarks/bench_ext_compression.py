"""Extension bench: stacking quantization/pruning on PoE (paper §2 claim).

The paper positions KD as orthogonal to quantization and pruning.  This
bench extends Table 4 (artifacts ``ext_compression`` and ``ext_pruning``
in ``repro.eval.claims``): experts shipped as affine-uint8 shrink the
pool a further ~4x with negligible prediction churn, and magnitude-pruned
experts shrink the sparse encoding further.  Timed kernel: serializing a
model payload for shipping (the server's per-query byte cost).
"""

import pytest

from repro.compress import (
    magnitude_prune,
    quantize_state,
    quantized_nbytes,
    sparse_nbytes,
)
from repro.core import deserialize_task_model
from repro.eval import claims
from repro.nn import state_dict_nbytes
from repro.serving import ServingGateway


@pytest.mark.parametrize("track_idx", [0], ids=["synth-cifar"])
def test_compression_stacks_with_poe(benchmark, tracks, store, emit, track_idx):
    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    pool = store.pool(track)
    data = store.dataset(track)
    tasks = list(track.selected_tasks(data.hierarchy)[:2])
    with ServingGateway(pool) as gateway:
        full = gateway.serve(tasks)
        packed = gateway.serve(tasks, transport="uint8")
        # the timed kernel: a repeat shipment of one composite
        benchmark(lambda: gateway.serve(tasks, transport="uint8"))
    model_full = deserialize_task_model(full.payload)
    model_packed = deserialize_task_model(packed.payload)
    x = data.test.images[:200]

    # raw state-dict accounting per expert
    expert_state = pool.experts[tasks[0]].state_dict()
    result = {
        "float32_bytes": full.payload_bytes,
        "uint8_bytes": packed.payload_bytes,
        "agreement": float((model_full.predict(x) == model_packed.predict(x)).mean()),
        "expert_raw_bytes": state_dict_nbytes(expert_state),
        "expert_uint8_bytes": quantized_nbytes(quantize_state(expert_state)),
    }
    emit(f"ext_compression_{track.name}", claims.render("ext_compression", result))
    claims.check("ext_compression", result)


@pytest.mark.parametrize("track_idx", [0], ids=["synth-cifar"])
def test_pruning_shrinks_expert_storage(benchmark, tracks, store, emit, track_idx):
    """Magnitude pruning at 50% halves the sparse encoding of an expert
    while keeping its standalone accuracy close (orthogonality claim)."""
    from repro.eval.metrics import specialized_accuracy
    from repro.models import BranchedSpecialistNet, WRNHead

    if track_idx >= len(tracks):
        pytest.skip("track not selected via REPRO_BENCH_TRACKS")
    track = tracks[track_idx]
    pool = store.pool(track)
    data = store.dataset(track)
    name = track.selected_tasks(data.hierarchy)[0]
    task = data.hierarchy.task(name)

    # work on a copy so the shared pool stays pristine
    clone = WRNHead(
        track.depth, track.library_k, track.expert_ks, len(task),
        library_level=track.library_level,
    )
    clone.load_state_dict(pool.experts[name].state_dict())
    base_model = BranchedSpecialistNet(pool.library, [(name, clone)])
    base_model.eval()
    result = {
        "acc_before": specialized_accuracy(base_model, data.test, task),
        "dense_bytes": sparse_nbytes(clone.state_dict()),
    }
    magnitude_prune(clone, 0.5)
    result["acc_after"] = specialized_accuracy(base_model, data.test, task)
    result["sparse_bytes"] = sparse_nbytes(clone.state_dict())
    emit(f"ext_pruning_{track.name}", claims.render("ext_pruning", result))
    claims.check("ext_pruning", result)

    state = pool.experts[name].state_dict()
    benchmark(lambda: sparse_nbytes(state))
