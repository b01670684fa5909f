"""Table 4 runner and the extension artifacts built on the same pool.

* **Table 4** — raw byte volumes of the oracle, the library and every
  expert (:meth:`~repro.core.ExpertStore.volume_report`).
* **ext_compression** — the paper positions KD as orthogonal to
  quantization (§2): the first two selected tasks' composite served as
  float32 and as affine-uint8 payloads, their prediction agreement on 200
  test images, and one expert's raw against its uint8 state.
* **ext_pruning** — 50% magnitude pruning of a copy of the first selected
  task's expert: its accuracy and sparse encoding before and after.
* **ext_library_level** — the library depth ℓ (§4.1), which the paper
  introduces as a size/accuracy knob but evaluates only at ℓ=3: the
  track's own pool (ℓ=3) against one extracted at ℓ=2 over the same
  oracle.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..compress import magnitude_prune, quantize_state, quantized_nbytes, sparse_nbytes
from ..core import ExpertStore, deserialize_task_model
from ..models import BranchedSpecialistNet, WRNHead, count_params
from ..nn import state_dict_nbytes
from .artifacts import ArtifactStore
from .experiments import TrackConfig
from .metrics import specialized_accuracy

__all__ = ["volume_table", "compression_result", "pruning_result", "library_level_table"]


def volume_table(track: TrackConfig, store: ArtifactStore) -> Dict:
    """Table 4: the track's storage volumes."""
    oracle_model, _ = store.oracle(track)
    report = ExpertStore(store.pool_dir(track)).volume_report(store.pool(track), oracle_model)
    return report.as_dict()


def compression_result(track: TrackConfig, store: ArtifactStore) -> Dict:
    """``ext_compression``: uint8 against float32 payloads and expert state."""
    from ..serving import ServingGateway

    def compute() -> Dict:
        pool, data = store.pool(track), store.dataset(track)
        tasks = list(track.selected_tasks(data.hierarchy)[:2])
        with ServingGateway(pool) as gateway:
            full = gateway.serve(tasks)
            packed = gateway.serve(tasks, transport="uint8")
        images = data.test.images[:200]
        agree = (deserialize_task_model(full.payload).predict(images)
                 == deserialize_task_model(packed.payload).predict(images))
        expert_state = pool.experts[tasks[0]].state_dict()
        return {
            "float32_bytes": full.payload_bytes,
            "uint8_bytes": packed.payload_bytes,
            "agreement": float(agree.mean()),
            "expert_raw_bytes": state_dict_nbytes(expert_state),
            "expert_uint8_bytes": quantized_nbytes(quantize_state(expert_state)),
        }

    return store.result(track, "extensions", "compression", compute)


def pruning_result(track: TrackConfig, store: ArtifactStore) -> Dict:
    """``ext_pruning``: one expert before and after 50% magnitude pruning
    (of a copy: the pool stays as built)."""

    def compute() -> Dict:
        pool, data = store.pool(track), store.dataset(track)
        name = track.selected_tasks(data.hierarchy)[0]
        task = data.hierarchy.task(name)
        clone = WRNHead(track.depth, track.library_k, track.expert_ks, len(task),
                        library_level=track.library_level)
        clone.load_state_dict(pool.experts[name].state_dict())
        model = BranchedSpecialistNet(pool.library, [(name, clone)])
        model.eval()
        result = {"acc_before": specialized_accuracy(model, data.test, task),
                  "dense_bytes": sparse_nbytes(clone.state_dict())}
        magnitude_prune(clone, 0.5)
        result["acc_after"] = specialized_accuracy(model, data.test, task)
        result["sparse_bytes"] = sparse_nbytes(clone.state_dict())
        return result

    return store.result(track, "extensions", "pruning", compute)


def library_level_table(track: TrackConfig, store: ArtifactStore) -> Dict:
    """``ext_library_level``: per ℓ in (3, 2), the experts' mean accuracy
    over the selected tasks and the size of the first three's composite."""

    def compute() -> Dict:
        data = store.dataset(track)
        tasks = track.selected_tasks(data.hierarchy)
        levels = []
        for level in (3, 2):
            pool = store.pool(track, library_level=level)
            accs = []
            for name in tasks:
                model, composite = pool.consolidate([name])
                accs.append(specialized_accuracy(model, data.test, composite))
            model, _ = pool.consolidate(list(tasks[:3]))
            levels.append({
                "level": level,
                "accuracy": float(np.mean(accs)),
                "library_params": count_params(pool.library),
                "model_params": count_params(model),
            })
        return {"levels": levels}

    return store.result(track, "extensions", "library_level", compute)
