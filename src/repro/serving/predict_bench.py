"""Measurement harness for the prediction fast path.

One benchmark recipe shared by ``benchmarks/bench_predict_throughput.py``
(which *asserts* on the record) and the ``repro predict-bench`` CLI (which
emits the ``BENCH_predict.json`` trajectory): build an ``M(Q)`` with
``n(Q)`` heads, then time

* the per-head Python loop vs the fused bank on identical trunk features,
  checking ``allclose`` along the way;
* the autograd trunk vs the **compiled** eval-mode trunk
  (:class:`repro.nn.fused.FusedTrunk`), also ``allclose``-checked;
* end-to-end prediction — loop path, fused path with a cold trunk
  (compiled trunk + fused heads, no caches warm), fused path with the
  trunk-feature cache warm, and a fully repeated request served from the
  prediction-result cache — through a real
  :class:`~repro.serving.ServingGateway`.

Timings are medians over ``reps`` runs after warmup, so one scheduler
hiccup cannot flip a gate.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.query import TaskSpecificModel
from ..distill.caches import batched_forward
from ..tensor import Tensor, no_grad

__all__ = [
    "run_predict_benchmark",
    "append_benchmark_record",
    "predict_report_rows",
    "run_metadata",
]


def _median_ms(fn, reps: int, warmup: int = 3) -> float:
    for _ in range(warmup):
        fn()
    times: List[float] = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def run_predict_benchmark(
    pool,
    images: np.ndarray,
    n_heads: int = 8,
    batch_size: int = 64,
    reps: int = 30,
) -> Dict[str, object]:
    """Benchmark fused vs per-head-loop prediction on ``pool``.

    ``images`` supplies the pixel distribution (tiled to ``batch_size``);
    ``n_heads`` picks how many experts the composite query spans.  Returns
    a plain-JSON record; asserting on it is the caller's business.
    """
    names = sorted(pool.expert_names())[:n_heads]
    if len(names) < n_heads:
        raise ValueError(f"pool has {len(names)} experts, need {n_heads}")
    network, composite = pool.consolidate(names)
    model = TaskSpecificModel(network, composite)
    reps_needed = int(np.ceil(batch_size / images.shape[0]))
    batch = np.concatenate([images] * reps_needed, axis=0)[:batch_size]
    batch = np.ascontiguousarray(batch, dtype=np.float32)

    features = batched_forward(network.trunk, batch)
    features_t = Tensor(features)
    bank = network.fused_bank()
    compiled_trunk = network.fused_trunk()  # verified allclose at compile

    def loop_heads() -> np.ndarray:
        with no_grad():
            sub = [head(features_t) for head in network.heads]
            return Tensor.concatenate(sub, axis=1).numpy()

    loop_logits = loop_heads()
    fused_logits = bank(features)
    heads_max_diff = float(np.abs(loop_logits - fused_logits).max())
    heads_allclose = bool(np.allclose(loop_logits, fused_logits, rtol=1e-4, atol=1e-5))

    fused_features = compiled_trunk(batch)
    trunk_max_diff = float(np.abs(features - fused_features).max())
    trunk_allclose = bool(
        np.allclose(features, fused_features, rtol=1e-4, atol=1e-5)
    )

    loop_heads_ms = _median_ms(loop_heads, reps)
    fused_heads_ms = _median_ms(lambda: bank(features), reps)
    # trunk mode: the autograd engine vs the compiled NHWC program
    trunk_autograd_ms = _median_ms(lambda: batched_forward(network.trunk, batch), reps)
    trunk_fused_ms = _median_ms(lambda: compiled_trunk(batch), reps)

    # end to end through the gateway: cold trunk vs warm trunk-feature
    # cache (result cache off so the arms measure compute, not memoing)
    from .gateway import GatewayConfig, ServingGateway

    loop_e2e_ms = _median_ms(lambda: model.logits(batch).argmax(axis=1), reps)
    with ServingGateway(
        pool, GatewayConfig(max_workers=1, result_cache_bytes=0)
    ) as gateway:
        cold_ms = _median_ms(
            lambda: (gateway.trunk_cache.clear(), gateway.predict(batch, names)),
            reps,
        )
        # entries are stored on a batch's second sighting: warm by two
        for _ in range(2):
            gateway.predict(batch, names)
        gateway.trunk_cache.reset_stats()  # report the warm phase's hit rate
        warm_ms = _median_ms(lambda: gateway.predict(batch, names), reps)
        trunk_stats = gateway.trunk_cache.stats()
    # fourth arm: the fully repeated request (prediction-result cache hit)
    with ServingGateway(pool, GatewayConfig(max_workers=1)) as gateway:
        for _ in range(2):  # populate
            gateway.predict(batch, names)
        result_hit_ms = _median_ms(lambda: gateway.predict(batch, names), reps)

    return {
        "n_heads": n_heads,
        "batch_size": batch_size,
        "reps": reps,
        "allclose": heads_allclose and trunk_allclose,
        "max_abs_diff": heads_max_diff,
        "heads": {
            "loop_ms": loop_heads_ms,
            "fused_ms": fused_heads_ms,
            "speedup": loop_heads_ms / fused_heads_ms if fused_heads_ms else 0.0,
            "allclose": heads_allclose,
        },
        "trunk": {
            "autograd_ms": trunk_autograd_ms,
            "fused_ms": trunk_fused_ms,
            "speedup": trunk_autograd_ms / trunk_fused_ms if trunk_fused_ms else 0.0,
            "allclose": trunk_allclose,
            "max_abs_diff": trunk_max_diff,
        },
        "end_to_end": {
            "loop_ms": loop_e2e_ms,
            "fused_cold_ms": cold_ms,
            "fused_warm_ms": warm_ms,
            "result_hit_ms": result_hit_ms,
            "cold_speedup": loop_e2e_ms / cold_ms if cold_ms else 0.0,
            "warm_speedup": loop_e2e_ms / warm_ms if warm_ms else 0.0,
            "result_speedup": loop_e2e_ms / result_hit_ms if result_hit_ms else 0.0,
        },
        "trunk_cache": {
            "hits": trunk_stats.hits,
            "misses": trunk_stats.misses,
            "hit_rate": trunk_stats.hit_rate,
        },
    }


def predict_report_rows(record: Dict[str, object]) -> Tuple[List[List[str]], str]:
    """``(rows, title)`` for rendering one benchmark record as a table.

    Single source for the CLI and the pytest benchmark, so the report
    layout cannot drift from the record schema.
    """
    heads, e2e = record["heads"], record["end_to_end"]
    trunk = record.get("trunk")
    rows = [
        ["heads: per-head loop", f"{heads['loop_ms']:.3f}", ""],
        ["heads: fused bank", f"{heads['fused_ms']:.3f}", f"{heads['speedup']:.1f}x"],
    ]
    if trunk is not None:  # records predating the compiled trunk lack it
        rows += [
            ["trunk: autograd", f"{trunk['autograd_ms']:.3f}", ""],
            ["trunk: compiled", f"{trunk['fused_ms']:.3f}", f"{trunk['speedup']:.1f}x"],
        ]
    rows += [
        ["e2e: loop predict", f"{e2e['loop_ms']:.3f}", ""],
        ["e2e: fused, cold trunk", f"{e2e['fused_cold_ms']:.3f}", f"{e2e['cold_speedup']:.1f}x"],
        ["e2e: fused, warm trunk", f"{e2e['fused_warm_ms']:.3f}", f"{e2e['warm_speedup']:.1f}x"],
    ]
    if "result_hit_ms" in e2e:
        rows.append(
            ["e2e: result cache hit", f"{e2e['result_hit_ms']:.3f}", f"{e2e['result_speedup']:.1f}x"]
        )
    title = (
        f"Prediction fast path (n(Q)={record['n_heads']}, "
        f"batch={record['batch_size']}, allclose={record['allclose']}, "
        f"trunk hit rate {record['trunk_cache']['hit_rate']:.0%} warm)"
    )
    return rows, title


def run_metadata(**extra: object) -> Dict[str, object]:
    """Environment stamp for one benchmark run entry.

    Makes a trajectory interpretable after the fact: *when* the run
    happened, on how many cores, under which Python, and whether the
    relaxed-gates escape hatch (``REPRO_BENCH_RELAX``, set on shared CI
    runners) was active — a slow relaxed entry is noise, not a regression.
    ``extra`` keys (e.g. replica/hedge/chaos config for networked runs)
    are folded into the stamp; they must be JSON-safe.
    """
    import platform
    from datetime import datetime, timezone

    meta: Dict[str, object] = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "relax": bool(os.environ.get("REPRO_BENCH_RELAX")),
    }
    meta.update(extra)
    return meta


def append_benchmark_record(
    path: str, record: Dict[str, object], label: Optional[str] = None
) -> Dict[str, object]:
    """Append ``record`` to the JSON trajectory at ``path`` (created if new).

    The file holds ``{"runs": [...]}`` so successive benchmark runs (one
    per PR in CI) accumulate into a perf trajectory instead of overwriting
    each other.  Every appended entry is stamped with :func:`run_metadata`
    under ``"meta"`` (unless the record already carries one); entries
    written before the stamp existed are left untouched — readers must
    treat ``"meta"`` as optional.  Returns the full document written.
    """
    doc: Dict[str, object] = {"runs": []}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                loaded = json.load(fh)
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                doc = loaded
        except (OSError, ValueError):
            pass  # corrupt trajectory: start fresh rather than crash a bench
    entry = dict(record)
    if label is not None:
        entry["label"] = label
    entry.setdefault("meta", run_metadata())
    doc["runs"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc
