"""Self-tuning benchmark driver: controller vs static hand-tuned budgets.

One pool, one deterministic shifting-Zipf trace, two arms:

* **static-lru** — a gateway with a deliberately tight payload budget and
  plain LRU eviction (the hand-tuned status quo);
* **self-tuned** — the *same* budget with a :class:`CacheController`
  attached: GDSF eviction/admission, periodic prefetch ticks, popularity
  driven by a step clock that advances a fixed ``dt`` per request (so the
  control loop sees identical time regardless of machine speed).

The trace keeps a Zipf-weighted hot set of composites slightly larger
than the cache and pollutes it with one-off cold queries; halfway through
the hot set rotates to a disjoint one.  Plain LRU lets cold pollution
evict hot payloads and pays a rebuild on every rotation re-request; the
controller denies admission to cold one-offs, protects hot entries, and
prefetches the new hot set as its popularity overtakes the decaying old
one.  ``repro autotune-bench`` and ``benchmarks/bench_self_tuning.py``
both run through :func:`run_self_tuning_benchmark`, gate on
:func:`verify_report` and append their run to ``BENCH_self_tuning.json``
with :func:`append_benchmark_record`.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..serving.gateway import GatewayConfig, ServingGateway
from .controller import CacheController, ControllerConfig

__all__ = [
    "ArmReport",
    "SelfTuningReport",
    "StepClock",
    "append_benchmark_record",
    "run_metadata",
    "run_self_tuning_benchmark",
    "shifting_workload_trace",
    "verify_report",
]


class StepClock:
    """Deterministic clock advanced explicitly (one fixed ``dt`` per event)."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = float(start)

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


def shifting_workload_trace(
    task_names: Sequence[str],
    *,
    requests: int = 600,
    hot_size: int = 8,
    hot_fraction: float = 0.75,
    skew: float = 1.1,
    seed: int = 0,
    transport: str = "float32",
) -> Tuple[List[Tuple[Tuple[str, ...], str]], int]:
    """A seeded shifting-Zipf trace: ``([(names, transport), ...], rotation_at)``.

    Phase 1 draws ``hot_fraction`` of requests Zipf-weighted from one set
    of ``hot_size`` task pairs; at ``rotation_at`` (the midpoint) the hot
    set rotates to a disjoint one.  The remaining requests cycle a large
    pool of cold composites (singles/pairs/triples) so each cold query is
    a near-guaranteed cache miss in *both* bench arms.
    """
    if requests < 2:
        raise ValueError("requests must be >= 2")
    names = sorted(task_names)
    pairs = list(itertools.combinations(names, 2))
    if len(pairs) < 2 * hot_size:
        raise ValueError(
            f"need >= {2 * hot_size} task pairs for two disjoint hot sets, "
            f"got {len(pairs)} from {len(names)} tasks"
        )
    rng = random.Random(seed)
    rng.shuffle(pairs)
    hot_a = pairs[:hot_size]
    hot_b = pairs[hot_size : 2 * hot_size]
    cold_pool = (
        [(name,) for name in names]
        + pairs[2 * hot_size :]
        + list(itertools.combinations(names, 3))
    )
    rng.shuffle(cold_pool)
    cold = itertools.cycle(cold_pool)
    weights = [1.0 / (rank + 1) ** skew for rank in range(hot_size)]
    rotation_at = requests // 2
    trace: List[Tuple[Tuple[str, ...], str]] = []
    for i in range(requests):
        hot = hot_a if i < rotation_at else hot_b
        if rng.random() < hot_fraction:
            query = rng.choices(hot, weights=weights)[0]
        else:
            query = next(cold)
        trace.append((tuple(query), transport))
    return trace, rotation_at


@dataclass(frozen=True)
class ArmReport:
    """One bench arm's outcome."""

    label: str
    requests: int
    elapsed_s: float
    qps: float
    payload_hit_rate: float
    payload_hits: int
    payload_misses: int
    evictions: int
    score_evictions: int
    rejections: int
    prefetch_builds: int
    prefetch_hits: int


@dataclass(frozen=True)
class SelfTuningReport:
    """Both arms plus the scenario that produced them."""

    static: ArmReport
    tuned: ArmReport
    rotation_at: int
    hot_size: int
    budget_payloads: int
    budget_bytes: int
    payload_bytes: int
    ticks: int

    @property
    def hit_rate_gain(self) -> float:
        """Absolute payload hit-rate advantage of the controller arm."""
        return self.tuned.payload_hit_rate - self.static.payload_hit_rate

    @property
    def qps_ratio(self) -> float:
        return self.tuned.qps / self.static.qps if self.static.qps else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "static": asdict(self.static),
            "tuned": asdict(self.tuned),
            "rotation_at": self.rotation_at,
            "hot_size": self.hot_size,
            "budget_payloads": self.budget_payloads,
            "budget_bytes": self.budget_bytes,
            "payload_bytes": self.payload_bytes,
            "ticks": self.ticks,
            "hit_rate_gain": round(self.hit_rate_gain, 4),
            "qps_ratio": round(self.qps_ratio, 3),
        }

    def render(self) -> str:
        rows = [
            (
                arm.label,
                f"{arm.qps:8.1f}",
                f"{arm.payload_hit_rate:8.1%}",
                f"{arm.payload_hits:5d}",
                f"{arm.evictions:5d}",
                f"{arm.score_evictions:5d}",
                f"{arm.rejections:5d}",
                f"{arm.prefetch_builds:5d}",
                f"{arm.prefetch_hits:5d}",
            )
            for arm in (self.static, self.tuned)
        ]
        header = (
            "arm         |      qps | hit_rate |  hits | evict | score |  rej "
            "| pbuild |  phit"
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row[0]:<12}| {row[1]} | {row[2]} | {row[3]} | {row[4]} "
                f"| {row[5]} | {row[6]} | {row[7]}  | {row[8]}"
            )
        lines.append(
            f"hot_size={self.hot_size} budget={self.budget_payloads} payloads "
            f"({self.budget_bytes} B) rotation@{self.rotation_at} "
            f"ticks={self.ticks} gain={self.hit_rate_gain:+.1%} "
            f"qps_ratio={self.qps_ratio:.2f}x"
        )
        return "\n".join(lines)


def _arm_report(label: str, gateway: ServingGateway, elapsed: float, n: int) -> ArmReport:
    stats = gateway.payload_cache.stats()
    counters = gateway.metrics.snapshot().get("counters") or {}
    return ArmReport(
        label=label,
        requests=n,
        elapsed_s=round(elapsed, 4),
        qps=round(n / elapsed, 2) if elapsed > 0 else 0.0,
        payload_hit_rate=round(stats.hit_rate, 4),
        payload_hits=stats.hits,
        payload_misses=stats.misses,
        evictions=stats.evictions,
        score_evictions=stats.score_evictions,
        rejections=stats.rejections,
        prefetch_builds=int(counters.get("prefetch_builds", 0)),
        prefetch_hits=int(counters.get("prefetch_hits", 0)),
    )


def run_self_tuning_benchmark(
    pool,
    *,
    requests: int = 600,
    hot_size: int = 8,
    budget_payloads: int = 6,
    hot_fraction: float = 0.75,
    skew: float = 1.1,
    seed: int = 0,
    dt: float = 0.05,
    tick_every: int = 25,
    halflife_s: float = 2.5,
    transport: str = "float32",
    controller_config: Optional[ControllerConfig] = None,
) -> SelfTuningReport:
    """Run both arms over one trace and return the paired report.

    ``dt`` is the simulated seconds the controller's step clock advances
    per request and ``halflife_s`` is the popularity half-life in those
    simulated seconds (defaults: half-life = 50 requests), making the
    control loop's decisions machine-speed independent.  Wall-clock only
    enters through the reported qps and the measured build costs.
    """
    trace, rotation_at = shifting_workload_trace(
        pool.expert_names(),
        requests=requests,
        hot_size=hot_size,
        hot_fraction=hot_fraction,
        skew=skew,
        seed=seed,
        transport=transport,
    )
    # size the budget off one real payload entry so "fits ~N of the hot
    # set" holds for any model scale: what the tier charges an entry (its
    # container head; the segments are the pool's, shared by every entry)
    with ServingGateway(pool, GatewayConfig(max_workers=1)) as probe:
        payload_bytes = probe.serve(trace[0][0], transport).payload_bytes
        entry_bytes = probe.payload_cache.stats().current_bytes
    budget_bytes = budget_payloads * entry_bytes + entry_bytes // 2
    config = GatewayConfig(max_workers=1, payload_cache_bytes=budget_bytes)

    def drive(gateway, controller=None, clock=None) -> float:
        start = perf_counter()
        for i, (names, t) in enumerate(trace):
            if clock is not None:
                clock.advance(dt)
            gateway.serve(names, t)
            if controller is not None and (i + 1) % tick_every == 0:
                controller.tick()
        return perf_counter() - start

    with ServingGateway(pool, config) as gateway:
        static = _arm_report("static-lru", gateway, drive(gateway), len(trace))

    clock = StepClock()
    controller = CacheController(
        controller_config
        or ControllerConfig(
            popularity_halflife_s=halflife_s,
            prefetch_limit=4,
            # a cold one-off scores ~1.0 right after its single hit; this
            # floor keeps such noise out of the prefetch plan
            prefetch_min_score=1.2,
        ),
        clock=clock,
        seed=seed,
    )
    with ServingGateway(pool, config, controller=controller) as gateway:
        tuned = _arm_report(
            "self-tuned", gateway, drive(gateway, controller, clock), len(trace)
        )

    return SelfTuningReport(
        static=static,
        tuned=tuned,
        rotation_at=rotation_at,
        hot_size=hot_size,
        budget_payloads=budget_payloads,
        budget_bytes=budget_bytes,
        payload_bytes=payload_bytes,
        ticks=controller.ticks,
    )


def verify_report(report: SelfTuningReport, relaxed: bool) -> None:
    """The bench gate: the controller must strictly beat static budgets.

    Hit rate must be strictly higher and the controller must actually
    have acted (score evictions or admission denials, plus prefetches).
    The qps win is asserted un-relaxed; relaxed runs (shared CI runners)
    still require the controller arm not to collapse throughput.
    """
    static, tuned = report.static, report.tuned
    assert tuned.payload_hit_rate > static.payload_hit_rate, (
        f"controller hit rate {tuned.payload_hit_rate:.1%} must beat "
        f"static {static.payload_hit_rate:.1%}"
    )
    assert tuned.prefetch_builds > 0, "controller never prefetched"
    assert tuned.score_evictions + tuned.rejections > static.rejections, (
        "score hook never influenced eviction/admission"
    )
    if relaxed:
        assert report.qps_ratio > 0.5, (
            f"controller arm collapsed throughput: {report.qps_ratio:.2f}x"
        )
    else:
        assert report.qps_ratio > 1.0, (
            f"controller qps {tuned.qps} must beat static {static.qps} "
            f"({report.qps_ratio:.2f}x)"
        )


def run_metadata() -> Dict[str, object]:
    """Environment stamp for one benchmark run entry.

    Makes a trajectory interpretable after the fact: *when* the run
    happened, on how many cores, under which Python, and whether the
    relaxed-gates escape hatch (``REPRO_BENCH_RELAX``, set on shared CI
    runners) was active — a slow relaxed entry is noise, not a regression.
    """
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "relax": bool(os.environ.get("REPRO_BENCH_RELAX")),
    }


def append_benchmark_record(
    path: str, record: Dict[str, object], label: Optional[str] = None
) -> Dict[str, object]:
    """Append ``record`` to the JSON trajectory at ``path`` (created if new).

    The file holds ``{"runs": [...]}`` so successive benchmark runs (one
    per CI run) accumulate into a perf trajectory instead of overwriting
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
