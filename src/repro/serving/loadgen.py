"""Workload generation and load drivers for the serving gateway.

:class:`ZipfianWorkload` samples composite-task queries with Zipf-skewed
popularity over a finite universe of distinct task combinations — real
query traffic is heavy-tailed (a handful of composite tasks dominate), and
skew is exactly what a cache tier exploits, so benchmarks that draw
uniformly would under-report both hit rates and coalescing.

Two drivers exercise a gateway:

* :func:`run_closed_loop` — N client threads, each issuing its next query
  as soon as the previous one returns.  Measures sustained throughput
  under full back-pressure.
* :func:`run_open_loop` — queries submitted on a fixed schedule
  (``rate_qps``) regardless of completion, the standard way to observe
  tail latency under a target arrival rate; latency is measured from the
  *scheduled* start, so queue build-up shows up in p99 instead of being
  hidden by coordinated omission.

Both return a :class:`LoadReport` with throughput, latency percentiles and
cache/coalescing counters.

The drivers are duck-typed over any serving front end exposing
``serve``/``submit``, ``cache_stats()`` (with ``payload``/``model`` tiers)
and ``metrics.counter`` — a single :class:`~repro.serving.ServingGateway`
or a whole :class:`~repro.cluster.ClusterGateway` interchangeably, so the
same workload measures one process and a sharded cluster.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import percentile

__all__ = ["ZipfianWorkload", "LoadReport", "run_closed_loop", "run_open_loop"]

Query = Tuple[Tuple[str, ...], str]


class ZipfianWorkload:
    """Zipf-skewed sampler over distinct composite-task queries.

    The universe holds up to ``universe_size`` distinct task combinations of
    size 1..``max_query_size``, drawn by seeded shuffle *per size* and
    interleaved round-robin across sizes, so every size is represented
    whenever ``universe_size >= max_query_size``.  Popularity rank follows
    that order, and query ``r`` is sampled with probability proportional to
    ``1 / r**skew``.  Transports are drawn uniformly from ``transports``.
    """

    def __init__(
        self,
        task_names: Sequence[str],
        max_query_size: int = 3,
        skew: float = 1.1,
        universe_size: int = 64,
        transports: Sequence[str] = ("float32",),
        seed: int = 0,
    ) -> None:
        if not task_names:
            raise ValueError("workload needs at least one primitive task")
        if not 1 <= max_query_size <= len(task_names):
            raise ValueError("max_query_size must be within [1, len(task_names)]")
        if skew < 0:
            raise ValueError("skew must be >= 0")
        if universe_size < 1:
            raise ValueError("universe_size must be >= 1")
        if not transports:
            raise ValueError("workload needs at least one transport")
        names = tuple(sorted(task_names))
        rng = np.random.default_rng(seed)
        per_size: List[List[Tuple[str, ...]]] = []
        for size in range(1, max_query_size + 1):
            combos = list(itertools.combinations(names, size))
            rng.shuffle(combos)
            per_size.append(combos)
        interleaved: List[Tuple[str, ...]] = []
        for round_combos in itertools.zip_longest(*per_size):
            interleaved.extend(c for c in round_combos if c is not None)
        self.queries: Tuple[Tuple[str, ...], ...] = tuple(interleaved[:universe_size])
        self.transports = tuple(transports)
        self.skew = skew
        self.seed = seed
        ranks = np.arange(1, len(self.queries) + 1, dtype=np.float64)
        weights = ranks ** -skew
        self._probs = weights / weights.sum()

    def popularity(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Queries with their sampling probability, most popular first."""
        return list(zip(self.queries, self._probs))

    def sample(self, n: int, seed: Optional[int] = None) -> List[Query]:
        """Draw ``n`` queries deterministically for the given seed."""
        rng = np.random.default_rng(self.seed + 1 if seed is None else seed)
        picks = rng.choice(len(self.queries), size=n, p=self._probs)
        transports = rng.integers(0, len(self.transports), size=n)
        return [
            (self.queries[q], self.transports[t]) for q, t in zip(picks, transports)
        ]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ZipfianWorkload(universe={len(self.queries)}, skew={self.skew}, "
            f"transports={self.transports})"
        )


@dataclass
class LoadReport:
    """Outcome of one load-driver run against a gateway."""

    mode: str
    requests: int
    errors: int
    elapsed_seconds: float
    throughput_qps: float
    latency: Dict[str, float]
    coalesced: int
    payload_hit_rate: float
    offered_qps: Optional[float] = None
    extras: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"{self.mode} load: {self.requests} requests in "
            f"{self.elapsed_seconds:.2f}s -> {self.throughput_qps:,.0f} qps"
            + (f" (offered {self.offered_qps:,.0f} qps)" if self.offered_qps else ""),
            "  latency: "
            + "  ".join(
                f"{k}={1e3 * self.latency[k]:.3f}ms"
                for k in ("mean", "p50", "p95", "p99")
                if k in self.latency
            ),
            f"  cache: payload_hit_rate={self.payload_hit_rate:.1%} "
            f"coalesced={self.coalesced}",
        ]
        if self.errors:
            lines.append(f"  errors: {self.errors}")
        return "\n".join(lines)


def _delta_hit_rate(before, after) -> float:
    """Hit rate over the lookups made between two CacheStats snapshots."""
    hits = after.hits - before.hits
    lookups = hits + (after.misses - before.misses)
    return hits / lookups if lookups else 0.0


def _summarize(
    gateway,
    mode: str,
    latencies: List[float],
    errors: int,
    elapsed: float,
    stats_before,
    coalesced_before: int,
    offered_qps: Optional[float] = None,
) -> LoadReport:
    stats = gateway.cache_stats()
    summary = (
        {
            "mean": float(np.mean(latencies)),
            "p50": percentile(latencies, 50),
            "p95": percentile(latencies, 95),
            "p99": percentile(latencies, 99),
            "max": max(latencies),
        }
        if latencies
        else {}
    )
    return LoadReport(
        mode=mode,
        requests=len(latencies),
        errors=errors,
        elapsed_seconds=elapsed,
        throughput_qps=len(latencies) / elapsed if elapsed > 0 else 0.0,
        latency=summary,
        coalesced=gateway.metrics.counter("coalesced") - coalesced_before,
        payload_hit_rate=_delta_hit_rate(stats_before["payload"], stats["payload"]),
        offered_qps=offered_qps,
    )


def run_closed_loop(
    gateway,
    workload: ZipfianWorkload,
    clients: int = 4,
    requests_per_client: int = 50,
    seed: int = 0,
    via_submit: bool = False,
) -> LoadReport:
    """Drive the gateway with ``clients`` think-time-free client threads.

    With ``via_submit`` each request goes through ``gateway.submit`` and
    blocks on the future, so concurrency is bounded by the *gateway's*
    worker budget rather than the client thread count — that is how the
    cluster scaling benchmark measures serving capacity per shard count
    instead of load-generator parallelism.
    """
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be >= 1")
    plans = [
        workload.sample(requests_per_client, seed=seed + 7919 * i) for i in range(clients)
    ]
    latencies: List[List[float]] = [[] for _ in range(clients)]
    errors = [0] * clients
    barrier = threading.Barrier(clients + 1)
    stats_before = gateway.cache_stats()
    coalesced_before = gateway.metrics.counter("coalesced")

    def client(idx: int) -> None:
        barrier.wait()
        for tasks, transport in plans[idx]:
            start = perf_counter()
            try:
                if via_submit:
                    gateway.submit(tasks, transport).result()
                else:
                    gateway.serve(tasks, transport)
            except Exception:
                errors[idx] += 1
            else:
                latencies[idx].append(perf_counter() - start)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start
    return _summarize(
        gateway,
        "closed-loop",
        [lat for per_client in latencies for lat in per_client],
        sum(errors),
        elapsed,
        stats_before,
        coalesced_before,
    )


def run_open_loop(
    gateway,
    workload: ZipfianWorkload,
    rate_qps: float = 200.0,
    duration_seconds: float = 2.0,
    seed: int = 0,
) -> LoadReport:
    """Submit queries on a fixed schedule and measure scheduled-start latency."""
    if rate_qps <= 0 or duration_seconds <= 0:
        raise ValueError("rate_qps and duration_seconds must be positive")
    total = max(1, int(rate_qps * duration_seconds))
    plan = workload.sample(total, seed=seed + 104729)
    finish_times: Dict[int, float] = {}
    finished = threading.Semaphore(0)

    def on_done(index: int):
        def callback(_future) -> None:
            finish_times[index] = perf_counter()
            finished.release()

        return callback

    stats_before = gateway.cache_stats()
    coalesced_before = gateway.metrics.counter("coalesced")
    futures = []
    start = perf_counter()
    for i, (tasks, transport) in enumerate(plan):
        target = start + i / rate_qps
        delay = target - perf_counter()
        if delay > 0:
            sleep(delay)
        future = gateway.submit(tasks, transport)
        future.add_done_callback(on_done(i))
        futures.append((i, target, future))
    for _ in futures:
        finished.acquire()
    elapsed = perf_counter() - start

    latencies: List[float] = []
    errors = 0
    for i, target, future in futures:
        if future.exception() is not None:
            errors += 1
        else:
            latencies.append(max(0.0, finish_times[i] - target))
    return _summarize(
        gateway,
        "open-loop",
        latencies,
        errors,
        elapsed,
        stats_before,
        coalesced_before,
        offered_qps=rate_qps,
    )
