"""Deterministic replay of the payload tier's admission policy.

:func:`shifting_zipf_trace` is the seeded workload.  Two of the replay's
arms serve it through a real :class:`~repro.serving.ServingGateway`:
*static* (plain LRU: every miss is stored) and *doorkeeper* (the shipped
gateway, whose payload tier keeps a key from its second sighting,
:class:`~repro.serving.cache.Doorkeeper`).  The third arm is offline:
:func:`belady_builds`, the furthest-next-use schedule under the tier's
own byte charges.  Every count is a payload build (a tier miss), so each
arm reads as its share of the gap between LRU and the bound
(:meth:`SeedReport.share`), and :func:`verify_report` is the gate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.serving.cache import Doorkeeper
from repro.serving.gateway import GatewayConfig, ServingGateway

__all__ = [
    "ReplayReport",
    "SeedReport",
    "belady_builds",
    "replay_builds",
    "shifting_zipf_trace",
    "verify_report",
]

Query = Tuple[Tuple[str, ...], str]


def shifting_zipf_trace(
    task_names: Sequence[str],
    *,
    requests: int = 600,
    hot_size: int = 8,
    hot_fraction: float = 0.75,
    seed: int = 0,
) -> List[Query]:
    """A seeded shifting-Zipf trace of ``(names, "float32")`` requests.

    ``hot_fraction`` of the requests draw Zipf-weighted (skew 1.1) from a
    hot set of ``hot_size`` task pairs, which rotates to a disjoint set at
    the midpoint (``requests // 2``).  The rest cycle a large pool of cold
    composites (singles, pairs, triples), so each cold query is a
    near-certain cache miss under any online policy.
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
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(hot_size)]
    trace: List[Query] = []
    for i in range(requests):
        hot = hot_a if i < requests // 2 else hot_b
        if rng.random() < hot_fraction:
            query = rng.choices(hot, weights=weights)[0]
        else:
            query = next(cold)
        trace.append((tuple(query), "float32"))
    return trace


class _AdmitAll(Doorkeeper):
    """The static arm's payload tier: every miss is stored (plain LRU)."""

    def admit(self, key) -> bool:
        return True


def replay_builds(
    pool, trace: Sequence[Query], budget_bytes: int, *, doorkeeper: bool
) -> Tuple[int, Dict[Query, int]]:
    """``(builds, charges)``: serve ``trace`` through one single-worker
    gateway with a payload tier of ``budget_bytes``.

    ``builds`` is the tier's miss count.  ``charges`` maps each query to
    the bytes the tier charges its entry (the container head: the
    segments are the pool's), the sizes :func:`belady_builds` schedules.
    With ``doorkeeper`` False the tier admits every miss.
    """
    charges: Dict[Query, int] = {}
    config = GatewayConfig(max_workers=1, payload_cache_bytes=budget_bytes)
    with ServingGateway(pool, config) as gateway:
        if not doorkeeper:
            gateway._payload_doorkeeper = _AdmitAll(gateway.payload_cache)
        for query in trace:
            charges[query] = len(gateway.serve(*query).parts[0])
        return gateway.payload_cache.stats().misses, charges


def belady_builds(
    trace: Sequence[Query], charges: Dict[Query, int], budget_bytes: int
) -> int:
    """Builds of Belady's MIN with bypass under byte charges, offline.

    On a miss the new entry joins the residents, and while they exceed
    the budget the one whose next use is furthest away leaves (the new
    entry itself included: a bypass; among entries never used again the
    largest leaves first).  With equal charges this is the optimum, exact.
    With unequal charges the optimum is NP-hard and this is an estimate:
    a feasible offline schedule, so the optimum builds no more than it,
    and possibly fewer.
    """
    n = len(trace)
    next_use = [0] * n
    upcoming: Dict[Query, int] = {}
    for i in range(n - 1, -1, -1):
        next_use[i] = upcoming.get(trace[i], n)  # n: never used again
        upcoming[trace[i]] = i
    resident: Dict[Query, int] = {}  # query -> its next use
    used = builds = 0
    for i, query in enumerate(trace):
        if query in resident:
            resident[query] = next_use[i]
            continue
        builds += 1
        resident[query] = next_use[i]
        used += charges[query]
        while used > budget_bytes:
            victim = max(resident, key=lambda q: (resident[q], charges[q]))
            used -= charges[victim]
            del resident[victim]
    return builds


@dataclass(frozen=True)
class SeedReport:
    """One seed's payload builds under each arm (counts only)."""

    seed: int
    static: int
    doorkeeper: int
    bound: int

    def share(self, builds: int) -> float:
        """The share of LRU's gap to the bound that ``builds`` closes
        (0.0 when there is no gap to close)."""
        gap = self.static - self.bound
        return (self.static - builds) / gap if gap else 0.0


@dataclass(frozen=True)
class ReplayReport:
    """The replay's arms on every seed."""

    seeds: Tuple[SeedReport, ...]

    def render(self) -> str:
        header = "seed | static-lru | doorkeeper | bound | doorkeeper share"
        lines = [header, "-" * len(header)]
        for row in self.seeds:
            lines.append(
                f"{row.seed:4d} | {row.static:10d} | {row.doorkeeper:10d} | "
                f"{row.bound:5d} | {row.share(row.doorkeeper):16.3f}"
            )
        return "\n".join(lines)


def verify_report(report: ReplayReport, floor: float) -> None:
    """The gate: on every seed there is a gap to close, and the doorkeeper
    closes at least ``floor`` of it."""
    assert report.seeds, "the replay ran no seed"
    for row in report.seeds:
        assert row.static > row.bound, (
            f"seed {row.seed}: LRU's {row.static} builds leave no gap to the "
            f"bound's {row.bound}"
        )
        share = row.share(row.doorkeeper)
        assert share >= floor, (
            f"seed {row.seed}: the doorkeeper closes {share:.3f} of the gap, "
            f"under the floor {floor}"
        )
